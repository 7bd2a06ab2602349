"""Exception types shared across the library, and :func:`utf8_input`, which
turns an input file's decoding failure into a ``FormatError``."""

from contextlib import contextmanager


class HklearnError(Exception):
    """Base class for all library errors."""


class InvalidInput(HklearnError):
    """An argument violates a documented precondition (shape, range, alignment)."""


class NumericalFailure(HklearnError):
    """A factorization or solve failed beyond repair (jitter retries exhausted)."""


class ConvergenceFailure(HklearnError):
    """An iterative solver stopped before reaching its optimality tolerance.

    Carries the worst remaining KKT violation in ``violation``.
    """

    def __init__(self, message: str, violation: float = float("nan")):
        super().__init__(message)
        self.violation = violation


class ResourceLimit(HklearnError):
    """A memory or size estimate exceeds the configured cap; use the scaling path."""


class FormatError(HklearnError):
    """An input file cannot be parsed (ragged rows, non-numeric cells, bad shape)."""


@contextmanager
def utf8_input(path):
    """Turn a UnicodeDecodeError while reading ``path`` into a FormatError
    naming the file: every input file must be UTF-8."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None


class PipelineFailure(HklearnError):
    """Every candidate in a search failed to fit."""


class SlopeUndefined(InvalidInput):
    """A log-log slope was requested with fewer than two sample sizes."""


class StratificationWarning(UserWarning):
    """A class is too small to stratify; the split falls back to unstratified."""
