"""The csv reader as one Python call per cell, kept as a test oracle.

``_parse_float`` and ``_read_csv_numbers`` are copied verbatim from
``hklearn.cli`` before its csv reader converted each file in one numpy call,
so tests can require the package's reader to return bitwise the same array
and raise the same message on every file.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from hklearn.errors import FormatError


def _parse_float(token: str, path, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"{path}:{lineno}: non-numeric {what} {token!r}") from None
    if not np.isfinite(value):
        raise FormatError(f"{path}:{lineno}: non-finite {what} {token!r}")
    return value


def _read_csv_numbers(path: Path, name: str) -> np.ndarray:
    """A csv file of numbers as a 2-d array, skipping blank rows.

    Every row must have the width of the first; ``name`` describes the file
    in the message for one with no rows.
    """
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            values = [_parse_float(c, path, lineno, "cell") for c in row]
            if rows and len(values) != len(rows[0]):
                raise FormatError(
                    f"{path}:{lineno}: expected {len(rows[0])} columns, "
                    f"found {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise FormatError(f"{path}: empty {name}")
    return np.array(rows)
