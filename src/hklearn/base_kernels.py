"""Reference kernels used to generate response matrices and to serve as baselines.

The truncated-L1 (TL1) and log kernels are indefinite: their Gram matrices can
have negative eigenvalues.  The ideal kernel is the label outer product
``y yᵀ`` and only exists on indexed training points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

# Row-block size of gram_matrix, in floats of pairwise differences
_BLOCK = 1 << 20


@dataclass(frozen=True)
class GaussianRBF:
    """``exp(-||x - x'||^2 / (2 sigma2))``."""

    sigma2: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise InvalidInput(f"sigma2 must be positive, got {self.sigma2}")


@dataclass(frozen=True)
class TL1:
    """Truncated L1 kernel ``max(tau - ||x - x'||_1, 0)``."""

    tau: float

    def __post_init__(self):
        if not self.tau > 0:
            raise InvalidInput(f"tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class LogKernel:
    """``-log(1 + ||x - x'|| / sigma)`` with the Euclidean (unsquared) norm."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise InvalidInput(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class Ideal:
    """Label kernel: +1 for same-class index pairs, -1 otherwise.

    For binary ±1 labels this is exactly ``y yᵀ``.  Defined only on indexed
    training points, never on raw feature vectors.
    """

    labels: tuple

    def __init__(self, labels):
        object.__setattr__(self, "labels", tuple(np.asarray(labels).tolist()))
        if len(self.labels) == 0:
            raise InvalidInput("labels must be nonempty")


KernelSpec = GaussianRBF | TL1 | LogKernel | Ideal


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Symmetric Gram matrix with entry (i, j) = k(x_i, x_j).

    Computed on whole arrays from the pairwise differences x_i - x_j, each
    summed over its coordinates by one ``np.sum``.  x_j - x_i is the
    exact negative of x_i - x_j, so each entry and its mirror come from the
    same arithmetic and the output is exactly symmetric.  For ``Ideal`` the
    entries are +1 / -1 by label agreement (``y yᵀ`` for binary ±1 labels);
    ``X`` is only used for its length there.
    """
    if isinstance(spec, Ideal):
        y = np.asarray(spec.labels)
        if len(y) == 0:
            raise InvalidInput("empty input")
        same = y[:, None] == y[None, :]
        return np.where(same, 1.0, -1.0)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] < 1:
        raise InvalidInput("empty input")
    if isinstance(spec, TL1):
        return np.maximum(spec.tau - _pair_sums(X, np.abs), 0.0)
    if isinstance(spec, GaussianRBF):
        return np.exp(-_pair_sums(X, np.square) / (2.0 * spec.sigma2))
    if isinstance(spec, LogKernel):
        return -np.log(1.0 + np.sqrt(_pair_sums(X, np.square)) / spec.sigma)
    raise InvalidInput(f"unknown kernel spec {spec!r}")


def _pair_sums(X: np.ndarray, f) -> np.ndarray:
    """sum_k f(X[i, k] - X[j, k]) for every i, j, a block of rows at a time."""
    m = X.shape[0]
    D = np.empty((m, m))
    step = max(1, _BLOCK // (m * X.shape[1]))
    for a in range(0, m, step):
        D[a:a + step] = np.sum(f(X[a:a + step, None, :] - X[None, :, :]), axis=2)
    return D
