"""Reference kernels used to generate response matrices and to serve as baselines.

The truncated-L1 (TL1) and log kernels are indefinite: their Gram matrices can
have negative eigenvalues.  The ideal kernel is the label outer product
``y yᵀ`` and only exists on indexed training points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, UnsupportedEvaluation


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


def eval_kernel(spec: KernelSpec, x, x2) -> float:
    """Evaluate a functional kernel at a single pair of points.

    Parameters
    ----------
    spec : KernelSpec
        One of GaussianRBF, TL1, LogKernel.  Ideal has no functional form
        and raises ``UnsupportedEvaluation``.
    x, x2 : array-like
        Feature vectors of equal dimension.
    """
    if isinstance(spec, Ideal):
        raise UnsupportedEvaluation(
            f"{type(spec).__name__} is defined only on indexed training points"
        )
    x = np.asarray(x, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    if x.shape != x2.shape:
        raise InvalidInput(f"dimension mismatch: {x.shape} vs {x2.shape}")
    if isinstance(spec, GaussianRBF):
        d2 = float(np.sum((x - x2) ** 2))
        return math.exp(-d2 / (2.0 * spec.sigma2))
    if isinstance(spec, TL1):
        d1 = float(np.sum(np.abs(x - x2)))
        return max(spec.tau - d1, 0.0)
    if isinstance(spec, LogKernel):
        d = math.sqrt(float(np.sum((x - x2) ** 2)))
        return -math.log(1.0 + d / spec.sigma)
    raise InvalidInput(f"unknown kernel spec {spec!r}")


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Symmetric Gram matrix with entry (i, j) = k(x_i, x_j).

    The strict upper triangle is computed once and mirrored, so the output is
    exactly symmetric.  For ``Ideal`` the entries are +1 / -1 by label
    agreement (``y yᵀ`` for binary ±1 labels); ``X`` is only used for its
    length there.
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
    m = X.shape[0]
    if m < 1:
        raise InvalidInput("empty input")
    K = np.empty((m, m), dtype=float)
    for i in range(m):
        K[i, i] = eval_kernel(spec, X[i], X[i])
        for j in range(i + 1, m):
            v = eval_kernel(spec, X[i], X[j])
            K[i, j] = v
            K[j, i] = v
    return K
