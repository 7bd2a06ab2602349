"""The Gaussian hyper-kernel and its Gram matrix over indexed sample pairs.

A hyper-kernel is a positive-definite function of two *pairs* of points.  The
one implemented here is a product of three scaled Gaussian factors: one per
pair, plus one between the two pair midpoints.  Because of that product form
the full matrix over n enumerated pairs factorizes as

    K[k, l] = g[k] * g[l] * H[k, l]

where ``g[k]`` is the within-pair factor of pair k and ``H`` is the Gram of a
scaled Gaussian over the pair midpoints.  Assembly exploits this: it is
vectorized, exactly symmetric, and positive semi-definite up to roundoff
(a Schur product of a rank-one PSD matrix with a Gaussian Gram).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ResourceLimit

# Row-block size for midpoint distance matrices; bounds peak memory at
# _CHUNK * n * dim floats during assembly.
_CHUNK = 256

DEFAULT_MAX_ENTRIES = 100_000_000


@dataclass(frozen=True)
class HyperKernelParams:
    """Scales of the Gaussian hyper-kernel.

    ``sigma2`` scales the two within-pair factors, ``sigma2 + sigma_h2``
    scales the midpoint factor (``sigma_h2`` controls how far apart two pairs
    may sit and still be considered related), ``dim`` is the feature
    dimension entering the normalizing prefactor.
    """

    sigma2: float
    sigma_h2: float
    dim: int

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise InvalidInput(f"sigma2 must be positive, got {self.sigma2}")
        if not self.sigma_h2 > 0:
            raise InvalidInput(f"sigma_h2 must be positive, got {self.sigma_h2}")
        if self.dim < 1:
            raise InvalidInput(f"dim must be >= 1, got {self.dim}")


def scaled_gaussian(x, x2, s2: float, dim: int) -> float:
    """Normalized Gaussian factor ``(2 pi s2)^(-dim/2) exp(-||x - x2||^2 / (2 s2))``."""
    x = np.asarray(x, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    if x.size != dim or x2.size != dim:
        raise InvalidInput(f"expected vectors of length {dim}, got {x.size} and {x2.size}")
    d2 = float(np.sum((x - x2) ** 2))
    return (2.0 * math.pi * s2) ** (-dim / 2.0) * math.exp(-d2 / (2.0 * s2))


def eval_hyper_kernel(params: HyperKernelParams, p1, p2) -> float:
    """Evaluate the hyper-kernel on two ordered point pairs.

    Strictly positive, symmetric under swapping ``p1`` with ``p2`` and under
    swapping the two points inside either pair.
    """
    (a, b), (c, d) = p1, p2
    s2 = params.sigma2
    sh = params.sigma2 + params.sigma_h2
    f1 = scaled_gaussian(a, b, s2, params.dim)
    f2 = scaled_gaussian(c, d, s2, params.dim)
    mid1 = (np.asarray(a, dtype=float) + np.asarray(b, dtype=float)) / 2.0
    mid2 = (np.asarray(c, dtype=float) + np.asarray(d, dtype=float)) / 2.0
    f3 = scaled_gaussian(mid1, mid2, sh, params.dim)
    return f1 * f2 * f3


def full_pair_list(m: int) -> np.ndarray:
    """All m^2 ordered pairs as 0-based index rows, in row-major order.

    Row k of the result is the pair ``divmod(k, m)``.
    """
    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    return np.column_stack([ii.ravel(), jj.ravel()])


@dataclass(frozen=True)
class HyperGram:
    """Assembled hyper-kernel matrix over an ordered pair list.

    ``entries`` is n x n, exactly symmetric; ``pair_list`` holds the 0-based
    (i, j) point indices each row/column represents; ``jitter_applied`` is the
    total diagonal shift added on top of the raw kernel values.
    """

    entries: np.ndarray
    pair_list: np.ndarray
    jitter_applied: float = 0.0

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        pairs = np.asarray(self.pair_list, dtype=np.intp)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvalidInput(f"entries must be square, got {entries.shape}")
        if pairs.ndim != 2 or pairs.shape != (entries.shape[0], 2):
            raise InvalidInput(
                f"pair_list shape {pairs.shape} does not match {entries.shape[0]} rows"
            )
        scale = max(1.0, float(np.abs(entries).max())) if entries.size else 1.0
        if entries.size and float(np.abs(entries - entries.T).max()) > 1e-12 * scale:
            raise InvalidInput("entries must be symmetric to 1e-12 relative tolerance")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "pair_list", pairs)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def with_jitter(self, amount: float) -> "HyperGram":
        """A copy with ``amount`` added to the diagonal (recorded cumulatively)."""
        shifted = self.entries + amount * np.eye(self.n)
        return HyperGram(shifted, self.pair_list, self.jitter_applied + amount)

    def base_jitter(self) -> float:
        """First rung of the jitter ladder: 1e-10 * trace / n."""
        return 1e-10 * float(np.trace(self.entries)) / max(self.n, 1)


def pair_factors(params: HyperKernelParams, A: np.ndarray, B: np.ndarray):
    """Within-pair Gaussian factors g and midpoints for the pairs (A[k], B[k])."""
    sq = np.sum((A - B) ** 2, axis=1)
    pref = (2.0 * math.pi * params.sigma2) ** (-params.dim / 2.0)
    g = pref * np.exp(-sq / (2.0 * params.sigma2))
    return g, (A + B) / 2.0


def midpoint_gram(params: HyperKernelParams, M1: np.ndarray, M2: np.ndarray):
    """The midpoint factor between every row of M1 and every row of M2."""
    sh = params.sigma2 + params.sigma_h2
    pref_h = (2.0 * math.pi * sh) ** (-params.dim / 2.0)
    # one expression: numpy then reuses the temporaries in place
    return pref_h * np.exp(
        -np.sum((M1[:, None, :] - M2[None, :, :]) ** 2, axis=2) / (2.0 * sh)
    )


def assemble_hyper_gram(
    params: HyperKernelParams,
    X,
    pairs=None,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> HyperGram:
    """Assemble the hyper-Gram matrix over the given (or all) ordered pairs.

    Parameters
    ----------
    params : HyperKernelParams
    X : array-like, shape (m, dim)
        Sample points.
    pairs : array-like of 0-based (i, j) rows, optional
        Explicit pair subset.  Omitted: all m^2 ordered pairs in row-major
        order.
    max_entries : int
        Cap on n^2; beyond it assembly refuses with ``ResourceLimit`` and the
        caller should go through the scaling module.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    m = X.shape[0]
    if m < 1:
        raise InvalidInput("empty input")
    if X.shape[1] != params.dim:
        raise InvalidInput(f"points have dimension {X.shape[1]}, params.dim={params.dim}")
    if pairs is None:
        pairs = full_pair_list(m)
    else:
        pairs = np.asarray(pairs, dtype=np.intp)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InvalidInput(f"pairs must be (n, 2), got {pairs.shape}")
        if pairs.size and (pairs.min() < 0 or pairs.max() >= m):
            raise InvalidInput("pair indices out of range")
    n = pairs.shape[0]
    if n * n > max_entries:
        raise ResourceLimit(
            f"hyper-Gram would hold {n * n} entries (cap {max_entries}); "
            "restrict pairs or use the scaling module"
        )

    g, M = pair_factors(params, X[pairs[:, 0]], X[pairs[:, 1]])
    K = np.empty((n, n), dtype=float)
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        K[a:b] = midpoint_gram(params, M[a:b], M)
    # outer(g, g) is bitwise symmetric; multiplying elementwise keeps K so
    K *= np.multiply.outer(g, g)
    return HyperGram(K, pairs)
