"""The Gaussian hyper-kernel and its Gram matrix over indexed sample pairs.

A hyper-kernel is a positive-definite function of two *pairs* of points.  The
one implemented here is a product of three scaled Gaussian factors: one per
pair, plus one between the two pair midpoints.

The identity ||(x + x')/2 - c||^2 = ||x - c||^2/2 + ||x' - c||^2/2 - ||x - x'||^2/4
splits the midpoint factor into one factor per point: between a pair with
within-pair factor g and midpoint c and a query pair (x, x') the
hyper-kernel is g * cross_factor(||x - x'||^2) * point_factors(x, c) *
point_factors(x', c).  Both the Gram assembly and the learned kernel
evaluate through this form, so each query point costs one exponential per
expansion pair; :func:`eval_hyper_kernel` is the scalar reference.

The same form gives the product of the hyper-Gram with a vector without the
matrix: with Phi the point factors of the u sample points a pair list uses
at its n pair midpoints, (K v)_r = cross_r * (Phi diag(g * v) Phi')[i_r, j_r].
:class:`PairSystem` is the one type of a pair system: it holds g, cross and
Phi, applies K through them, and :func:`assemble_hyper_gram` fills its dense
matrix from the same factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, ResourceLimit

# Row-block size of the assembly; its temporaries hold a few _CHUNK * n
# floats.
_CHUNK = 256

# Column-block size of PairSystem.column_sum; its temporaries hold
# u * _COLUMN_BLOCK floats.
_COLUMN_BLOCK = 4096

# Row-block size of sq_dists, in floats: its one temporary holds at most
# max(_SQ_BLOCK, len(B)) of them.
_SQ_BLOCK = 65_536

# Cap on the n^2 entries of an assembled hyper-Gram, and on the u * n point
# factors of a PairSystem.
MAX_ENTRIES = 100_000_000


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
        # the normalizing prefactors of pair_factors and cross_factor, and
        # their product, the largest hyper-kernel value
        sh = self.sigma2 + self.sigma_h2
        try:
            pref = (2.0 * math.pi * self.sigma2) ** (-self.dim / 2.0)
            cross = (4.0 * math.pi**2 * self.sigma2 * sh) ** (-self.dim / 2.0)
        except (OverflowError, ZeroDivisionError):
            pref = cross = 0.0
        if not all(0.0 < f < math.inf for f in (pref, cross, pref * cross)):
            raise InvalidInput(
                f"scales sigma2={self.sigma2} and sigma_h2={self.sigma_h2} give a "
                f"hyper-kernel prefactor outside the doubles in dimension {self.dim}"
            )


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


def pair_factors(params: HyperKernelParams, A: np.ndarray, B: np.ndarray):
    """Within-pair Gaussian factors g and midpoints for the pairs (A[k], B[k])."""
    sq = np.sum((A - B) ** 2, axis=1)
    pref = (2.0 * math.pi * params.sigma2) ** (-params.dim / 2.0)
    g = pref * np.exp(-sq / (2.0 * params.sigma2))
    return g, (A + B) / 2.0


def sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every row of A and every row of B.

    Summed one coordinate at a time over blocks of rows of A, in one
    temporary of at most ``max(_SQ_BLOCK, len(B))`` floats, reused by every
    block: a fresh array of that size per block would be mapped and
    page-faulted anew each time.
    """
    D = np.zeros((A.shape[0], B.shape[0]))
    rows = max(1, _SQ_BLOCK // max(B.shape[0], 1))
    tmp = np.empty((min(rows, A.shape[0]), B.shape[0]))
    for a in range(0, A.shape[0], rows):
        block = D[a : a + rows]
        t = tmp[: block.shape[0]]
        for j in range(A.shape[1]):
            np.subtract.outer(A[a : a + rows, j], B[:, j], out=t)
            t *= t
            block += t
    return D


def point_factors(params: HyperKernelParams, X: np.ndarray, mids: np.ndarray):
    """The point factor exp(-||x - c||^2 / (4 (sigma2 + sigma_h2))).

    One row per row x of X, one column per midpoint c of ``mids``; computed
    in place, so the result is the only array of its size.
    """
    sh = params.sigma2 + params.sigma_h2
    D = sq_dists(X, mids)
    D /= -4.0 * sh
    return np.exp(D, out=D)


def cross_factor(params: HyperKernelParams, sq):
    """The query-pair factor p * exp(-kappa * sq) of squared distances sq.

    ``sq`` holds ||x - x'||^2 between the two points of query pairs, in any
    shape.  p is the product of the within-pair and midpoint prefactors and
    kappa = 1 / (2 sigma2) - 1 / (8 (sigma2 + sigma_h2)), which is positive,
    so the factor never exceeds p.
    """
    s2 = params.sigma2
    sh = s2 + params.sigma_h2
    p = (4.0 * math.pi**2 * s2 * sh) ** (-params.dim / 2.0)
    kappa = 1.0 / (2.0 * s2) - 1.0 / (8.0 * sh)
    return p * np.exp(sq * -kappa)


def assemble_hyper_gram(params: HyperKernelParams, X, pairs=None) -> PairSystem:
    """The pair system over the given (or all) ordered pairs, its dense Gram filled.

    Entry (r, s) of ``entries`` is cross_factor of pair r times g[s] times the
    point factors of both points of pair r at midpoint s, read from the
    system's own factors.  Each row block is filled from the diagonal on and
    mirrored, so the matrix is exactly symmetric; it is positive semi-definite
    up to roundoff.

    Parameters
    ----------
    params : HyperKernelParams
    X : array-like, shape (m, dim)
        Sample points.
    pairs : array-like of 0-based (i, j) rows, optional
        Explicit pair subset.  Omitted: all m^2 ordered pairs in row-major
        order.  A list with n^2 above ``MAX_ENTRIES`` raises ``ResourceLimit``.
    """
    system = PairSystem(params, X, pairs)
    n = system.n
    if n * n > MAX_ENTRIES:
        raise ResourceLimit(
            f"hyper-Gram would hold {n * n} entries (cap {MAX_ENTRIES}); "
            "restrict pairs or use the scaling module"
        )
    g, cross, phi, flat = system._factors
    rows, cols = np.divmod(flat, phi.shape[0])
    K = np.empty((n, n), dtype=float)
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        # rows a:b from column a on; columns before a mirror earlier blocks
        block = phi[rows[a:b], a:] * phi[cols[a:b], a:]
        block *= cross[a:b, None]
        block *= g[a:]
        diag = block[:, : b - a]
        block[:, : b - a] = np.triu(diag) + np.triu(diag, 1).T
        K[a:b, a:] = block
        K[a:, a:b] = block.T
    system.entries = K
    return system


class PairSystem:
    """The hyper-Gram K over a pair list, as an operator and as a dense matrix.

    Both read one set of pair-separable factors over the u points the list
    uses.  ``matvec`` applies K without the matrix: one GEMM of
    Phi diag(g * v) Phi' and a gather of its u x u result.  Phi holds u * n
    floats; above ``MAX_ENTRIES`` of them the factors raise ``ResourceLimit``.
    ``entries`` is the dense matrix, formed by :func:`assemble_hyper_gram` on
    first access (direct solves and the SVR factor or index it); ``diag``
    costs O(n) and returns a fresh array, ``column`` reads one column of K
    and ``column_sum`` the sum of a set of columns from the factors.

    ``pairs`` None stands for all m^2 ordered pairs in row-major order.
    """

    def __init__(self, params: HyperKernelParams, X, pairs=None):
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
        self.params, self.points, self.pair_list = params, X, pairs

    @property
    def n(self) -> int:
        return self.pair_list.shape[0]

    @cached_property
    def entries(self) -> np.ndarray:
        return assemble_hyper_gram(self.params, self.points, self.pair_list).entries

    @cached_property
    def _factors(self):
        """g, cross, Phi over the used points, and each pair's flat index in u x u."""
        used, local = np.unique(self.pair_list, return_inverse=True)
        u, n = used.size, self.n
        if u * n > MAX_ENTRIES:
            raise ResourceLimit(
                f"point factors would hold {u * n} entries (cap {MAX_ENTRIES}); "
                "restrict pairs or use the scaling module"
            )
        local = local.reshape(n, 2)
        X = self.points[used]
        A, B = X[local[:, 0]], X[local[:, 1]]
        g, mids = pair_factors(self.params, A, B)
        cross = cross_factor(self.params, np.sum((A - B) ** 2, axis=1))
        return g, cross, point_factors(self.params, X, mids), local[:, 0] * u + local[:, 1]

    def matvec(self, v) -> np.ndarray:
        g, cross, phi, flat = self._factors
        W = (phi * (g * np.ravel(v))) @ phi.T
        return cross * W.ravel()[flat]

    def column(self, s: int) -> np.ndarray:
        """Column s of K in O(u^2 + n): cross_r * Phi[i_r, s] * Phi[j_r, s] * g[s]."""
        g, cross, phi, flat = self._factors
        c = phi[:, s]
        return cross * np.outer(c, c * g[s]).ravel()[flat]

    def column_sum(self, cols) -> np.ndarray:
        """K 1_S, the sum of the columns S = ``cols`` of K, in O(u^2 |S| + n).

        (K 1_S)_r = cross_r * W[i_r, j_r] with W = Phi[:, S] diag(g[S]) Phi[:, S]',
        summed over blocks of ``_COLUMN_BLOCK`` columns.
        """
        g, cross, phi, flat = self._factors
        cols = np.asarray(cols, dtype=np.intp)
        W = np.zeros((phi.shape[0], phi.shape[0]))
        for a in range(0, cols.size, _COLUMN_BLOCK):
            block = cols[a : a + _COLUMN_BLOCK]
            sub = phi[:, block]
            W += (sub * g[block]) @ sub.T
        return cross * W.ravel()[flat]

    def diag(self) -> np.ndarray:
        """The diagonal of K in O(n).

        A pair's midpoint lies at squared distance sq / 4 from both of its
        points, so K_rr = cross_factor(sq) * g * exp(-sq / (8 (sigma2 + sigma_h2))).
        """
        A, B = self.points[self.pair_list[:, 0]], self.points[self.pair_list[:, 1]]
        g, _ = pair_factors(self.params, A, B)
        sq = np.sum((A - B) ** 2, axis=1)
        sh = self.params.sigma2 + self.params.sigma_h2
        return cross_factor(self.params, sq) * g * np.exp(sq / (-8.0 * sh))

    def base_jitter(self) -> float:
        """First rung of the jitter ladder: 1e-10 * trace / n, computed once per system."""
        return self._base_jitter

    @cached_property
    def _base_jitter(self) -> float:
        return 1e-10 * float(np.sum(self.diag())) / max(self.n, 1)
