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
at its pair midpoints, (K v)_r = cross_r * (Phi diag(g * v) Phi')[i_r, j_r].
The hyper-kernel is swap-symmetric, so a pair and its swap (and a repeated
pair) have one midpoint and one g: Phi holds one column per distinct
unordered pair (:func:`unordered_pairs`), and v is summed onto those columns
first.  :class:`PairSystem` is the one type of a pair system: it holds g,
cross and Phi, applies K through them, and :func:`assemble_hyper_gram` fills
its dense matrix from the same factors.  The same equal rows make the dense
matrix's eigendecomposition one of order c, the system's ``spectrum``, which
every direct ridge solve of it uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, NumericalFailure, ResourceLimit

# Row-block size of the assembly; its temporaries hold a few _CHUNK * n
# floats.
_CHUNK = 256

# Row-block size of sq_dists, in floats: its one temporary holds at most
# max(_SQ_BLOCK, len(B)) of them.
_SQ_BLOCK = 65_536

# Cap on the n^2 entries of an assembled hyper-Gram, and on the u * c point
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


def unordered_pairs(pairs, m: int):
    """The distinct unordered pairs {min, max} of a pair list over m points.

    Returns (distinct, col): ``distinct`` holds (min, max) rows in
    lexicographic order, and pair k of ``pairs`` is row ``col[k]`` of it, so a
    pair, its swap and its repeats share one row.
    """
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keys, col = np.unique(lo * m + hi, return_inverse=True)
    return np.column_stack(np.divmod(keys, m)), col


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
    g, cross, phi, flat, col = system._factors
    rows, cols = np.divmod(flat, phi.shape[0])
    # one column per pair: an O(u n) gather against the O(n^2) fill
    phi, g = phi[:, col], g[col]
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
    uses and its c distinct unordered pairs: a pair and its swap have equal
    columns of K, and Phi holds one column per unordered pair.  ``matvec``
    applies K without the matrix: v summed onto the c columns, one GEMM of
    Phi diag(g * v) Phi' and a gather of its u x u result.  Phi holds u * c
    floats; above ``MAX_ENTRIES`` of them the factors raise ``ResourceLimit``.
    ``entries`` is the dense matrix, formed by :func:`assemble_hyper_gram` on
    first access (the SVR indexes it), and ``spectrum`` its eigendecomposition,
    taken on first access (direct ridge solves use it); ``diag`` costs O(n)
    and returns a fresh array, ``column`` reads one column of K and
    ``column_sum`` the sum of a set of columns from the factors.

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
        """g over the distinct unordered pairs, cross per pair, Phi over the
        used points and the distinct pairs, each pair's flat index in u x u
        and its column of Phi."""
        used, local = np.unique(self.pair_list, return_inverse=True)
        local = local.reshape(self.n, 2)
        u = used.size
        distinct, col = unordered_pairs(local, u)
        c = distinct.shape[0]
        if u * c > MAX_ENTRIES:
            raise ResourceLimit(
                f"point factors would hold {u * c} entries (cap {MAX_ENTRIES}); "
                "restrict pairs or use the scaling module"
            )
        X = self.points[used]
        A, B = X[distinct[:, 0]], X[distinct[:, 1]]
        g, mids = pair_factors(self.params, A, B)
        cross = cross_factor(self.params, np.sum((A - B) ** 2, axis=1))[col]
        phi = point_factors(self.params, X, mids)
        return g, cross, phi, local[:, 0] * u + local[:, 1], col

    def matvec(self, v) -> np.ndarray:
        g, cross, phi, flat, col = self._factors
        w = np.bincount(col, weights=np.ravel(v), minlength=g.size)
        W = (phi * (g * w)) @ phi.T
        return cross * W.ravel()[flat]

    def column(self, s: int) -> np.ndarray:
        """Column s of K in O(u^2 + n): cross_r * Phi[i_r, k] * Phi[j_r, k] * g[k],
        with k the unordered pair of pair s."""
        g, cross, phi, flat, col = self._factors
        k = col[s]
        c = phi[:, k]
        return cross * np.outer(c, c * g[k]).ravel()[flat]

    def column_sum(self, cols) -> np.ndarray:
        """K 1_S, the sum of the columns S = ``cols`` of K, in O(u^2 |S| + n).

        (K 1_S)_r = cross_r * W[i_r, j_r] with W = Phi_T diag(g_T * w) Phi_T',
        over the distinct unordered pairs T of S, w counting the columns of S
        on each.
        """
        g, cross, phi, flat, col = self._factors
        T, w = np.unique(col[np.asarray(cols, dtype=np.intp)], return_counts=True)
        sub = phi[:, T]
        W = (sub * (g[T] * w)) @ sub.T
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

    @cached_property
    def base_jitter(self) -> float:
        """First rung of the jitter ladder: 1e-10 * trace / n."""
        return 1e-10 * float(np.sum(self.diag())) / max(self.n, 1)

    @cached_property
    def spectrum(self):
        """An eigendecomposition (w, V) of ``entries``: K = V diag(w) V'.

        A pair, its swap and its repeats have equal rows of K (to roundoff
        where the assembly mirrors), so K = P B P', with P the n x c indicator
        of the c distinct unordered pairs (:func:`unordered_pairs`) and B the
        block of K over one member of each.  With s the member counts, the
        eigendecomposition U diag(w) U' of B * sqrt(s) sqrt(s)' gives
        V = P U / sqrt(s), whose c orthonormal columns span the range of K:
        one eigh of order c, not n.  Every direct ridge solve of the system
        solves with it, so a grid of ridge weights shares one eigh.  An eigh
        that does not converge raises ``NumericalFailure``.
        """
        _, col = unordered_pairs(self.pair_list, self.points.shape[0])
        _, first, size = np.unique(col, return_index=True, return_counts=True)
        root = np.sqrt(size)
        try:
            w, U = np.linalg.eigh(self.entries[np.ix_(first, first)] * np.outer(root, root))
        except np.linalg.LinAlgError:
            raise NumericalFailure(
                "eigendecomposition of the hyper-Gram did not converge") from None
        return w, U[col] / root[col, None]
