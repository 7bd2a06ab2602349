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
pair) have one midpoint, one g and equal rows of K: Phi holds one column per
distinct unordered pair.  :class:`PairSystem`, the one type of a pair system,
is the one place that groups a pair list into those c pairs: every solver
works over them, and a fit's coefficients and learned kernel keep their
system, so evaluation reuses its grouping, g and midpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, NumericalFailure, ResourceLimit

# Row-block size of _fill; its temporaries hold a few _CHUNK * k floats.
_CHUNK = 256

# Row-block size of sq_dists, in floats: its one temporary holds at most
# max(_SQ_BLOCK, len(B)) of them.
_SQ_BLOCK = 65_536

# Cap on the floats of one array: the n^2 of an assembled hyper-Gram, the
# c^2 of a block over distinct pairs, the u * c point factors.
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


def cap_entries(count: int, what: str) -> None:
    """Raise ``ResourceLimit`` where ``count`` floats would pass ``MAX_ENTRIES``."""
    if count > MAX_ENTRIES:
        raise ResourceLimit(f"{what} would hold {count} entries (cap {MAX_ENTRIES}); "
                            "restrict pairs or use the scaling module")


def assemble_hyper_gram(params: HyperKernelParams, X, pairs=None) -> PairSystem:
    """The pair system over the given (or all) ordered pairs, its dense Gram filled.

    Entry (r, s) of ``entries`` is cross_factor of pair r times g[s] times the
    point factors of both points of pair r at midpoint s, from the system's
    factors, exactly symmetric (:func:`_fill`) and positive semi-definite up
    to roundoff.  No solver reads it: it is the oracle that tests and the
    benchmark's residual check read.  ``pairs`` (0-based (i, j) rows) omitted
    stands for all m^2 ordered pairs in row-major order; n^2 above
    ``MAX_ENTRIES`` raises ``ResourceLimit``.
    """
    system = PairSystem(params, X, pairs)
    _, lo, hi, col, *_, g, _, cross, phi = system._factors
    system.entries = _fill(phi[:, col], lo[col], hi[col], cross[col], g[col])
    return system


def _fill(phi, lo, hi, rows, cols) -> np.ndarray:
    """The k x k matrix rows_a Phi[lo_a, b] Phi[hi_a, b] cols_b, in O(u k^2);
    each row block is filled from the diagonal on and mirrored, so it is
    exactly symmetric."""
    k = phi.shape[1]
    cap_entries(k * k, "hyper-Gram")
    M = np.empty((k, k))
    for a in range(0, k, _CHUNK):
        b = min(a + _CHUNK, k)
        block = phi[lo[a:b], a:] * phi[hi[a:b], a:]
        block *= rows[a:b, None]
        block *= cols[a:]
        diag = block[:, : b - a]
        block[:, : b - a] = np.triu(diag) + np.triu(diag, 1).T
        M[a:b, a:] = block
        M[a:, a:b] = block.T
    return M


class PairSystem:
    """The hyper-Gram K over a pair list (None: all m^2 ordered pairs in
    row-major order), as an operator over its c distinct unordered pairs.

    A pair, its swap and its repeats have equal rows of K, so K = P B P' with
    P the n x c indicator of the distinct pairs (``members``) and B their
    ``block``.  Ridge solves work on M = S^1/2 B S^1/2, S = diag(s), through
    ``reduce``, ``expand``, ``reduced_*`` and ``spectrum``; ``matvec``,
    ``column_sum`` and ``diag`` act on K, and ``entries``, the dense K, is
    formed only by :func:`assemble_hyper_gram`.  Two cached parts serve
    them all: the grouping into distinct pairs, with their g and midpoints,
    which a learned kernel's evaluation reads too, and the solver factors,
    cross and Phi.
    """

    def __init__(self, params: HyperKernelParams, X, pairs=None):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        m = X.shape[0]
        if m < 1:
            raise InvalidInput("empty input")
        if X.ndim != 2 or X.shape[1] != params.dim:
            raise InvalidInput(f"points must be (m, {params.dim}), got shape {X.shape}")
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

    @property
    def c(self) -> int:
        return self._grouping[1].size

    @property
    def members(self):
        """(col, s): each pair's distinct pair, and each distinct pair's size."""
        return self._grouping[3], self._grouping[5]

    @property
    def midpoints(self):
        """(g, mids): each distinct pair's within-pair factor and midpoint."""
        return self._grouping[7:]

    @cached_property
    def entries(self) -> np.ndarray:
        return assemble_hyper_gram(self.params, self.points, self.pair_list).entries

    @cached_property
    def _grouping(self):
        """The used points, lo and hi (local indices) of the distinct pairs,
        ``col``, their first members, counts s and sqrt(s), g and midpoints."""
        seen = np.zeros(self.points.shape[0], dtype=bool)
        seen[self.pair_list] = True
        used = np.flatnonzero(seen)
        u = used.size
        local = (np.cumsum(seen) - 1)[self.pair_list]
        a, b = local[:, 0], local[:, 1]
        keys, first, col, size = np.unique(
            np.minimum(a, b) * u + np.maximum(a, b),
            return_index=True, return_inverse=True, return_counts=True)
        lo, hi = np.divmod(keys, u)
        X = self.points[used]
        return (used, lo, hi, col, first, size, np.sqrt(size),
                *pair_factors(self.params, X[lo], X[hi]))

    @cached_property
    def _factors(self):
        """The grouping, then the solver factors of the distinct pairs: cross
        and Phi (u used points x c)."""
        used, lo, hi, *_, mids = self._grouping
        cap_entries(used.size * lo.size, "point factors")
        X = self.points[used]
        cross = cross_factor(self.params, np.sum((X[lo] - X[hi]) ** 2, axis=1))
        return (*self._grouping, cross, point_factors(self.params, X, mids))

    def _apply(self, w) -> np.ndarray:
        """B w in O(u^2 c): cross_k (Phi diag(g w) Phi')[lo_k, hi_k]."""
        _, lo, hi, *_, g, _, cross, phi = self._factors
        return cross * ((phi * (g * w)) @ phi.T)[lo, hi]

    def matvec(self, v) -> np.ndarray:
        """K v: v summed onto the distinct pairs, B applied, and spread back."""
        col, size = self.members
        return self._apply(np.bincount(col, weights=np.ravel(v), minlength=size.size))[col]

    def reduced_matvec(self, z) -> np.ndarray:
        root = self._grouping[6]
        return root * self._apply(root * z)

    def reduced_column(self, k: int) -> np.ndarray:
        """Column k of M in O(c): root_l cross_l Phi[lo_l, k] Phi[hi_l, k] g_k root_k."""
        _, lo, hi, *_, root, g, _, cross, phi = self._factors
        p = phi[:, k]
        return (root * cross) * (p[lo] * p[hi]) * (g[k] * root[k])

    def reduced_diag(self) -> np.ndarray:
        """The diagonal of M, s_k B_kk, in O(c); a fresh array."""
        _, lo, hi, _, _, size, _, g, _, cross, phi = self._factors
        return size * cross * g * phi[lo, np.arange(g.size)] * phi[hi, np.arange(g.size)]

    def reduce(self, y):
        """(S^1/2 ybar, y - ybar[col]) for a right-hand side y of K, ybar its
        member means (y's value where the members agree).  K maps the second
        part to 0, so ``expand`` of the solution z of (M + t I) z = S^1/2 ybar
        solves (K + t I) x = y, with a residual of the same norm.  Each part
        is a member's deviation from the first member less their mean one,
        so a pair and its swap get exactly opposite parts."""
        col, first, size, root = self._grouping[3:7]
        head = y[first]
        dev = y - head[col]
        if not dev.any():
            return root * head, dev
        shift = np.bincount(col, weights=dev, minlength=size.size) / size
        return root * (head + shift), dev - shift[col]

    def expand(self, z, rest, shift: float) -> np.ndarray:
        """(z / S^1/2)[col] + rest / shift, the solution of (K + shift I) x = y
        from that of the reduced system (see ``reduce``).  One that overflows
        raises ``NumericalFailure``."""
        x = (z / self._grouping[6])[self._grouping[3]]
        if rest.any():
            with np.errstate(over="ignore", invalid="ignore"):
                x += rest / shift
            if not np.isfinite(x).all():
                raise NumericalFailure("solve residual is not finite: the solve overflows")
        return x

    def _over(self, T, w) -> np.ndarray:
        """K v, v weighting distinct pair T_i by w_i, by one unmerged GEMM."""
        _, lo, hi, col, *_, g, _, cross, phi = self._factors
        sub = phi[:, T]
        return (cross * ((sub * (g[T] * w)) @ sub.T)[lo, hi])[col]

    def roundoff(self, v) -> float:
        """||fl(K v)|| for a v that K maps to 0, such as ``reduce``'s rest,
        taken over the n columns without first summing the members of each
        distinct pair, as a dense product is: the roundoff such products meet."""
        return float(np.linalg.norm(self._over(self._grouping[3], v))) if v.any() else 0.0

    def column_sum(self, cols) -> np.ndarray:
        """K 1_S, the sum of the columns S = ``cols`` of K, in O(u^2 |S| + n),
        over the distinct pairs of S only, counting S's columns on each."""
        return self._over(*np.unique(self._grouping[3][np.asarray(cols, dtype=np.intp)],
                                     return_counts=True))

    def diag(self) -> np.ndarray:
        """The diagonal of K in O(n), equal on the members of a distinct pair.

        A pair's midpoint lies at squared distance sq / 4 from both of its
        points, so K_rr = cross_factor(sq) * g * exp(-sq / (8 (sigma2 + sigma_h2))).
        """
        used, lo, hi, col, *_, g, _ = self._grouping
        X = self.points[used]
        sq = np.sum((X[lo] - X[hi]) ** 2, axis=1)
        sh = self.params.sigma2 + self.params.sigma_h2
        return (cross_factor(self.params, sq) * g * np.exp(sq / (-8.0 * sh)))[col]

    def release(self) -> None:
        """Drop the cached solver state; the grouping a learned kernel reads stays."""
        for name in ("_factors", "block", "spectrum"):
            self.__dict__.pop(name, None)

    @cached_property
    def base_jitter(self) -> float:
        """First rung of the jitter ladder: 1e-10 * trace / n."""
        return 1e-10 * float(np.sum(self.diag())) / max(self.n, 1)

    @cached_property
    def block(self) -> np.ndarray:
        """B, the c x c block of K between the distinct unordered pairs."""
        _, lo, hi, *_, g, _, cross, phi = self._factors
        return _fill(phi, lo, hi, cross, g)

    @cached_property
    def spectrum(self):
        """An eigendecomposition (w, U) of M = S^1/2 B S^1/2, M = U diag(w) U',
        with M built from the factors for this one eigh of order c; a grid of
        ridge weights on the system shares it.  An eigh that does not
        converge raises ``NumericalFailure``."""
        _, lo, hi, *_, root, g, _, cross, phi = self._factors
        try:
            return np.linalg.eigh(_fill(phi, lo, hi, cross * root, g * root))
        except np.linalg.LinAlgError:
            raise NumericalFailure(
                "eigendecomposition of the hyper-Gram did not converge") from None
