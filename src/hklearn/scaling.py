"""Divide-and-conquer path for large pair systems.

Points are clustered with k-means; each cluster's within-cluster pairs form an
independent subproblem whose solutions are concatenated.  Pairs spanning two
clusters join a residual group with coefficient zero.  An optional landmark
restriction keeps only pairs touching one of u sampled points, cutting the
pair count from m^2 to 2mu - u^2.  The cost of the cut is quantified by the
cross-cluster mass q_pi and the bound C^2 q_pi / (2 sigma_min), both read
from the full system's factors without its dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigvalsh

from .errors import HklearnError, InvalidInput
from .hyper import HyperKernelParams, PairSystem, full_pair_list, unordered_pairs
from .krr import CoefficientField, KrrConfig, fit_krr
from .learned import LearnedKernel
from .svr import SvrConfig, fit_svr

RESIDUAL_GROUP = 0  # pair_partition id for cross-cluster pairs
# Above this many restricted pairs fit_decomposed skips the full solve behind
# the observed gap.
FULL_SOLVE_LIMIT = 2048
KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class ScalingConfig:
    v: int
    u: int
    seed: int

    def __post_init__(self):
        if self.v < 1:
            raise InvalidInput(f"cluster count must be >= 1, got {self.v}")
        if self.u < 1:
            raise InvalidInput(f"landmark count must be >= 1, got {self.u}")


@dataclass(frozen=True, eq=False)
class PartitionPlan:
    """Cluster ids (1-based) per point, plus the final centroids."""

    assignment: np.ndarray
    centroids: np.ndarray

    def __post_init__(self):
        assign = np.asarray(self.assignment, dtype=np.intp)
        cents = np.asarray(self.centroids, dtype=float)
        v = cents.shape[0]
        counts = np.bincount(assign, minlength=v + 1)
        if assign.size and (assign.min() < 1 or assign.max() > v):
            raise InvalidInput("cluster ids must lie in [1, v]")
        if np.any(counts[1 : v + 1] == 0):
            raise InvalidInput("empty cluster in partition plan")
        object.__setattr__(self, "assignment", assign)
        object.__setattr__(self, "centroids", cents)


@dataclass(frozen=True)
class DecompositionDiagnostics:
    """Cross-cluster mass, spectrum floor, and the resulting gap bound.

    ``bound`` is None for ridge subproblems (no box constant to square) and
    infinite when sigma_min <= 0, as it is for every list holding a pair and
    its swap.  ``observed_gap`` is filled only when the full solve was
    affordable.
    """

    q_pi: float
    sigma_min: float
    bound: float | None
    observed_gap: float | None = None


def kmeans_partition(X, v: int, seed: int) -> PartitionPlan:
    """Lloyd's algorithm with distance-weighted seeding; deterministic per seed.

    At most ``KMEANS_MAX_ITER`` rounds run.  Empty clusters are repaired by
    peeling the farthest point off the largest cluster, so the plan never has
    fewer than v occupied clusters.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m = X.shape[0]
    if not 1 <= v <= m:
        raise InvalidInput(f"cluster count must lie in [1, {m}], got {v}")
    rng = np.random.default_rng(seed)

    centers = np.empty((v, X.shape[1]))
    centers[0] = X[rng.integers(m)]
    min_d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for c in range(1, v):
        total = min_d2.sum()
        if total > 0:
            idx = int(rng.choice(m, p=min_d2 / total))
        else:
            idx = int(rng.integers(m))
        centers[c] = X[idx]
        np.minimum(min_d2, np.sum((X - centers[c]) ** 2, axis=1), out=min_d2)

    assign = None
    for _ in range(KMEANS_MAX_ITER):
        d2 = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = _repair_empty(np.argmin(d2, axis=1), X, v)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(v):
            centers[c] = X[assign == c].mean(axis=0)

    centroids = np.vstack([X[assign == c].mean(axis=0) for c in range(v)])
    return PartitionPlan(assign + 1, centroids)


def _repair_empty(assign: np.ndarray, X: np.ndarray, v: int) -> np.ndarray:
    assign = assign.copy()
    counts = np.bincount(assign, minlength=v)
    while np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0])
        donor = int(np.argmax(counts))
        members = np.flatnonzero(assign == donor)
        center = X[members].mean(axis=0)
        far = members[np.argmax(np.sum((X[members] - center) ** 2, axis=1))]
        assign[far] = empty
        counts[donor] -= 1
        counts[empty] += 1
    return assign


def pair_partition(plan: PartitionPlan, pairs) -> np.ndarray:
    """Cluster id per pair; RESIDUAL_GROUP (0) when the endpoints disagree."""
    pairs = np.asarray(pairs, dtype=np.intp)
    m = plan.assignment.size
    if pairs.size and (pairs.min() < 0 or pairs.max() >= m):
        raise InvalidInput("pair references a point outside the partition plan")
    a = plan.assignment[pairs[:, 0]]
    b = plan.assignment[pairs[:, 1]]
    return np.where(a == b, a, RESIDUAL_GROUP)


def nystrom_restrict(m: int, u: int, seed: int):
    """Sample u landmarks; keep the pairs passing through them.

    Returns (landmarks, pair list).  The list preserves row-major enumeration
    order, so u = m reproduces the full pair list exactly; its length is
    2mu - u^2.
    """
    if not 1 <= u <= m:
        raise InvalidInput(f"landmark count must lie in [1, {m}], got {u}")
    rng = np.random.default_rng(seed)
    landmarks = np.sort(rng.choice(m, size=u, replace=False)).astype(np.intp)
    is_mark = np.zeros(m, dtype=bool)
    is_mark[landmarks] = True
    pairs = full_pair_list(m)
    keep = is_mark[pairs[:, 0]] | is_mark[pairs[:, 1]]
    return landmarks, pairs[keep]


def decomposition_bound(
    system: PairSystem, pair_clusters, C: float | None,
    observed_gap: float | None = None,
) -> DecompositionDiagnostics:
    """Deviation diagnostics: q_pi, sigma_min, and the bound C^2 q_pi / (2 sigma_min).

    ``system`` is the pair system over the list that ``pair_clusters`` labels.
    ``C`` is the box constant of an SVR base; with ``C=None`` (a ridge base)
    the bound is None and only q_pi and sigma_min are computed.

    q_pi is the sum of |K| over entries whose pairs lie in different groups.
    Every entry of K is a product of positive factors, so it is the sum over
    groups c of the rows outside c of K 1_c, read from the factors one group
    at a time (``PairSystem.column_sum``): u^2 c work in all, and no n x n
    array.  Two pairs over the same two points, such as (i, j) and (j, i),
    give K two equal rows; K is positive semi-definite, so then sigma_min is
    exactly 0 and no eigen-solve runs.  Only a list without such a pair
    factors the dense matrix.
    """
    clusters = np.asarray(pair_clusters, dtype=np.intp)
    if clusters.size != system.n:
        raise InvalidInput(
            f"pair_clusters length {clusters.size} != pair count {system.n}"
        )
    if C is not None and not C > 0:
        raise InvalidInput("C must be positive")
    q_pi = 0.0
    for c in np.unique(clusters):
        inside = clusters == c
        q_pi += float(system.column_sum(np.flatnonzero(inside))[~inside].sum())
    if len(unordered_pairs(system.pair_list, len(system.points))[0]) < system.n:
        sigma_min = 0.0
    else:
        sigma_min = float(eigvalsh(system.entries)[0])
    if C is None:
        bound = None
    else:
        bound = C * C * q_pi / (2.0 * sigma_min) if sigma_min > 0 else float("inf")
    return DecompositionDiagnostics(q_pi, sigma_min, bound, observed_gap)


def solve_pair_system(gram: PairSystem, responses, base, trace_path=None, spectrum=None):
    """Fit one pair system with a KRR or SVR base; returns (CoefficientField, bias).

    The system is solved without its dense matrix when the ridge solve takes
    conjugate gradient; direct ridge solves and the SVR use ``gram.entries``.
    ``trace_path`` records the SVR convergence trace; ridge fits write none.
    ``spectrum`` is passed to a ridge fit (see :func:`fit_krr`).
    """
    if isinstance(base, KrrConfig):
        return fit_krr(gram, responses, base, spectrum=spectrum), 0.0
    model = fit_svr(gram, responses, base, trace_path=trace_path)
    return model.beta, model.bias


def fit_decomposed(
    X,
    responses,
    base,
    scaling: ScalingConfig,
    params: HyperKernelParams,
):
    """Cluster, solve per-cluster subproblems, concatenate, and diagnose.

    Returns (LearnedKernel, DecompositionDiagnostics).  The coefficient field
    covers the landmark-restricted pair list with zeros on the residual group,
    so v=1, u=m reproduces the direct solver bit for bit.  The SVR bias is the
    pair-count-weighted mean of the per-cluster biases.  The diagnostics
    read the full restricted system's factors, not its dense matrix; only the
    observed gap needs a full solve, and it is skipped above
    ``FULL_SOLVE_LIMIT`` pairs.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m = X.shape[0]
    Y = np.asarray(responses, dtype=float)
    if Y.shape != (m, m):
        raise InvalidInput(f"responses must be {m}x{m}, got {Y.shape}")
    scale = max(np.abs(Y).max(), 1.0)
    if np.abs(Y - Y.T).max() > 1e-8 * scale:
        raise InvalidInput("responses must be symmetric")
    if scaling.u > m:
        raise InvalidInput(f"landmark count {scaling.u} exceeds m={m}")

    plan = kmeans_partition(X, scaling.v, scaling.seed)
    landmarks, pairs = nystrom_restrict(m, scaling.u, scaling.seed)
    clusters = pair_partition(plan, pairs)

    values = np.zeros(pairs.shape[0])
    bias_num = bias_den = 0.0
    for c in range(1, scaling.v + 1):
        sel = np.flatnonzero(clusters == c)
        if sel.size == 0:
            continue
        sub_pairs = pairs[sel]
        sub_system = PairSystem(params, X, sub_pairs)
        sub_y = Y[sub_pairs[:, 0], sub_pairs[:, 1]]
        try:
            coeffs_c, bias_c = solve_pair_system(sub_system, sub_y, base)
        except HklearnError as exc:
            exc.args = (f"cluster {c}: {exc}",) + exc.args[1:]
            raise
        values[sel] = coeffs_c.values
        bias_num += sel.size * bias_c
        bias_den += sel.size

    bias = bias_num / bias_den if bias_den else 0.0
    coeffs = CoefficientField(values, pairs, m)
    lk = LearnedKernel(X, coeffs, bias, params)

    full_system = PairSystem(params, X, pairs)
    gap = None
    if pairs.shape[0] <= FULL_SOLVE_LIMIT:
        full, _ = solve_pair_system(full_system, Y[pairs[:, 0], pairs[:, 1]], base)
        gap = float(np.linalg.norm(full.values - values))
    C = base.C if isinstance(base, SvrConfig) else None
    return lk, decomposition_bound(full_system, clusters, C, gap)
