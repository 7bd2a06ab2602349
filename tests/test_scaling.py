import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh

from hklearn import (
    GaussianRBF,
    HyperKernelParams,
    InvalidInput,
    KrrConfig,
    PairSystem,
    ScalingConfig,
    SvrConfig,
    assemble_hyper_gram,
    data_sigma2,
    decomposition_bound,
    fit_decomposed,
    fit_extend,
    fit_krr,
    fit_svr,
    full_pair_list,
    gram_matrix,
    kmeans_partition,
    nystrom_restrict,
    pair_partition,
)
from decomposition_reference import decomposition_bound as dense_decomposition_bound
from hklearn import hyper
from hklearn.scaling import FULL_SOLVE_LIMIT, RESIDUAL_GROUP


def _blobs(rng, m, gap=20.0, spread=0.5):
    half = m // 2
    return np.vstack([
        rng.normal(0.0, spread, (half, 2)),
        rng.normal(gap, spread, (m - half, 2)),
    ])


def test_kmeans_single_cluster(rng):
    assignment = kmeans_partition(rng.standard_normal((6, 2)), 1, seed=0)
    np.testing.assert_array_equal(assignment, 1)


def test_kmeans_one_cluster_per_point(rng):
    X = rng.standard_normal((5, 2))
    assignment = kmeans_partition(X, 5, seed=0)
    assert sorted(assignment) == [1, 2, 3, 4, 5]


def test_kmeans_separates_blobs_on_every_seed():
    # inter-center distance is 20x the intra-blob spread
    for seed in range(10):
        X = _blobs(np.random.default_rng(seed), 12)
        assignment = kmeans_partition(X, 2, seed=seed)
        first, second = assignment[:6], assignment[6:]
        assert len(set(first)) == 1 and len(set(second)) == 1
        assert first[0] != second[0]


def test_kmeans_deterministic(rng):
    X = rng.standard_normal((20, 3))
    a = kmeans_partition(X, 3, seed=11)
    b = kmeans_partition(X, 3, seed=11)
    np.testing.assert_array_equal(a, b)


def test_kmeans_no_empty_clusters(rng):
    # more clusters than distinct locations forces the repair path
    X = np.repeat(rng.standard_normal((3, 2)), 4, axis=0)
    assignment = kmeans_partition(X, 3, seed=5)
    assert set(assignment) == {1, 2, 3}


def test_kmeans_validation(rng):
    X = rng.standard_normal((4, 2))
    with pytest.raises(InvalidInput):
        kmeans_partition(X, 0, seed=0)
    with pytest.raises(InvalidInput):
        kmeans_partition(X, 5, seed=0)


def test_pair_partition_single_cluster(rng):
    X = rng.standard_normal((4, 2))
    assignment = kmeans_partition(X, 1, seed=0)
    clusters = pair_partition(assignment, full_pair_list(4))
    np.testing.assert_array_equal(clusters, 1)
    assert np.count_nonzero(clusters == RESIDUAL_GROUP) == 0


def test_pair_partition_cross_pairs_to_residual():
    X = _blobs(np.random.default_rng(0), 6)
    assignment = kmeans_partition(X, 2, seed=0)
    clusters = pair_partition(assignment, full_pair_list(6))
    for k, (i, j) in enumerate(full_pair_list(6)):
        if assignment[i] != assignment[j]:
            assert clusters[k] == RESIDUAL_GROUP
        else:
            assert clusters[k] == assignment[i]


def test_pair_partition_rejects_pairs_outside_the_assignment():
    for pairs in ([[0, 3]], [[-1, 0]]):
        with pytest.raises(InvalidInput, match="outside the partition"):
            pair_partition(np.array([1, 2, 1]), pairs)


@pytest.mark.parametrize("m,v", [(6, 2), (11, 3), (20, 4)])
def test_pair_partition_count_identity(m, v):
    X = np.random.default_rng(m * v).standard_normal((m, 2))
    assignment = kmeans_partition(X, v, seed=1)
    clusters = pair_partition(assignment, full_pair_list(m))
    sizes = np.bincount(assignment)[1:]
    within = int(np.sum(sizes ** 2))
    residual = int(np.count_nonzero(clusters == RESIDUAL_GROUP))
    assert within + residual == m * m


def test_nystrom_full_landmark_set_is_identity(rng):
    landmarks, pairs = nystrom_restrict(5, 5, seed=3)
    assert landmarks.tolist() == [0, 1, 2, 3, 4]
    np.testing.assert_array_equal(pairs, full_pair_list(5))


def test_nystrom_single_landmark(rng):
    landmarks, pairs = nystrom_restrict(7, 1, seed=3)
    assert landmarks.size == 1
    assert pairs.shape[0] == 2 * 7 - 1


@pytest.mark.parametrize("m", [2, 5, 8, 12])
def test_nystrom_pair_count_formula(m):
    for u in range(1, m + 1):
        _, pairs = nystrom_restrict(m, u, seed=0)
        assert pairs.shape[0] == 2 * m * u - u * u
        # no duplicates
        assert len({(i, j) for i, j in pairs}) == pairs.shape[0]


def test_nystrom_seed_behaviour():
    la, a = nystrom_restrict(20, 10, seed=4)
    lb, b = nystrom_restrict(20, 10, seed=4)
    np.testing.assert_array_equal(la, lb)
    np.testing.assert_array_equal(a, b)
    seen = {tuple(nystrom_restrict(20, 10, seed=s)[0]) for s in range(8)}
    assert len(seen) > 1


def test_bound_zero_for_single_cluster():
    diag = dense_decomposition_bound(np.eye(4), np.ones(4, dtype=int), C=2.0)
    assert diag.q_pi == 0.0
    assert diag.bound == 0.0
    X = np.random.default_rng(0).standard_normal((4, 2))
    system = PairSystem(HyperKernelParams(1.0, 1.0, 2), X, [(0, 1), (2, 3)])
    diag = decomposition_bound(system, np.ones(2, dtype=int), C=2.0)
    assert diag.q_pi == 0.0
    assert diag.bound == 0.0


def test_bound_two_by_two_cross_mass():
    entries = np.array([[1.0, 0.3], [0.3, 1.0]])
    diag = dense_decomposition_bound(entries, np.array([1, 2]), C=1.0)
    assert diag.q_pi == pytest.approx(0.6)
    assert diag.sigma_min == pytest.approx(0.7)
    assert diag.bound == pytest.approx(0.6 / 1.4)


def test_bound_infinite_when_sigma_nonpositive():
    entries = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    diag = dense_decomposition_bound(entries, np.array([1, 2]), C=1.0)
    assert diag.bound == float("inf")


@pytest.mark.parametrize("base", [KrrConfig(1e-3), SvrConfig(C=2.0, epsilon=0.05)],
                         ids=["krr", "svr"])
@pytest.mark.parametrize("m,u,v", [(9, 9, 3), (10, 4, 2), (8, 3, 1), (7, 7, 1)])
@pytest.mark.parametrize("seed", [0, 1])
def test_diagnostics_match_the_dense_oracle(seed, m, u, v, base):
    rng = np.random.default_rng([seed, m, u, v])
    X = rng.uniform(0.0, 1.0, (m, 2))
    params = HyperKernelParams(0.25, 0.5, 2)
    Y = gram_matrix(GaussianRBF(0.25), X)
    scaling = ScalingConfig(v=v, u=u, seed=seed)
    _, diag = fit_decomposed(X, Y, base, scaling, params)
    assignment = kmeans_partition(X, v, seed)
    _, pairs = nystrom_restrict(m, u, seed)
    K = assemble_hyper_gram(params, X, pairs).entries
    C = base.C if isinstance(base, SvrConfig) else None
    ref = dense_decomposition_bound(K, pair_partition(assignment, pairs), C)
    assert abs(diag.q_pi - ref.q_pi) <= 1e-12 * ref.q_pi
    # every landmark list holds each pair with its swap: K is singular
    assert abs(ref.sigma_min) <= 1e-12 * eigvalsh(K)[-1]
    assert diag.sigma_min == 0.0
    if C is None:
        assert diag.bound is None
    else:
        assert diag.bound == float("inf")


def test_list_without_swapped_pair_factors_the_gram():
    X = np.random.default_rng(3).standard_normal((4, 2))
    params = HyperKernelParams(1.0, 1.0, 2)
    system = PairSystem(params, X, [(0, 1), (2, 3)])
    diag = decomposition_bound(system, np.array([1, 2]), C=1.0)
    ref = dense_decomposition_bound(system.entries, np.array([1, 2]), C=1.0)
    assert diag.sigma_min > 0.0
    assert diag.sigma_min == ref.sigma_min
    assert np.isfinite(diag.bound)
    assert diag.bound == pytest.approx(ref.bound, rel=1e-12)
    # a swapped pair, or a pair listed twice, gives two equal rows
    for extra in ((1, 0), (0, 1)):
        system = PairSystem(params, X, [(0, 1), (2, 3), extra])
        assert decomposition_bound(system, np.array([1, 2, 1]), C=1.0).sigma_min == 0.0


def test_large_decomposition_never_assembles_the_full_list(monkeypatch):
    sizes = []
    real = hyper.assemble_hyper_gram

    def recording(params, X, pairs=None):
        sizes.append(len(pairs))
        return real(params, X, pairs)

    monkeypatch.setattr(hyper, "assemble_hyper_gram", recording)
    rng = np.random.default_rng(5)
    m = 48
    X = _blobs(rng, m)
    _, pairs = nystrom_restrict(m, m, 0)
    assert len(pairs) > FULL_SOLVE_LIMIT
    Y = gram_matrix(GaussianRBF(1.0), X)
    _, diag = fit_decomposed(
        X, Y, KrrConfig(1e-3), ScalingConfig(v=2, u=m, seed=0),
        HyperKernelParams(1.0, 1.0, 2),
    )
    assert diag.observed_gap is None and diag.sigma_min == 0.0
    # no solve, cluster or full, assembles a dense Gram
    assert sizes == []


@settings(max_examples=20)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_merging_clusters_never_increases_q(seed, v):
    rng = np.random.default_rng(seed)
    m = 4
    gram = assemble_hyper_gram(
        HyperKernelParams(1.0, 1.0, 2), rng.standard_normal((m, 2))
    )
    clusters = rng.integers(1, v + 1, size=m * m)
    a, b = rng.choice(np.arange(1, v + 1), size=2, replace=False)
    merged = np.where(clusters == b, a, clusters)
    q = decomposition_bound(gram, clusters, C=1.0).q_pi
    q_merged = decomposition_bound(gram, merged, C=1.0).q_pi
    assert q_merged <= q + 1e-12


def test_degenerate_decomposition_matches_direct_krr(rng):
    X = rng.standard_normal((6, 2))
    params = HyperKernelParams(1.0, 1.0, 2)
    Y = gram_matrix(GaussianRBF(1.0), X)
    lk, diag = fit_decomposed(
        X, Y, KrrConfig(1e-2), ScalingConfig(v=1, u=6, seed=0), params
    )
    direct = fit_krr(assemble_hyper_gram(params, X), Y.ravel(), KrrConfig(1e-2))
    assert np.max(np.abs(lk.coefficients.values - direct.values)) <= 1e-10
    assert diag.observed_gap is not None and diag.observed_gap <= 1e-10


def test_degenerate_decomposition_matches_direct_svr(rng):
    X = rng.standard_normal((5, 2))
    params = HyperKernelParams(1.0, 1.0, 2)
    Y = gram_matrix(GaussianRBF(1.0), X)
    cfg = SvrConfig(C=1.0, epsilon=0.05, kkt_tol=1e-8)
    lk, _ = fit_decomposed(X, Y, cfg, ScalingConfig(v=1, u=5, seed=0), params)
    direct = fit_svr(assemble_hyper_gram(params, X), Y.ravel(), cfg)
    assert np.max(np.abs(lk.coefficients.values - direct.beta.values)) <= 1e-10


def test_degenerate_decomposition_equals_direct_fit_above_direct_limit(rng):
    # 2,025 pairs exceed KrrConfig.direct_limit: both paths must pick the
    # same solver and so give the same coefficients bit for bit
    m = 45
    X = rng.standard_normal((m, 2))
    s2 = data_sigma2(X)
    Y = gram_matrix(GaussianRBF(s2), X)
    params = HyperKernelParams(s2, s2, 2)
    lk, _ = fit_decomposed(
        X, Y, KrrConfig(1e-3), ScalingConfig(v=1, u=m, seed=0), params
    )
    direct = fit_extend(X, Y, "krr", {"sigma2": s2, "sigma_h2": s2, "reg": 1e-3})
    assert np.array_equal(lk.coefficients.values, direct.coefficients.values)


def test_far_blobs_decompose_like_full_solve():
    rng = np.random.default_rng(2)
    m = 16
    X = _blobs(rng, m)
    params = HyperKernelParams(1.0, 1.0, 2)
    Y = gram_matrix(GaussianRBF(1.0), X)
    lk, _ = fit_decomposed(
        X, Y, KrrConfig(1e-3), ScalingConfig(v=2, u=m, seed=0), params
    )
    gram = assemble_hyper_gram(params, X)
    full = fit_krr(gram, Y.ravel(), KrrConfig(1e-3))

    assignment = kmeans_partition(X, 2, seed=0)
    clusters = pair_partition(assignment, full_pair_list(m))
    cross = np.flatnonzero(clusters == RESIDUAL_GROUP)
    kept = np.flatnonzero(clusters != RESIDUAL_GROUP)
    assert gram.entries[np.ix_(cross, kept)].max() <= 1e-12
    assert np.max(np.abs(lk.coefficients.values - full.values)) <= 1e-6


def test_decomposition_label_invariance():
    # seeds that produce the same set partition of the blobs must give the
    # same coefficients regardless of cluster numbering or solve order
    X = _blobs(np.random.default_rng(4), 10)
    params = HyperKernelParams(1.0, 1.0, 2)
    Y = gram_matrix(GaussianRBF(1.0), X)
    results = []
    for seed in (0, 1, 2):
        lk, _ = fit_decomposed(
            X, Y, KrrConfig(1e-3), ScalingConfig(v=2, u=10, seed=seed), params
        )
        results.append(lk.coefficients.values)
    np.testing.assert_array_equal(results[0], results[1])
    np.testing.assert_array_equal(results[0], results[2])


def test_bound_covers_observed_gap_with_jitter(rng):
    # Theorem-style check on a small instance with the SVR base
    X = rng.standard_normal((8, 2))
    params = HyperKernelParams(1.0, 1.0, 2)
    Y = gram_matrix(GaussianRBF(1.0), X)
    cfg = SvrConfig(C=1.0, epsilon=0.05, kkt_tol=1e-8)
    lk, _ = fit_decomposed(X, Y, cfg, ScalingConfig(v=2, u=8, seed=0), params)
    gram = assemble_hyper_gram(params, X)
    full = fit_svr(gram, Y.ravel(), cfg)
    gap = float(np.linalg.norm(full.beta.values - lk.coefficients.values))

    assignment = kmeans_partition(X, 2, seed=0)
    clusters = pair_partition(assignment, full_pair_list(8))
    jittered = gram.entries + gram.base_jitter * np.eye(gram.n)
    diag = dense_decomposition_bound(jittered, clusters, C=cfg.C, observed_gap=gap)
    assert diag.bound >= gap


def test_asymmetric_responses_rejected(rng):
    X = rng.standard_normal((4, 2))
    Y = rng.standard_normal((4, 4))
    with pytest.raises(InvalidInput):
        fit_decomposed(
            X, Y, KrrConfig(1e-2), ScalingConfig(v=2, u=4, seed=0),
            HyperKernelParams(1.0, 1.0, 2),
        )


def test_scaling_config_validation():
    with pytest.raises(InvalidInput):
        ScalingConfig(v=0, u=1, seed=0)
    with pytest.raises(InvalidInput):
        ScalingConfig(v=1, u=0, seed=0)
