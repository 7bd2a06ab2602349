import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hklearn import (
    HyperKernelParams,
    InvalidInput,
    PairSystem,
    ResourceLimit,
    assemble_hyper_gram,
    eval_hyper_kernel,
    full_pair_list,
    nystrom_restrict,
    scaled_gaussian,
)
from hklearn import hyper
from midpoint_reference import hyper_gram_reference


def test_scaled_gaussian_unit_prefactor():
    # s2 = 1/(2 pi) makes the prefactor exactly 1
    assert scaled_gaussian([0.3], [0.3], 1.0 / (2.0 * math.pi), 1) == 1.0


def test_scaled_gaussian_point_value():
    # (1/(2 pi)) exp(-1/2) at distance 1 in two dimensions
    v = scaled_gaussian([0.0, 0.0], [1.0, 0.0], 1.0, 2)
    assert v == pytest.approx(0.09653235263005391, rel=1e-12)


def test_scaled_gaussian_dimension_mismatch():
    with pytest.raises(InvalidInput):
        scaled_gaussian([0.0, 0.0], [1.0], 1.0, 2)


def test_hyper_kernel_point_value():
    # product of the three factors for ((0),(0)) vs ((1),(1)) at
    # sigma2 = sigma_h2 = 1: (2 pi)^-1 * (4 pi)^-1/2 * exp(-1/4)
    params = HyperKernelParams(1.0, 1.0, 1)
    v = eval_hyper_kernel(params, ([0.0], [0.0]), ([1.0], [1.0]))
    assert v == pytest.approx(0.034965647835154934, rel=1e-12)


def test_hyper_kernel_positive(rng):
    params = HyperKernelParams(0.8, 1.3, 3)
    for _ in range(20):
        p1 = (rng.standard_normal(3), rng.standard_normal(3))
        p2 = (rng.standard_normal(3), rng.standard_normal(3))
        assert eval_hyper_kernel(params, p1, p2) > 0.0


def test_hyper_kernel_swap_symmetries(rng):
    params = HyperKernelParams(1.1, 0.6, 2)
    for _ in range(30):
        a, b, c, d = (rng.standard_normal(2) for _ in range(4))
        base = eval_hyper_kernel(params, (a, b), (c, d))
        assert eval_hyper_kernel(params, (b, a), (c, d)) == pytest.approx(base, rel=1e-12)
        assert eval_hyper_kernel(params, (c, d), (a, b)) == pytest.approx(base, rel=1e-12)
        assert eval_hyper_kernel(params, (a, b), (d, c)) == pytest.approx(base, rel=1e-12)


def test_params_validation():
    with pytest.raises(InvalidInput):
        HyperKernelParams(0.0, 1.0, 2)
    with pytest.raises(InvalidInput):
        HyperKernelParams(1.0, -0.5, 2)
    with pytest.raises(InvalidInput):
        HyperKernelParams(1.0, 1.0, 0)


def test_full_pair_list_row_major():
    pairs = full_pair_list(3)
    assert pairs.shape == (9, 2)
    np.testing.assert_array_equal(pairs[:4], [[0, 0], [0, 1], [0, 2], [1, 0]])
    for k in range(9):
        assert tuple(pairs[k]) == divmod(k, 3)


def test_single_point_gram_positive():
    params = HyperKernelParams(1.0, 1.0, 2)
    gram = assemble_hyper_gram(params, [[0.0, 0.0]])
    assert gram.entries.shape == (1, 1)
    assert gram.entries[0, 0] > 0.0


def test_gram_symmetric_and_psd(rng):
    X = rng.standard_normal((5, 2))
    gram = assemble_hyper_gram(HyperKernelParams(1.0, 0.5, 2), X)
    assert np.array_equal(gram.entries, gram.entries.T)
    evals = np.linalg.eigvalsh(gram.entries)
    assert evals.min() >= -1e-8 * evals.max()
    assert np.all(gram.entries > 0.0)


def test_gram_matches_pointwise_evaluation(rng):
    X = rng.standard_normal((3, 2))
    params = HyperKernelParams(0.9, 0.4, 2)
    gram = assemble_hyper_gram(params, X)
    pairs = full_pair_list(3)
    for a in range(9):
        for b in range(a, 9):
            direct = eval_hyper_kernel(
                params,
                (X[pairs[a, 0]], X[pairs[a, 1]]),
                (X[pairs[b, 0]], X[pairs[b, 1]]),
            )
            assert gram.entries[a, b] == pytest.approx(direct, rel=1e-12)


def test_explicit_pair_subset_shape(rng):
    m, u = 6, 2
    X = rng.standard_normal((m, 2))
    landmarks = [0, 3]
    pairs = np.array([(i, l) for i in range(m) for l in landmarks])
    gram = assemble_hyper_gram(HyperKernelParams(1.0, 1.0, 2), X, pairs)
    assert gram.entries.shape == (m * u, m * u)
    np.testing.assert_array_equal(gram.pair_list, pairs)


def test_gram_permutation_equivariance(rng):
    X = rng.standard_normal((4, 2))
    params = HyperKernelParams(1.0, 0.7, 2)
    gram = assemble_hyper_gram(params, X)
    perm = np.array([2, 0, 3, 1])
    gram_p = assemble_hyper_gram(params, X[perm])
    # pair (i, j) of the permuted set is pair (perm[i], perm[j]) of the original
    m = 4
    inv = np.empty(m, dtype=int)
    inv[perm] = np.arange(m)
    reindex = np.array([inv[i] * m + inv[j] for i, j in full_pair_list(m)])
    np.testing.assert_allclose(
        gram.entries, gram_p.entries[np.ix_(reindex, reindex)], rtol=1e-12
    )


def test_memory_cap_enforced(rng):
    # 101^2 = 10,201 pairs, so 104,060,401 entries: refused before allocation
    X = rng.standard_normal((101, 2))
    with pytest.raises(ResourceLimit):
        assemble_hyper_gram(HyperKernelParams(1.0, 1.0, 2), X)


@pytest.mark.parametrize("d", [1, 2, 3, 9, 20, 50])
def test_assembly_matches_midpoint_reference(d):
    # base scale, sigma_h2 multiplier, data offset
    grid = itertools.product([0.05, 1.0, 10.0], [0.25, 4.0], [0.0, 100.0])
    for case, (scale, mult, offset) in enumerate(grid):
        rng = np.random.default_rng([d, case])
        m = 6
        X = rng.standard_normal((m, d)) + offset
        s2 = scale * d
        params = HyperKernelParams(s2, mult * s2, d)
        _, restricted = nystrom_restrict(m, 2, case)
        for pairs in (full_pair_list(m), restricted):
            K = assemble_hyper_gram(params, X, pairs).entries
            ref = hyper_gram_reference(params, X, pairs)
            assert np.all(np.abs(K - ref) <= 1e-12 * ref), case


@pytest.mark.parametrize("m, pairs", [
    pytest.param(17, full_pair_list(17), id="full"),  # 289 pairs
    pytest.param(24, nystrom_restrict(24, 8, 3)[1], id="nystrom"),  # 320 pairs
    pytest.param(20, np.random.default_rng(17).integers(0, 20, (600, 2)), id="subset"),
])
def test_assembly_exactly_symmetric_across_row_blocks(m, pairs):
    assert len(pairs) > 256  # at least two row blocks of the assembly
    X = np.random.default_rng(m).standard_normal((m, 3))
    params = HyperKernelParams(0.7, 1.9, 3)
    K = assemble_hyper_gram(params, X, pairs).entries
    assert np.array_equal(K, K.T)
    ref = hyper_gram_reference(params, X, pairs)
    assert np.all(np.abs(K - ref) <= 1e-12 * ref)


@pytest.mark.parametrize("d", [1, 2, 3, 9, 20, 50])
def test_pair_system_matches_assembly(d):
    # base scale, sigma_h2 multiplier, data offset
    grid = itertools.product([0.05, 1.0, 10.0], [0.25, 4.0], [0.0, 100.0])
    for case, (scale, mult, offset) in enumerate(grid):
        rng = np.random.default_rng([d, case])
        m = 6
        X = rng.standard_normal((m, d)) + offset
        s2 = scale * d
        params = HyperKernelParams(s2, mult * s2, d)
        _, restricted = nystrom_restrict(m, 2, case)
        for pairs in (full_pair_list(m), restricted):
            # the operator and the assembly share their factors, so both are
            # checked against the midpoint form rather than each other
            system = PairSystem(params, X, pairs)
            ref = hyper_gram_reference(params, X, pairs)
            for v in (rng.standard_normal(len(pairs)), np.ones(len(pairs))):
                err = np.abs(system.matvec(v) - ref @ v)
                assert np.all(err <= 1e-12 * (ref @ np.abs(v))), case
            cols = np.flatnonzero(rng.random(len(pairs)) < 0.5)
            sum_ref = ref[:, cols].sum(axis=1)
            err = np.abs(system.column_sum(cols) - sum_ref)
            assert np.all(err <= 1e-12 * sum_ref), case
            d_ref = np.diag(ref)
            assert np.all(np.abs(system.diag() - d_ref) <= 1e-12 * d_ref), case
            base_ref = 1e-10 * np.trace(ref) / len(pairs)
            assert system.base_jitter == pytest.approx(base_ref, rel=1e-12)
            assert np.all(np.abs(system.entries - ref) <= 1e-12 * ref), case


def test_column_sum_spans_column_blocks():
    # all 4,225 columns summed at once, merged onto 65 * 66 / 2 = 2,145
    # unordered pairs (column_sum once took them in blocks of 4,096)
    m = 65
    X = np.random.default_rng(1).standard_normal((m, 2))
    system = PairSystem(HyperKernelParams(1.0, 2.0, 2), X)
    assert system.n == 4225 and system._factors[-1].shape == (65, 2145)
    full = system.matvec(np.ones(system.n))
    assert np.all(np.abs(system.column_sum(np.arange(system.n)) - full) <= 1e-12 * full)


def test_base_jitter_reads_the_diagonal_once(monkeypatch):
    X = np.random.default_rng(2).standard_normal((5, 2))
    params = HyperKernelParams(1.0, 1.0, 2)
    system = PairSystem(params, X)
    calls = []
    real = PairSystem.diag

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(PairSystem, "diag", counting)
    jitter = system.base_jitter
    d = system.diag()
    d[:] = 1e9  # callers such as the preconditioner write into diag()
    assert system.base_jitter == jitter
    assert len(calls) == 2
    assert np.array_equal(system.diag(), PairSystem(params, X).diag())


def test_pair_system_validates_like_assembly():
    params = HyperKernelParams(1.0, 1.0, 2)
    X = np.zeros((3, 2))
    with pytest.raises(InvalidInput):
        PairSystem(params, X, [[0, 3]])
    with pytest.raises(InvalidInput):
        PairSystem(params, np.zeros((3, 1)))


def test_pair_system_caps_its_point_factors():
    # 585 points use 585 * (585 * 586 / 2) = 100,271,925 factor entries, one
    # column per unordered pair, above the 1e8 cap (584 points use 99,758,880)
    X = np.random.default_rng(0).standard_normal((585, 2))
    system = PairSystem(HyperKernelParams(1.0, 1.0, 2), X)
    with pytest.raises(ResourceLimit):
        system.matvec(np.zeros(system.n))


def test_pair_system_factors_cover_only_the_points_it_uses():
    # pairs among 3 of 300 points: the factors hold 3 rows, not 300, and one
    # column per unordered pair: {5, 9} serves both of its orders
    X = np.random.default_rng(1).standard_normal((300, 2))
    pairs = np.array([[5, 5], [5, 9], [9, 5], [9, 9], [5, 200]])
    system = PairSystem(HyperKernelParams(1.0, 1.0, 2), X, pairs)
    v = np.arange(1.0, 6.0)
    K = hyper_gram_reference(HyperKernelParams(1.0, 1.0, 2), X, pairs)
    np.testing.assert_allclose(system.matvec(v), K @ v, rtol=1e-12)
    assert system._factors[-1].shape == (3, 4)


# swapped pairs, pairs without their swap, diagonal pairs and repeated pairs
MIXED_PAIRS = np.array([[0, 1], [1, 0], [2, 3], [4, 4], [5, 5], [0, 1], [3, 5], [5, 3],
                        [1, 4], [4, 4], [2, 0], [5, 3]])


def test_pair_system_merges_swaps_and_repeats():
    X = np.random.default_rng(0).standard_normal((6, 2))
    params = HyperKernelParams(0.6, 1.4, 2)
    system = PairSystem(params, X, MIXED_PAIRS)
    distinct = np.array([[0, 1], [0, 2], [1, 4], [2, 3], [3, 5], [4, 4], [5, 5]])
    col, size = system.members
    assert size.tolist() == [3, 1, 1, 1, 3, 2, 1]
    assert np.array_equal(distinct[col], np.sort(MIXED_PAIRS, axis=1))
    g, mids = system.midpoints
    ref_g, ref_mids = hyper.pair_factors(params, X[distinct[:, 0]], X[distinct[:, 1]])
    assert np.array_equal(g, ref_g) and np.array_equal(mids, ref_mids)
    empty = PairSystem(params, X, np.empty((0, 2), dtype=int))
    col, size = empty.members
    g, mids = empty.midpoints
    assert empty.c == 0 and col.shape == size.shape == g.shape == (0,)
    assert mids.shape == (0, 2)


def test_a_released_system_keeps_its_grouping_and_solves_again():
    rng = np.random.default_rng(2)
    system = PairSystem(HyperKernelParams(0.6, 1.4, 2), rng.standard_normal((6, 2)), MIXED_PAIRS)
    v = rng.standard_normal(system.n)
    before, (w, _), (col, _), (_, mids) = (system.matvec(v), system.spectrum,
                                           system.members, system.midpoints)
    system.release()
    assert not {"_factors", "block", "spectrum"} & set(vars(system))
    assert system.members[0] is col and system.midpoints[1] is mids
    assert np.array_equal(system.matvec(v), before)
    assert np.array_equal(system.spectrum[0], w)


@pytest.mark.parametrize("d", [1, 3])
def test_pair_system_on_merged_columns_matches_the_midpoint_reference(d):
    rng = np.random.default_rng(d)
    X = rng.standard_normal((6, d))
    params = HyperKernelParams(0.6, 1.4, d)
    system = PairSystem(params, X, MIXED_PAIRS)
    ref = hyper_gram_reference(params, X, MIXED_PAIRS)
    assert system._factors[-1].shape == (6, 7)
    for v in (rng.standard_normal(system.n), np.ones(system.n)):
        err = np.abs(system.matvec(v) - ref @ v)
        assert np.all(err <= 1e-12 * (ref @ np.abs(v)))
    col, size = system.members
    _, first = np.unique(col, return_index=True)
    M = ref[np.ix_(first, first)] * np.sqrt(np.outer(size, size))
    for k in range(system.c):
        np.testing.assert_allclose(system.reduced_column(k), M[:, k], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(system.block * np.sqrt(np.outer(size, size)), M,
                               rtol=1e-12, atol=0.0)
    for cols in ([0, 1, 5], [3, 4, 9], np.arange(system.n), [7, 7, 2]):
        np.testing.assert_allclose(system.column_sum(cols), ref[:, cols].sum(axis=1),
                                   rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(system.entries, ref, rtol=1e-12, atol=0.0)
    # a pair and its swap read one column of Phi, so their columns agree bitwise
    assert np.array_equal(system.entries[:, 0], system.entries[:, 1])
    assert np.array_equal(system.entries[:, 6], system.entries[:, 7])


def _point_factors_reference(params, X, mids):
    """The former point factors: one u x n temporary per coordinate, then a
    fresh array for the division and one for the exponential."""
    D = np.zeros((X.shape[0], mids.shape[0]))
    for j in range(X.shape[1]):
        D += np.subtract.outer(X[:, j], mids[:, j]) ** 2
    return np.exp(D / (-4.0 * (params.sigma2 + params.sigma_h2)))


@pytest.mark.parametrize("u, n, dim", [(1, 1, 1), (7, 3, 2), (400, 401, 3), (5, 70_000, 2)])
def test_point_factors_equal_the_former_formula_bit_for_bit(u, n, dim):
    # ragged row blocks, a single block, and rows longer than a block
    rng = np.random.default_rng(u + n)
    params = HyperKernelParams(0.3, 0.2, dim)
    X, mids = rng.standard_normal((u, dim)), rng.standard_normal((n, dim))
    assert np.array_equal(hyper.point_factors(params, X, mids),
                          _point_factors_reference(params, X, mids))


def test_point_factors_peak_at_their_output():
    # 400 x 20,000 factors are 64 MB; the former formula peaked at twice that
    rng = np.random.default_rng(0)
    X, mids = rng.uniform(0.0, 1.0, (400, 2)), rng.uniform(0.0, 1.0, (20_000, 2))
    params = HyperKernelParams(0.1, 0.1, 2)
    tracemalloc.start()
    try:
        phi = hyper.point_factors(params, X, mids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * phi.nbytes
