import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklearn import (
    ConvergenceFailure,
    GaussianRBF,
    HyperKernelParams,
    InvalidInput,
    KrrConfig,
    NumericalFailure,
    PairSystem,
    ResourceLimit,
    SvrConfig,
    TL1,
    assemble_hyper_gram,
    fit_krr,
    fit_svr,
    gram_matrix,
)
from hklearn import svr
from hklearn.svr import smo
from qp_oracle import dual_objective, solve_svr_dual
import smo_reference


def epsilon_insensitive_loss(y, t, eps):
    """Oracle: 0 inside the tube of width eps around t, linear outside."""
    gap = abs(y - t)
    return 0.0 if gap < eps else gap - eps


def _gram(rng, m, d=2):
    X = rng.standard_normal((m, d))
    return assemble_hyper_gram(HyperKernelParams(1.0, 1.0, d), X)


def test_loss_inside_tube():
    assert epsilon_insensitive_loss(1.0, 1.05, 0.1) == 0.0


def test_loss_outside_tube():
    assert epsilon_insensitive_loss(1.0, 2.6, 0.1) == pytest.approx(1.5)


def test_loss_zero_eps_is_absolute():
    assert epsilon_insensitive_loss(2.0, -1.5, 0.0) == pytest.approx(3.5)


def test_dual_objective_at_zero():
    gram = _gram(np.random.default_rng(0), 2)
    z = np.zeros(4)
    assert dual_objective(gram, z, z, np.ones(4), 0.1) == 0.0


def test_dual_objective_scalar_expansion():
    gram = assemble_hyper_gram(HyperKernelParams(1.0, 1.0, 1), [[0.0]])
    kappa = gram.entries[0, 0]
    a, b, y, eps = 0.3, 0.1, 0.7, 0.05
    expected = -0.5 * (a - b) ** 2 * kappa + (a - b) * y - eps * (a + b)
    got = dual_objective(gram, np.array([a]), np.array([b]), np.array([y]), eps)
    assert got == pytest.approx(expected, rel=1e-12)


def test_constant_responses_fit_inside_tube(rng):
    gram = _gram(rng, 3)
    model = fit_svr(gram, np.full(9, 2.5), SvrConfig(C=1.0, epsilon=0.1))
    np.testing.assert_array_equal(model.beta.values, 0.0)
    assert model.bias == pytest.approx(2.5)


def test_wide_tube_forces_zero_coefficients(rng):
    gram = _gram(rng, 3)
    y = rng.standard_normal(9)
    eps = float(np.abs(y - y.mean()).max()) * 1.1
    model = fit_svr(gram, y, SvrConfig(C=5.0, epsilon=eps))
    np.testing.assert_array_equal(model.beta.values, 0.0)


def test_smo_matches_qp_oracle(rng):
    for _ in range(5):
        m = int(rng.integers(2, 4))
        gram = _gram(rng, m)
        y = rng.standard_normal(m * m)
        C, eps = 1.0, 0.1
        model = fit_svr(gram, y, SvrConfig(C=C, epsilon=eps, kkt_tol=1e-6))
        bh, bc = solve_svr_dual(gram.entries, y, C, eps)
        np.testing.assert_allclose(model.beta.values, bh - bc, atol=1e-4)
        oracle_obj = dual_objective(gram, bh, bc, y, eps)
        assert abs(model.dual_objective - oracle_obj) <= 1e-6


def test_planted_tube_zero_training_loss():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((3, 2))
    gram = assemble_hyper_gram(HyperKernelParams(1.0, 1.0, 2), X)
    beta_star = 0.5 * rng.standard_normal(9)
    eps = 0.3
    y = gram.entries @ beta_star + 0.2 + rng.uniform(-eps / 4, eps / 4, 9)
    model = fit_svr(gram, y, SvrConfig(C=100.0, epsilon=eps, kkt_tol=1e-8))
    pred = gram.entries @ model.beta.values + model.bias
    assert sum(epsilon_insensitive_loss(a, b, eps) for a, b in zip(y, pred)) == 0.0


def test_negative_coefficients_occur_on_tl1_target():
    X = np.random.default_rng(0).standard_normal((4, 2))
    gram = assemble_hyper_gram(HyperKernelParams(1.0, 1.0, 2), X)
    Y = gram_matrix(TL1(0.7 * 2), X)
    model = fit_svr(gram, Y.ravel(), SvrConfig(C=10.0, epsilon=0.05, kkt_tol=1e-6))
    assert model.beta.values.min() < 0.0


def test_trace_ends_at_the_returned_dual_objective(tmp_path, rng):
    gram = _gram(rng, 4)
    y = rng.standard_normal(16)
    path = tmp_path / "trace.csv"
    model = fit_svr(gram, y, SvrConfig(C=1.0, epsilon=0.05, kkt_tol=1e-8),
                    trace_path=path)
    with open(path, newline="") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert float(last["dual_objective"]) == pytest.approx(
        model.dual_objective, rel=1e-10
    )


def test_trace_is_monotone_ascent(tmp_path, rng):
    gram = _gram(rng, 3)
    y = rng.standard_normal(9)
    path = tmp_path / "trace.csv"
    fit_svr(gram, y, SvrConfig(C=1.0, epsilon=0.05, kkt_tol=1e-8), trace_path=path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["iteration", "dual_objective", "kkt_violation"]
    objs = [float(r["dual_objective"]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))
    # each row logs the violation that triggered its update, so all exceed tol
    assert all(float(r["kkt_violation"]) > 1e-8 for r in rows)


@settings(max_examples=15)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 1.0), st.floats(0.0, 0.3))
def test_solution_always_feasible(seed, C, eps):
    rng = np.random.default_rng(seed)
    gram = _gram(rng, int(rng.integers(2, 4)))
    y = rng.standard_normal(gram.n)
    model = fit_svr(gram, y, SvrConfig(C=C, epsilon=eps))
    b = model.beta.values
    assert b.min() >= -C and b.max() <= C
    assert abs(b.sum()) <= 1e-12 * C * gram.n + 1e-15


def test_complementary_slackness_structural(rng):
    gram = _gram(rng, 3)
    y = 2.0 * rng.standard_normal(9)
    model = fit_svr(gram, y, SvrConfig(C=1.0, epsilon=0.05, kkt_tol=1e-8))
    up = np.maximum(model.beta.values, 0.0)
    dn = np.maximum(-model.beta.values, 0.0)
    assert np.max(up * dn) == 0.0


def test_dual_objective_beats_random_feasible_points(rng):
    gram = _gram(rng, 3)
    y = rng.standard_normal(9)
    C, eps = 1.0, 0.1
    model = fit_svr(gram, y, SvrConfig(C=C, epsilon=eps, kkt_tol=1e-8))
    for _ in range(50):
        b = rng.uniform(-C, C, 9)
        b -= b.sum() / 9.0  # stay on the equality constraint
        b = np.clip(b, -C, C)
        if abs(b.sum()) > 1e-10:
            continue
        rival = dual_objective(
            gram, np.maximum(b, 0), np.maximum(-b, 0), y, eps
        )
        assert model.dual_objective >= rival - 1e-8


def test_iteration_budget_exhaustion_raises(rng, monkeypatch):
    gram = _gram(rng, 3)
    y = 5.0 * rng.standard_normal(9)
    monkeypatch.setattr(svr, "SMO_MAX_ITER", 2)
    monkeypatch.setattr(svr, "SMO_MAX_PASSES", 1)
    with pytest.raises(ConvergenceFailure) as exc:
        fit_svr(gram, y, SvrConfig(C=10.0, epsilon=0.0, kkt_tol=1e-14))
    assert exc.value.violation > 0.0


def _smo_duals(kind, C):
    """Seeded SMO problems: ten-point SVM duals (eps = 0) or SVR duals on 16 pairs."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        if kind == "svm":
            X = rng.standard_normal((10, 2))
            y = np.where(X[:, 0] + rng.standard_normal(10) > 0, 1.0, -1.0)
            y[:2] = (1.0, -1.0)
            yield (gram_matrix(GaussianRBF(1.0), X), y,
                   np.where(y > 0, 0.0, -C), np.where(y > 0, C, 0.0), 0.0)
        else:
            eps = float(kind.split("-")[1])
            yield (_gram(rng, 4).entries, rng.standard_normal(16),
                   np.full(16, -C), np.full(16, C), eps)


def _smo_outcome(solver, dual, kkt_tol=1e-3, max_iter=500_000):
    try:
        return solver(*dual, kkt_tol, 1000, max_iter)
    except ConvergenceFailure as exc:
        return str(exc), exc.violation


@pytest.mark.parametrize("C", [1.0, 100.0, 1e4])
@pytest.mark.parametrize("kind", ["svm", "svr-0.01", "svr-0.1", "svr-0"])
def test_smo_is_bitwise_the_reference_loop(kind, C):
    for dual in _smo_duals(kind, C):
        beta, bias, _ = _smo_outcome(smo, dual)
        ref_beta, ref_bias = _smo_outcome(smo_reference.smo, dual)
        assert np.array_equal(beta, ref_beta)
        assert bias == ref_bias


def test_smo_with_large_gram_entries_and_box_is_the_reference_loop():
    # Gram entries near 1e12 make every step tiny against C = 1e5 while the
    # violation keeps falling; the second dual needs more than one stall
    # window of updates to reach kkt_tol 1e-6
    duals = [(K * 1e12, y, lo, hi, eps) for K, y, lo, hi, eps in _smo_duals("svm", 1e5)]
    assert isinstance(_smo_outcome(smo, duals[1], 1e-6, svr.SMO_STALL_WINDOW)[0], str)
    for dual in duals:
        beta, bias, _ = _smo_outcome(smo, dual, kkt_tol=1e-6)
        ref_beta, ref_bias = _smo_outcome(smo_reference.smo, dual, kkt_tol=1e-6)
        assert np.array_equal(beta, ref_beta)
        assert bias == ref_bias


@pytest.mark.parametrize("kind", ["svm", "svr-0.1"])
def test_smo_runs_out_of_updates_as_the_reference_loop(kind):
    for dual in _smo_duals(kind, 1e4):
        failure = _smo_outcome(smo, dual, kkt_tol=1e-12, max_iter=3)
        assert isinstance(failure[0], str) and failure[1] > 1e-12
        assert failure == _smo_outcome(smo_reference.smo, dual, kkt_tol=1e-12, max_iter=3)


def _svm_box(C, y):
    return np.where(y > 0, 0.0, -C), np.where(y > 0, C, 0.0)


def test_a_solve_below_its_bound_is_the_solve_at_every_larger_c(tmp_path):
    # the peak |beta| stays below C = 1e4 (47 to 3,219), so the box never
    # binds: the same updates, coefficients and bias at C = 1e6
    for K, y, *_ in _smo_duals("svm", 1.0):
        paths = [tmp_path / "small.csv", tmp_path / "large.csv"]
        small = smo(K, y, *_svm_box(1e4, y), 0.0, 1e-3, 1000, 500_000, paths[0])
        large = smo(K, y, *_svm_box(1e6, y), 0.0, 1e-3, 1000, 500_000, paths[1])
        assert np.abs(small[0]).max() <= small[2] < 1e4
        assert np.array_equal(small[0], large[0]) and small[1:] == large[1:]
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_peak_is_void_once_the_gradient_returns_to_its_mark(monkeypatch):
    # with K = 0 every update leaves F = y; a stall check after each update
    # then sees F back at its mark, whose cycle verdict reads the box
    K, y = np.zeros((4, 4)), np.array([1.0, -1.0, 1.0, -1.0])
    assert smo(K, y, *_svm_box(1.0, y), 0.0, 1e-3, 1000, 500_000)[2] == 1.0
    monkeypatch.setattr(svr, "SMO_STALL_WINDOW", 1)
    beta, _, peak = smo(K, y, *_svm_box(1.0, y), 0.0, 1e-3, 1000, 500_000)
    assert peak == np.inf and np.abs(beta).max() == 1.0


@pytest.mark.parametrize("K, y", [
    (np.full((4, 4), 1e308), np.array([1.0, -1.0, 1.0, -1.0])),  # eta = inf - inf
    (np.eye(4), np.array([1.0, -1.0, np.inf, -1.0])),  # the first refresh of F
])
def test_smo_that_overflows_fails_without_a_runtime_warning(K, y):
    with pytest.raises(NumericalFailure, match="not finite"):
        smo(K, y, *_svm_box(1.0, np.sign(y)), 0.0, 1e-3, 1000, 500_000)


def test_config_validation():
    with pytest.raises(InvalidInput):
        SvrConfig(C=0.0, epsilon=0.1)
    with pytest.raises(InvalidInput):
        SvrConfig(C=1.0, epsilon=-0.1)
    with pytest.raises(InvalidInput):
        SvrConfig(C=1.0, epsilon=0.1, kkt_tol=0.0)


def test_size_mismatch_rejected(rng):
    gram = _gram(rng, 2)
    with pytest.raises(InvalidInput):
        fit_svr(gram, np.ones(5), SvrConfig(C=1.0, epsilon=0.1))


def test_oracle_feasibility_and_stationarity(rng):
    # sanity on the reference solver itself: box, hyperplane, objective value
    gram = _gram(rng, 2)
    y = rng.standard_normal(4)
    C, eps = 0.7, 0.05
    bh, bc = solve_svr_dual(gram.entries, y, C, eps)
    assert bh.min() >= -1e-12 and bc.min() >= -1e-12
    assert bh.max() <= C + 1e-12 and bc.max() <= C + 1e-12
    assert abs(bh.sum() - bc.sum()) <= 1e-9


@pytest.mark.parametrize("fit", ["direct", "cg", "svr"])
def test_a_pair_and_its_swap_get_bitwise_equal_coefficients(fit, monkeypatch):
    # every solver works over the distinct unordered pairs, so the two orders
    # of a pair, which have equal rows of K and equal responses, share a value
    m = 8
    X = np.random.default_rng(4).uniform(0.0, 1.0, (m, 2))
    gram = PairSystem(HyperKernelParams(0.2, 0.2, 2), X)
    y = gram_matrix(TL1(1.4), X).ravel()
    if fit == "svr":
        beta = fit_svr(gram, y, SvrConfig(C=10.0, epsilon=0.01)).beta.values
    else:
        monkeypatch.setattr(KrrConfig, "solver", fit)
        beta = fit_krr(gram, y, KrrConfig(1e-3)).values
    B = beta.reshape(m, m)
    assert np.array_equal(B, B.T) and np.abs(B).max() > 0.0


@pytest.mark.parametrize("responses", ["symmetric", "asymmetric"])
def test_reduced_svr_dual_matches_the_ordered_qp_oracle(responses):
    # swapped pairs with equal responses merge into one unknown, pairs whose
    # responses differ stay apart; either way the dual optimum is the full one
    rng = np.random.default_rng(11)
    for _ in range(4):
        gram = _gram(rng, 3)
        Y = rng.standard_normal((3, 3))
        y = (Y + Y.T if responses == "symmetric" else Y).ravel()
        C, eps, tol = 1.0, 0.1, 1e-6
        model = fit_svr(gram, y, SvrConfig(C=C, epsilon=eps, kkt_tol=tol))
        bh, bc = solve_svr_dual(gram.entries, y, C, eps)
        oracle = dual_objective(gram, bh, bc, y, eps)
        assert abs(model.dual_objective - oracle) <= tol
        beta = model.beta.values
        assert abs(dual_objective(gram, np.maximum(beta, 0), np.maximum(-beta, 0), y, eps)
                   - model.dual_objective) <= 1e-12


def test_svr_size_cap_reads_the_distinct_pairs(monkeypatch):
    # 4 points: 16 ordered pairs (256 Gram entries) but 10 distinct unordered
    # ones, so the SVR's block holds 100 entries
    import hklearn.hyper as hyper

    X = np.random.default_rng(2).standard_normal((4, 2))
    Y = gram_matrix(GaussianRBF(1.0), X)
    config = SvrConfig(C=1.0, epsilon=0.01)
    monkeypatch.setattr(hyper, "MAX_ENTRIES", 100)
    gram = PairSystem(HyperKernelParams(1.0, 1.0, 2), X)
    assert (gram.n, gram.c) == (16, 10)
    assert fit_svr(gram, Y.ravel(), config).beta.n == 16
    # responses that differ between a pair and its swap keep all 16 unknowns
    with pytest.raises(ResourceLimit, match="256 entries"):
        fit_svr(gram, (Y + np.triu(np.ones((4, 4)), 1)).ravel(), config)
    monkeypatch.setattr(hyper, "MAX_ENTRIES", 99)
    with pytest.raises(ResourceLimit, match="100 entries"):
        fit_svr(PairSystem(HyperKernelParams(1.0, 1.0, 2), X), Y.ravel(), config)
