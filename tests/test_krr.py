import re
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, cg

from hklearn import (
    CoefficientField,
    HyperKernelParams,
    InvalidInput,
    KrrConfig,
    NumericalFailure,
    PairSystem,
    assemble_hyper_gram,
    data_sigma2,
    fit_krr,
    full_pair_list,
)
from hklearn import krr
from hklearn.base_kernels import TL1, gram_matrix
from hklearn.krr import CG_MAX_ITER, shared_spectrum, solve_spd_with_jitter
from hklearn.pipeline import DEFAULT_REG_GRID
from hklearn.scaling import nystrom_restrict
from cholesky_reference import solve_spd_with_jitter_reference
from midpoint_reference import hyper_gram_reference
from nystrom_reference import nystrom_preconditioner_reference


def _solve_path(monkeypatch, **constants):
    """Set KrrConfig's solve path class constants for the rest of the test."""
    for name, value in constants.items():
        monkeypatch.setattr(KrrConfig, name, value)


def krr_objective(gram, beta, responses, lam):
    """Oracle: ``||K beta - y||^2 + lam * beta' K beta``, which the fit minimizes."""
    K = gram.entries
    r = K @ beta - responses
    return float(r @ r + lam * beta @ (K @ beta))


def _random_gram(rng, m, d=2):
    X = rng.standard_normal((m, d))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    return assemble_hyper_gram(HyperKernelParams(1.0, 1.0, d), X)


def test_identity_gram_closed_form(rng):
    y = rng.standard_normal(4)
    beta, jitter = solve_spd_with_jitter(np.eye(4), 1.0, y, 1e-10)
    np.testing.assert_allclose(beta, y / 2.0, rtol=1e-12)
    assert jitter == 0.0


def test_scalar_closed_form():
    gram = assemble_hyper_gram(HyperKernelParams(1.0, 1.0, 1), [[0.3]])
    kappa = gram.entries[0, 0]
    lam = 0.05
    beta = fit_krr(gram, [2.0], KrrConfig(lam))
    assert beta.values[0] == pytest.approx(2.0 / (kappa + lam), rel=1e-12)


def test_planted_recovery(rng):
    gram = _random_gram(rng, 8)
    planted = rng.standard_normal(64)
    y = gram.entries @ planted
    beta = fit_krr(gram, y, KrrConfig(1e-10))
    pred = gram.entries @ beta.values.ravel()
    assert np.max(np.abs(pred - y)) <= 1e-6


def test_direct_residual_bound(rng):
    for lam in (1e-6, 1e-3, 1.0):
        gram = _random_gram(rng, 6)
        y = rng.standard_normal(36)
        beta = fit_krr(gram, y, KrrConfig(lam))
        r = gram.entries @ beta.values.ravel() + (lam + beta.jitter_applied) * beta.values.ravel() - y
        assert np.linalg.norm(r) / max(1.0, np.linalg.norm(y)) <= 1e-8


def test_cg_agrees_with_direct(rng, monkeypatch):
    gram = _random_gram(rng, 8)
    y = rng.standard_normal(64)
    _solve_path(monkeypatch, solver="direct")
    direct = fit_krr(gram, y, KrrConfig(1e-2))
    _solve_path(monkeypatch, solver="cg", cg_tol=1e-12)
    iterative = fit_krr(gram, y, KrrConfig(1e-2))
    np.testing.assert_allclose(
        iterative.values, direct.values, rtol=1e-6, atol=1e-6 * np.abs(direct.values).max()
    )


@pytest.mark.parametrize("lam", [1e-1, 1e-3, 1e-4])
def test_cg_on_the_operator_matches_cg_on_the_dense_gram(rng, lam, monkeypatch):
    X = rng.uniform(0.0, 1.0, (24, 2))
    params = HyperKernelParams(0.2, 0.2, 2)
    system = PairSystem(params, X)
    K = assemble_hyper_gram(params, X).entries
    y = rng.standard_normal(system.n)
    _solve_path(monkeypatch, solver="cg")
    config = KrrConfig(lam)
    free = fit_krr(system, y, config)
    # the dense side multiplies by the assembled matrix, not by the operator
    dense, info = cg(K + lam * np.eye(system.n), y, rtol=1e-12, atol=0.0,
                     maxiter=CG_MAX_ITER)
    assert info == 0
    scale = np.abs(dense).max()
    assert np.abs(free.values - dense).max() <= 1e-9 * scale
    residual = K @ free.values + lam * free.values - y
    assert np.linalg.norm(residual) <= config.cg_tol * max(1.0, np.linalg.norm(y))
    assert free.solver == "cg"
    assert isinstance(free.cg_iterations, int) and free.cg_iterations > 0
    assert "entries" not in vars(system)  # the dense matrix was never formed


def _restart_system():
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, (24, 2))
    return PairSystem(HyperKernelParams(0.2, 0.2, 2), X), rng.standard_normal(576)


def test_cg_restarts_when_its_recursive_residual_drifts(monkeypatch):
    # one CG run stops on its recursive residual while the true one is
    # 5.7e-9 relative, above cg_tol; a restart from its iterate meets cg_tol
    system, y = _restart_system()
    _solve_path(monkeypatch, solver="cg")
    config = KrrConfig(1e-5)
    field = fit_krr(system, y, config)
    residual = system.matvec(field.values) + config.lam * field.values - y
    assert np.linalg.norm(residual) <= config.cg_tol * max(1.0, np.linalg.norm(y))
    assert field.solver == "cg" and field.cg_iterations > 0


def _counted_pcg(monkeypatch, run):
    """Replace ``krr._pcg`` by ``run(call, args)``, where ``call`` numbers the
    calls from 0; returns the list of iteration counts, one entry per call."""
    counts = []

    def wrapper(*args):
        x, steps = run(len(counts), args)
        counts.append(steps)
        return x, steps

    monkeypatch.setattr(krr, "_pcg", wrapper)
    return counts


def test_cg_restart_meets_cg_tol_and_counts_every_call(monkeypatch):
    # a first call stopped after 2 iterations misses cg_tol, so the fit
    # restarts from its iterate
    pcg = krr._pcg

    def run(call, args):
        matvec, b, x0, rtol, maxiter, precond = args
        return pcg(matvec, b, x0, rtol, 2 if call == 0 else maxiter, precond)

    counts = _counted_pcg(monkeypatch, run)
    system, y = _restart_system()
    _solve_path(monkeypatch, solver="cg")
    config = KrrConfig(1e-5)
    field = fit_krr(system, y, config)
    residual = system.matvec(field.values) + config.lam * field.values - y
    assert np.linalg.norm(residual) <= config.cg_tol * max(1.0, np.linalg.norm(y))
    assert len(counts) >= 2 and counts[0] == 2
    assert field.cg_iterations == sum(counts)


def test_cg_that_never_moves_fails_after_every_restart(monkeypatch):
    def run(call, args):
        x0 = args[2]
        return (np.zeros(576) if x0 is None else x0), 0

    counts = _counted_pcg(monkeypatch, run)
    system, y = _restart_system()
    _solve_path(monkeypatch, solver="cg")
    with pytest.raises(NumericalFailure, match="solve residual"):
        fit_krr(system, y, KrrConfig(1e-5))
    assert len(counts) == krr.CG_RESTARTS + 1


def test_cg_at_lambda_zero_fails_before_iterating(monkeypatch):
    # at lambda 0, CG would run unpreconditioned on the semidefinite K and
    # diverge for every restart's CG_MAX_ITER iterations
    counts = _counted_pcg(monkeypatch, lambda call, args: pytest.fail("CG iterated"))
    system, y = _restart_system()
    _solve_path(monkeypatch, solver="cg")
    with pytest.raises(NumericalFailure, match="lambda"):
        fit_krr(system, y, KrrConfig(0.0))
    assert counts == []


@pytest.mark.parametrize(
    "system_of, lam, maxiter",
    [(_restart_system, 1e-5, CG_MAX_ITER), (_restart_system, 0.0, 300),
     (lambda: _tl1_system(46), 1e-3, CG_MAX_ITER)],
    ids=["restart", "unpreconditioned", "extend-tl1"],
)
def test_pcg_equals_scipy_cg_bit_for_bit(system_of, lam, maxiter):
    # the numpy loop copies the operation order of scipy.sparse.linalg.cg, so
    # its iterates and iteration counts are scipy's, from zero and from an
    # iterate; at lam 0 there is no preconditioner and the run ends at maxiter
    system, y = system_of()
    precond, rank = krr.nystrom_preconditioner(system, lam)
    assert (rank > 0) == (lam > 0)
    n = system.n
    op = LinearOperator((n, n), dtype=float, matvec=lambda v: system.matvec(v) + lam * v)
    M = None if precond is None else LinearOperator((n, n), dtype=float, matvec=precond)
    x = None
    for _ in range(2):
        steps = []
        expected, _ = cg(op, y, x0=x, rtol=1e-12, atol=0.0, maxiter=maxiter, M=M,
                         callback=lambda _: steps.append(1))
        x, iterations = krr._pcg(op.matvec, y, x, 1e-12, maxiter, precond)
        assert np.array_equal(x, expected)
        assert iterations == len(steps) > 0


def test_cg_failure_prints_the_relative_residual(rng, monkeypatch):
    X = rng.standard_normal((4, 2))
    y = 1e12 * rng.standard_normal(16)
    _solve_path(monkeypatch, solver="cg", cg_tol=1e-17)
    config = KrrConfig(1e-2)
    with pytest.raises(NumericalFailure) as excinfo:
        fit_krr(PairSystem(HyperKernelParams(1.0, 1.0, 2), X), y, config)
    printed = float(re.search(r"solve residual (\S+) exceeds", str(excinfo.value))[1])
    # roundoff alone leaves an absolute residual near 1e-16 * ||y|| ~ 1e-4, so
    # a printed value this small is ||r|| / max(1, ||y||)
    assert 0.0 < printed <= 1e-10
    assert "tolerance 1e-17" in str(excinfo.value)


def test_cg_below_roundoff_fails_with_a_finite_residual(rng, monkeypatch):
    # without the eps floor on rtol, 1e-300 let rho = r'z underflow to zero
    # and _pcg's next step divide by it
    X = rng.standard_normal((4, 2))
    y = 1e12 * rng.standard_normal(16)
    _solve_path(monkeypatch, solver="cg", cg_tol=1e-300)
    config = KrrConfig(1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalFailure) as excinfo:
            fit_krr(PairSystem(HyperKernelParams(1.0, 1.0, 2), X), y, config)
    printed = float(re.search(r"solve residual (\S+) exceeds", str(excinfo.value))[1])
    assert np.isfinite(printed)


def _tl1_system(m, seed=0):
    """An extend-tl1-like system: uniform points, sigma_h2 = sigma2, TL1 target."""
    X = np.random.default_rng(seed).uniform(0.0, 1.0, (m, 2))
    s2 = data_sigma2(X)
    return PairSystem(HyperKernelParams(s2, s2, 2), X), gram_matrix(TL1(1.4), X).ravel()


@pytest.mark.parametrize("restrict", [False, True], ids=["full", "restricted"])
def test_preconditioned_cg_matches_the_direct_solve(restrict, monkeypatch):
    X = np.random.default_rng(1).uniform(0.0, 1.0, (20, 2))
    pairs = nystrom_restrict(20, 10, seed=2)[1] if restrict else None
    system = PairSystem(HyperKernelParams(0.1, 0.1, 2), X, pairs)
    y = np.random.default_rng(3).standard_normal(system.n)
    _solve_path(monkeypatch, solver="direct")
    direct = fit_krr(system, y, KrrConfig(1e-3)).values
    _solve_path(monkeypatch, solver="cg")
    field = fit_krr(system, y, KrrConfig(1e-3))
    assert field.preconditioner_rank > 0
    assert np.abs(field.values - direct).max() <= 1e-9 * np.abs(direct).max()


def test_preconditioned_cg_converges_fast_on_the_tl1_extension():
    system, y = _tl1_system(46)
    config = KrrConfig(1e-3)
    first, second = fit_krr(system, y, config), fit_krr(system, y, config)
    assert first.solver == "cg" and first.cg_iterations <= 20
    assert 0 < first.preconditioner_rank <= 100
    assert "entries" not in vars(system)  # columns come from the factors
    assert np.array_equal(first.values, second.values)
    assert (first.cg_iterations, first.preconditioner_rank) == (
        second.cg_iterations, second.preconditioner_rank)


def test_columns_match_the_midpoint_reference(rng):
    X = rng.uniform(0.0, 1.0, (9, 2))
    params = HyperKernelParams(0.3, 0.2, 2)
    _, pairs = nystrom_restrict(9, 4, seed=0)
    system = PairSystem(params, X, pairs)
    K = hyper_gram_reference(params, X, pairs)
    for s in range(system.n):
        np.testing.assert_allclose(system.column(s), K[:, s], rtol=1e-12, atol=0.0)


def _record_cholesky_qr3(monkeypatch):
    """A list that receives (F', Q', R') of each basis the preconditioner builds."""
    bases, real = [], krr._cholesky_qr3

    def recording(Ft):
        Qt, L = real(Ft)
        bases.append((Ft.copy(), Qt, L))
        return Qt, L

    monkeypatch.setattr(krr, "_cholesky_qr3", recording)
    return bases


@pytest.mark.parametrize("lam, rank", [(1e-1, 22), (1e-3, 36), (1e-7, 67), (1e-10, 92),
                                       (1e-300, 100)])
def test_preconditioner_equals_the_householder_reference(lam, rank, monkeypatch):
    # shifted CholeskyQR3 and Householder QR give one operator at equal rank;
    # at lam 1e-300 the factor is far too ill-conditioned for plain CholeskyQR
    system, _ = _tl1_system(46)
    bases = _record_cholesky_qr3(monkeypatch)
    precond, got_rank = krr.nystrom_preconditioner(system, lam)
    expected, ref_rank = nystrom_preconditioner_reference(system, lam)
    assert got_rank == ref_rank == rank
    block = np.random.default_rng(5).standard_normal((system.n, 6))
    got = np.column_stack([precond(v) for v in block.T])
    ref = np.column_stack([expected(v) for v in block.T])
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    (Ft, Qt, L), = bases
    Ut = np.linalg.eigh(L.T @ L)[1].T @ Qt  # U = QV, as the preconditioner forms it
    assert np.linalg.norm(Ut @ Ut.T - np.eye(rank)) <= 1e-12
    assert np.linalg.norm(L @ Qt - Ft) <= 1e-12 * np.linalg.norm(Ft)


@pytest.mark.parametrize("lam", [1e-20, 1e-100, 1e-300])
def test_preconditioner_stops_at_the_roundoff_of_its_residual_diagonal(lam, monkeypatch):
    # narrow bumps on 12 spread points: the diagonal spans many decades, and
    # pivots on residuals below rank * eps * max(diag) would be columns of
    # roundoff that CholeskyQR cannot orthonormalize
    X = np.random.default_rng(0).uniform(0.0, 1.0, (12, 1))
    system = PairSystem(HyperKernelParams(1e-5, 1e-7, 1), X)
    bases = _record_cholesky_qr3(monkeypatch)
    precond, rank = krr.nystrom_preconditioner(system, lam)
    floor = krr.PRECONDITIONER_RANK * np.finfo(float).eps * system.diag().max()
    _, ref_rank = nystrom_preconditioner_reference(system, floor * 100.0)
    assert 0 < rank == ref_rank < krr.PRECONDITIONER_RANK
    (_, Qt, _), = bases
    assert np.linalg.norm(Qt @ Qt.T - np.eye(rank)) <= 1e-12
    v = np.random.default_rng(1).standard_normal(system.n)
    assert np.all(np.isfinite(precond(v)))


@pytest.mark.parametrize("m", [24, 46])
@pytest.mark.parametrize("lam", [1e-1, 1e-3, 1e-4])
def test_preconditioned_cg_solves_what_plain_cg_solves(m, lam, monkeypatch):
    system, y = _tl1_system(m)
    _solve_path(monkeypatch, solver="cg")
    config = KrrConfig(lam)
    scale = config.cg_tol * max(1.0, np.linalg.norm(y))
    op = LinearOperator((system.n, system.n), dtype=float,
                        matvec=lambda v: system.matvec(v) + lam * v)
    plain, _ = cg(op, y, rtol=1e-12, atol=0.0, maxiter=CG_MAX_ITER)
    assert np.linalg.norm(op.matvec(plain) - y) <= scale
    field = fit_krr(system, y, config)
    assert np.linalg.norm(op.matvec(field.values) - y) <= scale


def test_direct_solve_on_the_operator_matches_the_dense_gram(rng):
    X = rng.standard_normal((7, 2))
    params = HyperKernelParams(1.0, 1.0, 2)
    y = rng.standard_normal(49)
    free = fit_krr(PairSystem(params, X), y, KrrConfig(1e-3))
    dense = fit_krr(assemble_hyper_gram(params, X), y, KrrConfig(1e-3))
    assert np.array_equal(free.values, dense.values)
    assert (free.solver, free.cg_iterations) == ("direct", None)


def test_auto_solver_switches_on_size(rng, monkeypatch):
    gram = _random_gram(rng, 4)
    y = rng.standard_normal(16)
    _solve_path(monkeypatch, solver="auto", direct_limit=4, cg_tol=1e-12)
    small_limit = fit_krr(gram, y, KrrConfig(1e-2))
    _solve_path(monkeypatch, solver="auto", direct_limit=1000)
    large_limit = fit_krr(gram, y, KrrConfig(1e-2))
    np.testing.assert_allclose(small_limit.values, large_limit.values, rtol=1e-6)


def test_shrinkage_monotone_in_lambda(rng):
    gram = _random_gram(rng, 5)
    y = rng.standard_normal(25)
    norms = [
        np.linalg.norm(fit_krr(gram, y, KrrConfig(lam)).values)
        for lam in np.logspace(-5, 5, 11)
    ]
    assert all(b <= a * (1 + 1e-10) for a, b in zip(norms, norms[1:]))


def test_objective_at_solution_beats_zero_and_perturbations(rng):
    gram = _random_gram(rng, 4)
    y = rng.standard_normal(16)
    lam = 0.1
    beta = fit_krr(gram, y, KrrConfig(lam)).values.ravel()
    at_fit = krr_objective(gram, beta, y, lam)
    assert at_fit <= np.dot(y, y) + 1e-12
    for _ in range(100):
        delta = rng.standard_normal(16)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert at_fit <= krr_objective(gram, beta + delta, y, lam) + 1e-12


def test_lambda_zero_accepted_with_jitter(rng):
    gram = _random_gram(rng, 3)
    y = rng.standard_normal(9)
    beta = fit_krr(gram, y, KrrConfig(0.0))
    assert np.all(np.isfinite(beta.values))


def test_singular_without_jitter_raises():
    # duplicated points give identical gram rows; lambda 0 and no retries
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    gram = assemble_hyper_gram(HyperKernelParams(1.0, 1.0, 2), X)
    with pytest.raises(NumericalFailure):
        fit_krr(gram, np.ones(9), KrrConfig(0.0, jitter=False))


def test_negative_lambda_rejected():
    with pytest.raises(InvalidInput):
        KrrConfig(-1.0)


def test_size_mismatch_rejected(rng):
    gram = _random_gram(rng, 3)
    with pytest.raises(InvalidInput):
        fit_krr(gram, np.ones(4), KrrConfig(1.0))


def test_coefficient_field_shape_and_finiteness():
    pairs = full_pair_list(2)
    field = CoefficientField(np.arange(4.0), pairs, 2)
    assert field.n == 4 and field.values.shape == (4,)
    with pytest.raises(InvalidInput):
        CoefficientField(np.array([1.0, np.inf, 0.0, 0.0]), pairs, 2)


def _study_system(m):
    """The pair system of m uniform points in the unit square and RBF responses."""
    X = np.random.default_rng(m).uniform(0.0, 1.0, (m, 2))
    y = np.exp(-np.sum((X[:, None] - X[None]) ** 2, axis=-1) / 0.5).ravel()
    return PairSystem(HyperKernelParams(0.1, 0.1, 2), X), y


def _outcome(solve, *args, **kwargs):
    """(x, jitter) of a solve, or None where it raises NumericalFailure."""
    try:
        return solve(*args, **kwargs)
    except NumericalFailure:
        return None


def _gap(entries, shift, x, x_ref, y):
    """||A (x - x_ref)|| / (||A||_F ||x_ref|| + ||y||) for A = entries + shift I.

    The normwise relative gap between two solutions of A x = y: both are exact
    for right-hand sides that differ by A (x - x_ref).  Their forward gap is at
    most the condition number of A times this.
    """
    A = entries + shift * np.eye(entries.shape[0])
    return np.linalg.norm(A @ (x - x_ref)) / (
        np.linalg.norm(A) * np.linalg.norm(x_ref) + np.linalg.norm(y))


@pytest.mark.parametrize("lam", [1e-10, 1e-5, 1e-1])
@pytest.mark.parametrize("m", [9, 12, 20, 44])
def test_direct_solve_matches_the_scipy_cholesky_reference(m, lam):
    system, y = _study_system(m)
    K, base = system.entries, system.base_jitter()
    ref = _outcome(solve_spd_with_jitter_reference, K, lam, y, base)
    got = _outcome(solve_spd_with_jitter, K, lam, y, base)
    assert (got is None) == (ref is None)
    if ref is None:  # from 144 pairs up, lambda 1e-10 fails on every rung
        assert m > 9 and lam == 1e-10
        return
    assert got[1] == ref[1]
    assert _gap(K, lam + ref[1], got[0], ref[0], y) <= 1e-12


@pytest.mark.parametrize("m", [9, 12, 20])
def test_grid_solves_from_one_eigendecomposition_match_per_lambda_fits(m):
    system, y = _study_system(m)
    configs = [KrrConfig(lam) for lam in DEFAULT_REG_GRID + (1e-10,)]
    spectrum = shared_spectrum(system, configs)
    assert spectrum is not None
    failed = []
    for config in configs:
        alone = _outcome(fit_krr, system, y, config)
        shared = _outcome(fit_krr, system, y, config, spectrum=spectrum)
        assert (shared is None) == (alone is None), config
        if alone is None:
            failed.append(config.lam)
            continue
        assert shared.jitter_applied == alone.jitter_applied
        shift = config.lam + alone.jitter_applied
        assert _gap(system.entries, shift, shared.values, alone.values, y) <= 1e-12
    # only the row below the grid fails, and only from 144 pairs up
    assert failed == ([] if m == 9 else [1e-10])


def test_shared_spectrum_is_taken_only_for_enough_direct_ridge_solves(monkeypatch):
    system, _ = _study_system(4)
    few = [KrrConfig(lam) for lam in DEFAULT_REG_GRID[: krr.SPECTRUM_MIN_SOLVES - 1]]
    assert shared_spectrum(system, few) is None
    assert shared_spectrum(system, few + [KrrConfig(1.0)]) is not None
    _solve_path(monkeypatch, solver="cg")
    assert shared_spectrum(system, few + [KrrConfig(1.0)]) is None


def test_a_non_positive_shifted_eigenvalue_fails_that_rung():
    # w + shift = -1, then 0 on the first jitter rung, then positive
    spectrum = (np.array([-2.0, 3.0]), np.eye(2))
    entries = np.diag(spectrum[0])
    x, jitter = solve_spd_with_jitter(entries, 1.0, np.ones(2), 1.0, spectrum=spectrum)
    assert jitter == 10.0
    np.testing.assert_allclose(x, [1 / 9, 1 / 14], rtol=1e-14)
    with pytest.raises(NumericalFailure, match="factorization failed and jitter is disabled"):
        solve_spd_with_jitter(entries, 1.0, np.ones(2), 1.0, retries=0, spectrum=spectrum)


def test_direct_solve_that_overflows_fails_without_a_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalFailure, match="norm of the responses overflows"):
            solve_spd_with_jitter(np.eye(3), 1.0, np.array([1e308, 1.0, 1.0]), 1e-10)
        # a subnormal shifted eigenvalue overflows the solution
        spectrum = (np.full(2, 1e-310), np.eye(2))
        with pytest.raises(NumericalFailure, match="residual is not finite"):
            solve_spd_with_jitter(np.zeros((2, 2)), 0.0, np.ones(2), 0.0, retries=0,
                                  spectrum=spectrum)
