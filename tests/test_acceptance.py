"""End-to-end acceptance checks, one per shipping criterion.

Each test is named ``test_criterion_<n>_...`` so the terminal summary in
conftest.py can print a pass/fail line per criterion.  Tolerances here are
contractual; do not loosen them.
"""

import json
import re
import time

import numpy as np
from scipy.linalg import eigvalsh

from hklearn import (
    GaussianRBF,
    HyperKernelParams,
    KrrConfig,
    LearnedKernel,
    NumericalFailure,
    ScalingConfig,
    SvrConfig,
    TL1,
    assemble_hyper_gram,
    data_sigma2,
    eval_hyper_kernel,
    eval_pairs,
    fit_decomposed,
    fit_extend,
    fit_krr,
    fit_svr,
    fixture_path,
    full_pair_list,
    gram_matrix,
    kmeans_partition,
    learned_gram,
    learning_rate_study,
    load_learned,
    nystrom_restrict,
    pair_partition,
    save_learned,
    svm_predict,
    svm_train,
)
from decomposition_reference import decomposition_bound as dense_decomposition_bound
from hklearn.cli import ingest_dataset, main
from qp_oracle import dual_objective, solve_svr_dual


def test_criterion_1_smo_matches_qp_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(25):
        m = 2 + trial % 2
        X = rng.standard_normal((m, 2))
        gram = assemble_hyper_gram(HyperKernelParams(1.0, 1.0, 2), X)
        y = rng.standard_normal(m * m)
        C, eps = 1.0, 0.1
        model = fit_svr(gram, y, SvrConfig(C=C, epsilon=eps, kkt_tol=1e-6))
        beta_hat, beta_check = solve_svr_dual(gram.entries, y, C, eps)
        np.testing.assert_allclose(
            model.beta.values, beta_hat - beta_check, atol=1e-4
        )
        oracle_obj = dual_objective(gram, beta_hat, beta_check, y, eps)
        assert abs(model.dual_objective - oracle_obj) <= 1e-6
    assert time.perf_counter() - start < 30.0


def test_criterion_2_krr_residuals_and_planted_recovery(monkeypatch):
    rng = np.random.default_rng(202)
    monkeypatch.setattr(KrrConfig, "solver", "direct")
    # every direct solve that completes meets the relative residual
    # tolerance; on systems where no double-precision solution can, the
    # solver must refuse instead of returning a bad answer
    completed = 0
    for lam in (1e-10, 1e-6, 1e-3, 1.0):
        for m in (4, 6, 8):
            X = rng.standard_normal((m, 2))
            s2 = data_sigma2(X)
            gram = assemble_hyper_gram(HyperKernelParams(s2, s2, 2), X)
            y = rng.standard_normal(m * m)
            try:
                beta = fit_krr(gram, y, KrrConfig(lam=lam))
            except NumericalFailure:
                continue
            completed += 1
            shift = lam + beta.jitter_applied
            resid = np.linalg.norm(
                gram.entries @ beta.values + shift * beta.values - y
            ) / max(1.0, np.linalg.norm(y))
            assert resid <= 1e-8
    assert completed >= 9  # all well-posed instances went through
    # planted coefficients are recovered through the predictions
    X = rng.standard_normal((8, 2))
    s2 = data_sigma2(X)
    gram = assemble_hyper_gram(HyperKernelParams(s2, s2, 2), X)
    beta_star = rng.standard_normal(64)
    y = gram.entries @ beta_star
    beta = fit_krr(gram, y, KrrConfig(lam=1e-10))
    pred = gram.entries @ beta.values
    assert np.max(np.abs(pred - y)) <= 1e-6


def test_criterion_3_hyper_gram_psd_and_swap_symmetry():
    rng = np.random.default_rng(303)
    for _ in range(100):
        m = int(rng.integers(2, 11))
        d = int(rng.integers(1, 6))
        X = rng.standard_normal((m, d))
        s2 = float(rng.uniform(0.3, 2.0))
        sh2 = float(rng.uniform(0.3, 2.0))
        params = HyperKernelParams(s2, sh2, d)
        gram = assemble_hyper_gram(params, X)
        w = eigvalsh(gram.entries)
        assert w[0] >= -1e-8 * w[-1]
        for _ in range(2):
            a, b, c, e = (X[rng.integers(m)] for _ in range(4))
            lhs = eval_hyper_kernel(params, (a, b), (c, e))
            rhs = eval_hyper_kernel(params, (b, a), (c, e))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_criterion_4_decomposition_bound():
    for k in range(10):
        rng = np.random.default_rng(300 + k)
        m = 8 + k % 3
        X = rng.standard_normal((m, 2))
        s2 = data_sigma2(X)
        Y = gram_matrix(GaussianRBF(s2), X)
        params = HyperKernelParams(s2, s2, 2)
        base = SvrConfig(C=1.0, epsilon=0.05, kkt_tol=1e-6)
        _, diag = fit_decomposed(X, Y, base, ScalingConfig(2, m, k), params)
        assert diag.observed_gap is not None
        assert diag.observed_gap <= diag.bound
        # the list holds every pair with its swap, so K is singular exactly
        assert diag.sigma_min == 0.0 and diag.bound == float("inf")
        # with jitter the spectrum floor is positive and the bound is finite
        _, pairs = nystrom_restrict(m, m, k)
        clusters = pair_partition(kmeans_partition(X, 2, k), pairs)
        gram = assemble_hyper_gram(params, X, pairs)
        jittered = gram.entries + gram.base_jitter * np.eye(gram.n)
        finite = dense_decomposition_bound(jittered, clusters, base.C, diag.observed_gap)
        assert np.isfinite(finite.bound)
        assert diag.observed_gap <= finite.bound
    # degenerate single-cluster decomposition equals the direct solve
    rng = np.random.default_rng(310)
    X = rng.standard_normal((8, 2))
    s2 = data_sigma2(X)
    Y = gram_matrix(GaussianRBF(s2), X)
    params = HyperKernelParams(s2, s2, 2)
    _, diag = fit_decomposed(
        X, Y, SvrConfig(C=1.0, epsilon=0.05, kkt_tol=1e-6),
        ScalingConfig(1, 8, 0), params
    )
    assert diag.observed_gap <= 1e-10


def _fixture_heldout_setup():
    X_all, _ = ingest_dataset(fixture_path("two_moons.csv"))
    train_idx = np.arange(0, X_all.shape[0], 2)
    held_idx = np.arange(1, X_all.shape[0], 2)
    train = X_all[train_idx]
    s2 = data_sigma2(train)
    Y_all = gram_matrix(GaussianRBF(s2), X_all)
    Y_train = Y_all[np.ix_(train_idx, train_idx)]
    a = np.repeat(held_idx, X_all.shape[0])
    b = np.tile(np.arange(X_all.shape[0]), held_idx.size)
    truth = Y_all[a, b]

    def heldout_rmse(lk):
        pred = eval_pairs(lk, X_all[a], X_all[b])
        return float(np.sqrt(np.mean((pred - truth) ** 2)))

    return X_all, train, s2, Y_train, heldout_rmse


def test_criterion_5_nystrom_exactness_and_half_landmarks():
    X_all, train, s2, Y_train, heldout_rmse = _fixture_heldout_setup()
    m = train.shape[0]
    hp = {"sigma2": s2, "sigma_h2": s2, "reg": 1e-4}
    params = HyperKernelParams(s2, s2, X_all.shape[1])
    base = KrrConfig(lam=1e-4)

    full_lk = fit_extend(train, Y_train, "krr", hp)
    lk_all, _ = fit_decomposed(
        train, Y_train, base, ScalingConfig(1, m, 0), params
    )
    assert np.max(
        np.abs(lk_all.coefficients.values - full_lk.coefficients.values)
    ) <= 1e-10

    rmse_full = heldout_rmse(full_lk)
    halves = []
    for seed in range(10):
        lk_s, _ = fit_decomposed(
            train, Y_train, base, ScalingConfig(1, m // 2, seed), params
        )
        halves.append(heldout_rmse(lk_s))
    assert float(np.median(halves)) <= 2.0 * rmse_full


def test_criterion_6_out_of_sample_fit_quality():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    m = 20
    X = rng.normal(size=(m, 3))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    s2 = data_sigma2(X)
    Y = gram_matrix(GaussianRBF(s2), X)
    pairs = full_pair_list(m)

    # hold out 20% of the unordered off-diagonal pairs, mirrored
    uppers = [(i, j) for i in range(m) for j in range(i + 1, m)]
    perm = rng.permutation(len(uppers))
    held = {uppers[k] for k in perm[: int(round(0.2 * len(uppers)))]}
    held |= {(j, i) for (i, j) in held}
    keep = np.array([(i, j) not in held for i, j in pairs])
    train_pairs, test_pairs = pairs[keep], pairs[~keep]

    params = HyperKernelParams(s2, s2, 3)
    gram = assemble_hyper_gram(params, X, train_pairs)
    y_tr = Y[train_pairs[:, 0], train_pairs[:, 1]]
    y_te = Y[test_pairs[:, 0], test_pairs[:, 1]]

    def rmse_of(lk):
        pred = eval_pairs(lk, X[test_pairs[:, 0]], X[test_pairs[:, 1]])
        return float(np.sqrt(np.mean((pred - y_te) ** 2)))

    krr_lk = LearnedKernel(fit_krr(gram, y_tr, KrrConfig(lam=1e-6)), 0.0)
    assert rmse_of(krr_lk) <= 0.15

    model = fit_svr(gram, y_tr, SvrConfig(C=1000.0, epsilon=0.02, kkt_tol=1e-5))
    svr_lk = LearnedKernel(model.beta, model.bias)
    assert rmse_of(svr_lk) <= 0.15

    assert time.perf_counter() - start < 60.0


def test_criterion_7_indefinite_learning_and_ideal_accuracy():
    # an indefinite target can produce a genuinely indefinite learned kernel
    indefinite = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((20, 2))
        s2 = data_sigma2(X)
        Y = gram_matrix(TL1(0.7 * 2), X)
        lk = fit_extend(
            X, Y, "krr", {"sigma2": s2, "sigma_h2": s2, "reg": 1e-8}
        )
        X_test = rng.standard_normal((15, 2))
        _, report = learned_gram(lk, X_test)
        if report.min_eigenvalue < -1e-6:
            indefinite += 1
    assert indefinite >= 1

    # the label-agreement target drives the downstream classifier to 100%
    rng = np.random.default_rng(5)
    half = 6
    X = np.vstack(
        [rng.normal(0, 0.5, (half, 2)), rng.normal(3, 0.5, (half, 2))]
    )
    labels = np.array([1.0] * half + [-1.0] * half)
    s2 = data_sigma2(X)
    ideal = np.where(labels[:, None] == labels[None, :], 1.0, -1.0)
    lk = fit_extend(
        X, ideal, "krr", {"sigma2": s2, "sigma_h2": s2, "reg": 1e-8}
    )
    G, _ = learned_gram(lk, X)
    model = svm_train(G, labels, 1.0, "clip")
    assert float(np.mean(svm_predict(model, G) == labels)) == 1.0


def test_criterion_8_learning_rate_study():
    start = time.perf_counter()
    noisy = learning_rate_study([8, 16, 32, 64], 10, 0.1, "krr", 0)
    assert noisy.loglog_slope < 0
    steps = np.diff(noisy.median_errors)
    assert int(np.sum(steps <= 0)) >= 3
    clean = learning_rate_study(
        [8, 16, 32, 64], 10, 0.0, "krr", 0, target="planted"
    )
    assert max(clean.median_errors) <= 1e-4
    assert time.perf_counter() - start < 600.0


def test_criterion_9_determinism_and_model_round_trip(tmp_path):
    data = tmp_path / "data.csv"
    rng = np.random.default_rng(9)
    rows = []
    for k in range(12):
        x = rng.normal(0 if k < 6 else 3, 0.4, size=2)
        rows.append(f"{float(x[0])!r},{float(x[1])!r},{1.0 if k < 6 else -1.0}")
    data.write_text("\n".join(rows) + "\n")

    reports = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(
            ["fit", str(data), "--no-tune", "--seed", "7",
             "--output-dir", str(out)]
        ) == 0
        raw = (out / "report.json").read_text()
        reports.append(
            re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', raw)
        )
    assert reports[0] == reports[1]

    # model files round-trip to identical predictions
    lk = load_learned(tmp_path / "run1" / "model.json")
    copied = tmp_path / "copy.json"
    save_learned(lk, copied)
    lk2 = load_learned(copied)
    A = rng.normal(size=(40, 2))
    B = rng.normal(size=(40, 2))
    assert np.max(np.abs(eval_pairs(lk, A, B) - eval_pairs(lk2, A, B))) <= 1e-14
