import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hklearn import (
    ConvergenceFailure,
    ExperimentConfig,
    HyperKernelParams,
    InvalidInput,
    KrrConfig,
    NumericalFailure,
    PipelineFailure,
    SlopeUndefined,
    StratificationWarning,
    assemble_hyper_gram,
    cross_validate,
    data_sigma2,
    eval_pairs,
    fit_extend,
    learning_rate_study,
    rmse,
    split_dataset,
    svm_predict,
    svm_train,
)
from cv_reference import cross_validate_reference
from qp_oracle import solve_svm_dual
from svm_reference import svm_train_reference


def test_split_sizes_forty_forty_twenty(rng):
    X = rng.standard_normal((10, 2))
    y = np.array([1, 1, 1, 1, 1, -1, -1, -1, -1, -1])
    lab, unlab, test = split_dataset(X, y, ExperimentConfig(seed=0))
    assert (lab.size, unlab.size, test.size) == (4, 4, 2)


def test_split_disjoint_and_exhaustive(rng):
    X = rng.standard_normal((23, 3))
    y = np.where(rng.uniform(size=23) < 0.5, 1, -1)
    parts = split_dataset(X, y, ExperimentConfig(seed=5))
    joined = np.concatenate(parts)
    assert joined.size == 23
    np.testing.assert_array_equal(np.sort(joined), np.arange(23))


def test_split_deterministic(rng):
    X = rng.standard_normal((15, 2))
    y = np.where(np.arange(15) % 2 == 0, 1, -1)
    a = split_dataset(X, y, ExperimentConfig(seed=9))
    b = split_dataset(X, y, ExperimentConfig(seed=9))
    for left, right in zip(a, b):
        np.testing.assert_array_equal(left, right)


def test_split_stratifies_balanced_classes(rng):
    X = rng.standard_normal((20, 2))
    y = np.array([1] * 10 + [-1] * 10)
    lab, unlab, test = split_dataset(X, y, ExperimentConfig(seed=2))
    for part, expected in ((lab, 8), (unlab, 8), (test, 4)):
        assert part.size == expected
        assert np.sum(y[part] == 1) == expected // 2


def test_split_warns_on_tiny_class(rng):
    X = rng.standard_normal((10, 2))
    y = np.array([1] * 8 + [-1] * 2)
    with pytest.warns(StratificationWarning):
        parts = split_dataset(X, y, ExperimentConfig(seed=0))
    assert sum(p.size for p in parts) == 10


def test_split_rejects_tiny_dataset(rng):
    with pytest.raises(InvalidInput):
        split_dataset(rng.standard_normal((4, 2)), np.ones(4), ExperimentConfig(seed=0))


def test_config_validation():
    with pytest.raises(InvalidInput):
        ExperimentConfig(split=(0.5, 0.5, 0.5))
    with pytest.raises(InvalidInput):
        ExperimentConfig(split=(1.0, -0.5, 0.5))
    with pytest.raises(InvalidInput):
        ExperimentConfig(cv_folds=1)
    with pytest.raises(InvalidInput):
        ExperimentConfig(sigma_h2_grid=())
    with pytest.raises(InvalidInput, match="sigma_h2_grid entries must be positive"):
        ExperimentConfig(sigma_h2_grid=(-1.0, 1.0))
    with pytest.raises(InvalidInput, match="reg_grid entries must be positive"):
        ExperimentConfig(reg_grid=(0.0, 1.0))


def test_rmse_values():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([1.5, 2.5, -0.5], [1.0, 2.0, -1.0]) == pytest.approx(0.5)
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.5355339059327378)


def test_rmse_that_overflows_fails_without_a_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalFailure, match="rmse is not finite"):
            rmse([1e200, 0.0], [-1e200, 0.0])  # the square overflows
        with pytest.raises(NumericalFailure, match="rmse is not finite"):
            rmse([1e308], [-1e308])  # the difference overflows


def test_rmse_rejects_mismatch():
    with pytest.raises(InvalidInput):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(InvalidInput):
        rmse([], [])


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=8),
    st.floats(0.1, 10),
)
def test_rmse_symmetry_and_scaling(values, scale):
    a = np.asarray(values)
    b = a[::-1].copy()
    assert rmse(a, b) == pytest.approx(rmse(b, a), rel=1e-12, abs=1e-12)
    assert rmse(scale * a, scale * b) == pytest.approx(
        scale * rmse(a, b), rel=1e-9, abs=1e-9
    )


def test_data_sigma2_mean_per_feature_variance():
    X = np.array([[0.0, 0.0], [2.0, 2.0]])
    assert data_sigma2(X) == pytest.approx(1.0)


def test_cross_validate_single_grid_point(rng):
    X = rng.standard_normal((10, 2))
    Y = np.eye(10)
    cfg = ExperimentConfig(seed=0, sigma_h2_grid=(2.0,), reg_grid=(0.5,))
    selected, table = cross_validate(X, Y, "krr", cfg)
    assert selected["sigma_h2_multiplier"] == 2.0
    assert selected["reg"] == 0.5
    assert len(table) == 1


def test_cross_validate_planted_bandwidth_wins():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, 2))
    X = (X - X.mean(0)) / X.std(0)
    s2 = data_sigma2(X)
    gram = assemble_hyper_gram(HyperKernelParams(s2, 1.0 * s2, 2), X)
    Y = (gram.entries @ rng.standard_normal(100)).reshape(10, 10)
    Y /= np.abs(Y).max()
    cfg = ExperimentConfig(seed=0, sigma_h2_grid=(1e-4, 1.0), reg_grid=(1e-5, 1e5))
    selected, table = cross_validate(X, Y, "krr", cfg)
    assert selected["sigma_h2_multiplier"] == 1.0
    assert selected["reg"] == 1e-5
    assert len(table) == 4


def test_cross_validate_deterministic(rng):
    X = rng.standard_normal((10, 2))
    Y = np.outer(np.ones(10), np.ones(10))
    cfg = ExperimentConfig(seed=3, sigma_h2_grid=(0.5, 1.0), reg_grid=(1e-2, 1.0))
    _, table_a = cross_validate(X, Y, "krr", cfg)
    _, table_b = cross_validate(X, Y, "krr", cfg)
    assert table_a == table_b


def test_cross_validate_tie_breaks_toward_stronger_smoothing(rng):
    # constant zero target: every grid point scores identically
    X = rng.standard_normal((10, 2))
    Y = np.zeros((10, 10))
    cfg = ExperimentConfig(seed=0, sigma_h2_grid=(0.5, 1.0), reg_grid=(1e-3, 1e-1))
    selected, _ = cross_validate(X, Y, "krr", cfg)
    assert selected["reg"] == 1e-1  # larger ridge
    assert selected["sigma_h2_multiplier"] == 0.5
    selected_svr, _ = cross_validate(X, Y, "svr", cfg)
    assert selected_svr["reg"] == 1e-3  # smaller box bound
    assert selected_svr["sigma_h2_multiplier"] == 0.5


def test_cross_validate_shape_checks(rng):
    X = rng.standard_normal((10, 2))
    with pytest.raises(InvalidInput):
        cross_validate(X, np.zeros((9, 9)), "krr", ExperimentConfig())
    with pytest.raises(InvalidInput):
        cross_validate(X[:3], np.zeros((3, 3)), "krr", ExperimentConfig())


def test_cross_validate_scores_nan_only_where_a_fold_fit_fails(rng, monkeypatch):
    import hklearn.scaling as scaling

    X = rng.standard_normal((10, 2))
    Y = np.exp(-0.5 * ((X[:, None] - X[None]) ** 2).sum(-1))
    cfg = ExperimentConfig(seed=1, sigma_h2_grid=(0.5, 1.0), reg_grid=(1e-3, 1e-1, 10.0))
    s2 = data_sigma2(X)
    _, clean = cross_validate(X, Y, "krr", cfg)

    real = scaling.fit_krr
    seen = []  # the fits at (sigma_h2 = s2, lam = 0.1), one per fold

    def second_fold_fails(gram, responses, config, spectrum=None):
        if gram.params.sigma_h2 == 1.0 * s2 and config.lam == 1e-1:
            seen.append(gram)
            if len(seen) == 2:
                raise NumericalFailure("forced failure")
        return real(gram, responses, config, spectrum=spectrum)

    monkeypatch.setattr(scaling, "fit_krr", second_fold_fails)
    _, failed = cross_validate(X, Y, "krr", cfg)
    assert len(seen) == 2  # the fold after the failure is not fitted
    assert np.isnan(failed[4][2])
    assert failed[:4] + failed[5:] == clean[:4] + clean[5:]
    seen.clear()
    _, reference = cross_validate_reference(X, Y, "krr", cfg)
    np.testing.assert_array_equal(np.array(failed), np.array(reference))


def test_cross_validate_on_the_default_grid_solves_from_one_eigh_per_fold(rng, monkeypatch):
    import hklearn.krr as krr
    import hklearn.scaling as scaling

    X = rng.standard_normal((10, 2))
    Y = np.exp(-0.5 * ((X[:, None] - X[None]) ** 2).sum(-1))
    cfg = ExperimentConfig(seed=2, sigma_h2_grid=(0.5, 1.0))
    real = scaling.fit_krr
    shared = []

    def recording(gram, responses, config, spectrum=None):
        shared.append(spectrum is not None)
        return real(gram, responses, config, spectrum=spectrum)

    monkeypatch.setattr(scaling, "fit_krr", recording)
    selected, table = cross_validate(X, Y, "krr", cfg)
    assert len(shared) == 2 * 5 * 11 and all(shared)
    # each solve on its own Cholesky: the same scores to roundoff, the same choice
    monkeypatch.setattr(krr, "SPECTRUM_MIN_SOLVES", len(cfg.reg_grid) + 1)
    shared.clear()
    selected_alone, alone = cross_validate(X, Y, "krr", cfg)
    assert not any(shared)
    assert selected.pop("score") == pytest.approx(selected_alone.pop("score"), rel=1e-9)
    assert selected == selected_alone
    np.testing.assert_allclose(np.array(table), np.array(alone), rtol=1e-9)


def _labeled_blobs(n_classes, m=10, seed=5):
    """m points around n_classes centres, their labels and the ideal target."""
    rng = np.random.default_rng(seed)
    labels = np.arange(m) % n_classes
    X = rng.standard_normal((m, 2)) + 1.5 * np.eye(3, 2)[labels]
    return X, np.where(labels[:, None] == labels[None, :], 1.0, -1.0), labels


def _solve_each_reg_alone(monkeypatch, cfg):
    """Give each ridge solve its own Cholesky, as the reference's fit_extend does.

    The shared eigendecomposition of the default grid moves ridge fits at
    roundoff (see the test above), which RMSE scores show.
    """
    import hklearn.krr as krr

    monkeypatch.setattr(krr, "SPECTRUM_MIN_SOLVES", len(cfg.reg_grid) + 1)


@pytest.mark.parametrize("case", ["clip", "none", "three-classes", "svr", "no-labels"])
def test_cross_validate_matches_the_reference_on_the_default_reg_grid(case, monkeypatch):
    X, Y, labels = _labeled_blobs(3 if case == "three-classes" else 2)
    # SVR fits at C up to 1e5 are slow: one sigma_h2 for them
    cfg = ExperimentConfig(seed=3, sigma_h2_grid=(1.0,) if case == "svr" else (0.5, 2.0))
    assert len(cfg.reg_grid) == 11
    _solve_each_reg_alone(monkeypatch, cfg)
    method = "svr" if case == "svr" else "krr"
    kwargs = {"labels": None if case == "no-labels" else labels,
              "spectrum_fix": "none" if case == "none" else "clip"}
    selected, table = cross_validate(X, Y, method, cfg, **kwargs)
    assert ("c_svm" in selected) == (case != "no-labels")
    reference = cross_validate_reference(X, Y, method, cfg, **kwargs)
    assert selected == reference[0]
    np.testing.assert_array_equal(np.array(table), np.array(reference[1]))


def test_cross_validate_isolates_a_failed_svm_to_its_row_and_its_c(monkeypatch):
    import hklearn.pipeline as pipeline

    X, Y, labels = _labeled_blobs(2)
    cfg = ExperimentConfig(seed=3, sigma_h2_grid=(0.5, 2.0))
    _solve_each_reg_alone(monkeypatch, cfg)  # the same training Grams as the reference's
    real = pipeline.smo
    grams = []

    def recording(K, y, lo, hi, *args):
        grams.append(K.copy())
        return real(K, y, lo, hi, *args)

    monkeypatch.setattr(pipeline, "smo", recording)
    clean_selected, clean = cross_validate(X, Y, "krr", cfg, labels=labels, c_svm=0.5)
    # a grid-pass SVM, keyed on its training Gram, and the selected C of the
    # c_svm pass, keyed on its box; the grid pass runs at C = 0.5 only
    target, failing_c = grams[7], clean_selected["c_svm"]

    def failing(K, y, lo, hi, *args):
        if np.array_equal(K, target) or hi.max() == failing_c:
            raise ConvergenceFailure("forced failure", violation=1.0)
        return real(K, y, lo, hi, *args)

    monkeypatch.setattr(pipeline, "smo", failing)
    selected, table = cross_validate(X, Y, "krr", cfg, labels=labels, c_svm=0.5)
    failed = [i for i, row in enumerate(table) if np.isnan(row[2])]
    assert len(failed) == 1 and not np.isnan(clean[failed[0]][2])
    assert [r for i, r in enumerate(table) if i not in failed] == \
        [r for i, r in enumerate(clean) if i not in failed]
    assert "c_svm" in selected and selected["c_svm"] != failing_c
    reference = cross_validate_reference(X, Y, "krr", cfg, labels=labels, c_svm=0.5)
    assert selected == reference[0]
    np.testing.assert_array_equal(np.array(table), np.array(reference[1]))


def test_a_learned_gram_whose_spectrum_overflows_scores_its_row_nan(monkeypatch):
    import hklearn.pipeline as pipeline

    X, Y, labels = _labeled_blobs(2)
    cfg = ExperimentConfig(seed=3, sigma_h2_grid=(0.5,), reg_grid=(1e-3, 1e-1, 10.0))
    _, clean = cross_validate(X, Y, "krr", cfg, labels=labels, c_svm=0.5)
    real, calls = pipeline.eval_all_pairs_stack, []

    def overflowing(kernels, A, B=None):
        Gs = real(kernels, A, B)
        if not calls:  # the first fold's Gram of the second reg
            Gs[1] = 1e308  # finite, but its largest eigenvalue is about m * 1e308
        calls.append(len(kernels))
        return Gs

    monkeypatch.setattr(pipeline, "eval_all_pairs_stack", overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, table = cross_validate(X, Y, "krr", cfg, labels=labels, c_svm=0.5)
    assert np.isnan(table[1][2]) and not np.isnan(clean[1][2])
    assert table[::2] == clean[::2]
    assert calls == [3] + [2] * (cfg.cv_folds - 1)  # the failed reg is fitted no further


@pytest.mark.parametrize("entry", [1e308, -1e308])
def test_svm_on_a_gram_whose_spectrum_overflows_fails(entry):
    # -1e308 gives an eigenvalue of -inf, which clipping alone would zero
    y = np.array([1.0, -1.0, 1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalFailure, match="not finite"):
            svm_train(np.full((4, 4), entry), y, 1.0, "clip")


def test_svm_two_points_identity_gram():
    model = svm_train(np.eye(2), np.array([1.0, -1.0]), 1.0, "none")
    pred = svm_predict(model, np.eye(2))
    np.testing.assert_array_equal(pred, [1, -1])


def test_svm_ideal_gram_perfect_training_accuracy(rng):
    y = np.where(rng.uniform(size=12) < 0.5, 1.0, -1.0)
    if np.unique(y).size < 2:
        y[0] = -y[1]
    G = np.outer(y, y)
    model = svm_train(G, y, 1.0, "clip")
    np.testing.assert_array_equal(svm_predict(model, G), y)


def test_svm_matches_qp_oracle(rng):
    n = 6
    A = rng.standard_normal((n, n))
    G = A @ A.T
    y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    C = 1.0
    model = svm_train(G, y, C, "none", kkt_tol=1e-6)
    alpha = solve_svm_dual(G, y, C)
    np.testing.assert_allclose(model.alphas, alpha, atol=1e-4)


def _svm_case(kind, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 21))
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    rng.shuffle(y)
    if kind == "psd":
        k = int(rng.integers(2, n + 1))
        A = rng.standard_normal((n, k)) / np.sqrt(k)
        return A @ A.T, y, "none"
    if kind == "indefinite":
        G = rng.standard_normal((n, n))
        return 0.5 * (G + G.T), y, "clip"
    return np.outer(y, y), y, "none"  # the ideal (label-agreement) Gram


def _exact_svm_bias(G, y, alphas, C):
    """The SVM bias rule at the given alphas, in exact rational arithmetic."""
    n = y.size
    beta = [Fraction(b) for b in y * alphas]
    F = [
        Fraction(y[k]) - sum(Fraction(G[k, j]) * beta[j] for j in range(n))
        for k in range(n)
    ]
    interior = [k for k in range(n) if 0 < alphas[k] < C]
    if interior:
        return float(sum(F[k] for k in interior) / len(interior))
    up = [F[k] for k in range(n) if (alphas[k] < C if y[k] > 0 else alphas[k] > 0)]
    dn = [F[k] for k in range(n) if (alphas[k] > 0 if y[k] > 0 else alphas[k] < C)]
    return float((max(up) + min(dn)) / 2)


@pytest.mark.parametrize("kind", ["psd", "indefinite", "ideal"])
@pytest.mark.parametrize("C", [0.1, 1.0, 100.0])
@pytest.mark.parametrize("kkt_tol", [1e-3, 1e-8])
def test_svm_matches_dedicated_smo_reference(kind, C, kkt_tol):
    # The shared SMO reproduces the former dedicated SVM loop's alphas bit
    # for bit.  The biases differ by roundoff: the reference reads its bias
    # off an incrementally updated gradient, which drifts (2e-12 relative on
    # unnormalized 27-point Grams at C=100), while the shared loop recomputes
    # the gradient; so the bias is checked against its exact value.  Both
    # clip with numpy.linalg.eigh, the package's eigen-solver.
    for seed in range(3):
        G, y, fix = _svm_case(kind, seed)
        model = svm_train(G, y, C, fix, kkt_tol=kkt_tol)
        alpha, bias = svm_train_reference(G, y, C, fix, kkt_tol=kkt_tol)
        assert np.array_equal(model.alphas, alpha)
        if fix == "clip":
            evals, vecs = np.linalg.eigh(G)
            G = (vecs * np.maximum(evals, 0.0)) @ vecs.T
            G = 0.5 * (G + G.T)
        exact = _exact_svm_bias(G, y, alpha, C)
        assert abs(model.bias - exact) <= 1e-12 * max(1.0, abs(exact))


def test_svm_clip_equals_training_on_clipped_gram(rng):
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    G = rng.standard_normal((5, 5))
    G = 0.5 * (G + G.T)  # indefinite
    evals, vecs = np.linalg.eigh(G)
    G_clipped = (vecs * np.maximum(evals, 0.0)) @ vecs.T
    G_clipped = 0.5 * (G_clipped + G_clipped.T)
    a = svm_train(G, y, 1.0, "clip", kkt_tol=1e-8)
    b = svm_train(G_clipped, y, 1.0, "none", kkt_tol=1e-8)
    np.testing.assert_allclose(a.alphas, b.alphas, atol=1e-10)
    assert np.linalg.eigvalsh(G_clipped).min() >= -1e-10


def test_svm_validation(rng):
    with pytest.raises(InvalidInput):
        svm_train(np.eye(3), np.array([1.0, 1.0, 1.0]), 1.0)
    with pytest.raises(InvalidInput):
        svm_train(np.eye(2), np.array([1.0, 2.0]), 1.0)
    with pytest.raises(InvalidInput):
        svm_train(np.eye(2), np.array([1.0, -1.0]), 0.0)
    with pytest.raises(InvalidInput):
        svm_train(np.eye(2), np.array([1.0, -1.0]), 1.0, "flip")


def test_fit_extend_zero_target_shrinks_to_zero(rng):
    X = rng.standard_normal((8, 2))
    lk = fit_extend(X, np.zeros((8, 8)), "krr",
                    {"sigma2": 1.0, "sigma_h2": 1.0, "reg": 1e4})
    A, B = rng.standard_normal((40, 2)), rng.standard_normal((40, 2))
    assert np.abs(eval_pairs(lk, A, B)).max() <= 1e-6


def test_fit_extend_unknown_method(rng):
    X = rng.standard_normal((5, 2))
    with pytest.raises(InvalidInput):
        fit_extend(X, np.zeros((5, 5)), "boost",
                   {"sigma2": 1.0, "sigma_h2": 1.0, "reg": 1.0})


def test_rate_study_rejects_single_m():
    with pytest.raises(SlopeUndefined):
        learning_rate_study([8], 3, 0.1, "krr", 0)


def test_rate_study_input_validation():
    with pytest.raises(InvalidInput):
        learning_rate_study([8, 8], 3, 0.1, "krr", 0)
    with pytest.raises(InvalidInput):
        learning_rate_study([8, 16], 2, 0.1, "krr", 0)
    with pytest.raises(InvalidInput):
        learning_rate_study([8, 16], 3, -0.1, "krr", 0)
    with pytest.raises(InvalidInput):
        learning_rate_study([8, 16], 3, 0.1, "krr", 0, target="spline")
    with pytest.raises(InvalidInput):
        learning_rate_study([1, 2], 3, 0.1, "krr", 0)


def test_rate_study_noiseless_planted_is_tiny():
    report = learning_rate_study(
        [6, 10], 3, 0.0, "krr", 1, target="planted"
    )
    assert all(e <= 1e-4 for e in report.median_errors)
    assert len(report.m_values) == 2


def test_planted_trial_fits_on_the_gram_of_its_target(monkeypatch):
    import hklearn.hyper as hyper
    import hklearn.pipeline as pipeline

    real_system, real_assemble = pipeline.PairSystem, hyper.assemble_hyper_gram
    systems, assemblies = [], []

    def counting_system(*args, **kwargs):
        systems.append(args)
        return real_system(*args, **kwargs)

    def counting_assemble(*args, **kwargs):
        assemblies.append(args)
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(pipeline, "PairSystem", counting_system)
    monkeypatch.setattr(hyper, "assemble_hyper_gram", counting_assemble)
    rng = np.random.default_rng(4)
    err = pipeline._study_trial(rng, 8, 0.0, "planted", KrrConfig(lam=1e-10))
    # one operator builds the target and is solved; its 64 pairs solve directly
    assert len(systems) == 1
    assert len(assemblies) == 1
    assert err <= 1e-4


def test_rate_study_failure_carries_partial_results(monkeypatch):
    import hklearn.pipeline as pipeline

    real = pipeline._study_trial
    calls = {"n": 0}

    def flaky(rng, m, *args):
        if m > 6:
            raise InvalidInput("forced failure")
        return real(rng, m, *args)

    monkeypatch.setattr(pipeline, "_study_trial", flaky)
    with pytest.raises(PipelineFailure) as exc:
        learning_rate_study([6, 10], 3, 0.0, "krr", 0, target="planted")
    partial = exc.value.partial
    assert partial.m_values == (6,)
    assert len(partial.median_errors) == 1
