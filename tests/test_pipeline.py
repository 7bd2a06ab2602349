from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh
from hypothesis import given
from hypothesis import strategies as st

from hklearn import (
    ExperimentConfig,
    HyperKernelParams,
    InvalidInput,
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
from qp_oracle import solve_svm_dual
from svm_reference import svm_train_reference


def test_split_sizes_forty_forty_twenty(rng):
    X = rng.standard_normal((10, 2))
    y = np.array([1, 1, 1, 1, 1, -1, -1, -1, -1, -1])
    lab, unlab, test = split_dataset(X, y, ExperimentConfig(), seed=0)
    assert (lab.size, unlab.size, test.size) == (4, 4, 2)


def test_split_disjoint_and_exhaustive(rng):
    X = rng.standard_normal((23, 3))
    y = np.where(rng.uniform(size=23) < 0.5, 1, -1)
    parts = split_dataset(X, y, ExperimentConfig(), seed=5)
    joined = np.concatenate(parts)
    assert joined.size == 23
    np.testing.assert_array_equal(np.sort(joined), np.arange(23))


def test_split_deterministic(rng):
    X = rng.standard_normal((15, 2))
    y = np.where(np.arange(15) % 2 == 0, 1, -1)
    a = split_dataset(X, y, ExperimentConfig(), seed=9)
    b = split_dataset(X, y, ExperimentConfig(), seed=9)
    for left, right in zip(a, b):
        np.testing.assert_array_equal(left, right)


def test_split_stratifies_balanced_classes(rng):
    X = rng.standard_normal((20, 2))
    y = np.array([1] * 10 + [-1] * 10)
    lab, unlab, test = split_dataset(X, y, ExperimentConfig(), seed=2)
    for part, expected in ((lab, 8), (unlab, 8), (test, 4)):
        assert part.size == expected
        assert np.sum(y[part] == 1) == expected // 2


def test_split_warns_on_tiny_class(rng):
    X = rng.standard_normal((10, 2))
    y = np.array([1] * 8 + [-1] * 2)
    with pytest.warns(StratificationWarning):
        parts = split_dataset(X, y, ExperimentConfig(), seed=0)
    assert sum(p.size for p in parts) == 10


def test_split_rejects_tiny_dataset(rng):
    with pytest.raises(InvalidInput):
        split_dataset(rng.standard_normal((4, 2)), np.ones(4), ExperimentConfig(), seed=0)


def test_config_validation():
    with pytest.raises(InvalidInput):
        ExperimentConfig(split=(0.5, 0.5, 0.5))
    with pytest.raises(InvalidInput):
        ExperimentConfig(split=(1.0, -0.5, 0.5))
    with pytest.raises(InvalidInput):
        ExperimentConfig(cv_folds=1)
    with pytest.raises(InvalidInput):
        ExperimentConfig(sigma_h2_grid=())


def test_rmse_values():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([1.5, 2.5, -0.5], [1.0, 2.0, -1.0]) == pytest.approx(0.5)
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.5355339059327378)


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
    # the gradient; so the bias is checked against its exact value.
    for seed in range(3):
        G, y, fix = _svm_case(kind, seed)
        model = svm_train(G, y, C, fix, kkt_tol=kkt_tol)
        alpha, bias = svm_train_reference(G, y, C, fix, kkt_tol=kkt_tol)
        assert np.array_equal(model.alphas, alpha)
        if fix == "clip":
            evals, vecs = eigh(G)
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
        learning_rate_study([8], 3, 0.1, "krr", ExperimentConfig())


def test_rate_study_input_validation():
    cfg = ExperimentConfig()
    with pytest.raises(InvalidInput):
        learning_rate_study([8, 8], 3, 0.1, "krr", cfg)
    with pytest.raises(InvalidInput):
        learning_rate_study([8, 16], 2, 0.1, "krr", cfg)
    with pytest.raises(InvalidInput):
        learning_rate_study([8, 16], 3, -0.1, "krr", cfg)
    with pytest.raises(InvalidInput):
        learning_rate_study([8, 16], 3, 0.1, "krr", cfg, target="spline")


def test_rate_study_noiseless_planted_is_tiny():
    report = learning_rate_study(
        [6, 10], 3, 0.0, "krr", ExperimentConfig(seed=1), target="planted"
    )
    assert all(e <= 1e-4 for e in report.median_errors)
    assert len(report.m_values) == 2


def test_rate_study_failure_carries_partial_results(monkeypatch):
    import hklearn.pipeline as pipeline

    real = pipeline._study_trial
    calls = {"n": 0}

    def flaky(rng, m, noise_sigma, method, target, reg):
        if m > 6:
            raise InvalidInput("forced failure")
        return real(rng, m, noise_sigma, method, target, reg)

    monkeypatch.setattr(pipeline, "_study_trial", flaky)
    with pytest.raises(PipelineFailure) as exc:
        learning_rate_study([6, 10], 3, 0.0, "krr", ExperimentConfig(), target="planted")
    partial = exc.value.partial
    assert partial.m_values == (6,)
    assert len(partial.median_errors) == 1
