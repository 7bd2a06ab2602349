import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hklearn import (
    GaussianRBF,
    Ideal,
    InvalidInput,
    LogKernel,
    TL1,
    gram_matrix,
)
from kernel_reference import eval_kernel


def k(spec, x, x2) -> float:
    """The package's kernel value at one pair: an entry of a 2-point Gram."""
    return float(gram_matrix(spec, np.array([x, x2], dtype=float))[0, 1])


def test_rbf_point_value():
    # exp(-||x - x'||^2 / (2 sigma2)) at distance 1, sigma2 = 0.5
    v = k(GaussianRBF(0.5), [0.0, 0.0], [1.0, 0.0])
    assert v == pytest.approx(0.36787944117144233, rel=1e-12)


def test_rbf_identical_points():
    assert k(GaussianRBF(2.0), [1.0, 2.0], [1.0, 2.0]) == 1.0


def test_tl1_inside_and_outside_radius():
    spec = TL1(2.0)
    assert k(spec, [0.0, 0.0], [0.5, 1.0]) == pytest.approx(0.5)
    assert k(spec, [0.0, 0.0], [3.0, 3.0]) == 0.0


def test_log_kernel_value():
    v = k(LogKernel(1.0), [0.0], [1.0])
    assert v == pytest.approx(-0.6931471805599453, rel=1e-12)


def test_ideal_binary_gram():
    G = gram_matrix(Ideal([1, -1]), np.zeros((2, 1)))
    np.testing.assert_array_equal(G, [[1.0, -1.0], [-1.0, 1.0]])


def test_ideal_binary_gram_rank_one():
    labels = [1, -1, -1, 1, 1]
    G = gram_matrix(Ideal(labels), np.zeros((5, 1)))
    assert np.linalg.matrix_rank(G) == 1


def test_ideal_multiclass_entries():
    G = gram_matrix(Ideal([0, 1, 2, 0]), np.zeros((4, 1)))
    assert G[0, 3] == 1.0 and G[0, 0] == 1.0
    assert G[0, 1] == -1.0 and G[1, 2] == -1.0


def test_scale_parameters_must_be_positive():
    for bad in (GaussianRBF, TL1, LogKernel):
        with pytest.raises(InvalidInput):
            bad(0.0)
        with pytest.raises(InvalidInput):
            bad(-1.0)


def test_gram_rejects_empty_input():
    with pytest.raises(InvalidInput):
        gram_matrix(GaussianRBF(1.0), np.zeros((0, 2)))


def test_gram_exactly_symmetric(rng):
    X = rng.standard_normal((9, 3))
    for spec in (GaussianRBF(0.7), TL1(2.1), LogKernel(1.3)):
        G = gram_matrix(spec, X)
        assert np.array_equal(G, G.T)


@pytest.mark.parametrize("d", [1, 2, 9])
def test_gram_matches_the_pointwise_oracle(rng, monkeypatch, d):
    import hklearn.base_kernels as base_kernels

    monkeypatch.setattr(base_kernels, "_BLOCK", 1000)  # blocks of 16, 8, 1 rows
    X = rng.standard_normal((60, d))
    for spec in (GaussianRBF(0.7 * d), TL1(0.7 * d), LogKernel(1.3)):
        G = gram_matrix(spec, X)
        oracle = np.array([[eval_kernel(spec, a, b) for b in X] for a in X])
        assert np.array_equal(G, G.T)
        np.testing.assert_allclose(G, oracle, rtol=1e-14, atol=0.0)


def test_rbf_gram_range(rng):
    X = rng.standard_normal((8, 2))
    G = gram_matrix(GaussianRBF(1.5), X)
    np.testing.assert_allclose(np.diag(G), 1.0)
    assert np.all(G > 0.0) and np.all(G <= 1.0)


def test_tl1_gram_indefinite_at_default_radius():
    # tau = 0.7 d on 20 random points: the smallest eigenvalue goes negative
    X = np.random.default_rng(0).standard_normal((20, 2))
    G = gram_matrix(TL1(0.7 * 2), X)
    assert np.linalg.eigvalsh(G).min() < -1e-3


@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=4),
    st.lists(st.floats(-5, 5), min_size=2, max_size=4),
)
def test_eval_symmetric_in_arguments(a, b):
    n = min(len(a), len(b))
    x, x2 = np.array(a[:n]), np.array(b[:n])
    for spec in (GaussianRBF(1.0), TL1(1.5), LogKernel(1.0)):
        assert k(spec, x, x2) == pytest.approx(
            k(spec, x2, x), rel=1e-12, abs=1e-15
        )


@given(st.floats(0.1, 10), st.floats(-20, 20))
def test_tl1_never_negative(tau, gap):
    assert k(TL1(tau), [0.0], [gap]) >= 0.0
