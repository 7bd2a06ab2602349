import itertools
import json
import tracemalloc

import numpy as np
import pytest

from hklearn import (
    CoefficientField,
    FormatError,
    GaussianRBF,
    HyperKernelParams,
    InvalidInput,
    LearnedKernel,
    NumericalFailure,
    TL1,
    assemble_hyper_gram,
    data_sigma2,
    eval_all_pairs,
    eval_pairs,
    fit_extend,
    fit_krr,
    full_pair_list,
    gram_matrix,
    KrrConfig,
    PairSystem,
    learned_gram,
    load_learned,
    save_learned,
)
from hklearn import learned
from midpoint_reference import eval_pairs_reference


def _kernel(X, values, bias, params, pairs=None):
    """The learned kernel with the given coefficients over a new pair system."""
    return LearnedKernel(CoefficientField(values, PairSystem(params, X, pairs)), bias)


def _fitted(rng, m=4, d=2):
    X = rng.standard_normal((m, d))
    params = HyperKernelParams(1.0, 0.8, d)
    gram = assemble_hyper_gram(params, X)
    y = rng.standard_normal(m * m)
    lk = LearnedKernel(fit_krr(gram, y, KrrConfig(1e-3)), 0.25)
    return lk, gram, y


def test_zero_coefficients_give_constant_bias(rng):
    X = rng.standard_normal((3, 2))
    params = HyperKernelParams(1.0, 1.0, 2)
    lk = _kernel(X, np.zeros(9), 0.7, params)
    np.testing.assert_array_equal(eval_pairs(lk, [5.0, -2.0], [0.1, 0.3]), [0.7])


def test_evaluation_symmetric(rng):
    lk, _, _ = _fitted(rng)
    A, B = rng.standard_normal((20, 2)), rng.standard_normal((20, 2))
    np.testing.assert_allclose(
        eval_pairs(lk, A, B), eval_pairs(lk, B, A), rtol=1e-12, atol=1e-15
    )


def test_training_pairs_reproduce_solver_values(rng):
    lk, gram, _ = _fitted(rng)
    expected = gram.entries @ lk.coefficients.values + lk.bias
    pairs = full_pair_list(4)
    got = eval_pairs(lk, lk.points[pairs[:, 0]], lk.points[pairs[:, 1]])
    assert np.max(np.abs(got - expected)) <= 1e-10


def test_learned_gram_constant_kernel(rng):
    X = rng.standard_normal((5, 2))
    lk = _kernel(X, np.zeros(25), 0.4, HyperKernelParams(1.0, 1.0, 2))
    matrix, report = learned_gram(lk, X)
    np.testing.assert_array_equal(matrix, 0.4)
    evals = np.sort(np.linalg.eigvalsh(matrix))
    np.testing.assert_allclose(evals[-1], 5 * 0.4, rtol=1e-12)
    np.testing.assert_allclose(evals[:-1], 0.0, atol=1e-12)
    assert not report.indefinite


def test_learned_gram_exactly_symmetric(rng):
    lk, _, _ = _fitted(rng)
    matrix, _ = learned_gram(lk, rng.standard_normal((7, 2)))
    assert np.array_equal(matrix, matrix.T)


def test_rbf_fit_stays_definite():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((12, 2))
    X = (X - X.mean(0)) / X.std(0)
    s2 = data_sigma2(X)
    Y = gram_matrix(GaussianRBF(1.0), X)
    lk = fit_extend(X, Y, "krr", {"sigma2": s2, "sigma_h2": s2, "reg": 1e-4})
    _, report = learned_gram(lk, rng.standard_normal((8, 2)))
    assert not report.indefinite


def test_tl1_fit_goes_indefinite():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((14, 2))
    X = (X - X.mean(0)) / X.std(0)
    s2 = data_sigma2(X)
    Y = gram_matrix(TL1(1.4), X)
    lk = fit_extend(X, Y, "krr", {"sigma2": s2, "sigma_h2": s2, "reg": 1e-8})
    _, report = learned_gram(lk, rng.standard_normal((10, 2)))
    assert report.indefinite
    assert report.min_eigenvalue < -1e-6


def test_save_load_round_trip(tmp_path, rng):
    lk, _, _ = _fitted(rng)
    path = tmp_path / "model.json"
    save_learned(lk, path)
    back = load_learned(path)
    A = rng.standard_normal((10, 2))
    B = rng.standard_normal((10, 2))
    np.testing.assert_array_equal(eval_pairs(back, A, B), eval_pairs(lk, A, B))
    # a second save of the loaded model is byte-identical
    path2 = tmp_path / "model2.json"
    save_learned(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def _json_dumps_model(lk) -> str:
    """The model file as json.dumps wrote it before its coefficients were
    formatted directly."""
    doc = {
        "schema_version": 1,
        "hyper_params": {"sigma2": lk.hyper_params.sigma2,
                         "sigma_h2": lk.hyper_params.sigma_h2,
                         "dim": lk.hyper_params.dim},
        "bias": float(lk.bias),
        "points": lk.points.tolist(),
        "coefficients": [
            {"i": int(i), "j": int(j), "value": float(v)}
            for (i, j), v in zip(lk.coefficients.pair_list, lk.coefficients.values)
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("case", ["extend-tl1", "extremes", "one-pair"])
def test_model_file_is_byte_identical_to_json_dumps(tmp_path, rng, case):
    params = HyperKernelParams(0.1, 0.2, 2)
    if case == "extend-tl1":
        X = rng.uniform(0.0, 1.0, (46, 2))
        values, pairs, bias = 1e3 * rng.standard_normal(46 * 46), None, 0.0
    elif case == "extremes":
        X = rng.standard_normal((2, 2))
        values, pairs, bias = [-0.0, 5e-324, 1e300, -1.5], None, -0.25
    else:
        X = rng.standard_normal((3, 2))
        values, pairs, bias = [0.125], [[2, 1]], 1e-300
    lk = _kernel(X, values, bias, params, pairs)
    path = tmp_path / "model.json"
    save_learned(lk, path)
    assert path.read_text() == _json_dumps_model(lk)


def test_load_rejects_bad_schema(tmp_path, rng):
    lk, _, _ = _fitted(rng)
    path = tmp_path / "model.json"
    save_learned(lk, path)
    blob = json.loads(path.read_text())
    blob["schema_version"] = 999
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    with pytest.raises(FormatError):
        load_learned(bad)


def test_load_rejects_missing_field(tmp_path, rng):
    lk, _, _ = _fitted(rng)
    path = tmp_path / "model.json"
    save_learned(lk, path)
    blob = json.loads(path.read_text())
    del blob["bias"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    with pytest.raises(FormatError):
        load_learned(bad)


def test_load_rejects_points_that_are_not_a_matrix(tmp_path, rng):
    # points nested three deep with the model's dimension as their second
    # axis once passed the load and failed inside the evaluation
    lk, _, _ = _fitted(rng)
    path = tmp_path / "model.json"
    save_learned(lk, path)
    blob = json.loads(path.read_text())
    blob["hyper_params"]["dim"] = 1
    blob["points"] = [[[x, y]] for x, y in blob["points"]]
    path.write_text(json.dumps(blob))
    with pytest.raises(InvalidInput, match="points must be"):
        load_learned(path)


def test_load_rejects_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        load_learned(bad)


def _oracle_all_pairs(lk, A, B):
    """The midpoint-form reference on the flattened row-major pairs of A x B."""
    ii, jj = np.divmod(np.arange(len(A) * len(B)), len(B))
    return eval_pairs_reference(lk, A[ii], B[jj]).reshape(len(A), len(B))


_SUBNORMAL = np.finfo(float).tiny


def _oracle_cases(d):
    """Seeded expansions and query sets over scales, spreads and offsets.

    Yields (case, lk, lk_abs, A, B); ``lk_abs`` is the same expansion with
    |beta|, which bounds every term's size.  The expansions carry no bias:
    at d = 50 the kernel terms are near 1e-60, so a bias would swamp the
    tolerance.  Terms far from every midpoint are subnormal and carry no
    relative precision, so the tests allow an absolute error of
    ``_SUBNORMAL`` on top.
    """
    # base scale, sigma_h2 multiplier, query spread, |beta| range, data offset
    grid = itertools.product([0.05, 1.0, 10.0], [0.25, 4.0], [1.0, 5.0, 30.0],
                             [1.0, 1e6], [0.0, 100.0])
    for case, (scale, mult, spread, bmax, offset) in enumerate(grid):
        rng = np.random.default_rng([d, case])
        m = 6
        X = rng.standard_normal((m, d)) + offset
        s2 = scale * d
        params = HyperKernelParams(s2, mult * s2, d)
        beta = rng.uniform(-bmax, bmax, m * m)
        lk = _kernel(X, beta, 0.0, params)
        lk_abs = _kernel(X, np.abs(beta), 0.0, params)
        jitter = spread * np.sqrt(s2) / 3.0
        A = X[rng.integers(0, m, 7)] + jitter * rng.standard_normal((7, d))
        B = X[rng.integers(0, m, 5)] + jitter * rng.standard_normal((5, d))
        yield case, lk, lk_abs, A, B


@pytest.mark.parametrize("d", [1, 2, 3, 9, 20, 50])
def test_all_pairs_matches_row_aligned_oracle(d):
    for case, lk, lk_abs, A, B in _oracle_cases(d):
        for B_arg in (None, B):
            Q = A if B_arg is None else B_arg
            G = eval_all_pairs(lk, A, B_arg)
            err = np.abs(G - _oracle_all_pairs(lk, A, Q))
            bound = 1e-12 * _oracle_all_pairs(lk_abs, A, Q) + _SUBNORMAL
            assert np.all(err <= bound), case
            if B_arg is None:
                assert np.array_equal(G, G.T)


@pytest.mark.parametrize("d", [1, 2, 3, 9, 20, 50])
def test_eval_pairs_matches_midpoint_reference(d):
    for case, lk, lk_abs, A, B in _oracle_cases(d):
        # every pair of A x B, each query point on both sides
        ii, jj = np.divmod(np.arange(len(A) * len(B)), len(B))
        for P, Q in ((A[ii], B[jj]), (B[jj], A[ii])):
            err = np.abs(eval_pairs(lk, P, Q) - eval_pairs_reference(lk, P, Q))
            bound = 1e-12 * eval_pairs_reference(lk_abs, P, Q) + _SUBNORMAL
            assert np.all(err <= bound), case


def test_all_pairs_symmetric_case_spans_several_blocks(rng):
    lk, _, _ = _fitted(rng)
    A = rng.standard_normal((1100, 2))  # three query blocks of 512 rows
    G = eval_all_pairs(lk, A)
    assert np.array_equal(G, G.T)
    rows = rng.integers(0, 1100, 40)
    np.testing.assert_allclose(
        G[np.ix_(rows, rows)], _oracle_all_pairs(lk, A[rows], A[rows]),
        rtol=1e-12, atol=1e-15,
    )


def test_a_stack_of_kernels_equals_each_kernel_alone_across_blocks(rng, monkeypatch):
    import hklearn.learned as learned

    monkeypatch.setattr(learned, "_QUERY_CHUNK", 4)  # 10 query rows take 3 blocks
    lk, _, _ = _fitted(rng)
    system = lk.coefficients.system
    values = [lk.coefficients.values, -3.0 * lk.coefficients.values, np.full(16, 1e308)]
    scaled = [LearnedKernel(CoefficientField(v, system), bias)
              for v, bias in zip(values, (0.25, -1.0, 1.79e308))]
    A, B = rng.standard_normal((10, 2)), rng.standard_normal((7, 2))
    # all three kernels in one batched product, then in batches of 2 and 1:
    # a block of 4 rows over 10 unordered pairs holds 40 floats per kernel
    for stack_floats in (learned._STACK_FLOATS, 80):
        monkeypatch.setattr(learned, "_STACK_FLOATS", stack_floats)
        for B_arg in (None, B):
            stack = learned.eval_all_pairs_stack(scaled, A, B_arg)
            for G, k in zip(stack[:2], scaled):
                assert np.array_equal(G, eval_all_pairs(k, A, B_arg))
            # the kernel that overflows is left non-finite for its caller
            assert not np.isfinite(stack[2]).all()
            with pytest.raises(NumericalFailure):
                eval_all_pairs(scaled[2], A, B_arg)


def test_a_stack_rejects_kernels_over_different_systems(rng):
    lk, _, _ = _fitted(rng)
    A = rng.standard_normal((3, 2))
    # equal pairs, points and scales in a second system, and other pairs
    twin = _kernel(lk.points, lk.coefficients.values, 0.25, lk.hyper_params)
    other = _kernel(lk.points, np.ones(3), 0.0, lk.hyper_params, [[0, 1], [1, 0], [2, 3]])
    for kernels in ([lk, twin], [other, lk]):
        with pytest.raises(InvalidInput, match="one pair system"):
            learned.eval_all_pairs_stack(kernels, A)
    shifted = LearnedKernel(lk.coefficients, 1.25)
    stack = learned.eval_all_pairs_stack([lk, shifted], A)
    assert np.array_equal(stack[1], eval_all_pairs(shifted, A))


def test_evaluators_on_merged_pairs_match_the_midpoint_reference(rng):
    # swapped pairs, pairs without their swap, diagonal pairs and a repeated
    # pair: their coefficients are summed onto 7 unordered pairs
    pairs = np.array([[0, 1], [1, 0], [2, 3], [4, 4], [5, 5], [0, 1], [3, 5], [5, 3],
                      [1, 4], [4, 4], [2, 0], [5, 3]])
    X = rng.standard_normal((6, 2))
    params = HyperKernelParams(0.6, 1.4, 2)
    system = PairSystem(params, X, pairs)
    kernels = [LearnedKernel(CoefficientField(rng.uniform(0.5, 2.0, 12), system), 0.0)
               for _ in range(3)]
    A, B = X[[0, 2, 4, 1]] + 0.3 * rng.standard_normal((4, 2)), rng.standard_normal((5, 2))
    for B_arg in (None, B):
        Q = A if B_arg is None else B_arg
        stack = learned.eval_all_pairs_stack(kernels, A, B_arg)
        for G, lk in zip(stack, kernels):
            np.testing.assert_allclose(G, _oracle_all_pairs(lk, A, Q), rtol=1e-12, atol=0.0)
    ii, jj = np.divmod(np.arange(20), 5)
    for lk in kernels:
        np.testing.assert_allclose(eval_pairs(lk, A[ii], B[jj]),
                                   eval_pairs_reference(lk, A[ii], B[jj]), rtol=1e-12, atol=0.0)


def test_all_pairs_zero_coefficients_give_the_bias_exactly(rng):
    X = rng.standard_normal((4, 3))
    lk = _kernel(X, np.zeros(16), -1.3, HyperKernelParams(0.5, 2.0, 3))
    A = 20.0 * rng.standard_normal((6, 3))
    assert np.all(eval_all_pairs(lk, A) == -1.3)
    assert np.all(eval_all_pairs(lk, A, X) == -1.3)


def test_all_pairs_rejects_dimension_mismatch(rng):
    lk, _, _ = _fitted(rng)
    with pytest.raises(InvalidInput):
        eval_all_pairs(lk, rng.standard_normal((3, 3)))
    with pytest.raises(InvalidInput):
        eval_all_pairs(lk, rng.standard_normal((3, 2)), rng.standard_normal((4, 1)))


def test_learned_gram_memory_stays_near_its_output():
    # the all-pairs evaluator's temporaries are block-sized, so the peak is
    # the output plus the eigenvalue solver's copy of it
    rng = np.random.default_rng(3)
    m, d = 12, 4
    X = rng.standard_normal((m, d))
    lk = _kernel(X, rng.standard_normal(m * m), 0.1, HyperKernelParams(4.0, 4.0, d))
    Q = rng.standard_normal((1500, d))
    tracemalloc.start()
    try:
        G, _ = learned_gram(lk, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * G.nbytes
