"""The midpoint form of the hyper-kernel, kept as a test oracle.

The package assembles the hyper-Gram and evaluates the learned kernel through
the pair-separable form of the midpoint Gaussian.  This module keeps the form
it replaced, which evaluates the midpoint factor on pair midpoints directly:
``midpoint_gram`` and the row-aligned evaluator verbatim, and the Gram over a
pair list as g g' times the midpoint Gram, so tests can check the package
against it entry by entry.
"""

from __future__ import annotations

import math

import numpy as np

from hklearn.errors import InvalidInput
from hklearn.hyper import HyperKernelParams, pair_factors

_QUERY_CHUNK = 512


def midpoint_gram(params: HyperKernelParams, M1: np.ndarray, M2: np.ndarray):
    """The midpoint factor between every row of M1 and every row of M2."""
    sh = params.sigma2 + params.sigma_h2
    pref_h = (2.0 * math.pi * sh) ** (-params.dim / 2.0)
    # one expression: numpy then reuses the temporaries in place
    return pref_h * np.exp(
        -np.sum((M1[:, None, :] - M2[None, :, :]) ** 2, axis=2) / (2.0 * sh)
    )


def hyper_gram_reference(params: HyperKernelParams, X, pairs) -> np.ndarray:
    """The hyper-Gram over ``pairs`` as g[k] * g[l] * midpoint_gram[k, l]."""
    X = np.asarray(X, dtype=float)
    pairs = np.asarray(pairs, dtype=np.intp)
    g, M = pair_factors(params, X[pairs[:, 0]], X[pairs[:, 1]])
    return midpoint_gram(params, M, M) * np.multiply.outer(g, g)


def eval_pairs_reference(lk, A, B) -> np.ndarray:
    """Evaluate k*(A[r], B[r]) for row-aligned query arrays."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    d = lk.hyper_params.dim
    if A.shape != B.shape or A.shape[1] != d:
        raise InvalidInput(f"query arrays must both be (q, {d})")
    params = lk.hyper_params
    P = lk.points[lk.coefficients.pair_list]
    g, mids = pair_factors(params, P[:, 0], P[:, 1])
    w = lk.coefficients.values * g
    out = np.empty(A.shape[0])
    for a in range(0, A.shape[0], _QUERY_CHUNK):
        b = min(a + _QUERY_CHUNK, A.shape[0])
        gq, mq = pair_factors(params, A[a:b], B[a:b])
        out[a:b] = gq * (midpoint_gram(params, mq, mids) @ w)
    return out + lk.bias
