"""The learned kernel: a coefficient expansion over training point pairs.

k*(x, x') = sum_ij beta_ij kk((x_i, x_j), (x, x')) + b, evaluated through the
same factorized form the hyper-Gram assembly uses, so batched evaluation is a
single small matrix product per query block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import eigvalsh

from .errors import FormatError, InvalidInput
from .hyper import HyperKernelParams, _pair_factors
from .krr import CoefficientField

SCHEMA_VERSION = 1
_QUERY_CHUNK = 512


@dataclass(frozen=True)
class DefinitenessReport:
    min_eigenvalue: float
    max_eigenvalue: float
    indefinite: bool


@dataclass(frozen=True, eq=False)
class LearnedKernel:
    """Kernel function expanded over stored training pairs.

    ``coefficients`` aligns with its own pair list; ``bias`` is 0 for ridge
    fits.  Instances are immutable and safe to share across threads.
    """

    points: np.ndarray
    coefficients: CoefficientField
    bias: float
    hyper_params: HyperKernelParams

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[1] != self.hyper_params.dim:
            raise InvalidInput(
                f"points have dimension {pts.shape[1]}, expected {self.hyper_params.dim}"
            )
        if self.coefficients.m > pts.shape[0]:
            raise InvalidInput("coefficient pair indices exceed the stored points")
        object.__setattr__(self, "points", pts)

    @property
    def pair_list(self) -> np.ndarray:
        return self.coefficients.pair_list


def _expansion_state(lk: LearnedKernel):
    """Weights and midpoints of the stored expansion pairs."""
    g, mids = _pair_factors(lk.hyper_params, lk.points, lk.coefficients.pair_list)
    return lk.coefficients.values * g, mids


def eval_pairs(lk: LearnedKernel, A, B) -> np.ndarray:
    """Evaluate k*(A[r], B[r]) for row-aligned query arrays."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    d = lk.hyper_params.dim
    if A.shape != B.shape or A.shape[1] != d:
        raise InvalidInput(f"query arrays must both be (q, {d})")
    w, mids = _expansion_state(lk)
    s2 = lk.hyper_params.sigma2
    sh = s2 + lk.hyper_params.sigma_h2
    pref_q = (2.0 * np.pi * s2) ** (-0.5 * d)
    pref_h = (2.0 * np.pi * sh) ** (-0.5 * d)

    out = np.empty(A.shape[0])
    for a in range(0, A.shape[0], _QUERY_CHUNK):
        b = min(a + _QUERY_CHUNK, A.shape[0])
        gq = pref_q * np.exp(
            -np.sum((A[a:b] - B[a:b]) ** 2, axis=1) / (2.0 * s2)
        )
        mq = 0.5 * (A[a:b] + B[a:b])
        d2 = np.sum((mq[:, None, :] - mids[None, :, :]) ** 2, axis=2)
        out[a:b] = gq * ((pref_h * np.exp(-d2 / (2.0 * sh))) @ w)
    return out + lk.bias


def eval_learned(lk: LearnedKernel, x, x2) -> float:
    """k*(x, x2); symmetric in its arguments."""
    x = np.asarray(x, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    if x.size != lk.hyper_params.dim or x2.size != lk.hyper_params.dim:
        raise InvalidInput(
            f"inputs must have dimension {lk.hyper_params.dim}, "
            f"got {x.size} and {x2.size}"
        )
    if lk.coefficients.n == 0:
        return float(lk.bias)
    return float(eval_pairs(lk, x[None, :], x2[None, :])[0])


def eval_all_pairs(lk: LearnedKernel, A, B=None) -> np.ndarray:
    """Evaluate k* on every pair of A x B, as a (len(A), len(B)) matrix.

    Omitting ``B`` means ``B = A``: the upper triangle is evaluated once and
    mirrored, so that matrix is exactly symmetric.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    na = A.shape[0]
    if B is None:
        iu, ju = np.triu_indices(na)
        vals = eval_pairs(lk, A[iu], A[ju])
        G = np.empty((na, na))
        G[iu, ju] = vals
        G[ju, iu] = vals
        return G
    B = np.atleast_2d(np.asarray(B, dtype=float))
    nb = B.shape[0]
    ii, jj = np.divmod(np.arange(na * nb), nb)
    return eval_pairs(lk, A[ii], B[jj]).reshape(na, nb)


def learned_gram(lk: LearnedKernel, X):
    """Evaluate k* on all pairs from X; returns (matrix, DefinitenessReport).

    The matrix is exactly symmetric (see :func:`eval_all_pairs`); the report
    flags indefiniteness when the smallest eigenvalue dips below -1e-8 times
    the largest.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.size == 0:
        raise InvalidInput("learned_gram needs at least one point")
    G = eval_all_pairs(lk, X)
    evals = eigvalsh(G)
    lo, hi = float(evals[0]), float(evals[-1])
    return G, DefinitenessReport(lo, hi, lo < -1e-8 * hi)


def save_learned(lk: LearnedKernel, path) -> None:
    """Write the model as JSON; floats keep full precision via repr."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "hyper_params": {
            "sigma2": lk.hyper_params.sigma2,
            "sigma_h2": lk.hyper_params.sigma_h2,
            "dim": lk.hyper_params.dim,
        },
        "bias": float(lk.bias),
        "points": lk.points.tolist(),
        "coefficients": [
            {"i": int(i), "j": int(j), "value": float(v)}
            for (i, j), v in zip(lk.coefficients.pair_list, lk.coefficients.values)
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def load_learned(path) -> LearnedKernel:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"model file is not valid JSON: {exc}") from exc
    try:
        if doc["schema_version"] != SCHEMA_VERSION:
            raise FormatError(
                f"unsupported model schema {doc['schema_version']!r}"
            )
        hp = HyperKernelParams(**doc["hyper_params"])
        points = np.asarray(doc["points"], dtype=float)
        coeffs = doc["coefficients"]
        pairs = np.array([[c["i"], c["j"]] for c in coeffs], dtype=np.intp)
        values = np.array([c["value"] for c in coeffs], dtype=float)
        bias = float(doc["bias"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"model file missing field: {exc}") from exc
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    field = CoefficientField(values, pairs, points.shape[0])
    return LearnedKernel(points, field, bias, hp)
