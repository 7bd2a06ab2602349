"""The learned kernel: a coefficient expansion over training point pairs.

k*(x, x') = sum_ij beta_ij kk((x_i, x_j), (x, x')) + b.  Both evaluators go
through the pair-separable form of the hyper-kernel (see
:mod:`hklearn.hyper`): :func:`eval_pairs` takes row-aligned query pairs,
:func:`eval_all_pairs` every pair of two point sets as one matrix product
Phi_A diag(w) Phi_B'.  The kernel's coefficients hold the
:class:`~hklearn.hyper.PairSystem` they were fit on, which also gives its
points and scales.  A pair and its swap share a midpoint, so the coefficients
are first summed onto the system's c distinct unordered pairs, with the g and
midpoints the system grouped them with, and the evaluation takes
(len(A) + len(B)) * c exponentials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.linalg import eigvalsh

from .errors import FormatError, InvalidInput, NumericalFailure, utf8_input
from .hyper import HyperKernelParams, PairSystem, cross_factor, point_factors, sq_dists
from .krr import CoefficientField

SCHEMA_VERSION = 1
_QUERY_CHUNK = 512
# Floats of the temporary that eval_all_pairs_stack batches kernels into
_STACK_FLOATS = 1 << 20


@dataclass(frozen=True)
class DefinitenessReport:
    min_eigenvalue: float
    max_eigenvalue: float
    indefinite: bool


@dataclass(frozen=True, eq=False)
class LearnedKernel:
    """Kernel function expanded over the training pairs of its coefficients.

    ``coefficients`` holds the pair system the expansion runs over, whose
    points and scales the kernel reads; ``bias`` is 0 for ridge fits.
    Instances are immutable and safe to share across threads.
    """

    coefficients: CoefficientField
    bias: float

    @property
    def points(self) -> np.ndarray:
        return self.coefficients.system.points

    @property
    def hyper_params(self) -> HyperKernelParams:
        return self.coefficients.system.params


def eval_pairs(lk: LearnedKernel, A, B) -> np.ndarray:
    """Evaluate k*(A[r], B[r]) for row-aligned query arrays."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    d = lk.hyper_params.dim
    if A.shape != B.shape or A.shape[1] != d:
        raise InvalidInput(f"query arrays must both be (q, {d})")
    params = lk.hyper_params
    (w,), mids = _merged_weights([lk])
    out = np.empty(A.shape[0])
    for a in range(0, A.shape[0], _QUERY_CHUNK):
        b = min(a + _QUERY_CHUNK, A.shape[0])
        phi = point_factors(params, A[a:b], mids) * point_factors(params, B[a:b], mids)
        cross = cross_factor(params, np.sum((A[a:b] - B[a:b]) ** 2, axis=1))
        out[a:b] = cross * (phi @ w)
    return out + lk.bias


def eval_all_pairs(lk: LearnedKernel, A, B=None) -> np.ndarray:
    """Evaluate k* on every pair of A x B, as a (len(A), len(B)) matrix.

    Omitting ``B`` means ``B = A``: the upper triangle is evaluated once and
    mirrored, so that matrix is exactly symmetric.  Rows of A and B are taken
    in blocks of ``_QUERY_CHUNK``, so temporaries stay at block size.  A value
    that overflows raises ``NumericalFailure``.
    """
    G = eval_all_pairs_stack([lk], A, B)[0]
    if not np.isfinite(G).all():
        raise NumericalFailure("the learned kernel overflows on these points")
    return G


@np.errstate(over="ignore", invalid="ignore")
def eval_all_pairs_stack(kernels, A, B=None) -> np.ndarray:
    """:func:`eval_all_pairs` of kernels over one pair system.

    Returns a (len(kernels), len(A), len(B)) stack, from one set of pair and
    point factors; each block takes one batched product for as many kernels
    as fit ``_STACK_FLOATS``.  Values that overflow are left inf or nan.
    Kernels whose coefficients hold different systems raise ``InvalidInput``.
    """
    params = kernels[0].hyper_params
    A = np.atleast_2d(np.asarray(A, dtype=float))
    sym = B is None
    B = A if sym else np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != params.dim or B.shape[1] != params.dim:
        raise InvalidInput(f"query arrays must both be (q, {params.dim})")
    W, mids = _merged_weights(kernels)
    na, nb = A.shape[0], B.shape[0]
    # kernels per batched product, whose temporary holds group * rows * c floats
    group = max(1, _STACK_FLOATS // (min(na, _QUERY_CHUNK) * len(mids) or 1))
    G = np.empty((len(kernels), na, nb))
    for a in range(0, na, _QUERY_CHUNK):
        a2 = min(a + _QUERY_CHUNK, na)
        phi_a = point_factors(params, A[a:a2], mids)
        for c in range(a if sym else 0, nb, _QUERY_CHUNK):
            c2 = min(c + _QUERY_CHUNK, nb)
            phi_b = phi_a if sym and c == a else point_factors(params, B[c:c2], mids)
            cross = cross_factor(params, sq_dists(A[a:a2], B[c:c2]))
            for k in range(0, len(W), group):
                block = cross * ((phi_a * W[k : k + group, None, :]) @ phi_b.T)
                if sym and c == a:
                    block = np.triu(block) + np.swapaxes(np.triu(block, 1), 1, 2)
                G[k : k + group, a:a2, c:c2] = block
                if sym:
                    G[k : k + group, c:c2, a:a2] = np.swapaxes(block, 1, 2)
    G += np.array([lk.bias for lk in kernels])[:, None, None]
    return G


def _merged_weights(kernels):
    """Weights and midpoints of kernels over one pair system, over its c
    distinct unordered pairs.

    Returns ((len(kernels), c) weights, (c, dim) midpoints): the
    coefficients of a pair, its swap and its repeats are summed, for all
    kernels in one ``np.bincount``, and scaled by their g.
    """
    system = kernels[0].coefficients.system
    if any(lk.coefficients.system is not system for lk in kernels):
        raise InvalidInput("the kernels of a stack must share one pair system")
    col, size = system.members
    g, mids = system.midpoints
    k, c = len(kernels), size.size
    values = np.concatenate([lk.coefficients.values for lk in kernels])
    index = (col + c * np.arange(k)[:, None]).ravel()
    return np.bincount(index, weights=values, minlength=k * c).reshape(k, c) * g, mids


def definiteness(G) -> DefinitenessReport:
    """Spectrum ends of a symmetric Gram matrix.

    The report flags indefiniteness when the smallest eigenvalue dips below
    -1e-8 times the largest.
    """
    if G.size == 0:
        raise InvalidInput("a definiteness report needs at least one point")
    evals = eigvalsh(G)
    lo, hi = float(evals[0]), float(evals[-1])
    return DefinitenessReport(lo, hi, lo < -1e-8 * hi)


def learned_gram(lk: LearnedKernel, X):
    """Evaluate k* on all pairs from X; returns (matrix, DefinitenessReport).

    The matrix is exactly symmetric (see :func:`eval_all_pairs`); the report
    is :func:`definiteness` of it.
    """
    G = eval_all_pairs(lk, X)
    return G, definiteness(G)


# One coefficient as json.dumps(..., indent=2) writes it inside the document
_COEFFICIENT = '    {\n      "i": %d,\n      "j": %d,\n      "value": %r\n    }'


def save_learned(lk: LearnedKernel, path) -> None:
    """Write the model as JSON; floats keep full precision via repr.

    The text is that of ``json.dumps(doc, sort_keys=True, indent=2)``, but the
    coefficient list, which is most of it, is formatted directly: with
    ``indent`` json falls back to its pure-Python encoder.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "hyper_params": {
            "sigma2": lk.hyper_params.sigma2,
            "sigma_h2": lk.hyper_params.sigma_h2,
            "dim": lk.hyper_params.dim,
        },
        "bias": float(lk.bias),
        "points": lk.points.tolist(),
        "coefficients": [],
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    field = lk.coefficients
    if field.n:
        rows = zip(*field.pair_list.T.tolist(), field.values.tolist())
        block = ",\n".join(map(_COEFFICIENT.__mod__, rows))
        text = text.replace('"coefficients": []', f'"coefficients": [\n{block}\n  ]', 1)
    Path(path).write_text(text)


def load_learned(path) -> LearnedKernel:
    try:
        with utf8_input(path):
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"model file is not valid JSON: {exc}") from exc
    try:
        if doc["schema_version"] != SCHEMA_VERSION:
            raise FormatError(
                f"unsupported model schema {doc['schema_version']!r}"
            )
        points = np.asarray(doc["points"])
        coeffs = doc["coefficients"]
        columns = [[c[k] for c in coeffs] for k in ("i", "j", "value")]
        pairs = np.column_stack(columns[:2])
        values = np.array(columns[2])
        # a float index or a numeric string would be cast silently below, and
        # numpy reads a JSON true among numbers as 1
        if (pairs.size and pairs.dtype.kind != "i") or any(
            a.dtype.kind not in "if" for a in (points, values, np.asarray(doc["bias"]))
        ) or bool in set(map(type, chain(*columns, *doc["points"]))):
            raise TypeError("a point, coefficient or bias is not a JSON number "
                            "or an index is not an integer")
        bias = float(doc["bias"])
        hp_doc = doc["hyper_params"]
        scales = np.array([hp_doc["sigma2"], hp_doc["sigma_h2"]], dtype=float)
        # json reads NaN and Infinity
        for name, value in (("points", points), ("bias", bias), ("hyper_params", scales)):
            if not np.all(np.isfinite(value)):
                raise FormatError(f"model file has non-finite {name}")
        hp = HyperKernelParams(**hp_doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"model file missing or malformed field: {exc}") from exc
    return LearnedKernel(CoefficientField(values, PairSystem(hp, points, pairs)), bias)
