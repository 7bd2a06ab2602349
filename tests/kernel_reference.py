"""The base kernels one pair of points at a time, kept as a test oracle.

``hklearn.base_kernels.gram_matrix`` computes a whole Gram matrix on arrays;
this module keeps the scalar evaluator it replaced, so tests can check the
matrix against it entry by entry.
"""

from __future__ import annotations

import math

import numpy as np

from hklearn.base_kernels import TL1, GaussianRBF, LogKernel


def eval_kernel(spec, x, x2) -> float:
    """One of GaussianRBF, TL1, LogKernel at a single pair of points."""
    x = np.asarray(x, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    assert x.shape == x2.shape
    if isinstance(spec, GaussianRBF):
        d2 = float(np.sum((x - x2) ** 2))
        return math.exp(-d2 / (2.0 * spec.sigma2))
    if isinstance(spec, TL1):
        d1 = float(np.sum(np.abs(x - x2)))
        return max(spec.tau - d1, 0.0)
    if isinstance(spec, LogKernel):
        d = math.sqrt(float(np.sum((x - x2) ** 2)))
        return -math.log(1.0 + d / spec.sigma)
    raise TypeError(f"no functional form for {spec!r}")
