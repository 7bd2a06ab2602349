"""The direct ridge solve on scipy's Cholesky, kept as a test oracle.

``solve_spd_with_jitter_reference`` is ``hklearn.krr.solve_spd_with_jitter``
as it was when the package factored with ``scipy.linalg.cho_factor`` and
solved with ``cho_solve``: the same jitter ladder, refinement steps and
residual test.  Tests require the package's direct solve, from the pair
system's eigendecomposition, to pick the same jitter rung, fail on the same
systems and agree with it to roundoff.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from hklearn.errors import NumericalFailure
from hklearn.krr import DIRECT_RESIDUAL_TOL, JITTER_RUNGS


def solve_spd_with_jitter_reference(entries, shift, rhs, base_jitter, retries=JITTER_RUNGS):
    n = entries.shape[0]
    eye = np.eye(n)
    scale = max(1.0, float(np.linalg.norm(rhs)))
    ladder = [0.0] + [base_jitter * 10.0 ** k for k in range(retries)]
    worst = None
    for jitter in ladder:
        shifted = entries + (shift + jitter) * eye
        try:
            c, low = cho_factor(shifted, lower=True)
        except np.linalg.LinAlgError:
            continue
        x = cho_solve((c, low), rhs, check_finite=False)
        worst = float(np.linalg.norm(shifted @ x - rhs)) / scale
        for _ in range(2):
            if worst <= DIRECT_RESIDUAL_TOL:
                break
            x = x + cho_solve((c, low), rhs - shifted @ x, check_finite=False)
            worst = float(np.linalg.norm(shifted @ x - rhs)) / scale
        if worst <= DIRECT_RESIDUAL_TOL:
            return x, jitter
    if worst is not None:
        raise NumericalFailure(
            f"solve residual {worst:.3e} exceeds tolerance {DIRECT_RESIDUAL_TOL:g}"
        )
    raise NumericalFailure("factorization failed")
