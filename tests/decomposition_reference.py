"""The dense decomposition diagnostics, kept as a test oracle.

``decomposition_bound`` is ``hklearn.scaling.decomposition_bound`` as it was
before it read the pair system's factors: it takes the dense hyper-Gram,
sums |K| over the cross-cluster mask for q_pi and factors the whole matrix
for sigma_min.  Tests require the package's diagnostics to match it, and use
it on dense matrices that are no pair system (a jittered Gram, hand-made
matrices).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvalsh

from hklearn.errors import InvalidInput
from hklearn.scaling import DecompositionDiagnostics


def decomposition_bound(
    K, pair_clusters, C: float | None, observed_gap: float | None = None,
) -> DecompositionDiagnostics:
    """Deviation diagnostics: q_pi, sigma_min, and the bound C^2 q_pi / (2 sigma_min).

    ``K`` is the dense n x n hyper-Gram over the pair list that
    ``pair_clusters`` labels.  ``C`` is the box constant of an SVR base; with
    ``C=None`` (a ridge base) the bound is None and only q_pi and sigma_min
    are computed.
    """
    K = np.asarray(K, dtype=float)
    clusters = np.asarray(pair_clusters, dtype=np.intp)
    if clusters.size != K.shape[0]:
        raise InvalidInput(
            f"pair_clusters length {clusters.size} != gram dimension {K.shape[0]}"
        )
    if C is not None and not C > 0:
        raise InvalidInput("C must be positive")
    cross = clusters[:, None] != clusters[None, :]
    q_pi = float(np.abs(K[cross]).sum())
    sigma_min = float(eigvalsh(K)[0])
    if C is None:
        bound = None
    else:
        bound = C * C * q_pi / (2.0 * sigma_min) if sigma_min > 0 else float("inf")
    return DecompositionDiagnostics(q_pi, sigma_min, bound, observed_gap)
