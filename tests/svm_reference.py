"""The downstream SVM's former hand-written SMO loop, kept as a test oracle.

The package solves the SVM dual with the shared ``hklearn.svr.smo``; this is
the dedicated loop it replaced, so tests can check the shared solver against
it case by case.  It is verbatim except for its eigen-solver: it clips the
spectrum with ``numpy.linalg.eigh``, as the package does, so that both loops
start from the same clipped Gram bit for bit.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import eigh

from hklearn.errors import ConvergenceFailure


def svm_train_reference(gram, labels, C_svm: float, spectrum_fix: str = "clip",
                        kkt_tol: float = 1e-3, max_iter: int = 200_000):
    """Binary SVM on a precomputed Gram; returns (alphas, bias)."""
    G = np.asarray(gram, dtype=float)
    y = np.asarray(labels, dtype=float).ravel()
    n = y.size

    if spectrum_fix == "clip":
        evals, vecs = eigh(G)
        G = (vecs * np.maximum(evals, 0.0)) @ vecs.T
        G = 0.5 * (G + G.T)

    Q = (y[:, None] * y[None, :]) * G
    diag = np.diag(Q).copy()
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of 1/2 a'Qa - 1'a

    for _ in range(max_iter):
        F = -y * grad
        up = ((y > 0) & (alpha < C_svm)) | ((y < 0) & (alpha > 0))
        dn = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C_svm))
        if not (up.any() and dn.any()):
            break
        i = int(np.flatnonzero(up)[np.argmax(F[up])])
        j = int(np.flatnonzero(dn)[np.argmin(F[dn])])
        if F[i] - F[j] <= kkt_tol:
            break
        # step along (y_i e_i, -y_j e_j), which preserves y'alpha
        eta = max(diag[i] + diag[j] - 2.0 * G[i, j], 1e-12)
        lim_i = C_svm - alpha[i] if y[i] > 0 else alpha[i]
        lim_j = alpha[j] if y[j] > 0 else C_svm - alpha[j]
        t = min((F[i] - F[j]) / eta, lim_i, lim_j)
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        if t == lim_i:
            alpha[i] = C_svm if y[i] > 0 else 0.0
        if t == lim_j:
            alpha[j] = 0.0 if y[j] > 0 else C_svm
        grad += t * (y[i] * Q[:, i] - y[j] * Q[:, j])
    else:
        F = -y * grad
        up = ((y > 0) & (alpha < C_svm)) | ((y < 0) & (alpha > 0))
        dn = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C_svm))
        gap = float(F[up].max() - F[dn].min()) if up.any() and dn.any() else 0.0
        if gap > kkt_tol:
            raise ConvergenceFailure(
                f"SVM failed to reach KKT tolerance, violation {gap:.3e}",
                violation=gap,
            )

    F = -y * grad
    interior = (alpha > 0) & (alpha < C_svm)
    if interior.any():
        bias = float(np.mean(F[interior]))
    else:
        up = ((y > 0) & (alpha < C_svm)) | ((y < 0) & (alpha > 0))
        dn = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C_svm))
        lo = F[up].max() if up.any() else 0.0
        hi = F[dn].min() if dn.any() else 0.0
        bias = float(0.5 * (lo + hi))
    return alpha, bias
