"""Dense QP oracle used to cross-check the SMO solvers, and the SVR dual
objective on the dense hyper-Gram.

Maximizes p'x - 1/2 x'Qx over the box [0, C]^n intersected with {a'x = 0}
by projected gradient ascent.  The projection onto box-and-hyperplane is
exact: clip(z - theta * a) with theta located by bisection on the monotone
function a' clip(z - theta a).  Deliberately simple and slow; it shares no
code with the solvers it checks.
"""

from __future__ import annotations

import numpy as np


def project_box_hyperplane(z, C, a):
    """Euclidean projection of z onto {0 <= x <= C, a'x = 0} for a in {+-1}^n."""

    def h(theta):
        return float(a @ np.clip(z - theta * a, 0.0, C))

    span = float(np.abs(z).max()) + C + 1.0
    lo, hi = -span, span
    # h is non-increasing in theta; widen until the root is bracketed
    while h(lo) < 0.0:
        lo *= 2.0
    while h(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return np.clip(z - 0.5 * (lo + hi) * a, 0.0, C)


def solve_box_qp(Q, p, C, a, max_iter=1_000_000, tol=1e-12):
    """Maximize p'x - 1/2 x'Qx subject to 0 <= x <= C, a'x = 0."""
    Q = np.asarray(Q, dtype=float)
    p = np.asarray(p, dtype=float).ravel()
    a = np.asarray(a, dtype=float).ravel()
    n = p.size
    evals = np.linalg.eigvalsh(0.5 * (Q + Q.T))
    lip = max(float(evals[-1]), 1e-12)
    step = 1.0 / lip
    x = project_box_hyperplane(np.zeros(n), C, a)
    for _ in range(max_iter):
        grad = p - Q @ x
        x_new = project_box_hyperplane(x + step * grad, C, a)
        if float(np.abs(x_new - x).max()) <= tol:
            x = x_new
            break
        x = x_new
    return x


def objective(Q, p, x):
    x = np.asarray(x, dtype=float)
    return float(p @ x - 0.5 * x @ (Q @ x))


def solve_svr_dual(K, y, C, eps, **kw):
    """Oracle for the tube-regression dual; returns (beta_hat, beta_check)."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    Q = np.block([[K, -K], [-K, K]])
    p = np.concatenate([y - eps, -y - eps])
    a = np.concatenate([np.ones(n), -np.ones(n)])
    x = solve_box_qp(Q, p, C, a, **kw)
    return x[:n], x[n:]


def solve_svm_dual(K, labels, C, **kw):
    """Oracle for the soft-margin classifier dual; returns alpha."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(labels, dtype=float).ravel()
    Q = (y[:, None] * y[None, :]) * K
    p = np.ones(y.size)
    return solve_box_qp(Q, p, C, y, **kw)


def dual_objective(gram, beta_hat, beta_check, responses, eps: float) -> float:
    """The SVR dual objective at a (not necessarily feasible) point, on the
    dense hyper-Gram ``gram.entries``."""
    bh = np.asarray(beta_hat, dtype=float).ravel()
    bc = np.asarray(beta_check, dtype=float).ravel()
    y = np.asarray(responses, dtype=float).ravel()
    d = bh - bc
    return float(-0.5 * d @ (gram.entries @ d) + d @ y - eps * (bh + bc).sum())
