"""The SVR solver's SMO loop as it recomputed both slope arrays and both
movable sets at every update, kept as a test oracle.

``smo`` and its helpers are copied verbatim from an earlier ``hklearn.svr``.
The package's solver keeps the slopes' offsets from F and rewrites only the
two updated entries per step, with its scalar work on Python floats; tests
require it to return bitwise the same coefficients, bias and convergence
failures as this loop on every dual, for every eps.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext

import numpy as np

from hklearn.errors import ConvergenceFailure


def _kkt_state(beta: np.ndarray, F: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               eps: float):
    """Ascent slopes for growing/shrinking each coefficient, and feasibility masks.

    ``g_up[k]`` is the objective slope for increasing beta_k (the l1 subgradient
    uses +1 at zero), ``g_dn[k]`` the slope sign-flipped for decreasing it.  At
    an optimum there is a bias b with g_up <= b <= g_dn over the movable sets.
    """
    g_up = np.where(beta >= 0, F - eps, F + eps)
    g_dn = np.where(beta <= 0, F + eps, F - eps)
    return g_up, g_dn, beta < hi, beta > lo


def _line_search(beta_i, beta_j, slope0, eta, t_box, eps):
    """Maximize along +t e_i, -t e_j for t in [0, t_box].

    ``slope0`` is the one-sided slope at t=0+.  The slope decreases linearly at
    rate eta and drops by 2*eps wherever a coefficient crosses zero, so walk
    the kinks in order and stop at the first sign change.
    """
    kinks = []
    if beta_i < 0 and 0 < -beta_i < t_box:
        kinks.append(-beta_i)
    if beta_j > 0 and 0 < beta_j < t_box:
        kinks.append(beta_j)
    kinks.sort()

    t_prev, slope = 0.0, slope0
    for t_kink in kinks:
        slope_at_kink = slope - eta * (t_kink - t_prev)
        if slope_at_kink <= 0:
            return t_prev + slope / eta
        t_prev, slope = t_kink, slope_at_kink - 2.0 * eps
        if slope <= 0:
            return t_kink
    slope_end = slope - eta * (t_box - t_prev)
    if slope_end <= 0:
        return t_prev + slope / eta
    return t_box


def smo(K, y, lo, hi, eps: float, kkt_tol: float, max_passes: int, max_iter: int,
        trace_path=None):
    """Maximize -1/2 b'Kb + b'y - eps |b|_1 over lo <= b <= hi, sum(b) = 0.

    SMO with maximal-violating-pair selection until the KKT gap closes; the
    bounds are per coordinate, so the SVR box [-C, C] and the signed SVM boxes
    [0, C] / [-C, 0] are both instances.  Returns (beta, bias).  Raises
    ConvergenceFailure (carrying the worst violation) if the iteration budget
    runs out first.  ``trace_path``, when given, receives one CSV row per
    update: iteration, dual objective, worst KKT violation.
    """
    n = y.size
    diag = np.diag(K).copy()

    beta = np.zeros(n)
    trace_file = open(trace_path, "w", newline="") if trace_path else nullcontext()
    with trace_file:
        trace = csv.writer(trace_file) if trace_path else None
        if trace is not None:
            trace.writerow(["iteration", "dual_objective", "kkt_violation"])
        iteration = 0
        violation = np.inf
        for _ in range(max_passes):
            F = y - K @ beta  # full refresh guards against drift in the cache
            while iteration < max_iter:
                g_up, g_dn, up_ok, dn_ok = _kkt_state(beta, F, lo, hi, eps)
                if not (up_ok.any() and dn_ok.any()):
                    violation = 0.0
                    break
                # first maximal violator of each movable set
                i = int(np.where(up_ok, g_up, -np.inf).argmax())
                j = int(np.where(dn_ok, g_dn, np.inf).argmin())
                violation = float(g_up[i] - g_dn[j])
                if violation <= kkt_tol:
                    break

                hi_i, lo_j = hi[i], lo[j]
                eta = diag[i] + diag[j] - 2.0 * K[i, j]
                eta = max(eta, 1e-12 * max(diag[i] + diag[j], 1.0))
                t_box = min(hi_i - beta[i], beta[j] - lo_j)
                t = _line_search(beta[i], beta[j], violation, eta, t_box, eps)
                if t <= 0:
                    break  # blocked at machine precision; refresh and retry
                hit_box = t == t_box
                cap_i = t == hi_i - beta[i]
                cap_j = t == beta[j] - lo_j
                beta[i] += t
                beta[j] -= t
                if hit_box:
                    if cap_i:
                        beta[i] = hi_i
                    if cap_j:
                        beta[j] = lo_j
                F -= t * (K[:, i] - K[:, j])
                iteration += 1
                if trace is not None:
                    # the dual objective from the maintained F = y - K beta
                    objective = float(0.5 * beta @ (y + F) - eps * np.abs(beta).sum())
                    trace.writerow(
                        [iteration, repr(objective), repr(max(violation, 0.0))]
                    )
            if violation <= kkt_tol or iteration >= max_iter:
                break

    # final verdict from an exactly recomputed gradient
    F = y - K @ beta
    g_up, g_dn, up_ok, dn_ok = _kkt_state(beta, F, lo, hi, eps)
    if up_ok.any() and dn_ok.any():
        final_violation = float(g_up[up_ok].max() - g_dn[dn_ok].min())
    else:
        final_violation = 0.0
    if final_violation > kkt_tol:
        raise ConvergenceFailure(
            f"KKT violation {final_violation:.3e} above {kkt_tol:g} "
            f"after {iteration} updates",
            violation=final_violation,
        )
    return beta, _recover_bias(beta, F, lo, hi, eps, g_up, g_dn, up_ok, dn_ok)


def _recover_bias(beta, F, lo, hi, eps, g_up, g_dn, up_ok, dn_ok) -> float:
    interior = (beta != 0.0) & (lo < beta) & (beta < hi)
    if interior.any():
        return float(np.mean(F[interior] - eps * np.sign(beta[interior])))
    b_lo = g_up[up_ok].max() if up_ok.any() else -np.inf
    b_hi = g_dn[dn_ok].min() if dn_ok.any() else np.inf
    if np.isfinite(b_lo) and np.isfinite(b_hi):
        return float(0.5 * (b_lo + b_hi))
    return float(b_lo if np.isfinite(b_lo) else (b_hi if np.isfinite(b_hi) else 0.0))
