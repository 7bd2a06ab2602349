"""Support vector regression over a hyper-Gram matrix.

The dual being maximized, over 0 <= bhat, bcheck <= C with
(bhat - bcheck)' 1 = 0, is

    -1/2 (bhat - bcheck)' K (bhat - bcheck) + (bhat - bcheck)' y
        - eps (bhat + bcheck)' 1

At any optimum bhat_k * bcheck_k = 0, so the solver stores the single signed
coefficient beta = bhat - bcheck in [-C, C] and the eps term becomes an l1
penalty.  Pairs of coefficients are updated along e_i - e_j (which preserves
the equality constraint) with an exact line search on the resulting concave
piecewise quadratic; the kinks sit where a coefficient crosses zero.

The same solver, :func:`smo`, takes per-coordinate bounds lo <= beta <= hi.
The downstream SVM dual is its eps = 0 case with responses y and the boxes
[0, C] for y = +1 and [-C, 0] for y = -1, so that beta = y * alpha.
"""

from __future__ import annotations

import csv
import math
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, InvalidInput, NumericalFailure
from .hyper import PairSystem, cap_entries
from .krr import CoefficientField

EQUALITY_SLACK = 1e-8  # scaled by C*n in the model invariant
# The budget of every SMO solve: full-gradient refresh rounds, total updates
SMO_MAX_PASSES = 1000
SMO_MAX_ITER = 500_000
# Updates per progress check: see _cycles_past_budget
SMO_STALL_WINDOW = 1000


@dataclass(frozen=True)
class SvrConfig:
    """Box bound C, tube width epsilon, and the stopping tolerance.

    C trades data fit against smoothness of the learned function.  The solver
    stops when the worst KKT violation drops below ``kkt_tol``, within the
    budget ``SMO_MAX_PASSES`` and ``SMO_MAX_ITER``.
    """

    C: float
    epsilon: float = 0.1
    kkt_tol: float = 1e-3

    def __post_init__(self):
        if not self.C > 0:
            raise InvalidInput(f"C must be positive, got {self.C}")
        if self.epsilon < 0:
            raise InvalidInput(f"epsilon must be nonnegative, got {self.epsilon}")
        # a KKT violation is a difference of slopes of the responses' size, so
        # SMO cannot get it below one rounding error of 1
        if not self.kkt_tol >= np.finfo(float).eps:
            raise InvalidInput(f"kkt_tol must be at least machine epsilon, got {self.kkt_tol}")


@dataclass(frozen=True, eq=False)
class SvrModel:
    beta: CoefficientField
    bias: float
    support_pairs: np.ndarray
    dual_objective: float
    config: SvrConfig = field(repr=False)

    def __post_init__(self):
        b = self.beta.values
        C = self.config.C
        if b.size and (b.min() < -C or b.max() > C):
            raise InvalidInput("coefficients outside the [-C, C] box")
        if abs(float(b.sum())) > EQUALITY_SLACK * C * max(b.size, 1):
            raise InvalidInput("equality constraint violated")


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


def _gradient(K, y, beta):
    """F = y - K beta, refreshed exactly; not finite raises ``NumericalFailure``."""
    F = y - K @ beta
    if not np.isfinite(F).all():
        raise NumericalFailure("SMO gradient is not finite: the Gram or the responses overflow")
    return F


def smo(K, y, lo, hi, eps: float, kkt_tol: float, max_passes: int, max_iter: int,
        trace_path=None):
    """Maximize -1/2 b'Kb + b'y - eps |b|_1 over lo <= b <= hi, sum(b) = 0.

    SMO with maximal-violating-pair selection until the KKT gap closes; the
    bounds are per coordinate, so the SVR box [-C, C] and the signed SVM boxes
    [0, C] / [-C, 0] are both instances.  Returns (beta, bias, peak): peak is
    the largest |b_k| of any iterate, or inf when a stall check found the
    gradient back at its mark.  A solve whose peak is below the C of its box
    never touched it, so it has the same iterates, result and update count
    at every larger C.  Raises ConvergenceFailure (carrying the worst
    violation) if the iteration budget runs out first, or as soon as
    :func:`_cycles_past_budget` shows that it would, and ``NumericalFailure``
    when a step's curvature, a slope or a refreshed gradient is not finite.
    ``trace_path``, when given, receives one CSV row per update: iteration,
    dual objective, worst KKT violation.
    """
    n = y.size
    diag = np.diag(K).tolist()
    lo_l, hi_l = lo.tolist(), hi.tolist()
    KT = K.T  # KT[i] is column i of K

    # F + off_up is the objective slope for increasing each coefficient (the
    # l1 subgradient uses +1 at zero), -inf where it sits at its upper bound;
    # F + off_dn is the slope, sign-flipped, for decreasing it, +inf at its
    # lower bound.  At an optimum a bias b has F + off_up <= b <= F + off_dn.
    beta = np.zeros(n)
    off_up = np.where(hi > 0.0, -eps, -math.inf)
    off_dn = np.where(lo < 0.0, eps, math.inf)
    peak, mark, stalled = 0.0, None, False
    trace_file = open(trace_path, "w", newline="") if trace_path else nullcontext()
    with trace_file, np.errstate(over="ignore", invalid="ignore"):
        trace = csv.writer(trace_file) if trace_path else None
        if trace is not None:
            trace.writerow(["iteration", "dual_objective", "kkt_violation"])
        iteration = 0
        violation = math.inf
        for _ in range(max_passes):
            F = _gradient(K, y, beta)  # guards against drift in the update
            while iteration < max_iter:
                # first maximal violator of each movable set; with one set
                # empty the violation is -inf and the pass ends
                up, dn = F + off_up, F + off_dn
                i, j = int(up.argmax()), int(dn.argmin())
                violation = up.item(i) - dn.item(j)
                if violation <= kkt_tol:
                    break
                b_i, b_j, hi_i, lo_j = beta.item(i), beta.item(j), hi_l[i], lo_l[j]
                eta = diag[i] + diag[j] - 2.0 * K.item(i, j)
                if not (math.isfinite(eta) and math.isfinite(violation)):
                    raise NumericalFailure(
                        "SMO step is not finite: the Gram or the responses overflow")
                eta = max(eta, 1e-12 * max(diag[i] + diag[j], 1.0))
                t_box = min(hi_i - b_i, b_j - lo_j)
                t = _line_search(b_i, b_j, violation, eta, t_box, eps)
                if t <= 0:
                    break  # blocked at machine precision; refresh and retry
                if t == t_box:  # the step ends on a bound of one of them, or both
                    b_i = hi_i if t == hi_i - b_i else b_i + t
                    b_j = lo_j if t == b_j - lo_j else b_j - t
                else:
                    b_i, b_j = b_i + t, b_j - t
                peak = max(peak, abs(b_i), abs(b_j))
                beta[i], beta[j] = b_i, b_j
                off_up[i] = (-eps if b_i >= 0 else eps) if b_i < hi_i else -math.inf
                off_dn[i] = (eps if b_i <= 0 else -eps) if b_i > lo_l[i] else math.inf
                off_up[j] = (-eps if b_j >= 0 else eps) if b_j < hi_l[j] else -math.inf
                off_dn[j] = (eps if b_j <= 0 else -eps) if b_j > lo_j else math.inf
                F -= t * (KT[i] - KT[j])
                iteration += 1
                if trace is not None:
                    # the dual objective from the maintained F = y - K beta
                    objective = float(0.5 * beta @ (y + F) - eps * np.abs(beta).sum())
                    trace.writerow(
                        [iteration, repr(objective), repr(max(violation, 0.0))]
                    )
                if iteration % SMO_STALL_WINDOW == 0:
                    if mark is not None and np.array_equal(F, mark[1]):
                        peak = math.inf  # the cycle's verdict reads the box
                        stalled = _cycles_past_budget(
                            beta, mark[0], lo, hi, (max_iter - iteration) / SMO_STALL_WINDOW
                        )
                        if stalled:
                            break
                    mark = beta.copy(), F.copy()
            if violation <= kkt_tol or iteration >= max_iter or stalled:
                break

        # final verdict from an exactly recomputed gradient
        F = _gradient(K, y, beta)
        # -inf and +inf when a movable set is empty
        b_lo, b_hi = float((F + off_up).max()), float((F + off_dn).min())
    final_violation = b_lo - b_hi
    if final_violation > kkt_tol:
        raise ConvergenceFailure(
            f"KKT violation {final_violation:.3e} above {kkt_tol:g} "
            f"after {iteration} updates",
            violation=final_violation,
        )
    return beta, _recover_bias(beta, F, lo, hi, eps, b_lo, b_hi), peak


def _cycles_past_budget(beta, beta0, lo, hi, windows_left) -> bool:
    """Whether a window of updates from beta0 to beta that returned the
    gradient F bitwise to where it started is a cycle that the remaining
    budget cannot leave.

    Such a window leaves every slope, and so the KKT violation, where it was;
    if no coefficient changed sign, the next window repeats it, drifting beta
    by the same amount.  Only a coefficient reaching its bound or zero (the
    kink of the eps term) can end the cycle, so when none would within
    ``windows_left`` more windows the budget runs out first.  Hyper-Gram
    entries near 1e57 (``sigma2`` 1e-30) give such a cycle: coefficients whose
    rows are zero drift by 1e-58 per update.
    """
    drift = beta - beta0
    moving = drift != 0.0
    b, d = beta[moving], drift[moving]
    ahead = np.where(d > 0.0, hi[moving] - b, b - lo[moving])
    ahead = np.where(b * d < 0.0, np.minimum(ahead, np.abs(b)), ahead)
    kept_sign = np.sign(b) == np.sign(beta0[moving])
    return bool((kept_sign & (ahead > windows_left * np.abs(d))).all())


def fit_svr(gram: PairSystem, responses, config: SvrConfig,
            trace_path=None) -> SvrModel:
    """Solve the SVR dual over the box [-C, C] with :func:`smo` on ``gram.block``.

    Pairs that share a distinct unordered pair and a response have equal
    rows of K and slopes, so :func:`smo` solves for one sum z_g per such
    group of s_g pairs, on the block of K between the groups with the boxes
    [-s_g C, s_g C], and beta = z_g / s_g: an optimum of the full dual, with
    its objective, bias and KKT violation.  With symmetric responses the
    groups are the c distinct pairs.
    """
    y = np.asarray(responses, dtype=float).ravel()
    if y.size != gram.n:
        raise InvalidInput(f"responses length {y.size} != gram dimension {gram.n}")
    C, eps = config.C, config.epsilon
    col = gram.col
    key = np.empty(y.size, dtype=complex)  # sorts by distinct pair, then response
    key.real, key.imag = col, y
    _, head, group, size = np.unique(key, return_index=True, return_inverse=True,
                                     return_counts=True)
    cap_entries(head.size ** 2, "SVR Gram")
    K = gram.block if head.size == gram.c else gram.block[np.ix_(col[head], col[head])]
    z, bias, _ = smo(K, y[head], -C * size, C * size, eps, config.kkt_tol,
                     SMO_MAX_PASSES, SMO_MAX_ITER, trace_path)
    beta = np.clip(z / size, -C, C)[group]
    support = np.flatnonzero(beta != 0.0)
    obj = float(-0.5 * z @ (K @ z) + z @ y[head] - eps * np.abs(z).sum())
    coeffs = CoefficientField(beta, gram, solver="smo")
    return SvrModel(coeffs, bias, support, obj, config)


def _recover_bias(beta, F, lo, hi, eps, b_lo, b_hi) -> float:
    """The bias at the optimum beta: the mean slope over the interior
    coefficients, else the midpoint of the bracket [b_lo, b_hi] that the
    largest growing and smallest shrinking slope give."""
    interior = (beta != 0.0) & (lo < beta) & (beta < hi)
    if interior.any():
        return float(np.mean(F[interior] - eps * np.sign(beta[interior])))
    if math.isfinite(b_lo) and math.isfinite(b_hi):
        return 0.5 * (b_lo + b_hi)
    return b_lo if math.isfinite(b_lo) else (b_hi if math.isfinite(b_hi) else 0.0)
