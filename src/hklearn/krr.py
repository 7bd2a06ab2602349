"""Ridge regression over hyper-Gram matrices.

Fits expansion coefficients beta by solving the shifted linear system
``(K + lam I) beta = y``.  Any solution of that system is stationary for the
quadratic objective ``||K beta - y||^2 + lam beta' K beta``, and the shift
keeps the factorization well posed without squaring the condition number.
The returned :class:`CoefficientField` holds the :class:`PairSystem` it was
solved on, so the learned kernel built from it evaluates over that system's
pairs and grouping, with no second record of either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .hyper import MAX_ENTRIES, PairSystem

DIRECT_RESIDUAL_TOL = 1e-8
CG_MAX_ITER = 20_000
# CG stops on its recursively updated residual, which can drift from the true
# one; it restarts from its iterate at most this many times.
CG_RESTARTS = 3
# Largest rank of the Nystrom preconditioner of CG
PRECONDITIONER_RANK = 100
# Rungs of the diagonal jitter ladder of a direct solve (base, 10x, 100x)
JITTER_RUNGS = 3
# Iterative-refinement steps of each rung of a direct solve
REFINEMENT_STEPS = 4


@dataclass(frozen=True)
class KrrConfig:
    """Ridge solve settings: ``lam`` and whether direct solves may jitter.

    ``lam`` must be positive for the SPD factorization guarantee; zero is
    accepted so that deliberately singular systems surface as
    ``NumericalFailure`` (on the CG path, before it iterates).  The class
    constant ``solver`` is ``direct`` (with the system's eigendecomposition,
    which every ``lam`` on one system shares), ``cg`` (conjugate gradient, to
    ``cg_tol``), or ``auto``, which takes CG above ``direct_limit`` unknowns.
    """

    # read by fit_krr, and on an instance by hkbench/spans.py's residual check
    solver: ClassVar[str] = "auto"
    cg_tol: ClassVar[float] = 1e-10
    direct_limit: ClassVar[int] = 2000

    lam: float
    jitter: bool = True

    def __post_init__(self):
        if self.lam < 0:
            raise InvalidInput(f"lam must be nonnegative, got {self.lam}")


@dataclass(frozen=True)
class CoefficientField:
    """Expansion coefficients over the pairs of a :class:`PairSystem`.

    ``values[k]`` attaches to the ordered point pair ``pair_list[k]`` of
    ``system``, which is the one record of the pairs, their grouping into
    distinct pairs and their points.  A fit records how it was solved:
    ``solver`` is ``direct``, ``cg`` or ``smo`` (None when the field was
    assembled from several solves or loaded), ``cg_iterations`` counts the
    conjugate-gradient iterations of a ``cg`` solve and
    ``preconditioner_rank`` is the rank of its Nystrom preconditioner.
    """

    values: np.ndarray
    system: PairSystem
    jitter_applied: float = 0.0
    solver: str | None = None
    cg_iterations: int | None = None
    preconditioner_rank: int | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size != self.system.n:
            raise InvalidInput(
                f"{values.size} values do not align with {self.system.n} pairs")
        if not np.all(np.isfinite(values)):
            raise InvalidInput("coefficients must be finite")
        object.__setattr__(self, "values", values)

    @property
    def pair_list(self) -> np.ndarray:
        return self.system.pair_list

    @property
    def n(self) -> int:
        return self.values.size


def solve_spd_with_jitter(matvec, spectrum, shift: float, rhs: np.ndarray,
                          base_jitter: float, retries: int = JITTER_RUNGS, null=None):
    """Solve ``(A + shift I) x = rhs``, escalating a diagonal jitter (base,
    10x, 100x) when the shifted matrix is not positive definite or the solve
    is too inaccurate (relative residual above ``DIRECT_RESIDUAL_TOL``).

    ``matvec`` multiplies by A, whose eigendecomposition is ``spectrum``
    (w, U); each rung solves with U diag(1 / (w + shift + jitter)) U' and up
    to ``REFINEMENT_STEPS`` refinement steps, and a shifted eigenvalue that
    is not positive fails it.  Unless ``null`` is None, A is the reduced
    matrix of a K whose null part of the solution is rest / shift
    (:meth:`PairSystem.reduce`): a zero total shift fails the rung, and the
    residual counts null / shift, ``null`` being :meth:`PairSystem.roundoff`
    of rest.  Returns ``(x, jitter_applied)``; a right-hand side whose norm
    overflows, or a last residual that is not finite, raises ``NumericalFailure``.
    """
    ladder = [0.0] + [base_jitter * 10.0 ** k for k in range(retries)]
    w, U = spectrum
    worst = None
    with np.errstate(over="ignore", invalid="ignore"):
        scale = max(1.0, float(np.linalg.norm(rhs)))
        if not math.isfinite(scale):
            raise NumericalFailure("the norm of the responses overflows")
        for jitter in ladder:
            total = shift + jitter
            d = w + total
            if not (d.min(initial=math.inf) > 0 and (total > 0 or null is None)):
                continue
            floor = 0.0 if null is None else null / total
            x, r = 0.0, -rhs
            for _ in range(REFINEMENT_STEPS + 1):  # the solve, then refinement
                x = x - U @ ((U.T @ r) / d)
                r = matvec(x) + total * x - rhs
                worst = (float(np.linalg.norm(r)) + floor) / scale
                if worst <= DIRECT_RESIDUAL_TOL:
                    return x, jitter
    if worst is not None and not math.isfinite(worst):
        raise NumericalFailure("solve residual is not finite: the solve overflows")
    if worst is not None:
        raise NumericalFailure(f"solve residual {worst:.3e} exceeds tolerance "
                               f"{DIRECT_RESIDUAL_TOL:g}")
    if retries:
        raise NumericalFailure(f"factorization failed after {retries} jitter retries "
                               f"(last jitter {ladder[-1]:g})")
    raise NumericalFailure("factorization failed and jitter is disabled")


def fit_krr(gram: PairSystem, responses, config: KrrConfig) -> CoefficientField:
    """Fit ridge coefficients for the given hyper-Gram and response vector.

    The coefficients satisfy ``||(K + lam I) beta - y|| / max(1, ||y||)``
    <= 1e-8 (direct) or ``cg_tol`` (CG), else ``NumericalFailure`` is raised.
    Both solve (M + lam I) z = S^1/2 ybar over the c distinct pairs
    (``gram.reduce``; the residual norms agree) and map z back
    (``gram.expand``), so a pair and its swap with equal responses get equal
    coefficients.  Direct solves use ``gram.spectrum``, one eigh per system
    (:func:`solve_spd_with_jitter`).  CG is :func:`_pcg` on
    ``gram.reduced_matvec`` with :func:`nystrom_preconditioner`; it stops on
    its recursive residual at ``min(cg_tol, 1e-12)``, and restarts from its
    iterate (up to ``CG_RESTARTS`` times) while the true residual misses
    ``cg_tol``.  ``cg_iterations`` sums every run's iterations.
    """
    y = np.asarray(responses, dtype=float).ravel()
    if y.size != gram.n:
        raise InvalidInput(f"responses length {y.size} != gram dimension {gram.n}")
    lam = config.lam

    solver = config.solver
    if solver == "auto":
        solver = "direct" if gram.n <= config.direct_limit else "cg"
    if solver == "cg" and lam == 0:  # CG on the semidefinite K diverges
        raise NumericalFailure("conjugate gradient needs lambda > 0, got lambda 0")
    b, rest = gram.reduce(y)
    if solver == "direct":
        z, jitter = solve_spd_with_jitter(
            gram.reduced_matvec, gram.spectrum, lam, b, gram.base_jitter,
            retries=JITTER_RUNGS if config.jitter else 0,
            null=gram.roundoff(rest) if gram.c < gram.n else None,
        )
        return CoefficientField(gram.expand(z, rest, lam + jitter), gram,
                                jitter_applied=jitter, solver="direct")

    def shifted(v):
        return gram.reduced_matvec(v) + lam * v

    precond, rank = nystrom_preconditioner(gram, lam)
    # below machine epsilon rho = r'z can underflow to exactly zero, and
    # _pcg's next step divides by it
    rtol = max(min(config.cg_tol, 1e-12), np.finfo(float).eps)
    iterations, z, scale = 0, None, max(1.0, float(np.linalg.norm(b)))
    for _ in range(CG_RESTARTS + 1):
        z, steps = _pcg(shifted, b, z, rtol, CG_MAX_ITER, precond)
        iterations += steps
        residual = float(np.linalg.norm(shifted(z) - b))
        if residual <= config.cg_tol * scale:
            break
    else:
        raise NumericalFailure(
            f"solve residual {residual / scale:.3e} exceeds tolerance {config.cg_tol:g}"
        )
    return CoefficientField(gram.expand(z, rest, lam), gram, solver="cg",
                            cg_iterations=iterations, preconditioner_rank=rank)


def _pcg(matvec, b, x0, rtol, maxiter, precond=None):
    """Preconditioned conjugate gradient on ``matvec(x) = b`` from x0 (None: 0).

    Stops once the recursive residual r satisfies ||r|| < rtol ||b||, or after
    ``maxiter`` iterations; returns (x, iterations).  ``precond`` applies M to
    r (None: the identity).  The operation order is that of
    ``scipy.sparse.linalg.cg`` (scipy 1.17), so the iterates equal its own.
    """
    tol = rtol * np.linalg.norm(b)
    if tol == 0:  # b = 0
        return np.zeros_like(b), 0
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b - matvec(x) if x.any() else b.copy()
    for it in range(maxiter):
        if np.linalg.norm(r) < tol:
            return x, it
        z = r if precond is None else precond(r)
        rho = np.dot(r, z)
        if it:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter


def nystrom_preconditioner(gram: PairSystem, lam: float):
    """A preconditioner for M + lam I from a rank-r Nystrom approximation F F'
    of M, the system's matrix over its c distinct unordered pairs.

    F comes from a partial pivoted Cholesky of M, each step pivoting on the
    largest residual diagonal (so deterministically) and reading that column
    through ``gram.reduced_column``.  It stops when that diagonal falls to
    lam / 100 or r reaches ``PRECONDITIONER_RANK`` (and r * c
    ``MAX_ENTRIES``), and at the latest at ``PRECONDITIONER_RANK * eps``
    times the largest diagonal, below which a pivot would add a column of
    roundoff and leave F without full numerical rank.

    With F = QR (:func:`_cholesky_qr3`) and RR' = VSV', U = QV and
    (F F' + lam I)^-1 = U diag(1 / (S + lam)) U' + (I - UU') / lam, applied
    times lam as v - U diag(S / (S + lam)) U'v: the CG iterates are the same
    and nothing small divides.  Returns (apply, rank); at rank 0, or lam 0,
    apply is None and CG runs unpreconditioned.
    """
    c = gram.c
    cap = min(PRECONDITIONER_RANK, c, MAX_ENTRIES // max(c, 1)) if lam > 0 else 0
    # rows of F'; np.empty leaves the rows past the rank reached unwritten
    Ft = np.empty((cap, c))
    d = gram.reduced_diag()
    tol = max(lam / 100.0, PRECONDITIONER_RANK * np.finfo(float).eps * d.max(initial=0.0))
    r = 0
    while r < cap:
        s = int(np.argmax(d))
        if not d[s] > tol:
            break
        col = gram.reduced_column(s) - Ft[:r].T @ Ft[:r, s]
        col /= math.sqrt(d[s])
        Ft[r] = col
        d -= col * col
        np.maximum(d, 0.0, out=d)
        d[s] = 0.0
        r += 1
    if r == 0:
        return None, 0
    Qt, L = _cholesky_qr3(Ft[:r])
    S, V = np.linalg.eigh(L.T @ L)
    Ut = V.T @ Qt
    damp = S / (S + lam)
    return (lambda v: v - Ut.T @ (damp * (Ut @ v))), r


def _cholesky_qr3(Ft):
    """F = QR of the n x r factor F = Ft' by shifted CholeskyQR3, as (Q', R').

    Each pass factors the Gram of the current rows, C C' = Q'Q (+ s I), and
    replaces Q' by C^-1 Q'.  The first is shifted by
    s = 11 (n r + r (r + 1)) eps tr(F'F), so its Cholesky cannot break down,
    and leaves Q conditioned well enough for two plain passes to make it
    orthonormal to roundoff, as long as F itself has full numerical rank
    (Fukaya et al., "Shifted Cholesky QR for computing the QR factorization
    of ill-conditioned matrices", SIAM J. Sci. Comput. 2020).  R' is the
    product of the three factors C.
    """
    r, n = Ft.shape
    shift = 11.0 * (n * r + r * (r + 1)) * np.finfo(float).eps
    Qt, L = Ft, np.eye(r)
    for first in (True, False, False):
        G = Qt @ Qt.T
        if first:
            G[np.diag_indices(r)] += shift * np.trace(G)
        C = np.linalg.cholesky(G)
        Qt = np.linalg.inv(C) @ Qt
        L = L @ C
    return Qt, L
