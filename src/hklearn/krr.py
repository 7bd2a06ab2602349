"""Ridge regression over hyper-Gram matrices.

Fits expansion coefficients beta by solving the shifted linear system
``(K + lam I) beta = y``.  Any solution of that system is stationary for the
quadratic objective ``||K beta - y||^2 + lam beta' K beta``, and the shift
keeps the factorization well posed without squaring the condition number.
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
# Rows of the diagonal blocks of the direct solve's substitution
SOLVE_BLOCK = 64
# Direct solves of one system that share its eigendecomposition.  One eigh
# costs 2-6 Cholesky solves from 81 to 1,936 pairs, and a solve with it about a
# tenth of one, so it pays from 3 solves at 81 pairs and from 7 at 1,936.
SPECTRUM_MIN_SOLVES = 7


@dataclass(frozen=True)
class KrrConfig:
    """Ridge solve settings: ``lam`` and whether direct solves may jitter.

    ``lam`` must be positive for the SPD factorization guarantee; zero is
    accepted so that deliberately singular systems surface as
    ``NumericalFailure`` (on the CG path, before it iterates).  The class
    constant ``solver`` is ``direct`` (a numpy Cholesky, or one shared
    eigendecomposition across a grid of ``lam``), ``cg`` (conjugate gradient,
    to ``cg_tol``), or ``auto``, which takes CG above ``direct_limit`` unknowns.
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
    """Expansion coefficients aligned with a hyper-Gram pair enumeration.

    ``values[k]`` attaches to the ordered point pair ``pair_list[k]``; ``m``
    is the number of underlying sample points.  A fit records how it was
    solved: ``solver`` is ``direct``, ``cg`` or ``smo`` (None when the field
    was assembled from several solves or loaded), ``cg_iterations``
    counts the conjugate-gradient iterations of a ``cg`` solve and
    ``preconditioner_rank`` is the rank of its Nystrom preconditioner.
    """

    values: np.ndarray
    pair_list: np.ndarray
    m: int
    jitter_applied: float = 0.0
    solver: str | None = None
    cg_iterations: int | None = None
    preconditioner_rank: int | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        pairs = np.asarray(self.pair_list, dtype=np.intp)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] != values.size:
            raise InvalidInput(
                f"pair_list shape {pairs.shape} does not align with {values.size} values"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidInput("coefficients must be finite")
        if pairs.size and (pairs.min() < 0 or pairs.max() >= self.m):
            raise InvalidInput(f"pair indices out of range for m={self.m}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "pair_list", pairs)

    @property
    def n(self) -> int:
        return self.values.size


def solve_spd_with_jitter(entries: np.ndarray, shift: float, rhs: np.ndarray,
                          base_jitter: float, retries: int = JITTER_RUNGS, spectrum=None):
    """Solve ``(entries + shift I) x = rhs``, escalating a diagonal jitter
    (base, 10x, 100x) when the factorization fails or the solve is too
    inaccurate (relative residual above ``DIRECT_RESIDUAL_TOL``).

    Each rung factors the shifted matrix by Cholesky.  With ``spectrum``, the
    eigendecomposition (w, V) of ``entries``, it solves with
    V diag(1 / (w + shift + jitter)) V' instead, and a non-positive shifted
    eigenvalue counts as a failed factorization.  A couple of
    iterative-refinement steps follow each factorization so the residual
    contract holds on ill-conditioned systems too.  Returns
    ``(x, jitter_applied)``; the residual is measured against the jittered
    system actually solved.  A right-hand side whose norm overflows, or a last
    residual that is not finite, raises ``NumericalFailure``.
    """
    ladder = [0.0] + [base_jitter * 10.0 ** k for k in range(retries)]
    worst = None
    with np.errstate(over="ignore", invalid="ignore"):
        scale = max(1.0, float(np.linalg.norm(rhs)))
        if not math.isfinite(scale):
            raise NumericalFailure("the norm of the responses overflows")
        for jitter in ladder:
            total = shift + jitter
            solve = _factor(entries, total, spectrum)
            if solve is None:
                continue
            x = solve(rhs)
            r = entries @ x + total * x - rhs
            worst = float(np.linalg.norm(r)) / scale
            for _ in range(2):
                if worst <= DIRECT_RESIDUAL_TOL:
                    break
                x = x - solve(r)
                r = entries @ x + total * x - rhs
                worst = float(np.linalg.norm(r)) / scale
            if worst <= DIRECT_RESIDUAL_TOL:
                return x, jitter
    if worst is not None and not math.isfinite(worst):
        raise NumericalFailure("solve residual is not finite: the solve overflows")
    if worst is not None:
        raise NumericalFailure(
            f"solve residual {worst:.3e} exceeds tolerance {DIRECT_RESIDUAL_TOL:g}"
        )
    if retries:
        raise NumericalFailure(
            f"factorization failed after {retries} jitter retries "
            f"(last jitter {ladder[-1]:g})"
        )
    raise NumericalFailure("factorization failed and jitter is disabled")


def _factor(entries, shift, spectrum):
    """A solver of ``(entries + shift I) x = b``, or None where its factorization fails."""
    if spectrum is not None:
        w, V = spectrum
        d = w + shift
        if not d.min() > 0:
            return None
        return lambda b: V @ ((V.T @ b) / d)
    try:
        L = np.linalg.cholesky(entries + shift * np.eye(entries.shape[0]))
    except np.linalg.LinAlgError:
        return None
    return lambda b: _cholesky_solve(L, b)


def _cholesky_solve(L, b):
    """x with L L' x = b, by block forward and back substitution.

    numpy has no triangular solve, so each diagonal block of ``SOLVE_BLOCK``
    rows is solved by ``np.linalg.solve`` and the rest are matrix-vector
    products.  Solving the blocks, rather than multiplying by their inverses,
    keeps the substitution backward stable.
    """
    n = L.shape[0]
    z = np.empty_like(b)
    for a in range(0, n, SOLVE_BLOCK):
        e = min(a + SOLVE_BLOCK, n)
        z[a:e] = np.linalg.solve(L[a:e, a:e], b[a:e] - L[a:e, :a] @ z[:a])
    x = np.empty_like(b)
    for a in range((n - 1) // SOLVE_BLOCK * SOLVE_BLOCK, -1, -SOLVE_BLOCK):
        e = min(a + SOLVE_BLOCK, n)
        x[a:e] = np.linalg.solve(L[a:e, a:e].T, z[a:e] - L[e:, a:e].T @ x[e:])
    return x


def _solver(gram: PairSystem, config: KrrConfig) -> str:
    """``direct`` or ``cg``: the solver that ``fit_krr`` takes for ``config``."""
    if config.solver == "auto":
        return "direct" if gram.n <= config.direct_limit else "cg"
    return config.solver


def shared_spectrum(gram: PairSystem, configs):
    """``np.linalg.eigh(gram.entries)`` when at least ``SPECTRUM_MIN_SOLVES`` of
    ``configs`` are direct ridge solves of ``gram``, else None.

    A grid of ridge weights on one system passes it to :func:`fit_krr` as
    ``spectrum``, so that one eigendecomposition serves all of them.
    """
    direct = sum(isinstance(c, KrrConfig) and _solver(gram, c) == "direct" for c in configs)
    if direct < SPECTRUM_MIN_SOLVES:
        return None
    try:
        return np.linalg.eigh(gram.entries)
    except np.linalg.LinAlgError:  # each solve then factors on its own
        return None


def fit_krr(gram: PairSystem, responses, config: KrrConfig,
            spectrum=None) -> CoefficientField:
    """Fit ridge coefficients for the given hyper-Gram and response vector.

    The returned coefficients satisfy
    ``||(K + lam I) beta - y|| / max(1, ||y||) <= 1e-8`` for direct solves and
    ``<= cg_tol`` for conjugate-gradient solves; otherwise ``NumericalFailure``
    is raised.  Direct solves factor ``gram.entries`` by a numpy Cholesky, or,
    given ``spectrum`` (see :func:`shared_spectrum`), solve with that
    eigendecomposition of it; see :func:`solve_spd_with_jitter`.  Conjugate
    gradient is the numpy loop :func:`_pcg`: it only multiplies by K through
    ``gram.matvec``, so it never forms the n x n matrix, and it is
    preconditioned by :func:`nystrom_preconditioner`.  It stops on its
    recursive residual at ``min(cg_tol, 1e-12)`` relative to ||y||; the true
    residual is then measured on the same operator, and CG restarts from its
    iterate (up to ``CG_RESTARTS`` times) while that residual misses
    ``cg_tol``.  ``cg_iterations`` sums the iterations of every run.
    """
    y = np.asarray(responses, dtype=float).ravel()
    if y.size != gram.n:
        raise InvalidInput(f"responses length {y.size} != gram dimension {gram.n}")
    lam = config.lam
    m = gram.points.shape[0]

    if _solver(gram, config) == "direct":
        beta, jitter = solve_spd_with_jitter(
            gram.entries, lam, y, gram.base_jitter(),
            retries=JITTER_RUNGS if config.jitter else 0, spectrum=spectrum,
        )
        return CoefficientField(beta, gram.pair_list, m, jitter_applied=jitter,
                                solver="direct")

    if lam == 0:  # CG on the semidefinite K diverges; fail before iterating
        raise NumericalFailure("conjugate gradient needs lambda > 0, got lambda 0")

    def shifted(v):
        return gram.matvec(v) + lam * v

    precond, rank = nystrom_preconditioner(gram, lam)
    # below machine epsilon rho = r'z can underflow to exactly zero, and
    # _pcg's next step divides by it
    rtol = max(min(config.cg_tol, 1e-12), np.finfo(float).eps)
    iterations = 0
    scale = max(1.0, float(np.linalg.norm(y)))
    beta = None
    for _ in range(CG_RESTARTS + 1):
        beta, steps = _pcg(shifted, y, beta, rtol, CG_MAX_ITER, precond)
        iterations += steps
        residual = float(np.linalg.norm(shifted(beta) - y))
        if residual <= config.cg_tol * scale:
            break
    else:
        raise NumericalFailure(
            f"solve residual {residual / scale:.3e} exceeds tolerance {config.cg_tol:g}"
        )
    return CoefficientField(beta, gram.pair_list, m, solver="cg",
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
    """A preconditioner for K + lam I from a rank-r Nystrom approximation F F' of K.

    F comes from a partial pivoted Cholesky of K: each step takes the pair
    with the largest residual diagonal as its pivot, so the choice is
    deterministic, and reads that column of K through ``gram.column``.  It
    stops when the largest residual diagonal falls to lam / 100 or r reaches
    ``PRECONDITIONER_RANK`` (and r * n ``MAX_ENTRIES``), and at the latest
    when it falls to ``PRECONDITIONER_RANK * eps`` times the largest
    diagonal: below that the residual is the roundoff of its updates, and a
    pivot on it would add a column of noise that leaves F without full
    numerical rank.  The two orders of a pair have equal columns, so once
    one is a pivot the other's residual diagonal drops to roundoff and the
    stopping rule passes it over.

    With F = QR and RR' = VSV', U = QV and the preconditioner is
    (F F' + lam I)^-1 = U diag(1 / (S + lam)) U' + (I - UU') / lam.  It is
    applied times lam, as v - U diag(S / (S + lam)) U'v, which leaves the CG
    iterates unchanged and divides by nothing small.  Q and R come from
    :func:`_cholesky_qr3`: GEMMs and r x r factorizations, no Householder QR
    of the n x r factor.  Returns (apply, rank), where apply(v) is that
    product; at rank 0, or lam 0, apply is None: CG runs unpreconditioned.
    """
    n = gram.n
    cap = min(PRECONDITIONER_RANK, n, MAX_ENTRIES // max(n, 1)) if lam > 0 else 0
    # rows of F'; np.empty leaves the rows past the rank reached unwritten
    Ft = np.empty((cap, n))
    d = gram.diag()
    tol = max(lam / 100.0, PRECONDITIONER_RANK * np.finfo(float).eps * d.max(initial=0.0))
    r = 0
    while r < cap:
        s = int(np.argmax(d))
        if not d[s] > tol:
            break
        col = gram.column(s) - Ft[:r].T @ Ft[:r, s]
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
