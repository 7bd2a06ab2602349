"""The Householder-QR build of the Nystrom preconditioner, kept as a test oracle.

The package orthonormalizes the Nystrom factor by shifted CholeskyQR3.  This
module keeps the build it replaced verbatim: the same pivoted partial Cholesky,
then ``np.linalg.qr`` of the factor, so tests can compare the two operators.
"""

from __future__ import annotations

import math

import numpy as np

from hklearn.hyper import MAX_ENTRIES, PairSystem
from hklearn.krr import PRECONDITIONER_RANK


def nystrom_preconditioner_reference(gram: PairSystem, lam: float):
    """A preconditioner for K + lam I from a rank-r Nystrom approximation F F' of K.

    F comes from a partial pivoted Cholesky of K: each step takes the pair
    with the largest residual diagonal as its pivot, so the choice is
    deterministic, and reads that column of K through ``gram.column``.  It
    stops when the largest residual diagonal falls to lam / 100 or r reaches
    ``PRECONDITIONER_RANK`` (and r * n ``MAX_ENTRIES``).  The two orders of a
    pair have equal columns, so once one is a pivot the other's residual
    diagonal drops to roundoff and the stopping rule passes it over.

    With F = QR and RR' = VSV', U = QV and the preconditioner is
    (F F' + lam I)^-1 = U diag(1 / (S + lam)) U' + (I - UU') / lam.  It is
    applied times lam, as v - U diag(S / (S + lam)) U'v, which leaves the CG
    iterates unchanged and divides by nothing small.  Returns (apply, rank),
    where apply(v) is that product; at rank 0, or lam 0, apply is None: CG
    runs unpreconditioned.
    """
    n = gram.n
    cap = min(PRECONDITIONER_RANK, n, MAX_ENTRIES // max(n, 1)) if lam > 0 else 0
    # rows of F'; np.empty leaves the rows past the rank reached unwritten
    Ft = np.empty((cap, n))
    d = gram.diag()
    r = 0
    while r < cap:
        s = int(np.argmax(d))
        if not d[s] > lam / 100.0:
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
    Q, R = np.linalg.qr(Ft[:r].T)
    S, V = np.linalg.eigh(R @ R.T)
    U = Q @ V
    damp = S / (S + lam)
    return (lambda v: v - U @ (damp * (U.T @ v))), r
