"""Span recording around hklearn's public functions, installed from outside.

The tracer replaces each function named in ``LAYERS`` with a wrapper in every
``hklearn`` module namespace that holds it (``fit_krr`` is bound in ``krr``,
``pipeline``, ``scaling`` and ``cli``), so calls through any import path are
seen.  The package source is never edited.  A span records the operation id,
its own id, the id of the span that caused it, the function name, start and
end; spans stay in memory until the run writes them out.  Work counts are read
from arguments and results at the same boundary.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "hklearn"

LAYERS = (
    ("base_kernels", "gram_matrix"),
    ("hyper", "assemble_hyper_gram"),
    ("krr", "fit_krr"),
    ("svr", "fit_svr"),
    ("learned", "eval_pairs"),
    ("learned", "learned_gram"),
    ("learned", "save_learned"),
    ("learned", "load_learned"),
    ("pipeline", "cross_validate"),
    ("pipeline", "fit_extend"),
    ("pipeline", "svm_train"),
    ("pipeline", "svm_predict"),
    ("scaling", "fit_decomposed"),
    ("scaling", "kmeans_partition"),
    ("scaling", "decomposition_bound"),
    ("cli", "main"),
    ("cli", "ingest_dataset"),
    ("cli", "ingest_kernel_matrix"),
)

# The direct-solve residual contract of the package README; CG solves are held
# to the cg_tol of their own KrrConfig.
DIRECT_RESIDUAL_TOL = 1e-8


@dataclass
class Span:
    op: int
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)


def _count_gram_matrix(bound, K):
    return {"entries": int(np.asarray(K).size)}


def _count_hyper(bound, gram):
    n2 = int(gram.n) ** 2
    return {"entries": n2, "bytes_computed": 8 * n2}


def _count_krr(bound, coeffs):
    return {"unknowns": int(bound.arguments["gram"].n)}


def _count_svr(bound, model):
    return {
        "unknowns": int(bound.arguments["gram"].n),
        "support": int(model.support_pairs.size),
    }


def _count_eval_pairs(bound, values):
    queries = int(np.atleast_2d(bound.arguments["A"]).shape[0])
    return {
        "queries": queries,
        "query_terms": queries * int(bound.arguments["lk"].coefficients.n),
    }


COUNTERS = {
    "base_kernels.gram_matrix": _count_gram_matrix,
    "hyper.assemble_hyper_gram": _count_hyper,
    "krr.fit_krr": _count_krr,
    "svr.fit_svr": _count_svr,
    "learned.eval_pairs": _count_eval_pairs,
}


def krr_relative_residual(gram, responses, config, coeffs):
    """``||(K + (lam + jitter) I) beta - y|| / max(1, ||y||)`` and its tolerance.

    Recomputed from the returned coefficients and the HyperGram the solver was
    given; the tolerance is the one the solver path promises.
    """
    y = np.asarray(responses, dtype=float).ravel()
    beta = coeffs.values
    shift = config.lam + coeffs.jitter_applied
    r = gram.entries @ beta + shift * beta - y
    rel = float(np.linalg.norm(r)) / max(1.0, float(np.linalg.norm(y)))
    solver = config.solver
    if solver == "auto":
        solver = "direct" if gram.n <= config.direct_limit else "cg"
    tol = DIRECT_RESIDUAL_TOL if solver == "direct" else config.cg_tol
    return rel, tol


class Tracer:
    """Collects spans for the operation whose id is in ``op``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.krr_solves: list = []  # (gram, responses, config, coeffs) of this op
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list = []

    def install(self) -> None:
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for modname, fname in LAYERS:
            original = getattr(sys.modules[f"{PACKAGE}.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for mod in modules:
                names = [a for a, v in vars(mod).items() if v is original]
                for attr in names:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn)
        keep_solve = name == "krr.fit_krr"

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = self._next_id
            self._next_id += 1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = Span(self.op, sid, parent, name, start, end)
                self.spans.append(span)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                span.counts = count(bound, result)
                if keep_solve:
                    a = bound.arguments
                    self.krr_solves.append((a["gram"], a["responses"], a["config"], result))
            return result

        return wrapper

    def check_krr_solves(self) -> tuple[float, list[str]]:
        """Largest relative residual of this op's KRR solves, and violations.

        Run after the operation, outside its timed interval; the held
        matrices are released afterwards.
        """
        worst, errors = 0.0, []
        for gram, responses, config, coeffs in self.krr_solves:
            rel, tol = krr_relative_residual(gram, responses, config, coeffs)
            worst = max(worst, rel)
            if not rel <= tol:
                errors.append(
                    f"KRR relative residual {rel:.3e} above {tol:g} on {gram.n} unknowns"
                )
        self.krr_solves.clear()
        return worst, errors


def layer_table(spans, op_walls: dict):
    """Per-function totals over the traced operations, with per-op sums.

    Self time is a span's duration minus the durations of its direct children;
    spans of one thread nest, so that is the part of its interval no child
    covers.  Returns ``(table, self_by_op, uncovered_by_op)``, where
    ``uncovered_by_op[op]`` is the op's wall time outside every top-level span.
    The self times of an op plus its uncovered time equal its wall time.
    """
    child_time: dict = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    table: dict = {}
    self_by_op = {op: 0.0 for op in op_walls}
    top = {op: 0.0 for op in op_walls}
    for s in spans:
        dur = s.end - s.start
        own = dur - child_time.get(s.sid, 0.0)
        row = table.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        for key, value in s.counts.items():
            row[key] = row.get(key, 0) + value
        self_by_op[s.op] += own
        if s.parent is None:
            top[s.op] += dur
    uncovered = {op: op_walls[op] - top[op] for op in op_walls}
    return table, self_by_op, uncovered
