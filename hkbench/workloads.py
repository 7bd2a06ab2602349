"""Workload input generation and output checks.

One operation is a fit command followed by ``hklearn eval`` of the saved model
on fresh points given their exact target matrix.  Operation ``k`` of a run
with seed ``s`` draws every input from ``SeedSequence([s, k])``, so the same
seed gives the same inputs and no two operations of a run share data.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Problem sizes: (full run, --quick self-test run).
SIZES = {
    # m fit points (m^2 > 2000 pairs, so solver "auto" takes CG), q eval points
    "extend-tl1": ({"m": 46, "q": 60}, {"m": 10, "q": 8}),
    # n labeled-dataset points (40% labeled for CV), q eval points
    "tune-krr": ({"n": 30, "q": 30}, {"n": 20, "q": 10}),
    # m points, u landmarks (2mu - u^2 > 2048 pairs, so no full solve), v clusters
    "decompose-svr": (
        {"m": 54, "u": 27, "v": 4, "q": 40},
        {"m": 14, "u": 7, "v": 2, "q": 8},
    ),
}

SVR_C = 1.0
SVR_EPSILON = 0.01
RBF_SIGMA2 = 0.25
# SMO keeps sum(beta) = 0 to this slack times C * n (the README contract).
EQUALITY_SLACK = 1e-8

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


@dataclass
class Op:
    index: int
    fit_argv: list
    eval_argv: list
    fit_dir: Path
    eval_dir: Path


def _write_csv(path: Path, rows) -> None:
    np.savetxt(path, np.asarray(rows, dtype=float), delimiter=",", fmt="%.17g")


def _corrupt_first_cell(path: Path) -> None:
    """Replace the first cell with a non-numeric token (hklearn must exit 2)."""
    text = path.read_text()
    _, sep, rest = text.partition(",")
    path.write_text("not-a-number" + sep + rest)


def _tl1(P, tau):
    return np.maximum(tau - np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2), 0.0)


def _rbf(P, s2):
    return np.exp(-((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2) / (2.0 * s2))


def _two_classes(rng, n):
    """Two unit-variance Gaussian classes, means +-(0.75, 0.75), labels +-1."""
    y = np.repeat([-1.0, 1.0], [n // 2, n - n // 2])
    X = rng.standard_normal((n, 2)) + 0.75 * y[:, None]
    return X, y


def prepare(workload: str, seed: int, k: int, workdir: Path, quick: bool,
            corrupt: bool = False) -> Op:
    """Write op ``k``'s input files under ``workdir`` and return its commands."""
    size = SIZES[workload][1 if quick else 0]
    rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
    workdir.mkdir(parents=True, exist_ok=True)
    fit_dir, eval_dir = workdir / "fit", workdir / "eval"
    x_csv, q_csv, kq_csv = workdir / "x.csv", workdir / "q.csv", workdir / "kq.csv"

    if workload == "extend-tl1":
        X = rng.uniform(0.0, 1.0, (size["m"], 2))
        Q = rng.uniform(0.0, 1.0, (size["q"], 2))
        _write_csv(x_csv, X)
        _write_csv(q_csv, Q)
        _write_csv(kq_csv, _tl1(Q, 0.7 * Q.shape[1]))  # hklearn's default tau
        fit = ["extend", x_csv, "--no-labels", "--no-standardize", "--target", "tl1"]
        flags = ["--no-labels", "--no-standardize"]
    elif workload == "tune-krr":
        X, y = _two_classes(rng, size["n"])
        Q, yq = _two_classes(rng, size["q"])
        _write_csv(x_csv, np.column_stack([X, y]))
        _write_csv(q_csv, Q)
        _write_csv(kq_csv, np.outer(yq, yq))  # the ideal target on fresh points
        fit = ["fit", x_csv]
        flags = ["--no-labels"]
    elif workload == "decompose-svr":
        X = rng.uniform(0.0, 1.0, (size["m"], 2))
        Q = rng.uniform(0.0, 1.0, (size["q"], 2))
        k_csv = workdir / "k.csv"
        _write_csv(x_csv, X)
        _write_csv(k_csv, _rbf(X, RBF_SIGMA2))
        _write_csv(q_csv, Q)
        _write_csv(kq_csv, _rbf(Q, RBF_SIGMA2))
        fit = [
            "decompose-demo", x_csv, "--no-labels", "--kernel-matrix", k_csv,
            "--method", "svr", "--C", repr(SVR_C), "--epsilon", repr(SVR_EPSILON),
            "--clusters", str(size["v"]), "--landmarks", str(size["u"]),
        ]
        flags = ["--no-labels"]
    else:
        raise ValueError(f"unknown workload {workload!r}")

    if corrupt:
        _corrupt_first_cell(kq_csv)
    fit_argv = [str(a) for a in fit] + ["--output-dir", str(fit_dir)]
    eval_argv = [
        "eval", str(q_csv), *flags, "--model", str(fit_dir / "model.json"),
        "--kernel-matrix", str(kq_csv), "--output-dir", str(eval_dir),
    ]
    return Op(k, fit_argv, eval_argv, fit_dir, eval_dir)


def report_texts(op: Op) -> dict:
    """Both report.json files with the timestamp value masked."""
    return {
        name: _TIMESTAMP.sub('"timestamp": "X"', (d / "report.json").read_text())
        for name, d in (("fit", op.fit_dir), ("eval", op.eval_dir))
    }


def _finite(doc: dict, key: str, errors: list, where: str):
    value = doc.get(key)
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        errors.append(f"{where} report {key} is {value!r}, not a finite number")
        return None
    return float(value)


def check_outputs(workload: str, op: Op) -> tuple[dict, list]:
    """Read the reports and model of a completed op; return (facts, errors).

    ``facts`` holds ``heldout_rmse`` and the workload's own quality facts.
    """
    errors: list = []
    fit = json.loads((op.fit_dir / "report.json").read_text())
    ev = json.loads((op.eval_dir / "report.json").read_text())
    facts: dict = {}
    eval_rmse = _finite(ev, "rmse_pairs", errors, "eval")
    if workload == "tune-krr":
        facts["heldout_rmse"] = _finite(fit, "rmse_heldout_pairs", errors, "fit")
        facts["test_accuracy"] = _finite(fit, "accuracy_test", errors, "fit")
    else:
        facts["heldout_rmse"] = eval_rmse
    if workload == "extend-tl1":
        _finite(fit, "rmse_train_pairs", errors, "fit")
    if workload == "decompose-svr":
        diag = fit.get("scaling_diagnostics", {})
        facts["sigma_min"] = diag.get("sigma_min")
        facts["bound"] = diag.get("bound")
        model = json.loads((op.fit_dir / "model.json").read_text())
        beta = np.array([c["value"] for c in model["coefficients"]], dtype=float)
        if beta.size and float(np.abs(beta).max()) > SVR_C:
            errors.append(f"SVR coefficient {float(np.abs(beta).max())!r} outside [-C, C]")
        if abs(float(beta.sum())) > EQUALITY_SLACK * SVR_C * max(beta.size, 1):
            errors.append(f"SVR coefficients sum to {float(beta.sum())!r}, not 0")
    return facts, errors
