"""Command-line entry point.

Commands
--------
fit             full pipeline on a labeled dataset: split, cross-validate,
                regress the learned kernel onto the target matrix, classify
extend          fit a learned kernel to a given kernel matrix, no split
eval            load a model, evaluate it on a dataset
rate-study      median error versus sample size, with log-log slope
decompose-demo  divide-and-conquer fit plus its diagnostics

Settings resolve as flags > config file (JSON) > defaults.  All artifacts go
under --output-dir; reports are byte-stable across reruns except for their
timestamp (wall-clock timings live in a separate timings.json for that
reason).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .base_kernels import GaussianRBF, Ideal, LogKernel, TL1, gram_matrix
from .errors import (
    ConvergenceFailure,
    FormatError,
    HklearnError,
    InvalidInput,
    NumericalFailure,
    PipelineFailure,
    ResourceLimit,
)
from .hyper import HyperKernelParams
from .learned import (
    LearnedKernel,
    eval_all_pairs,
    learned_gram,
    load_learned,
    save_learned,
)
from .pipeline import (
    ExperimentConfig,
    base_config,
    cross_validate,
    data_sigma2,
    fit_extend,
    heldout_pair_rmse,
    learning_rate_study,
    rmse,
    split_dataset,
    svm_predict,
    svm_train,
)
from .scaling import ScalingConfig, fit_decomposed

COMMANDS = ("fit", "extend", "eval", "rate-study", "decompose-demo")

DEFAULTS = {
    "method": "krr",
    "lambda": 1e-3,
    "C": 1.0,
    "epsilon": 0.1,
    "kkt_tol": 1e-3,
    "sigma2": None,          # null -> mean per-feature variance of the data
    "sigma_h2": None,        # null -> equal to sigma2
    "target": "ideal",
    "tl1_tau": None,         # null -> 0.7 * feature dimension
    "rbf_sigma2": None,      # null -> data variance rule
    "log_sigma": 1.0,
    "clusters": None,
    "landmarks": None,
    "seed": 0,
    "standardize": True,
    "spectrum_fix": "clip",
    "jitter": True,
    "tune": True,
    "c_svm": 1.0,
    "split": [0.4, 0.4, 0.2],
    "cv_folds": 5,
    "trials": 10,
    "sigma_h2_grid": [0.25, 0.5, 1.0, 2.0, 4.0],
    "reg_grid": [10.0 ** k for k in range(-5, 6)],
    "m_values": [8, 16, 32, 64],
    "noise_sigma": 0.1,
    "rate_target": "rbf",
    "trace": False,
}


@dataclass
class RunManifest:
    command: str
    output_dir: Path
    dataset: Path | None = None
    kernel_matrix: Path | None = None
    model: Path | None = None
    config_path: Path | None = None
    dataset_format: str = "csv"
    labeled: bool = True
    settings: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise InvalidInput(f"unknown command {self.command!r}")
        for p in (self.dataset, self.kernel_matrix, self.model, self.config_path):
            if p is not None and not Path(p).is_file():
                raise InvalidInput(f"input file not found: {p}")
        self.output_dir = Path(self.output_dir)

    @property
    def seed(self) -> int:
        return int(self.settings.get("seed", DEFAULTS["seed"]))


def _parse_float(token: str, path, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise FormatError(f"{path}:{lineno}: non-numeric {what} {token!r}") from None


def ingest_dataset(path, fmt: str = "csv", labeled: bool = True, standardize: bool = True):
    """Read a dataset as (features, labels or None).

    csv: one row per sample, final column is the label when ``labeled``.
    libsvm-sparse: "label idx:val ..." with 1-based indices, padded to the
    largest index seen.  Features are standardized per column by default.
    """
    path = Path(path)
    if fmt == "csv":
        X, labels = _read_csv_dataset(path, labeled)
    elif fmt in ("libsvm", "libsvm-sparse"):
        X, labels = _read_libsvm_dataset(path)
        if not labeled:
            labels = None
    else:
        raise InvalidInput(f"unknown dataset format {fmt!r}")
    if standardize:
        X = standardize_columns(X)
    return X, labels


def standardize_columns(X: np.ndarray) -> np.ndarray:
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0  # constant columns pass through centered
    return (X - mu) / sd


def _read_csv_dataset(path: Path, labeled: bool):
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            rows.append(
                (lineno, [_parse_float(c, path, lineno, "cell") for c in row])
            )
    if not rows:
        raise FormatError(f"{path}: empty dataset")
    width = len(rows[0][1])
    for lineno, values in rows:
        if len(values) != width:
            raise FormatError(
                f"{path}:{lineno}: expected {width} columns, found {len(values)}"
            )
    data = np.array([v for _, v in rows])
    if labeled:
        if width < 2:
            raise FormatError(f"{path}: labeled csv needs at least 2 columns")
        return data[:, :-1], data[:, -1]
    return data, None


def _read_libsvm_dataset(path: Path):
    labels, entries, max_idx = [], [], 0
    with open(path) as fh:
        lines = [
            (no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()
        ]
    if not lines:
        raise FormatError(f"{path}: empty dataset")
    for lineno, line in lines:
        tokens = line.split()
        labels.append(_parse_float(tokens[0], path, lineno, "label"))
        row = {}
        for tok in tokens[1:]:
            idx, sep, val = tok.partition(":")
            if not sep:
                raise FormatError(f"{path}:{lineno}: malformed feature {tok!r}")
            try:
                i = int(idx)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: bad feature index {idx!r}") from None
            if i < 1:
                raise FormatError(f"{path}:{lineno}: feature indices are 1-based")
            row[i - 1] = _parse_float(val, path, lineno, "value")
            max_idx = max(max_idx, i)
        entries.append(row)
    X = np.zeros((len(entries), max_idx))
    for r, row in enumerate(entries):
        for c, v in row.items():
            X[r, c] = v
    return X, np.array(labels)


def ingest_kernel_matrix(path) -> np.ndarray:
    """Read an m x m kernel csv, symmetrizing as (K + K') / 2."""
    path = Path(path)
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            rows.append([_parse_float(c, path, lineno, "entry") for c in row])
    if not rows:
        raise FormatError(f"{path}: empty kernel matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise FormatError(f"{path}: kernel matrix rows have unequal lengths")
    K = np.array(rows)
    if K.shape[0] != K.shape[1]:
        raise FormatError(f"{path}: kernel matrix must be square, got {K.shape}")
    gap = float(np.abs(K - K.T).max())
    if gap > 1e-8:
        warnings.warn(f"kernel matrix asymmetric by {gap:.3e}; symmetrizing")
    return 0.5 * (K + K.T)


def _load_settings(manifest: RunManifest) -> dict:
    settings = dict(DEFAULTS)
    if manifest.config_path is not None:
        try:
            loaded = json.loads(Path(manifest.config_path).read_text())
        except json.JSONDecodeError as exc:
            raise FormatError(f"config file is not valid JSON: {exc}") from exc
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise InvalidInput(f"unknown config keys: {sorted(unknown)}")
        settings.update(loaded)
    settings.update(manifest.settings)  # flags override the file
    if settings["method"] not in ("krr", "svr"):
        raise InvalidInput(f"method must be krr or svr, got {settings['method']!r}")
    if settings["spectrum_fix"] not in ("none", "clip"):
        raise InvalidInput("spectrum_fix must be none or clip")
    if settings["trace"] and (
        manifest.command not in ("fit", "extend")
        or settings["method"] != "svr"
        or settings["clusters"] is not None
        or settings["landmarks"] is not None
    ):
        raise InvalidInput(
            "trace records the svr solver: it needs fit or extend with "
            "--method svr and no --clusters or --landmarks"
        )
    return settings


def _target_matrix(settings: dict, X: np.ndarray, labels) -> np.ndarray:
    name = settings["target"]
    if name == "ideal":
        if labels is None:
            raise InvalidInput("the ideal target needs a labeled dataset")
        return gram_matrix(Ideal(labels), X)
    if name == "rbf":
        s2 = settings["rbf_sigma2"]
        return gram_matrix(GaussianRBF(float(s2) if s2 else data_sigma2(X)), X)
    if name == "tl1":
        tau = settings["tl1_tau"]
        return gram_matrix(TL1(float(tau) if tau else 0.7 * X.shape[1]), X)
    if name == "log":
        return gram_matrix(LogKernel(float(settings["log_sigma"])), X)
    raise InvalidInput(f"unknown target kernel {name!r}")


def _hyperparams(settings: dict, X: np.ndarray) -> dict:
    s2 = settings["sigma2"]
    s2 = float(s2) if s2 is not None else data_sigma2(X)
    sh2 = settings["sigma_h2"]
    sh2 = float(sh2) if sh2 is not None else s2
    reg = settings["lambda"] if settings["method"] == "krr" else settings["C"]
    hp = {
        "sigma2": s2,
        "sigma_h2": sh2,
        "reg": float(reg),
        "epsilon": float(settings["epsilon"]),
        "kkt_tol": float(settings["kkt_tol"]),
    }
    if not settings["jitter"]:
        hp["jitter"] = False
    return hp


def _scaling_for(settings: dict, m: int) -> ScalingConfig | None:
    v, u = settings["clusters"], settings["landmarks"]
    if v is None and u is None:
        return None
    return ScalingConfig(
        v=int(v) if v is not None else 1,
        u=int(u) if u is not None else m,
        seed=int(settings["seed"]),
    )


def _experiment_config(settings: dict) -> ExperimentConfig:
    return ExperimentConfig(
        split=tuple(settings["split"]),
        cv_folds=int(settings["cv_folds"]),
        sigma_h2_grid=tuple(settings["sigma_h2_grid"]),
        reg_grid=tuple(settings["reg_grid"]),
        seed=int(settings["seed"]),
        trials=int(settings["trials"]),
    )


def _definiteness(lk: LearnedKernel, pts) -> dict:
    _, report = learned_gram(lk, pts)
    return {
        "min_eig": report.min_eigenvalue,
        "max_eig": report.max_eigenvalue,
        "indefinite": bool(report.indefinite),
    }


def _ovr_models(lk: LearnedKernel, train_pts, labels, settings: dict):
    """One binary SVM per class over the learned Gram (one-vs-rest)."""
    G = eval_all_pairs(lk, train_pts)
    classes = np.unique(labels)
    if classes.size < 2:
        raise InvalidInput("classification needs at least two classes")
    c_svm = float(settings["c_svm"])
    fix = settings["spectrum_fix"]
    positives = classes[1:] if classes.size == 2 else classes
    return classes, [
        svm_train(G, np.where(labels == c, 1.0, -1.0), c_svm, fix)
        for c in positives
    ]


def _ovr_predict(classes, models, rows):
    if classes.size == 2:
        pred = svm_predict(models[0], rows)
        return np.where(np.atleast_1d(pred) == 1, classes[1], classes[0])
    scores = np.column_stack(
        [rows @ (m.alphas * m.labels) + m.bias for m in models]
    )
    return classes[np.argmax(scores, axis=1)]


def _accuracy(lk, classes, models, pts, train_pts, labels) -> float:
    rows = eval_all_pairs(lk, pts, train_pts)
    return float(np.mean(_ovr_predict(classes, models, rows) == labels))


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(_plain(doc), sort_keys=True, indent=2) + "\n")


def _plain(obj):
    """Recursively coerce numpy scalars/arrays for stable json output."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)  # json has no inf/nan literals
    return obj


def _diag_dict(diag, scaling: ScalingConfig) -> dict:
    doc = {
        "v": scaling.v,
        "u": scaling.u,
        "q_pi": diag.q_pi,
        "sigma_min": diag.sigma_min,
        "bound": diag.bound,
    }
    if diag.observed_gap is not None:
        doc["observed_gap"] = diag.observed_gap
    if diag.sigma_min_raw is not None:
        doc["sigma_min_raw"] = diag.sigma_min_raw
    return doc


def run(manifest: RunManifest) -> int:
    """Execute a command; exit code 0, or 2/3 for config/numerical trouble."""
    try:
        settings = _load_settings(manifest)
        outdir = manifest.output_dir
        outdir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        report = _dispatch(manifest, settings, outdir)
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
        report["command"] = manifest.command
        report["seed"] = int(settings["seed"])
        _write_json(outdir / "report.json", report)
        _write_json(
            outdir / "timings.json",
            {"wall_seconds": time.perf_counter() - started},
        )
        return 0
    except (InvalidInput, FormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, ConvergenceFailure, ResourceLimit, PipelineFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _dispatch(manifest: RunManifest, settings: dict, outdir: Path) -> dict:
    cmd = manifest.command
    if cmd == "fit":
        return _cmd_fit(manifest, settings, outdir)
    if cmd == "extend":
        return _cmd_extend(manifest, settings, outdir)
    if cmd == "eval":
        return _cmd_eval(manifest, settings, outdir)
    if cmd == "rate-study":
        return _cmd_rate_study(manifest, settings, outdir)
    return _cmd_decompose(manifest, settings, outdir)


def _require_dataset(manifest: RunManifest, settings: dict, labeled=None):
    if manifest.dataset is None:
        raise InvalidInput(f"{manifest.command} needs a dataset argument")
    return ingest_dataset(
        manifest.dataset,
        manifest.dataset_format,
        labeled=manifest.labeled if labeled is None else labeled,
        standardize=bool(settings["standardize"]),
    )


def _given_kernel(manifest: RunManifest, settings: dict, X, labels) -> np.ndarray:
    if manifest.kernel_matrix is not None:
        K = ingest_kernel_matrix(manifest.kernel_matrix)
        if K.shape[0] != X.shape[0]:
            raise InvalidInput(
                f"kernel matrix is {K.shape[0]}x{K.shape[0]} but the dataset "
                f"has {X.shape[0]} samples"
            )
        return K
    return _target_matrix(settings, X, labels)


def _fit(settings: dict, hp: dict, X, K, outdir: Path, scaling):
    """Fit the learned kernel to K on X; returns (LearnedKernel, diagnostics).

    With a ScalingConfig the decomposed strategy runs and returns its
    diagnostics; without one the direct fit runs and diagnostics are None.
    """
    if scaling is not None:
        params = HyperKernelParams(hp["sigma2"], hp["sigma_h2"], X.shape[1])
        return fit_decomposed(
            X, K, base_config(settings["method"], hp), scaling, params
        )
    trace = outdir / "trace.csv" if settings["trace"] else None
    return fit_extend(X, K, settings["method"], hp, trace_path=trace), None


def _cmd_fit(manifest: RunManifest, settings: dict, outdir: Path) -> dict:
    X, labels = _require_dataset(manifest, settings, labeled=True)
    if labels is None:
        raise InvalidInput("fit needs labels (use extend for unlabeled data)")
    K = _given_kernel(manifest, settings, X, labels)
    config = _experiment_config(settings)
    lab, unlab, test = split_dataset(X, labels, config, settings["seed"])

    selected = None
    hp = _hyperparams(settings, X[lab])
    if settings["tune"]:
        selected, table = cross_validate(
            X[lab], K[np.ix_(lab, lab)], settings["method"], config,
            labels=labels[lab], hyperparams=hp,
        )
        hp.update(sigma_h2=selected["sigma_h2"], reg=selected["reg"])
        if "c_svm" in selected:
            settings = dict(settings, c_svm=selected["c_svm"])
        _write_score_table(outdir / "cv_scores.csv", table)

    scaling = _scaling_for(settings, lab.size)
    lk, diag = _fit(settings, hp, X[lab], K[np.ix_(lab, lab)], outdir, scaling)
    save_learned(lk, outdir / "model.json")

    classes, models = _ovr_models(lk, X[lab], labels[lab], settings)
    holdout = np.concatenate([unlab, test])
    report = {
        "config": _plain(settings),
        "selected_hyperparams": selected or hp,
        "rmse_heldout_pairs": heldout_pair_rmse(lk, X, K, holdout),
        "accuracy_unlabeled": _accuracy(lk, classes, models, X[unlab], X[lab], labels[unlab]),
        "accuracy_test": _accuracy(lk, classes, models, X[test], X[lab], labels[test]),
        "definiteness": _definiteness(lk, X[test]),
        "split_sizes": [int(lab.size), int(unlab.size), int(test.size)],
    }
    if diag is not None:
        report["scaling_diagnostics"] = _diag_dict(diag, scaling)
    return report


def _cmd_extend(manifest: RunManifest, settings: dict, outdir: Path) -> dict:
    X, labels = _require_dataset(manifest, settings)
    K = _given_kernel(manifest, settings, X, labels)
    hp = _hyperparams(settings, X)
    scaling = _scaling_for(settings, X.shape[0])
    lk, diag = _fit(settings, hp, X, K, outdir, scaling)
    save_learned(lk, outdir / "model.json")

    report = {
        "config": _plain(settings),
        "selected_hyperparams": hp,
        "rmse_train_pairs": rmse(eval_all_pairs(lk, X, X), K),
        "rmse_heldout_pairs": None,
        "definiteness": _definiteness(lk, X),
    }
    if diag is not None:
        report["scaling_diagnostics"] = _diag_dict(diag, scaling)
    return report


def _cmd_eval(manifest: RunManifest, settings: dict, outdir: Path) -> dict:
    if manifest.model is None:
        raise InvalidInput("eval needs --model")
    lk = load_learned(manifest.model)
    X, labels = _require_dataset(manifest, settings)
    if X.shape[1] != lk.hyper_params.dim:
        raise InvalidInput(
            f"dataset dimension {X.shape[1]} does not match the model's "
            f"{lk.hyper_params.dim}"
        )
    report = {
        "config": _plain(settings),
        "definiteness": _definiteness(lk, X),
    }
    if manifest.kernel_matrix is not None:
        K = ingest_kernel_matrix(manifest.kernel_matrix)
        if K.shape[0] != X.shape[0]:
            raise InvalidInput("kernel matrix size does not match the dataset")
        report["rmse_pairs"] = rmse(eval_all_pairs(lk, X, X), K)
    if labels is not None:
        classes, models = _ovr_models(lk, X, labels, settings)
        report["accuracy_training"] = _accuracy(lk, classes, models, X, X, labels)
    return report


def _cmd_rate_study(manifest: RunManifest, settings: dict, outdir: Path) -> dict:
    config = _experiment_config(settings)
    study = learning_rate_study(
        settings["m_values"],
        int(settings["trials"]),
        float(settings["noise_sigma"]),
        settings["method"],
        config,
        target=settings["rate_target"],
    )
    with open(outdir / "rate_study.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "median_error"])
        for m, err in zip(study.m_values, study.median_errors):
            writer.writerow([m, repr(err)])
    return {
        "config": _plain(settings),
        "m_values": list(study.m_values),
        "median_errors": list(study.median_errors),
        "loglog_slope": study.loglog_slope,
    }


def _cmd_decompose(manifest: RunManifest, settings: dict, outdir: Path) -> dict:
    X, labels = _require_dataset(manifest, settings)
    if settings["target"] == "ideal" and labels is None and manifest.kernel_matrix is None:
        settings = dict(settings, target="rbf")
    K = _given_kernel(manifest, settings, X, labels)
    hp = _hyperparams(settings, X)
    m = X.shape[0]
    scaling = _scaling_for(settings, m) or ScalingConfig(
        v=2, u=m, seed=int(settings["seed"])
    )
    lk, diag = _fit(settings, hp, X, K, outdir, scaling)
    save_learned(lk, outdir / "model.json")
    return {
        "config": _plain(settings),
        "scaling_diagnostics": _diag_dict(diag, scaling),
        "definiteness": _definiteness(lk, X),
    }


def _write_score_table(path: Path, table) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma_h2_multiplier", "reg", "score"])
        for mult, reg, score in table:
            writer.writerow([repr(mult), repr(reg), repr(score)])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hklearn",
        description="Learn kernels as functions of point pairs and extend "
        "given kernel matrices out of sample.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name not in ("rate-study",):
            p.add_argument("dataset", nargs="?", help="dataset csv or libsvm file")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--kernel-matrix", help="given kernel matrix csv")
        if name == "eval":
            p.add_argument("--model", help="learned model JSON", required=False)
        p.add_argument("--format", choices=("csv", "libsvm"), default="csv")
        p.add_argument("--no-labels", action="store_true",
                       help="dataset csv has no label column")
        p.add_argument("--method", choices=("krr", "svr"))
        p.add_argument("--lambda", dest="lambda", type=float,
                       help="ridge regularization weight")
        p.add_argument("--C", type=float, help="box bound of the svr dual")
        p.add_argument("--epsilon", type=float, help="insensitive tube width")
        p.add_argument("--sigma-h2", type=float, help="pair-scale bandwidth offset")
        p.add_argument("--clusters", type=int, help="cluster count for decomposition")
        p.add_argument("--landmarks", type=int, help="landmark count for restriction")
        p.add_argument("--seed", type=int)
        p.add_argument("--standardize", dest="standardize", action="store_true",
                       default=None)
        p.add_argument("--no-standardize", dest="standardize", action="store_false")
        p.add_argument("--spectrum-fix", choices=("none", "clip"))
        p.add_argument("--target", choices=("ideal", "rbf", "tl1", "log"))
        p.add_argument("--no-tune", dest="tune", action="store_false", default=None)
        p.add_argument("--no-jitter", dest="jitter", action="store_false", default=None)
        p.add_argument("--trace", action="store_true", default=None,
                       help="write the svr convergence trace csv (direct svr "
                       "fit or extend only)")
        if name == "rate-study":
            p.add_argument("--trials", type=int)
            p.add_argument("--noise-sigma", dest="noise_sigma", type=float)
            p.add_argument("--m-values", dest="m_values", type=int, nargs="+")
            p.add_argument("--rate-target", dest="rate_target",
                           choices=("rbf", "planted"))
        p.add_argument("--output-dir", default="hklearn_out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        key: value for key, value in vars(args).items()
        if key in DEFAULTS and value is not None
    }
    try:
        manifest = RunManifest(
            command=args.command,
            output_dir=Path(args.output_dir),
            dataset=Path(args.dataset) if getattr(args, "dataset", None) else None,
            kernel_matrix=Path(args.kernel_matrix) if args.kernel_matrix else None,
            model=Path(args.model) if getattr(args, "model", None) else None,
            config_path=Path(args.config) if args.config else None,
            dataset_format=args.format,
            labeled=not args.no_labels,
            settings=overrides,
        )
    except HklearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(manifest)


if __name__ == "__main__":
    sys.exit(main())
