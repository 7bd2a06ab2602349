"""Command-line entry point.

Commands
--------
fit             full pipeline on a labeled dataset (--no-labels exits 2):
                split, cross-validate, regress the learned kernel onto the
                target matrix, classify
extend          fit a learned kernel to a given kernel matrix, no split
eval            load a model, evaluate it on a dataset
rate-study      median error versus sample size, with log-log slope
decompose-demo  extend with two clusters unless --clusters or --landmarks is
                set, and its report carries extend's keys

Each setting is one row of SETTINGS: its default, its flags and the
commands that read it.  Settings resolve as flags > config file (JSON) >
defaults, and a setting given to a run that leaves it unread exits 2.  All
artifacts go under --output-dir; reports are byte-stable across reruns except
for their timestamp (wall-clock timings live in a separate timings.json).
"""

from __future__ import annotations

import argparse
import csv
import functools
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
    utf8_input,
)
from .hyper import MAX_ENTRIES, HyperKernelParams
from .krr import KrrConfig
from .learned import (
    DefinitenessReport,
    definiteness,
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
    ovr_accuracies,
    rmse,
    split_dataset,
)
from .scaling import ScalingConfig, fit_decomposed
from .svr import SvrConfig

# The settings table: each setting's default, its flags (None: config file
# only; "=a|b" lists the values) and the commands that read it.  A method or
# a target among the readers limits them to runs with that value.
_FITS = "fit extend decompose-demo"
SETTINGS = {
    "method": ("krr", "--method=krr|svr", f"{_FITS} rate-study"),
    "lambda": (1e-3, "--lambda", f"{_FITS} krr"),
    "C": (1.0, "--C", f"{_FITS} rate-study svr"),
    "epsilon": (SvrConfig.epsilon, "--epsilon", f"{_FITS} rate-study svr"),
    "kkt_tol": (SvrConfig.kkt_tol, None, f"{_FITS} rate-study svr"),
    "sigma2": (None, None, _FITS),          # null -> mean per-feature variance of the data
    "sigma_h2": (None, "--sigma-h2", _FITS),  # null -> equal to sigma2
    "target": ("ideal", "--target=ideal|rbf|tl1|log", _FITS),
    "tl1_tau": (None, None, f"{_FITS} tl1"),         # null -> 0.7 * feature dimension
    "rbf_sigma2": (None, None, f"{_FITS} rbf"),      # null -> data variance rule
    "log_sigma": (1.0, None, f"{_FITS} log"),
    "clusters": (None, "--clusters", _FITS),
    "landmarks": (None, "--landmarks", _FITS),
    "seed": (0, "--seed", f"{_FITS} rate-study"),
    "standardize": (True, "--standardize --no-standardize", f"{_FITS} eval"),
    "spectrum_fix": ("clip", "--spectrum-fix=none|clip", "fit eval"),
    "jitter": (KrrConfig.jitter, "--no-jitter", f"{_FITS} rate-study krr"),
    "tune": (True, "--no-tune", "fit"),
    "c_svm": (1.0, None, "fit eval"),
    "split": ([0.4, 0.4, 0.2], None, "fit"),
    "cv_folds": (5, None, "fit"),
    "trials": (10, "--trials", "rate-study"),
    "sigma_h2_grid": ([0.25, 0.5, 1.0, 2.0, 4.0], None, "fit"),
    "reg_grid": ([10.0 ** k for k in range(-5, 6)], None, "fit"),
    "m_values": ([8, 16, 32, 64], "--m-values", "rate-study"),
    "noise_sigma": (0.1, "--noise-sigma", "rate-study"),
    "rate_target": ("rbf", "--rate-target=rbf|planted", "rate-study"),
    "trace": (False, "--trace", "fit extend svr"),
}
DEFAULTS = {key: row[0] for key, row in SETTINGS.items()}
INT_KEYS = ("seed", "cv_folds", "trials", "clusters", "landmarks", "m_values")


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


def _parse_float(token: str, path, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"{path}:{lineno}: non-numeric {what} {token!r}") from None
    if not np.isfinite(value):
        raise FormatError(f"{path}:{lineno}: non-finite {what} {token!r}")
    return value


def ingest_dataset(path, fmt: str = "csv", labeled: bool = True, standardize: bool = True):
    """Read a dataset as (features, labels or None).

    csv: one row per sample, final column is the label when ``labeled``.
    libsvm: "label idx:val ..." with 1-based indices, padded to the
    largest index seen.  Features are standardized per column by default.
    """
    path = Path(path)
    if fmt == "csv":
        data = _read_csv_numbers(path, "dataset")
        if labeled and data.shape[1] < 2:
            raise FormatError(f"{path}: labeled csv needs at least 2 columns")
        X, labels = (data[:, :-1], data[:, -1]) if labeled else (data, None)
    elif fmt == "libsvm":
        X, labels = _read_libsvm_dataset(path)
        if not labeled:
            labels = None
    else:
        raise InvalidInput(f"unknown dataset format {fmt!r}")
    if standardize:
        X = standardize_columns(X, path)
    return X, labels


def standardize_columns(X: np.ndarray, path) -> np.ndarray:
    """Center and scale each column; a column whose mean or deviation is not
    a double is a FormatError naming ``path`` and the column."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu = X.mean(axis=0)
        sd = X.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mu) & np.isfinite(sd)))
    if bad.size:
        raise FormatError(
            f"{path}: column {bad[0] + 1} is too large to standardize "
            f"(its mean or deviation overflows)"
        )
    sd[sd == 0] = 1.0  # constant columns pass through centered
    return (X - mu) / sd


def _read_csv_numbers(path: Path, name: str) -> np.ndarray:
    """A csv file of numbers as a 2-d array, skipping blank rows.

    Every row must have the width of the first; ``name`` describes the file
    in the message for one with no rows.  The cells are converted in one
    numpy call, which parses by Python ``float()`` rules; only when that
    fails are the rows walked again for the first bad cell or row.
    """
    with utf8_input(path), open(path, encoding="utf-8", newline="") as fh:
        kept = [
            (lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1)
            if any(c.strip() for c in row)
        ]
    if not kept:
        raise FormatError(f"{path}: empty {name}")
    try:
        data = np.array([row for _, row in kept], dtype=float)
    except ValueError:  # a non-numeric cell or a ragged row
        data = None
    if data is None or not np.isfinite(data).all():
        _raise_first_bad_row(path, kept)
    return data


def _raise_first_bad_row(path: Path, kept) -> None:
    """Raise the FormatError of the first non-numeric or non-finite cell, or
    row not as wide as the first, in file order."""
    width = len(kept[0][1])
    for lineno, row in kept:
        for cell in row:
            _parse_float(cell, path, lineno, "cell")
        if len(row) != width:
            raise FormatError(f"{path}:{lineno}: expected {width} columns, found {len(row)}")


def _read_libsvm_dataset(path: Path):
    labels, entries, max_idx = [], [], 0
    with utf8_input(path), open(path, encoding="utf-8") as fh:
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
            if len(lines) * i > MAX_ENTRIES:
                raise FormatError(
                    f"{path}:{lineno}: feature index {i} would make a {len(lines)} x {i} "
                    f"dense matrix (cap {MAX_ENTRIES} entries)"
                )
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
    K = _read_csv_numbers(path, "kernel matrix")
    if K.shape[0] != K.shape[1]:
        raise FormatError(f"{path}: kernel matrix must be square, got {K.shape}")
    with np.errstate(over="ignore"):
        gap = float(np.abs(K - K.T).max())
        sym = 0.5 * (K + K.T)
    if not np.isfinite(sym).all():
        raise FormatError(f"{path}: kernel matrix entries overflow in (K + K') / 2")
    if gap > 1e-8:
        warnings.warn(f"kernel matrix asymmetric by {gap:.3e}; symmetrizing")
    return sym


def _load_settings(manifest: RunManifest) -> dict:
    """The settings the run reads, from flags > config file > defaults; a
    setting given that the run does not read (see :func:`_unread`) exits 2."""
    command = manifest.command
    explicit = {}
    if manifest.config_path is not None:
        try:
            with utf8_input(manifest.config_path):
                explicit = json.loads(Path(manifest.config_path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(explicit, dict):
            raise FormatError("config file must hold a JSON object")
    explicit.update(manifest.settings)  # flags override the file
    row = [key for key, (_, _, readers) in SETTINGS.items() if command in readers.split()]
    settings = {key: explicit.get(key, DEFAULTS[key]) for key in row}
    for key, value in settings.items():
        if not _has_default_type(key, value):
            raise InvalidInput(f"setting {key} has the wrong type, got {value!r}")
        # json reads NaN and Infinity, and float flags parse "nan" and "inf"
        values = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not np.isfinite(v) for v in values):
            raise InvalidInput(f"setting {key} must be finite, got {value!r}")
        if key == "seed" and value < 0:  # numpy seeds only from nonnegative ints
            raise InvalidInput(f"setting seed must be nonnegative, got {value!r}")
        choices = (SETTINGS[key][1] or "").partition("=")[2].split("|")
        if choices != [""] and value not in choices:
            raise InvalidInput(f"setting {key} must be one of {choices}, got {value!r}")
    if command == "decompose-demo":  # extend with two clusters
        if settings["clusters"] is None and settings["landmarks"] is None:
            settings["clusters"] = 2
        if not ("target" in explicit or manifest.labeled or manifest.kernel_matrix):
            settings["target"] = "rbf"
    unread = _unread(manifest, settings)
    for key in explicit:
        if key not in row or key in unread:
            raise InvalidInput(
                f"{command} does not read setting {key!r} {unread.get(key, 'at all')}"
            )
    return {key: value for key, value in settings.items() if key not in unread}


def _unread(manifest: RunManifest, settings: dict) -> dict:
    """The settings of the command's row that this run leaves unread, each
    with the reason."""
    command, method, target = manifest.command, settings.get("method"), settings.get("target")
    tune = settings.get("tune")
    decomposed = settings.get("clusters") is not None or settings.get("landmarks") is not None
    rules = {  # reason: the keys it leaves unread
        "with --kernel-matrix": manifest.kernel_matrix and "target tl1_tau rbf_sigma2 log_sigma",
        "in a tuned fit": tune is True and "lambda C sigma_h2",
        "in an untuned fit": tune is False and "cv_folds sigma_h2_grid reg_grid",
        "without clusters or landmarks": command == "extend" and not decomposed and "seed",
        "in a decomposed fit": decomposed and "trace",
        "without labels": not manifest.labeled and "c_svm spectrum_fix",
    }
    unread = {}
    for why, keys in rules.items():
        unread |= {key: why for key in (keys or "").split() if key not in unread}
    for key, (_, _, readers) in SETTINGS.items():
        tags = set(readers.split()).difference(COMMANDS)  # a method or a target
        if tags and not tags & {method, target}:
            why = f"with method {method}" if tags & {"krr", "svr"} else f"with target {target}"
            unread.setdefault(key, why)
    return {key: why for key, why in unread.items() if key in settings}


def _has_default_type(key: str, value) -> bool:
    """Whether a setting has the JSON type of its default.

    A list holds numbers, and a number is an int or a float; the settings in
    ``INT_KEYS`` take ints only.  A default of None stands for a number
    derived from the data.
    """
    default = DEFAULTS[key]
    kinds = int if key in INT_KEYS else (int, float)

    def number(v):
        return isinstance(v, kinds) and not isinstance(v, bool)

    if isinstance(default, list):
        return isinstance(value, list) and all(number(v) for v in value)
    if isinstance(default, (bool, str)):
        return isinstance(value, type(default))
    return number(value) or (default is None and value is None)


def _target_matrix(settings: dict, X: np.ndarray, labels) -> np.ndarray:
    name = settings["target"]
    if name == "ideal":
        if labels is None:
            raise InvalidInput("the ideal target needs a labeled dataset")
        return gram_matrix(Ideal(labels), X)
    if name == "rbf":
        s2 = settings["rbf_sigma2"]
        return gram_matrix(GaussianRBF(float(s2) if s2 is not None else data_sigma2(X)), X)
    if name == "tl1":
        tau = settings["tl1_tau"]
        return gram_matrix(TL1(float(tau) if tau is not None else 0.7 * X.shape[1]), X)
    return gram_matrix(LogKernel(float(settings["log_sigma"])), X)  # log


def _hyperparams(settings: dict, X: np.ndarray) -> dict:
    s2 = settings["sigma2"]
    s2 = float(s2) if s2 is not None else data_sigma2(X)
    sh2 = settings.get("sigma_h2")
    sh2 = float(sh2) if sh2 is not None else s2
    return {"sigma2": s2, "sigma_h2": sh2, **_solve_settings(settings)}


def _solve_settings(settings: dict) -> dict:
    """The solve settings the run reads: reg (lambda for krr, C for svr), the
    svr's epsilon and kkt_tol, and an off jitter."""
    names = {"lambda": "reg", "C": "reg", "epsilon": "epsilon", "kkt_tol": "kkt_tol"}
    hp = {names[key]: float(value) for key, value in settings.items() if key in names}
    if settings.get("jitter") is False:
        hp["jitter"] = False
    return hp


def _definiteness(report: DefinitenessReport) -> dict:
    return {
        "min_eig": report.min_eigenvalue,
        "max_eig": report.max_eigenvalue,
        "indefinite": bool(report.indefinite),
    }


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


def run(manifest: RunManifest) -> int:
    """Execute a command; exit code 0, or 2/3 for config/numerical trouble."""
    try:
        settings = _load_settings(manifest)
        outdir = manifest.output_dir
        outdir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        report = COMMANDS[manifest.command](manifest, settings, outdir)
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
        report["command"] = manifest.command
        if "seed" in settings:
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


def _require_dataset(manifest: RunManifest, settings: dict):
    if manifest.dataset is None:
        raise InvalidInput(f"{manifest.command} needs a dataset argument")
    return ingest_dataset(
        manifest.dataset,
        manifest.dataset_format,
        labeled=manifest.labeled,
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


def _fit(settings: dict, hp: dict, X, K, outdir: Path):
    """The one fit step: fit the learned kernel to K on X, write model.json.

    With ``clusters`` or ``landmarks`` set the decomposed strategy runs, and
    the report's fit facts are its ``scaling_diagnostics``; otherwise the
    direct fit runs, and they are its ``solver`` block.  Returns
    (LearnedKernel, fit facts).
    """
    v, u = settings["clusters"], settings["landmarks"]
    if v is not None or u is not None:
        scaling = ScalingConfig(
            v=int(v) if v is not None else 1,
            u=int(u) if u is not None else X.shape[0],
            seed=int(settings["seed"]),
        )
        params = HyperKernelParams(hp["sigma2"], hp["sigma_h2"], X.shape[1])
        lk, diag = fit_decomposed(
            X, K, base_config(settings["method"], hp), scaling, params
        )
        doc = {"v": scaling.v, "u": scaling.u, "q_pi": diag.q_pi,
               "sigma_min": diag.sigma_min, "bound": diag.bound}
        if diag.observed_gap is not None:
            doc["observed_gap"] = diag.observed_gap
        facts = {"scaling_diagnostics": doc}
    else:
        trace = outdir / "trace.csv" if settings.get("trace") else None
        lk = fit_extend(X, K, settings["method"], hp, trace_path=trace)
        coeffs = lk.coefficients
        facts = {"solver": {"path": coeffs.solver, "cg_iterations": coeffs.cg_iterations,
                            "preconditioner_rank": coeffs.preconditioner_rank}}
    save_learned(lk, outdir / "model.json")
    return lk, facts


def _cmd_fit(manifest: RunManifest, settings: dict, outdir: Path) -> dict:
    X, labels = _require_dataset(manifest, settings)
    if labels is None:
        raise InvalidInput("fit needs labels (use extend for unlabeled data)")
    K = _given_kernel(manifest, settings, X, labels)
    keys = ("split", "cv_folds", "sigma_h2_grid", "reg_grid", "seed")  # untuned: no folds
    config = ExperimentConfig(**{key: settings[key] for key in keys if key in settings})
    lab, unlab, test = split_dataset(X, labels, config)

    selected = None
    hp = _hyperparams(settings, X[lab])
    if settings["tune"]:
        selected, table = cross_validate(
            X[lab], K[np.ix_(lab, lab)], settings["method"], config,
            labels=labels[lab], hyperparams=hp, c_svm=float(settings["c_svm"]),
            spectrum_fix=settings["spectrum_fix"],
        )
        hp.update(sigma_h2=selected["sigma_h2"], reg=selected["reg"])
        if "c_svm" in selected:
            settings = dict(settings, c_svm=selected["c_svm"])
        _write_score_table(outdir / "cv_scores.csv", table)

    lk, facts = _fit(settings, hp, X[lab], K[np.ix_(lab, lab)], outdir)
    G = eval_all_pairs(lk, X)
    acc_unlab, acc_test = ovr_accuracies(
        G, labels, lab, (unlab, test), float(settings["c_svm"]), settings["spectrum_fix"]
    )
    holdout = np.concatenate([unlab, test])
    return {
        "config": _plain(settings),
        "selected_hyperparams": selected or hp,
        "rmse_heldout_pairs": heldout_pair_rmse(G, K, holdout),
        "accuracy_unlabeled": acc_unlab,
        "accuracy_test": acc_test,
        "definiteness": _definiteness(definiteness(G[np.ix_(test, test)])),
        "split_sizes": [int(lab.size), int(unlab.size), int(test.size)],
        **facts,
    }


def _cmd_extend(manifest: RunManifest, settings: dict, outdir: Path) -> dict:
    X, labels = _require_dataset(manifest, settings)
    K = _given_kernel(manifest, settings, X, labels)
    hp = _hyperparams(settings, X)
    lk, facts = _fit(settings, hp, X, K, outdir)
    G, definite = learned_gram(lk, X)
    return {
        "config": _plain(settings),
        "selected_hyperparams": hp,
        "rmse_train_pairs": rmse(G, K),
        "rmse_heldout_pairs": None,
        "definiteness": _definiteness(definite),
        **facts,
    }


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
    G, definite = learned_gram(lk, X)
    report = {
        "config": _plain(settings),
        "definiteness": _definiteness(definite),
    }
    if manifest.kernel_matrix is not None:
        K = ingest_kernel_matrix(manifest.kernel_matrix)
        if K.shape[0] != X.shape[0]:
            raise InvalidInput("kernel matrix size does not match the dataset")
        report["rmse_pairs"] = rmse(G, K)
    if labels is not None:
        every = np.arange(labels.size)
        report["accuracy_training"] = ovr_accuracies(
            G, labels, every, [every], float(settings["c_svm"]), settings["spectrum_fix"]
        )[0]
    return report


def _cmd_rate_study(manifest: RunManifest, settings: dict, outdir: Path) -> dict:
    study = learning_rate_study(
        settings["m_values"],
        int(settings["trials"]),
        float(settings["noise_sigma"]),
        settings["method"],
        int(settings["seed"]),
        target=settings["rate_target"],
        hyperparams=_solve_settings(settings),
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


def _write_score_table(path: Path, table) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma_h2_multiplier", "reg", "score"])
        for mult, reg, score in table:
            writer.writerow([repr(mult), repr(reg), repr(score)])


COMMANDS = {
    "fit": _cmd_fit,
    "extend": _cmd_extend,
    "eval": _cmd_eval,
    "rate-study": _cmd_rate_study,
    "decompose-demo": _cmd_extend,  # with two clusters by default; see _load_settings
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it takes
    milliseconds, a large share of a small command run in-process."""
    parser = argparse.ArgumentParser(
        prog="hklearn",
        description="Learn kernels as functions of point pairs and extend "
        "given kernel matrices out of sample.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name != "rate-study":
            p.add_argument("dataset", nargs="?", help="dataset csv or libsvm file")
            p.add_argument("--kernel-matrix", help="given kernel matrix csv")
            p.add_argument("--format", choices=("csv", "libsvm"), default="csv")
            p.add_argument("--no-labels", action="store_true",
                           help="dataset csv has no label column")
        if name == "eval":
            p.add_argument("--model", help="learned model JSON")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output-dir", default="hklearn_out")
        for key, (default, flags, readers) in SETTINGS.items():
            for flag in flags.split() if flags and name in readers.split() else ():
                flag, _, choices = flag.partition("=")
                kw = {"dest": key, "help": f"config key {key}"}
                if isinstance(default, bool):
                    kw.update(default=None, action="store_false" if flag.startswith("--no-")
                              else "store_true")
                elif choices:
                    kw["choices"] = choices.split("|")
                else:
                    kw.update(type=int if key in INT_KEYS else float,
                              nargs="+" if isinstance(default, list) else None)
                p.add_argument(flag, **kw)
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))  # rate-study has no dataset flags
    overrides = {
        key: value for key, value in args.items()
        if key in DEFAULTS and value is not None
    }
    try:
        manifest = RunManifest(
            command=args["command"],
            output_dir=Path(args["output_dir"]),
            dataset=Path(args["dataset"]) if args.get("dataset") else None,
            kernel_matrix=Path(args["kernel_matrix"]) if args.get("kernel_matrix") else None,
            model=Path(args["model"]) if args.get("model") else None,
            config_path=Path(args["config"]) if args["config"] else None,
            dataset_format=args.get("format", "csv"),
            labeled=not args.get("no_labels"),
            settings=overrides,
        )
    except HklearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(manifest)


if __name__ == "__main__":
    sys.exit(main())
