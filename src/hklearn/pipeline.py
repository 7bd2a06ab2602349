"""Experiment machinery: splits, cross-validation, the downstream SVM, and
the empirical learning-rate study.

The protocol mirrors the classification experiments the package exists to
reproduce: standardize, split 40/40/20, regress a learned kernel onto a given
target matrix over labeled pairs, then classify with an SVM over the learned
(possibly indefinite) Gram.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .base_kernels import GaussianRBF, gram_matrix
from .errors import (
    HklearnError,
    InvalidInput,
    PipelineFailure,
    SlopeUndefined,
    StratificationWarning,
)
from .hyper import HyperKernelParams, assemble_hyper_gram, full_pair_list
from .krr import CoefficientField, KrrConfig
from .learned import LearnedKernel, eval_all_pairs, eval_pairs
from .scaling import solve_pair_system
from .svr import SvrConfig, smo

DEFAULT_REG_GRID = tuple(10.0 ** k for k in range(-5, 6))


@dataclass(frozen=True)
class ExperimentConfig:
    split: tuple = (0.4, 0.4, 0.2)
    cv_folds: int = 5
    sigma_h2_grid: tuple = (0.25, 0.5, 1.0, 2.0, 4.0)
    reg_grid: tuple = DEFAULT_REG_GRID
    seed: int = 0
    trials: int = 10

    def __post_init__(self):
        fr = tuple(float(f) for f in self.split)
        if len(fr) != 3 or any(f <= 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
            raise InvalidInput(f"split fractions must be positive and sum to 1, got {fr}")
        if self.cv_folds < 2:
            raise InvalidInput("cv_folds must be at least 2")
        if not self.sigma_h2_grid or not self.reg_grid:
            raise InvalidInput("hyperparameter grids must be nonempty")
        if self.trials < 1:
            raise InvalidInput("trials must be positive")
        object.__setattr__(self, "split", fr)
        object.__setattr__(self, "sigma_h2_grid", tuple(float(g) for g in self.sigma_h2_grid))
        object.__setattr__(self, "reg_grid", tuple(float(g) for g in self.reg_grid))


@dataclass(frozen=True)
class RateStudyReport:
    m_values: tuple
    median_errors: tuple
    loglog_slope: float


def _largest_remainder(total: int, fractions) -> np.ndarray:
    """Integer allocation of `total` across fractions, exact by construction."""
    quotas = np.asarray(fractions, dtype=float) * total
    alloc = np.floor(quotas).astype(int)
    order = np.argsort(-(quotas - alloc), kind="stable")
    for g in order[: total - alloc.sum()]:
        alloc[g] += 1
    return alloc


def split_dataset(X, labels, config: ExperimentConfig, seed: int):
    """Deterministic stratified (labeled, unlabeled, test) index split.

    Per-class allocations follow the global largest-remainder totals, so the
    group sizes are exact regardless of class balance.  Classes too small to
    spread across the three groups trigger StratificationWarning and an
    unstratified fallback.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m = X.shape[0]
    if m < 5:
        raise InvalidInput(f"need at least 5 samples to split, got {m}")
    y = np.asarray(labels)
    if y.shape[0] != m:
        raise InvalidInput("labels length mismatch")

    targets = _largest_remainder(m, config.split)
    classes = [np.flatnonzero(y == c) for c in np.unique(y)]
    if min(len(idx) for idx in classes) < 3:
        warnings.warn(
            "a class is too small to stratify; splitting without stratification",
            StratificationWarning,
        )
        classes = [np.arange(m)]

    rng = np.random.default_rng(seed)
    alloc = np.vstack([_largest_remainder(len(idx), config.split) for idx in classes])
    # reconcile per-class rounding with the exact global group sizes
    diff = alloc.sum(axis=0) - targets
    while diff.any():
        over = int(np.argmax(diff))
        under = int(np.argmin(diff))
        donor = int(np.argmax(alloc[:, over]))
        alloc[donor, over] -= 1
        alloc[donor, under] += 1
        diff = alloc.sum(axis=0) - targets

    groups = [[], [], []]
    for idx, row in zip(classes, alloc):
        perm = rng.permutation(idx)
        stops = np.cumsum(row)
        groups[0].append(perm[: stops[0]])
        groups[1].append(perm[stops[0] : stops[1]])
        groups[2].append(perm[stops[1] : stops[2]])
    return tuple(np.sort(np.concatenate(g)).astype(np.intp) for g in groups)


def rmse(predicted, truth) -> float:
    p = np.asarray(predicted, dtype=float).ravel()
    t = np.asarray(truth, dtype=float).ravel()
    if p.size != t.size or p.size == 0:
        raise InvalidInput(f"rmse needs equal nonempty lengths, got {p.size} and {t.size}")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def data_sigma2(X) -> float:
    """The mean per-feature variance, the fixed width rule for the base scale."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    s2 = float(np.mean(np.var(X, axis=0)))
    if not s2 > 0:
        raise InvalidInput("degenerate data: zero variance in every feature")
    return s2


def fit_extend(X, given_kernel, method: str, hyperparams: dict,
               trace_path=None) -> LearnedKernel:
    """Regress a learned kernel onto a given m x m target matrix.

    ``hyperparams`` carries sigma2, sigma_h2, reg, and (for svr) epsilon and
    kkt_tol; see :func:`base_config`.  ``trace_path`` records the SVR
    convergence trace (ignored for krr).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m = X.shape[0]
    Y = np.asarray(given_kernel, dtype=float)
    if Y.shape != (m, m):
        raise InvalidInput(f"given kernel must be {m}x{m}, got {Y.shape}")
    params = HyperKernelParams(
        float(hyperparams["sigma2"]), float(hyperparams["sigma_h2"]), X.shape[1]
    )
    base = base_config(method, hyperparams)
    gram = assemble_hyper_gram(params, X, full_pair_list(m))
    coeffs, bias = solve_pair_system(gram, Y.ravel(), base, trace_path=trace_path)
    return LearnedKernel(X, coeffs, bias, params)


def base_config(method: str, hyperparams: dict):
    """The KRR or SVR solve settings for ``method`` from a hyperparameter dict.

    ``reg`` is lambda for krr and C for svr.  A ``jitter`` entry of False
    turns off the jitter ladder of direct KRR solves.
    """
    reg = float(hyperparams["reg"])
    if method == "krr":
        if hyperparams.get("jitter", True):
            return KrrConfig(lam=reg)
        return KrrConfig(lam=reg, jitter_retries=0)
    if method == "svr":
        return SvrConfig(
            C=reg,
            epsilon=float(hyperparams.get("epsilon", 0.1)),
            kkt_tol=float(hyperparams.get("kkt_tol", 1e-3)),
        )
    raise InvalidInput(f"unknown method {method!r}, expected 'krr' or 'svr'")


def heldout_pair_rmse(lk: LearnedKernel, X, Y, holdout) -> float:
    """RMSE of k* against Y over the pairs with an endpoint in ``holdout``.

    The pairs are taken in row-major order over the m points of X.
    """
    m = X.shape[0]
    in_val = np.zeros(m, dtype=bool)
    in_val[holdout] = True
    mask = (in_val[:, None] | in_val[None, :]).ravel()
    pairs = full_pair_list(m)[mask]
    pred = eval_pairs(lk, X[pairs[:, 0]], X[pairs[:, 1]])
    return rmse(pred, Y.ravel()[mask])


def cross_validate(X_labeled, y, method: str, config: ExperimentConfig, labels=None,
                   hyperparams=None):
    """Grid-search sigma_h2 and the regularization constant by 5-fold CV.

    ``y`` is the target kernel matrix over the labeled points.  With class
    ``labels`` given, folds are scored by downstream SVM accuracy (and a
    nested pass tunes C_svm afterwards); otherwise by RMSE on the fold's
    held-out pairs.  ``hyperparams`` is the run's dict (see
    :func:`base_config`); every fold fits with it and varies only
    ``sigma_h2``, as a multiplier of its ``sigma2``, and ``reg``.  Omitted,
    it holds only ``sigma2 = data_sigma2(X_labeled)``.  Returns (selected
    hyperparameters, score table).
    """
    X = np.atleast_2d(np.asarray(X_labeled, dtype=float))
    m = X.shape[0]
    Y = np.asarray(y, dtype=float)
    if Y.shape != (m, m):
        raise InvalidInput(f"target matrix must be {m}x{m}, got {Y.shape}")
    if m < config.cv_folds:
        raise InvalidInput(f"labeled set of {m} cannot support {config.cv_folds} folds")

    if hyperparams is None:
        hyperparams = {"sigma2": data_sigma2(X)}
    s2 = float(hyperparams["sigma2"])
    rng = np.random.default_rng(config.seed)
    folds = np.array_split(rng.permutation(m), config.cv_folds)
    classify = labels is not None
    lbl = np.asarray(labels) if classify else None

    table = []
    for mult in config.sigma_h2_grid:
        for reg in config.reg_grid:
            hp = dict(hyperparams, sigma_h2=mult * s2, reg=reg)
            scores = []
            try:
                for val in folds:
                    scores.append(
                        _score_fold(X, Y, method, hp, val, lbl, c_svm=1.0)
                    )
                table.append((mult, reg, float(np.mean(scores))))
            except HklearnError:
                table.append((mult, reg, float("nan")))

    valid = [row for row in table if np.isfinite(row[2])]
    if not valid:
        raise PipelineFailure("every grid point failed to fit")

    def rank(row):
        mult, reg, score = row
        score_key = -score if classify else score
        reg_key = reg if method == "svr" else -reg  # prefer stronger smoothing
        return (score_key, reg_key, mult)

    best_mult, best_reg, best_score = min(valid, key=rank)
    selected = {
        "method": method,
        "sigma2": s2,
        "sigma_h2_multiplier": best_mult,
        "sigma_h2": best_mult * s2,
        "reg": best_reg,
        "score": best_score,
    }

    if classify:
        hp = dict(hyperparams, sigma_h2=best_mult * s2, reg=best_reg)
        by_c = []
        for c_svm in config.reg_grid:
            try:
                accs = [
                    _score_fold(X, Y, method, hp, val, lbl, c_svm=c_svm)
                    for val in folds
                ]
                by_c.append((c_svm, float(np.mean(accs))))
            except HklearnError:
                continue
        if by_c:
            best_c, _ = min(by_c, key=lambda t: (-t[1], t[0]))
            selected["c_svm"] = best_c
    return selected, table


def _score_fold(X, Y, method, hp, val_idx, labels, c_svm):
    m = X.shape[0]
    train = np.setdiff1d(np.arange(m), val_idx)
    lk = fit_extend(X[train], Y[np.ix_(train, train)], method, hp)
    if labels is None:
        return heldout_pair_rmse(lk, X, Y, val_idx)
    G = eval_all_pairs(lk, X[train])
    model = svm_train(G, labels[train], c_svm, "clip")
    rows = eval_all_pairs(lk, X[val_idx], X[train])
    pred = svm_predict(model, rows)
    return float(np.mean(pred == labels[val_idx]))


@dataclass(frozen=True, eq=False)
class SvmModel:
    alphas: np.ndarray
    labels: np.ndarray
    bias: float


def svm_train(gram, labels, C_svm: float, spectrum_fix: str = "clip",
              kkt_tol: float = 1e-3) -> SvmModel:
    """Binary SVM on a precomputed (possibly indefinite) Gram matrix.

    With spectrum_fix="clip" the training Gram's negative eigenvalues are
    clipped at zero; prediction always uses raw kernel values.  The dual is
    solved by :func:`hklearn.svr.smo` in the signed form beta = y * alpha.
    """
    G = np.asarray(gram, dtype=float)
    y = np.asarray(labels, dtype=float).ravel()
    n = y.size
    if G.shape != (n, n):
        raise InvalidInput(f"gram shape {G.shape} does not match {n} labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InvalidInput("labels must be -1 or +1")
    if np.unique(y).size < 2:
        raise InvalidInput("both classes must be present")
    if not C_svm > 0:
        raise InvalidInput("C_svm must be positive")
    if spectrum_fix not in ("none", "clip"):
        raise InvalidInput(f"unknown spectrum_fix {spectrum_fix!r}")

    if spectrum_fix == "clip":
        evals, vecs = eigh(G)
        G = (vecs * np.maximum(evals, 0.0)) @ vecs.T
        G = 0.5 * (G + G.T)

    # the SVR solver's default iteration budget
    beta, bias = smo(
        G, y, np.where(y > 0, 0.0, -C_svm), np.where(y > 0, C_svm, 0.0), 0.0,
        kkt_tol, SvrConfig.max_passes, SvrConfig.max_iter,
    )
    return SvmModel(y * beta, y, bias)


def svm_predict(model: SvmModel, kernel_row_values):
    """Label(s) from raw kernel evaluations against the training points."""
    rows = np.asarray(kernel_row_values, dtype=float)
    single = rows.ndim == 1
    rows = np.atleast_2d(rows)
    if rows.shape[1] != model.labels.size:
        raise InvalidInput("kernel row length does not match the training set")
    scores = rows @ (model.alphas * model.labels) + model.bias
    out = np.where(scores >= 0, 1, -1)
    return int(out[0]) if single else out


def learning_rate_study(m_values, trials: int, noise_sigma: float, method: str,
                        config: ExperimentConfig, target: str = "rbf",
                        reg: float | None = None) -> RateStudyReport:
    """Median out-of-sample error versus training size, with log-log slope.

    Per (m, trial): draw m points, build responses from the target kernel
    ("rbf", or "planted" for a function inside the expansion span) plus
    centered Gaussian noise, fit, and measure RMSE against the noiseless
    target on fresh pairs.
    """
    ms = [int(v) for v in m_values]
    if len(ms) < 2:
        raise SlopeUndefined("at least two sample sizes are needed for a slope")
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise InvalidInput("m_values must be strictly increasing")
    if trials < 3:
        raise InvalidInput("trials must be at least 3")
    if noise_sigma < 0:
        raise InvalidInput("noise_sigma must be nonnegative")
    if target not in ("rbf", "planted"):
        raise InvalidInput(f"unknown target {target!r}")
    if reg is None:
        reg = 1e-10 if noise_sigma == 0 else 1e-2

    seeds = np.random.SeedSequence(config.seed).spawn(len(ms) * trials)
    medians = []
    for mi, m in enumerate(ms):
        errs = []
        for t in range(trials):
            rng = np.random.default_rng(seeds[mi * trials + t])
            try:
                errs.append(_study_trial(rng, m, noise_sigma, method, target, reg))
            except HklearnError as exc:
                failure = PipelineFailure(
                    f"fit failed at m={m}, trial {t}: {exc}"
                )
                failure.partial = RateStudyReport(
                    tuple(ms[:mi]), tuple(medians), float("nan")
                )
                raise failure from exc
        medians.append(float(np.median(errs)))

    logs = np.log(np.maximum(medians, 1e-300))
    slope = float(np.polyfit(np.log(ms), logs, 1)[0])
    return RateStudyReport(tuple(ms), tuple(medians), slope)


def _study_trial(rng, m, noise_sigma, method, target, reg) -> float:
    X = rng.uniform(0.0, 1.0, size=(m, 2))
    s2 = data_sigma2(X)
    params = HyperKernelParams(s2, s2, 2)
    pairs = full_pair_list(m)

    target_lk = None
    if target == "rbf":
        responses = gram_matrix(GaussianRBF(0.25), X).ravel()
    else:
        gram = assemble_hyper_gram(params, X, pairs)
        planted = gram.entries @ rng.standard_normal(m * m)
        responses = gram.entries @ planted
        scale = responses.std()
        planted /= scale
        responses /= scale
        target_lk = LearnedKernel(
            X, CoefficientField(planted, pairs, m), 0.0, params
        )
    if noise_sigma > 0:
        responses = responses + noise_sigma * rng.standard_normal(m * m)

    hp = {"sigma2": s2, "sigma_h2": s2, "reg": reg}
    lk = fit_extend(X, responses.reshape(m, m), method, hp)

    A = rng.uniform(0.0, 1.0, size=(200, 2))
    B = rng.uniform(0.0, 1.0, size=(200, 2))
    if target == "rbf":
        truth = np.exp(-np.sum((A - B) ** 2, axis=1) / (2.0 * 0.25))
    else:
        truth = eval_pairs(target_lk, A, B)
    return rmse(eval_pairs(lk, A, B), truth)
