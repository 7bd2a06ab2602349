"""Experiment machinery: splits, cross-validation, the downstream SVM, and
the empirical learning-rate study.

The protocol mirrors the classification experiments the package exists to
reproduce: standardize, split 40/40/20, regress a learned kernel onto a given
target matrix over labeled pairs, then classify with an SVM over the learned
(possibly indefinite) Gram.
"""

from __future__ import annotations

import warnings
from contextlib import suppress
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh

from .base_kernels import GaussianRBF, gram_matrix
from .errors import (
    HklearnError,
    InvalidInput,
    NumericalFailure,
    PipelineFailure,
    SlopeUndefined,
    StratificationWarning,
)
from .hyper import HyperKernelParams, PairSystem
from .krr import CoefficientField, KrrConfig, shared_spectrum
from .learned import LearnedKernel, eval_all_pairs_stack, eval_pairs
from .scaling import solve_pair_system
from .svr import SMO_MAX_ITER, SMO_MAX_PASSES, SvrConfig, smo

DEFAULT_REG_GRID = tuple(10.0 ** k for k in range(-5, 6))
# Ridge weights of the learning-rate study, for noiseless and noisy responses
STUDY_REG_NOISELESS = 1e-10
STUDY_REG_NOISY = 1e-2


@dataclass(frozen=True)
class ExperimentConfig:
    split: tuple = (0.4, 0.4, 0.2)
    cv_folds: int = 5
    sigma_h2_grid: tuple = (0.25, 0.5, 1.0, 2.0, 4.0)
    reg_grid: tuple = DEFAULT_REG_GRID
    seed: int = 0

    def __post_init__(self):
        fr = tuple(float(f) for f in self.split)
        if len(fr) != 3 or any(f <= 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
            raise InvalidInput(f"split fractions must be positive and sum to 1, got {fr}")
        if self.cv_folds < 2:
            raise InvalidInput("cv_folds must be at least 2")
        object.__setattr__(self, "split", fr)
        # reg_grid is also the C grid of the classifier, so both grids are scales
        for name in ("sigma_h2_grid", "reg_grid"):
            grid = tuple(float(g) for g in getattr(self, name))
            if not grid:
                raise InvalidInput("hyperparameter grids must be nonempty")
            if not all(g > 0 for g in grid):
                raise InvalidInput(f"{name} entries must be positive, got {list(grid)}")
            object.__setattr__(self, name, grid)


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


def split_dataset(X, labels, config: ExperimentConfig):
    """Deterministic stratified (labeled, unlabeled, test) index split,
    drawn from ``config.seed``.

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

    rng = np.random.default_rng(config.seed)
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
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.sqrt(np.mean((p - t) ** 2)))
    if not np.isfinite(value):
        raise NumericalFailure("rmse is not finite: the values or their errors overflow")
    return value


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
    system = PairSystem(params, X)
    coeffs, bias = solve_pair_system(system, Y.ravel(), base, trace_path=trace_path)
    return LearnedKernel(X, coeffs, bias, params)


def base_config(method: str, hyperparams: dict):
    """The KRR or SVR solve settings for ``method`` from a hyperparameter dict.

    ``reg`` is lambda for krr and C for svr.  A ``jitter`` entry of False
    turns off the jitter ladder of direct KRR solves; an svr's ``epsilon`` and
    ``kkt_tol`` default to :class:`SvrConfig`'s.
    """
    reg = float(hyperparams["reg"])
    if method == "krr":
        return KrrConfig(lam=reg, jitter=hyperparams.get("jitter") is not False)
    if method == "svr":
        return SvrConfig(C=reg, **{key: float(hyperparams[key])
                                   for key in ("epsilon", "kkt_tol") if key in hyperparams})
    raise InvalidInput(f"unknown method {method!r}, expected 'krr' or 'svr'")


def heldout_pair_rmse(G, Y, holdout) -> float:
    """RMSE of k* against Y over the pairs with an endpoint in ``holdout``.

    ``G`` is ``eval_all_pairs(lk, X)`` over the m points Y is given on; the
    pairs are taken in row-major order.
    """
    mask = _heldout_mask(Y.shape[0], holdout)
    return rmse(G.ravel()[mask], Y.ravel()[mask])


def _heldout_mask(m, holdout):
    """Row-major mask of the m x m pairs with an endpoint in ``holdout``."""
    in_val = np.isin(np.arange(m), holdout)
    return (in_val[:, None] | in_val[None, :]).ravel()


def cross_validate(X_labeled, y, method: str, config: ExperimentConfig, labels=None,
                   hyperparams=None, *, c_svm: float = 1.0, spectrum_fix: str = "clip"):
    """Grid-search sigma_h2 and the regularization constant by ``cv_folds``-fold CV.

    ``y`` is the target kernel matrix over the labeled points.  With class
    ``labels`` given, folds are scored by the accuracy of
    :func:`ovr_accuracies` with ``spectrum_fix``: the grid pass uses
    ``c_svm``, and a second pass scores every C_svm of ``reg_grid`` on the
    fold fits of the selected point.  Otherwise folds are scored by RMSE on
    their held-out pairs.  ``hyperparams`` is the run's dict (see
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
    regs = config.reg_grid
    # invalid solve or classifier settings fail here, not once per grid point
    bases = [base_config(method, dict(hyperparams, reg=reg)) for reg in regs]
    if labels is not None:
        _check_svm(c_svm, spectrum_fix)
    rng = np.random.default_rng(config.seed)
    folds = [
        (np.setdiff1d(np.arange(m), val), val)
        for val in np.array_split(rng.permutation(m), config.cv_folds)
    ]

    def fold_scores(Gs, train, val, cs):
        """Scores of a fold's (k, m, m) Gram stack at each C of ``cs``; NaN if one fails."""
        out = np.full((len(Gs), len(cs)), np.nan)
        ok = np.flatnonzero(np.isfinite(Gs).all(axis=(1, 2)))
        if labels is None:
            mask = _heldout_mask(m, val)
            for k in ok:
                with suppress(HklearnError):
                    out[k] = rmse(Gs[k].ravel()[mask], Y.ravel()[mask])
            return out
        with suppress(HklearnError):  # a training fold of one class scores NaN
            out[ok] = _ovr_table(Gs[ok], labels, train, [val], cs, spectrum_fix)[..., 0]
        return out

    def rank(row):
        mult, reg, score = row
        score_key = score if labels is None else -score
        reg_key = reg if method == "svr" else -reg  # prefer stronger smoothing
        return (score_key, reg_key, mult)

    # One pair system per (sigma_h2, fold) serves every reg: its dense Gram is
    # assembled once, its eigendecomposition taken once when enough direct
    # ridge solves share it, and the learned Grams of all regs are evaluated
    # and scored as one stack.  The best row's fold Grams serve the c_svm pass.
    table, best, best_grams = [], None, None
    for mult in config.sigma_h2_grid:
        params = HyperKernelParams(s2, mult * s2, X.shape[1])
        scores = [[] for _ in regs]  # per reg; ends in NaN once a fold fails
        grams = [[] for _ in regs]
        for train, val in folds:
            X_train = X[train]
            system = PairSystem(params, X_train)
            responses = Y[np.ix_(train, train)].ravel()
            live = [k for k in range(len(regs)) if not np.isnan(scores[k]).any()]
            spectrum = shared_spectrum(system, [bases[k] for k in live])
            fits = {}
            for k in live:
                try:
                    coeffs, bias = solve_pair_system(system, responses, bases[k],
                                                     spectrum=spectrum)
                    fits[k] = LearnedKernel(X_train, coeffs, bias, params)
                except HklearnError:
                    scores[k].append(np.nan)
            if not fits:
                continue
            Gs = eval_all_pairs_stack(list(fits.values()), X)
            for k, G, (score,) in zip(fits, Gs, fold_scores(Gs, train, val, [c_svm])):
                scores[k].append(score)
                grams[k].append(G)
        for reg, reg_scores, fold_grams in zip(regs, scores, grams):
            score = float(np.mean(reg_scores))
            table.append((mult, reg, score))
            if np.isfinite(score) and (best is None or rank(table[-1]) < rank(best)):
                best, best_grams = table[-1], fold_grams

    if best is None:
        raise PipelineFailure("every grid point failed to fit")
    best_mult, best_reg, best_score = best
    selected = {
        "method": method,
        "sigma2": s2,
        "sigma_h2_multiplier": best_mult,
        "sigma_h2": best_mult * s2,
        "reg": best_reg,
        "score": best_score,
    }

    if labels is not None:
        # only the SVMs depend on c_svm: score each C on the selected fold fits
        accs = [fold_scores(G[None], *fold, regs)[0] for G, fold in zip(best_grams, folds)]
        by_c = [(c, float(np.mean(a))) for c, a in zip(regs, zip(*accs)) if np.isfinite(a).all()]
        if by_c:
            best_c, _ = min(by_c, key=lambda t: (-t[1], t[0]))
            selected["c_svm"] = best_c
    return selected, table


def ovr_accuracies(G, labels, train, groups, c_svm: float, spectrum_fix: str) -> list:
    """Accuracy on each index group of one-vs-rest SVMs trained once on ``train``.

    Indices address the points of the learned Gram ``G`` and of ``labels``,
    which may be any numbers.  Two classes take one binary SVM (the larger
    label is +1); more take one per class, and a point takes the class of the
    largest decision value.  Their training Gram is clipped once for all.
    """
    _check_svm(c_svm, spectrum_fix)
    table = _ovr_table(G[None], labels, train, groups, [c_svm], spectrum_fix, strict=True)
    return table[0, 0].tolist()


def _ovr_table(Gs, labels, train, groups, cs, spectrum_fix, strict=False):
    """:func:`ovr_accuracies` of each Gram of a (k, m, m) stack at each C of ``cs``.

    Returns a (k, len(cs), len(groups)) array; classes, boxes and index grids
    are built once, and the training Grams clipped in one eigh.  A failed SVM
    leaves NaN in its row, or raises when ``strict``.
    """
    labels, train = np.asarray(labels), np.asarray(train)
    y, classes = labels[train], np.unique(labels[train])
    if classes.size < 2:
        raise InvalidInput("classification needs at least two classes")
    ys = [np.where(y == c, 1.0, -1.0) for c in (classes[1:] if classes.size == 2 else classes)]
    boxes = [[(np.where(s > 0, 0.0, -C), np.where(s > 0, C, 0.0)) for s in ys] for C in cs]
    grids = [np.ix_(idx, train) for idx in groups]
    T = Gs.take(train, axis=1).take(train, axis=2)
    T = _clip_spectrum(T) if spectrum_fix == "clip" else T
    out = np.full((len(Gs), len(cs), len(groups)), np.nan)
    for k, G in enumerate(Gs):
        rows = [G[grid] for grid in grids]
        for j in range(len(cs)):
            with suppress(() if strict else HklearnError):
                models = [_smo_svm(T[k], s, *box) for s, box in zip(ys, boxes[j])]
                for g, (R, idx) in enumerate(zip(rows, groups)):
                    if len(models) == 1:
                        pred = np.where(svm_predict(models[0], R) == 1, classes[1], classes[0])
                    else:
                        scores = np.column_stack([_decision_values(m, R) for m in models])
                        pred = classes[np.argmax(scores, axis=1)]
                    out[k, j, g] = np.mean(pred == labels[idx])
    return out


@dataclass(frozen=True, eq=False)
class SvmModel:
    alphas: np.ndarray
    labels: np.ndarray
    bias: float


def svm_train(gram, labels, C_svm: float, spectrum_fix: str = "clip",
              kkt_tol: float = SvrConfig.kkt_tol) -> SvmModel:
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
    _check_svm(C_svm, spectrum_fix)

    if spectrum_fix == "clip":
        G = _clip_spectrum(G)
    return _smo_svm(G, y, np.where(y > 0, 0.0, -C_svm), np.where(y > 0, C_svm, 0.0), kkt_tol)


def _smo_svm(G, y, lo, hi, kkt_tol=SvrConfig.kkt_tol) -> SvmModel:
    """The signed dual of a binary SVM with +-1 labels ``y`` and box [lo, hi], by SMO.

    A training Gram that is not finite (see :func:`_clip_spectrum`) raises
    ``NumericalFailure``.
    """
    if not np.isfinite(G).all():
        raise NumericalFailure("the SVM training Gram is not finite: its spectrum overflows")
    beta, bias = smo(G, y, lo, hi, 0.0, kkt_tol, SMO_MAX_PASSES, SMO_MAX_ITER)
    return SvmModel(y * beta, y, bias)


def _check_svm(c_svm, spectrum_fix):
    if not c_svm > 0:
        raise InvalidInput(f"c_svm must be positive, got {c_svm}")
    if spectrum_fix not in ("none", "clip"):
        raise InvalidInput(f"unknown spectrum_fix {spectrum_fix!r}")


def _clip_spectrum(G):
    """G with negative eigenvalues zeroed, exactly symmetric; a stack takes one eigh.

    A Gram whose spectrum overflows comes back all NaN: clipping an
    eigenvalue of -inf would otherwise leave a finite, meaningless result.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        evals, vecs = eigh(G)
        G = (vecs * np.maximum(evals, 0.0)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
        G = 0.5 * (G + np.swapaxes(G, -1, -2))
    G[~np.isfinite(evals).all(axis=-1)] = np.nan
    return G


def svm_predict(model: SvmModel, kernel_row_values):
    """+1/-1 labels from rows of raw kernel values against the training points."""
    rows = np.atleast_2d(np.asarray(kernel_row_values, dtype=float))
    if rows.shape[1] != model.labels.size:
        raise InvalidInput("kernel row length does not match the training set")
    return np.where(_decision_values(model, rows) >= 0, 1, -1)


def _decision_values(model: SvmModel, rows):
    return rows @ (model.alphas * model.labels) + model.bias


def learning_rate_study(m_values, trials: int, noise_sigma: float, method: str,
                        seed: int, target: str = "rbf", hyperparams=None) -> RateStudyReport:
    """Median out-of-sample error versus training size, with log-log slope.

    Per (m, trial): draw m points, build responses from the target kernel
    ("rbf", or "planted" for a function inside the expansion span) plus
    centered Gaussian noise, fit, and measure RMSE against the noiseless
    target on fresh pairs, all drawn from ``seed``.  ``hyperparams`` is the
    run's dict (see :func:`base_config`): svr trials fit with its ``reg`` as
    C, ``epsilon`` and ``kkt_tol``.  Ridge trials take its ``jitter`` and the
    ridge constant ``STUDY_REG_NOISELESS`` without noise, ``STUDY_REG_NOISY``
    with it.  Both scales are each trial's ``data_sigma2``.
    """
    ms = [int(v) for v in m_values]
    if len(ms) < 2:
        raise SlopeUndefined("at least two sample sizes are needed for a slope")
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise InvalidInput("m_values must be strictly increasing")
    if ms[0] < 2:
        raise InvalidInput(f"sample sizes must be at least 2, got {ms[0]}")
    if trials < 3:
        raise InvalidInput("trials must be at least 3")
    if noise_sigma < 0:
        raise InvalidInput("noise_sigma must be nonnegative")
    if target not in ("rbf", "planted"):
        raise InvalidInput(f"unknown target {target!r}")
    hp = dict(hyperparams or {})
    if method != "svr":  # ridge trials; base_config rejects other methods
        hp["reg"] = STUDY_REG_NOISELESS if noise_sigma == 0 else STUDY_REG_NOISY
    elif "reg" not in hp:
        raise InvalidInput("the study's svr fits need the run's C as hyperparams['reg']")
    base = base_config(method, hp)

    seeds = np.random.SeedSequence(seed).spawn(len(ms) * trials)
    medians = []
    for mi, m in enumerate(ms):
        errs = []
        for t in range(trials):
            rng = np.random.default_rng(seeds[mi * trials + t])
            try:
                errs.append(_study_trial(rng, m, noise_sigma, target, base))
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


def _study_trial(rng, m, noise_sigma, target, base) -> float:
    X = rng.uniform(0.0, 1.0, size=(m, 2))
    s2 = data_sigma2(X)
    params = HyperKernelParams(s2, s2, 2)
    # the fit's pair system; a planted target is built from it too
    system = PairSystem(params, X)

    target_lk = None
    if target == "rbf":
        responses = gram_matrix(GaussianRBF(0.25), X).ravel()
    else:
        planted = system.matvec(rng.standard_normal(m * m))
        responses = system.matvec(planted)
        scale = responses.std()
        planted /= scale
        responses /= scale
        target_lk = LearnedKernel(
            X, CoefficientField(planted, system.pair_list, m), 0.0, params
        )
    if noise_sigma > 0:
        responses = responses + noise_sigma * rng.standard_normal(m * m)

    coeffs, bias = solve_pair_system(system, responses, base)
    lk = LearnedKernel(X, coeffs, bias, params)

    A = rng.uniform(0.0, 1.0, size=(200, 2))
    B = rng.uniform(0.0, 1.0, size=(200, 2))
    if target == "rbf":
        truth = np.exp(-np.sum((A - B) ** 2, axis=1) / (2.0 * 0.25))
    else:
        truth = eval_pairs(target_lk, A, B)
    return rmse(eval_pairs(lk, A, B), truth)
