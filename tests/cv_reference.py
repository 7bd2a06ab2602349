"""The grid-point-by-grid-point cross-validation loop, kept as a test oracle.

``cross_validate_reference`` is ``hklearn.pipeline.cross_validate`` as it was
before one pair system came to serve every regularization constant of a
(sigma_h2, fold): it fits each (sigma_h2, reg, fold) through ``fit_extend``
and refits the selected point's folds for the ``c_svm`` pass.  Tests require
the package's loop to give the same score table and selection.
"""

from __future__ import annotations

import numpy as np

from hklearn.errors import HklearnError, InvalidInput, PipelineFailure
from hklearn.learned import eval_all_pairs
from hklearn.pipeline import (
    ExperimentConfig,
    data_sigma2,
    fit_extend,
    heldout_pair_rmse,
    ovr_accuracies,
)


def cross_validate_reference(X_labeled, y, method: str, config: ExperimentConfig,
                             labels=None, hyperparams=None, *, c_svm: float = 1.0,
                             spectrum_fix: str = "clip"):
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
    rng = np.random.default_rng(config.seed)
    folds = [
        (np.setdiff1d(np.arange(m), val), val)
        for val in np.array_split(rng.permutation(m), config.cv_folds)
    ]

    def fold_score(G, train, val, c):
        if labels is None:
            return heldout_pair_rmse(G, Y, val)
        return ovr_accuracies(G, labels, train, [val], c, spectrum_fix)[0]

    table = []
    for mult in config.sigma_h2_grid:
        for reg in config.reg_grid:
            hp = dict(hyperparams, sigma_h2=mult * s2, reg=reg)
            try:
                scores = [
                    fold_score(_fold_gram(X, Y, method, hp, train), train, val, c_svm)
                    for train, val in folds
                ]
                table.append((mult, reg, float(np.mean(scores))))
            except HklearnError:
                table.append((mult, reg, float("nan")))

    valid = [row for row in table if np.isfinite(row[2])]
    if not valid:
        raise PipelineFailure("every grid point failed to fit")

    def rank(row):
        mult, reg, score = row
        score_key = score if labels is None else -score
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

    if labels is not None:
        # every fold fitted at the selected point in the grid pass, so these
        # fits succeed; only the SVMs depend on c_svm
        hp = dict(hyperparams, sigma_h2=best_mult * s2, reg=best_reg)
        grams = [_fold_gram(X, Y, method, hp, train) for train, _ in folds]
        by_c = []
        for c in config.reg_grid:
            try:
                accs = [fold_score(G, *fold, c) for G, fold in zip(grams, folds)]
                by_c.append((c, float(np.mean(accs))))
            except HklearnError:
                continue
        if by_c:
            best_c, _ = min(by_c, key=lambda t: (-t[1], t[0]))
            selected["c_svm"] = best_c
    return selected, table


def _fold_gram(X, Y, method, hp, train):
    """k* on all of X, fitted on the points ``train``."""
    lk = fit_extend(X[train], Y[np.ix_(train, train)], method, hp)
    return eval_all_pairs(lk, X)
