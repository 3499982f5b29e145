"""Dense reference implementations that tests compare the library against."""
from __future__ import annotations

import numpy as np

from curbsim.errors import ConfigError
from curbsim.predictor import (
    DEFAULT_LAMBDA_GRID,
    RidgeModel,
    corpus_design,
    feature_schema,
    fit_ridge,
    uniform_model,
)


def cv_mse(x: np.ndarray, y: np.ndarray, lam: float, folds: int) -> float:
    """Mean over folds of the test-fold MSE of a dense fit on the other folds.

    Deterministic fold split: record index modulo folds.
    """
    idx = np.arange(len(y))
    errs = []
    for fold in range(folds):
        test = idx % folds == fold
        model = fit_ridge(x[~test], y[~test], lam)
        pred = model.intercept + x[test] @ model.coefficients
        errs.append(float(np.mean((y[test] - pred) ** 2)))
    return float(np.mean(errs))


def select_lambda(x: np.ndarray, y: np.ndarray, grid, folds: int) -> float:
    """Dense cross-validation oracle: the grid value minimizing mean fold MSE;
    ties go to the smaller lambda."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    grid = list(grid)
    if not grid:
        raise ConfigError("lambda grid must be nonempty")
    if folds < 2:
        raise ConfigError("need at least 2 folds")
    if len(y) < folds:
        raise ConfigError(f"{len(y)} rows is fewer than {folds} folds")
    best_lam = None
    best_mse = np.inf
    for lam in grid:
        mse = cv_mse(x, y, lam, folds)
        if mse < best_mse or (mse == best_mse and lam < best_lam):
            best_mse, best_lam = mse, lam
    return float(best_lam)


def retrain_reference(corpus, grid=DEFAULT_LAMBDA_GRID, folds: int = 5) -> RidgeModel:
    """predictor.retrain through the dense records x (10 + n_cells) design."""
    if len(corpus) == 0:
        return uniform_model(corpus.n_cells)
    x, y = corpus_design(corpus)
    lam = 1.0 if len(y) < folds else select_lambda(x, y, grid, folds)
    return fit_ridge(x, y, lam, schema=feature_schema(corpus.n_cells))
