"""Dense and scalar reference implementations that tests compare the
library against."""
from __future__ import annotations

import numpy as np

from curbsim.errors import ConfigError, SchemaError
from curbsim.predictor import (
    BUCKET_MINUTES,
    CLAMP_LO,
    DEFAULT_LAMBDA_GRID,
    TREND_BUCKETS,
    TREND_DEFAULT,
    RidgeModel,
    feature_dim,
    feature_schema,
    fit_ridge,
    uniform_model,
)


def trend(corpus, cell: int, bucket_start: int) -> float:
    """Mean rho of the cell over the trailing TREND_BUCKETS buckets strictly
    before bucket_start; TREND_DEFAULT when nothing is there."""
    lo = bucket_start - TREND_BUCKETS * BUCKET_MINUTES
    vals = corpus.rho[(corpus.cells == cell) & (lo <= corpus.starts) & (corpus.starts < bucket_start)]
    return float(np.mean(vals)) if len(vals) else TREND_DEFAULT


def build_features(cells, bucket_starts, trends, n_cells: int, base_weekday: int = 0) -> np.ndarray:
    """Dense feature rows: cyclical time of day, weekday one-hot, cell
    one-hot, trend."""
    x = np.zeros((len(cells), feature_dim(n_cells)))
    for i, (cell, start, tr) in enumerate(zip(cells, bucket_starts, trends)):
        if not 0 <= cell < n_cells:
            raise SchemaError(f"cell index outside schema range 0..{n_cells - 1}")
        theta = 2.0 * np.pi * (start % 1440) / 1440.0
        x[i, 0] = np.sin(theta)
        x[i, 1] = np.cos(theta)
        x[i, 2 + (start // 1440 + base_weekday) % 7] = 1.0
        x[i, 9 + cell] = 1.0
        x[i, -1] = tr
    return x


def corpus_design(corpus) -> tuple[np.ndarray, np.ndarray]:
    """Dense (X, y) over the whole corpus, each row's trend from the scalar
    trend."""
    cells, starts = corpus.cells.tolist(), corpus.starts.tolist()
    trends = [trend(corpus, c, s) for c, s in zip(cells, starts)]
    return build_features(cells, starts, trends, corpus.n_cells, corpus.base_weekday), corpus.rho


def predict_availability(model: RidgeModel, cell: int, tick: int, corpus) -> float:
    """Clamped availability probability for one cell at one tick."""
    if model.schema != feature_schema(corpus.n_cells):
        raise SchemaError(f"model schema {model.schema!r} does not cover this corpus")
    bucket = (tick // BUCKET_MINUTES) * BUCKET_MINUTES
    x = build_features([cell], [bucket], [trend(corpus, cell, bucket)], corpus.n_cells, corpus.base_weekday)
    raw = float(model.intercept + x[0] @ model.coefficients)
    return float(min(1.0, max(CLAMP_LO, raw)))


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
