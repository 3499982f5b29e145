"""Online availability forecasting for cord-approx.

Maintains a corpus of hourly per-cell parking success ratios, builds
time-of-day / weekday / cell / trend features, fits closed-form ridge
regression (intercept unpenalized) with deterministic cross-validated
regularization, and serves predictions clamped to [0.01, 1].
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, SchemaError, SingularityError, ValidationError

BUCKET_MINUTES = 60
CLAMP_LO = 0.01
DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
TREND_BUCKETS = 3
TREND_DEFAULT = 0.5
# gap, relative to the mean squared target, under which two lambdas' mean
# fold MSEs count as a tie
TIE_RTOL = 1e-10


@dataclass
class HistoryRecord:
    cell: int
    bucket_start: int  # absolute minutes from corpus epoch
    rho: float
    attempts: int = 0


@dataclass
class HistoryCorpus:
    """Observed success ratios per (cell, hour bucket)."""

    n_cells: int
    base_weekday: int = 0
    records: list[HistoryRecord] = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def trend(self, cell: int, bucket_start: int) -> float:
        """Mean rho of the cell over the trailing TREND_BUCKETS buckets
        strictly before bucket_start; TREND_DEFAULT when nothing is there."""
        lo = bucket_start - TREND_BUCKETS * BUCKET_MINUTES
        vals = [r.rho for r in self.records
                if r.cell == cell and lo <= r.bucket_start < bucket_start]
        return float(np.mean(vals)) if vals else TREND_DEFAULT

    def trend_vector(self, bucket_start: int) -> np.ndarray:
        """Per-cell trailing trend for one bucket, vectorized over cells."""
        lo = bucket_start - TREND_BUCKETS * BUCKET_MINUTES
        sums = np.zeros(self.n_cells)
        counts = np.zeros(self.n_cells)
        for r in self.records:
            if lo <= r.bucket_start < bucket_start:
                sums[r.cell] += r.rho
                counts[r.cell] += 1
        out = np.full(self.n_cells, TREND_DEFAULT)
        hit = counts > 0
        out[hit] = sums[hit] / counts[hit]
        return out


@dataclass
class RidgeModel:
    coefficients: np.ndarray
    intercept: float
    lam: float
    schema: str

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.lam < 0:
            raise ConfigError("lambda must be >= 0")


def feature_schema(n_cells: int) -> str:
    return f"tod2+wd7+cell{n_cells}+trend1"


def feature_dim(n_cells: int) -> int:
    return 2 + 7 + n_cells + 1


def _dense_columns(bucket_starts: np.ndarray, trends: np.ndarray, base_weekday: int = 0) -> np.ndarray:
    """The 11 non-cell design columns: intercept, cyclical time of day,
    weekday one-hot, trend."""
    bucket_starts = np.asarray(bucket_starts, dtype=np.int64)
    m = len(bucket_starts)
    d = np.zeros((m, 11))
    d[:, 0] = 1.0
    theta = 2.0 * np.pi * (bucket_starts % 1440) / 1440.0
    d[:, 1] = np.sin(theta)
    d[:, 2] = np.cos(theta)
    weekday = (bucket_starts // 1440 + base_weekday) % 7
    d[np.arange(m), 3 + weekday] = 1.0
    d[:, 10] = trends
    return d


def build_features(
    cells: np.ndarray,
    bucket_starts: np.ndarray,
    trends: np.ndarray,
    n_cells: int,
    base_weekday: int = 0,
) -> np.ndarray:
    """Feature rows: cyclical time of day, weekday one-hot, cell one-hot, trend."""
    cells = _checked_cells(cells, n_cells)
    dense = _dense_columns(bucket_starts, trends, base_weekday)
    m = len(cells)
    x = np.zeros((m, feature_dim(n_cells)))
    x[:, :9] = dense[:, 1:10]
    x[np.arange(m), 9 + cells] = 1.0
    x[:, -1] = dense[:, 10]
    return x


def _checked_cells(cells, n_cells: int) -> np.ndarray:
    cells = np.asarray(cells, dtype=np.int64)
    if (cells < 0).any() or (cells >= n_cells).any():
        raise SchemaError(f"cell index outside schema range 0..{n_cells - 1}")
    return cells


def _corpus_columns(corpus: HistoryCorpus) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(cells, bucket starts, trends, rho) per record, trend computed per record.

    Trends use a per-cell sliding window over bucket-sorted records, so this
    stays linear in corpus size (corpus.trend is the per-record contract).
    """
    recs = corpus.records
    cells = np.array([r.cell for r in recs], dtype=np.int64)
    starts = np.array([r.bucket_start for r in recs], dtype=np.int64)
    y = np.array([r.rho for r in recs], dtype=np.float64)
    trends = np.full(len(recs), TREND_DEFAULT)
    order = np.lexsort((starts, cells))
    span = TREND_BUCKETS * BUCKET_MINUTES
    i = 0
    while i < len(order):
        j = i
        cell = cells[order[i]]
        while j < len(order) and cells[order[j]] == cell:
            j += 1
        w_lo = w_hi = i
        ssum = 0.0
        for p in range(i, j):
            b = starts[order[p]]
            while w_hi < p and starts[order[w_hi]] < b:
                ssum += y[order[w_hi]]
                w_hi += 1
            while w_lo < w_hi and starts[order[w_lo]] < b - span:
                ssum -= y[order[w_lo]]
                w_lo += 1
            if w_hi > w_lo:
                trends[order[p]] = ssum / (w_hi - w_lo)
        i = j
    return cells, starts, trends, y


def corpus_design(corpus: HistoryCorpus) -> tuple[np.ndarray, np.ndarray]:
    """Dense (X, y) over the whole corpus; retrain never builds it."""
    cells, starts, trends, y = _corpus_columns(corpus)
    return build_features(cells, starts, trends, corpus.n_cells, corpus.base_weekday), y


def fit_ridge(x: np.ndarray, y: np.ndarray, lam: float, schema: str = "raw") -> RidgeModel:
    """Solve the penalized normal equations; the intercept is unpenalized."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.ndim == 1:
        x = x[:, None]
    if len(x) != len(y) or len(y) < 1:
        raise ValidationError("X and y must have the same positive number of rows")
    if lam < 0:
        raise ConfigError("lambda must be >= 0")
    n, p = x.shape
    design = np.hstack([np.ones((n, 1)), x])
    gram = design.T @ design
    penalty = np.zeros(p + 1)
    penalty[1:] = lam
    gram += np.diag(penalty)
    rhs = design.T @ y
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        rank = int(np.linalg.matrix_rank(design))
        raise SingularityError(
            f"normal equations singular at lambda={lam}: design rank {rank} < {p + 1}"
        ) from None
    if lam == 0.0 and np.linalg.matrix_rank(design) < p + 1:
        rank = int(np.linalg.matrix_rank(design))
        raise SingularityError(f"normal equations singular at lambda=0: design rank {rank} < {p + 1}")
    return RidgeModel(beta[1:], float(beta[0]), float(lam), schema)


def predict_availability(model: RidgeModel, cell: int, tick: int, corpus: HistoryCorpus) -> float:
    """Clamped availability probability for one cell at one tick."""
    if model.schema != feature_schema(corpus.n_cells):
        raise SchemaError(f"model schema {model.schema!r} does not cover this corpus")
    bucket = (tick // BUCKET_MINUTES) * BUCKET_MINUTES
    trend = corpus.trend(cell, bucket)
    x = build_features([cell], [bucket], [trend], corpus.n_cells, corpus.base_weekday)
    raw = float(model.intercept + x[0] @ model.coefficients)
    return float(min(1.0, max(CLAMP_LO, raw)))


def predict_many(model: RidgeModel, cells: np.ndarray, tick: int, trend_vec: np.ndarray,
                 n_cells: int, base_weekday: int = 0) -> np.ndarray:
    """Vectorized clamped predictions for several cells at one tick."""
    cells = np.asarray(cells, dtype=np.int64)
    if len(cells) and (cells.min() < 0 or cells.max() >= n_cells):
        raise SchemaError(f"cell index outside schema range 0..{n_cells - 1}")
    bucket = (tick // BUCKET_MINUTES) * BUCKET_MINUTES
    x = build_features(cells, np.full(len(cells), bucket), trend_vec[cells], n_cells, base_weekday)
    raw = model.intercept + x @ model.coefficients
    return np.clip(raw, CLAMP_LO, 1.0)


def uniform_model(n_cells: int, p: float = 0.5) -> RidgeModel:
    """Constant-prediction fallback used before any history exists."""
    return RidgeModel(np.zeros(feature_dim(n_cells)), p, 1.0, feature_schema(n_cells))


def update_history(corpus: HistoryCorpus, observations: dict[tuple[int, int], tuple[int, int]]) -> HistoryCorpus:
    """Append rho = successes/attempts per (cell, bucket_start); zero-attempt
    buckets are skipped."""
    for (cell, bucket_start) in sorted(observations):
        attempts, successes = observations[(cell, bucket_start)]
        if attempts < 0 or successes < 0:
            raise ValidationError("counts must be non-negative")
        if successes > attempts:
            raise ValidationError(f"successes {successes} > attempts {attempts}")
        if attempts == 0:
            continue
        corpus.records.append(HistoryRecord(cell, bucket_start, successes / attempts, attempts))
    return corpus


class _NormalEquations(NamedTuple):
    """Blocks of the ridge normal equations over the design [D | C]: D holds
    the 11 dense columns, C the cell one-hot. a = D'D, r_a = D'y, b = D'C,
    and the cell block C'C = diag(d) with r_c = C'y. Per-fold blocks carry
    a leading fold axis."""

    a: np.ndarray
    r_a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    r_c: np.ndarray

    def total(self, keep: np.ndarray) -> "_NormalEquations":
        """Sum of the folds that the boolean mask keep selects."""
        return _NormalEquations(*(block[keep].sum(axis=0) for block in self))

    def solve(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """(dense, cell) coefficients at lam > 0; the intercept is unpenalized.

        The diagonal cell block diag(d + lam) is eliminated through its Schur
        complement S = a + lam*P - b diag(1/(d + lam)) b', so only an 11x11
        system is solved; the cell coefficients follow by back-substitution.
        """
        w = 1.0 / (self.d + lam)
        bw = self.b * w
        s = self.a + lam * _DENSE_PENALTY - np.einsum("ic,jc->ij", bw, self.b)
        beta_a = np.linalg.solve(s, self.r_a - np.einsum("ic,c->i", bw, self.r_c))
        beta_c = (self.r_c - np.einsum("ic,i->c", self.b, beta_a)) * w
        return beta_a, beta_c


_DENSE_PENALTY = np.diag([0.0] + [1.0] * 10)


def _fold_equations(dense: np.ndarray, cells: np.ndarray, y: np.ndarray, n_cells: int,
                    folds: int) -> _NormalEquations:
    """Normal-equation blocks per fold (record index modulo folds).

    Sums run in einsum and bincount, never in BLAS, so their rounding does
    not depend on the BLAS thread count.
    """
    fold = np.arange(len(y)) % folds
    rows = [fold == f for f in range(folds)]
    key = fold * n_cells + cells
    size = folds * n_cells
    a = np.stack([np.einsum("ri,rj->ij", dense[r], dense[r]) for r in rows])
    r_a = np.stack([np.einsum("ri,r->i", dense[r], y[r]) for r in rows])
    b = np.stack([np.bincount(key, weights=col, minlength=size) for col in dense.T])
    d = np.bincount(key, minlength=size).astype(np.float64)
    r_c = np.bincount(key, weights=y, minlength=size)
    return _NormalEquations(a, r_a, b.reshape(-1, folds, n_cells).swapaxes(0, 1),
                            d.reshape(folds, n_cells), r_c.reshape(folds, n_cells))


def _select_lambda(eqs: _NormalEquations, dense: np.ndarray, cells: np.ndarray, y: np.ndarray,
                   grid, folds: int) -> float:
    """Grid value minimizing mean fold MSE; ties go to the smaller lambda.

    Each fold's model is solved from the other folds' summed blocks and
    scored on the fold's own records. Mean MSEs closer to the minimum than
    TIE_RTOL times the mean squared target tie, so rounding cannot pick
    between lambdas that fit equally well (as on a corpus whose dense
    columns are all constant).
    """
    fold = np.arange(len(y)) % folds
    trains = [eqs.total(np.arange(folds) != f) for f in range(folds)]
    mses = []
    for lam in grid:
        errs = []
        for f, train in enumerate(trains):
            test = fold == f
            beta_a, beta_c = train.solve(lam)
            pred = np.einsum("ri,i->r", dense[test], beta_a) + beta_c[cells[test]]
            errs.append(float(np.mean((y[test] - pred) ** 2)))
        mses.append(float(np.mean(errs)))
    band = min(mses) + TIE_RTOL * float(np.mean(y * y))
    return float(min(lam for lam, mse in zip(grid, mses) if mse <= band))


def retrain(
    corpus: HistoryCorpus,
    grid=DEFAULT_LAMBDA_GRID,
    folds: int = 5,
) -> RidgeModel:
    """Fresh ridge fit over the full corpus with cross-validated lambda.

    The model is fit_ridge on corpus_design's (X, y), with lambda chosen by
    deterministic cross-validation: fold k holds the records whose index is
    k modulo folds. X is never built: per-fold normal-equation blocks are
    accumulated once and every fit solves an 11x11 system.

    Empty corpus falls back to the uniform 0.5 prior. Corpora smaller than
    the fold count skip CV and use lambda = 1.0.
    """
    grid = list(grid)
    if not grid or min(grid) <= 0:
        # lambda = 0 is always singular: the weekday one-hot sums to the intercept
        raise ConfigError("lambda grid must be nonempty and positive")
    if folds < 2:
        raise ConfigError("need at least 2 folds")
    if len(corpus) == 0:
        return uniform_model(corpus.n_cells)
    cells, starts, trends, y = _corpus_columns(corpus)
    cells = _checked_cells(cells, corpus.n_cells)
    dense = _dense_columns(starts, trends, corpus.base_weekday)
    eqs = _fold_equations(dense, cells, y, corpus.n_cells, folds)
    lam = 1.0 if len(y) < folds else _select_lambda(eqs, dense, cells, y, grid, folds)
    beta_a, beta_c = eqs.total(np.ones(folds, dtype=bool)).solve(lam)
    coefficients = np.concatenate([beta_a[1:10], beta_c, beta_a[10:]])
    return RidgeModel(coefficients, float(beta_a[0]), float(lam), feature_schema(corpus.n_cells))


# --- persistence ---

def save_corpus(path, corpus: HistoryCorpus):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,bucket_start,rho,attempts\n")
        for r in corpus.records:
            fh.write(f"{r.cell},{r.bucket_start},{r.rho!r},{r.attempts}\n")


def load_corpus(source, n_cells: int, base_weekday: int = 0) -> HistoryCorpus:
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "k,bucket_start,rho,attempts":
        raise ValidationError("history file must start with header k,bucket_start,rho,attempts")
    corpus = HistoryCorpus(n_cells, base_weekday)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValidationError(f"line {lineno}: expected 4 fields")
        cell, bucket, rho, attempts = int(parts[0]), int(parts[1]), float(parts[2]), int(parts[3])
        if not (0.0 <= rho <= 1.0):
            raise ValidationError(f"line {lineno}: rho {rho} outside [0, 1]")
        if cell >= n_cells:
            raise SchemaError(f"line {lineno}: cell {cell} outside grid with {n_cells} cells")
        corpus.records.append(HistoryRecord(cell, bucket, rho, attempts))
    return corpus


def save_model(path, model: RidgeModel):
    payload = {
        "schema": model.schema,
        "intercept": model.intercept,
        "lambda": model.lam,
        "beta": model.coefficients.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(source) -> RidgeModel:
    if hasattr(source, "read"):
        payload = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    return RidgeModel(np.array(payload["beta"]), payload["intercept"], payload["lambda"], payload["schema"])
