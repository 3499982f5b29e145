"""Online availability forecasting for cord-approx.

Maintains a corpus of hourly per-cell parking success ratios, builds
time-of-day / weekday / cell / trend features, fits closed-form ridge
regression (intercept unpenalized) with deterministic cross-validated
regularization, and serves predictions clamped to [0.01, 1].

A retrain never builds the design matrix. The corpus carries the per-fold
normal-equation sums of the rows it has seen, and each retrain folds in only
the rows appended since the last: a row's trend is fixed when the row
enters, and every sum runs in row order, so the carried sums have the bits
of sums taken from scratch. A retrain solves and scores every (lambda,
fold) fit of the cross-validation from those sums, gathered at the observed
cells, in one batched pass, and solves the final fit from their full-width
totals, so a model's bits do not depend on which cells were observed. No
sum runs in BLAS.
Predictions depend only on the hour bucket, the model and the trend, so
`predict_many` serves every cell of one bucket at once. A model is fit and
serves with the corpus's base weekday, the weekday of its minute 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ParseError, SingularityError, Table, ValidationError

BUCKET_MINUTES = 60
CLAMP_LO = 0.01
# lambda = 0 is never in the grid: the weekday one-hot sums to the intercept,
# so the unpenalized design is always singular
DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
FOLDS = 5
TREND_BUCKETS = 3
TREND_DEFAULT = 0.5
# records per fold in one block when folding records into the normal equations
ADD_GROUPS = 256
# gap, relative to the mean squared target, under which two lambdas' mean
# fold MSEs count as a tie
TIE_RTOL = 1e-10


@dataclass
class HistoryCorpus:
    """Observed success ratios per (cell, hour bucket), one row per
    observation, stored as columns. Columns are rebound, never written in
    place, so copies made with dataclasses.replace share them safely, and
    rows are only appended, so the sums retrain carries over the first rows
    stay valid."""

    n_cells: int
    base_weekday: int = 0
    cells: np.ndarray = ()  # int64
    starts: np.ndarray = ()  # int64 bucket start, minutes from corpus epoch
    rho: np.ndarray = ()  # float64 successes / attempts
    attempts: np.ndarray = ()  # int64
    # retrain's carried (rows, per-fold blocks), see _fold_sums; a copy made
    # with dataclasses.replace starts without them
    _sums: tuple[int, _NormalEquations] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int64)
        self.starts = np.asarray(self.starts, dtype=np.int64)
        self.rho = np.asarray(self.rho, dtype=np.float64)
        self.attempts = np.asarray(self.attempts, dtype=np.int64)
        if not len(self.cells) == len(self.starts) == len(self.rho) == len(self.attempts):
            raise ValidationError("history columns must have equal lengths")

    def __len__(self):
        return len(self.cells)

    def trend_vector(self, bucket_start: int) -> np.ndarray:
        """Per-cell trailing trend for one bucket."""
        return trailing_trend(self, np.arange(self.n_cells), np.full(self.n_cells, bucket_start))


def trailing_trend(corpus: HistoryCorpus, cells: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per query, the mean rho of the cell over the TREND_BUCKETS buckets
    strictly before the start: rows with start - TREND_BUCKETS*BUCKET_MINUTES
    <= row start < start. TREND_DEFAULT where no row falls in the window.

    Each distinct query start sums its window's rows per cell in row order,
    so rows appended later that start at or after the query start leave the
    trend's bits as they were. The windows are slices of the rows sorted by
    start, found by binary search, so the cost grows with the rows in the
    windows, not with the corpus once per query start.
    """
    span = TREND_BUCKETS * BUCKET_MINUTES
    out = np.full(len(cells), TREND_DEFAULT)
    order = np.argsort(corpus.starts, kind="stable")
    by_start = corpus.starts.take(order)
    queries = np.argsort(starts, kind="stable")
    query_starts, first = np.unique(starts.take(queries), return_index=True)
    lo = by_start.searchsorted(query_starts - span).tolist()
    hi = by_start.searchsorted(query_starts).tolist()
    bounds = first.tolist() + [len(queries)]
    for i in range(len(query_starts)):
        rows = np.sort(order[lo[i]:hi[i]])  # back into row order
        window = corpus.cells.take(rows)
        sums = np.bincount(window, weights=corpus.rho.take(rows), minlength=corpus.n_cells)
        counts = np.bincount(window, minlength=corpus.n_cells)
        query = queries[bounds[i]:bounds[i + 1]]
        hit = query[counts.take(cells.take(query)) > 0]
        out[hit] = sums.take(cells.take(hit)) / counts.take(cells.take(hit))
    return out


@dataclass
class RidgeModel:
    coefficients: np.ndarray
    intercept: float
    lam: float


def feature_dim(n_cells: int) -> int:
    return 2 + 7 + n_cells + 1


def _dense_columns(bucket_starts: np.ndarray, trends: np.ndarray, base_weekday: int = 0) -> np.ndarray:
    """The 11 non-cell design columns: intercept, cyclical time of day,
    weekday one-hot, trend."""
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


def fit_ridge(x: np.ndarray, y: np.ndarray, lam: float) -> RidgeModel:
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
    return RidgeModel(beta[1:], float(beta[0]), float(lam))


def predict_many(model: RidgeModel, start: int, trend: np.ndarray, base_weekday: int) -> np.ndarray:
    """Every cell's clamped availability for the bucket that starts at
    minute start, given the per-cell trend vector.

    The time-of-day and weekday columns are the same for every cell, so
    they form one row; the cell one-hot is the cell coefficients
    themselves, so no cells x feature_dim matrix is built.
    """
    dense = _dense_columns(np.array([start]), np.zeros(1), base_weekday)
    beta = model.coefficients
    shared = model.intercept + np.einsum("ri,i->r", dense[:, 1:10], beta[:9])[0]
    return np.clip(shared + beta[9:-1] + trend * beta[-1], CLAMP_LO, 1.0)


def uniform_model(n_cells: int, p: float = 0.5) -> RidgeModel:
    """Constant-prediction fallback used before any history exists."""
    return RidgeModel(np.zeros(feature_dim(n_cells)), p, 1.0)


def update_history(corpus: HistoryCorpus, bucket_start: int, attempts: np.ndarray,
                   successes: np.ndarray) -> HistoryCorpus:
    """Append one bucket's rows, rho = successes/attempts, from per-cell
    count arrays, in cell order; zero-attempt cells are skipped."""
    attempts = np.asarray(attempts, dtype=np.int64)
    successes = np.asarray(successes, dtype=np.int64)
    if attempts.shape != (corpus.n_cells,) or successes.shape != (corpus.n_cells,):
        raise ValidationError(f"counts must have one entry per cell ({corpus.n_cells})")
    if (attempts < 0).any() or (successes < 0).any():
        raise ValidationError("counts must be non-negative")
    if (successes > attempts).any():
        raise ValidationError("successes must not exceed attempts")
    hit = np.flatnonzero(attempts)
    corpus.cells = np.concatenate([corpus.cells, hit])
    corpus.starts = np.concatenate([corpus.starts, np.full(len(hit), bucket_start, np.int64)])
    corpus.rho = np.concatenate([corpus.rho, successes[hit] / attempts[hit]])
    corpus.attempts = np.concatenate([corpus.attempts, attempts[hit]])
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

    @classmethod
    def zeros(cls, folds: int, n_cells: int) -> "_NormalEquations":
        """Empty blocks for `folds` folds over n_cells cells."""
        return cls(np.zeros((folds, 11, 11)), np.zeros((folds, 11)), np.zeros((folds, 11, n_cells)),
                   np.zeros((folds, n_cells)), np.zeros((folds, n_cells)))

    def add(self, dense: np.ndarray, cells: np.ndarray, y: np.ndarray, first: int):
        """Add records first, first + 1, ... to their folds' blocks in place,
        record index modulo folds, one record after another in row order, so
        blocks summed in parts have the bits of blocks summed at once. No
        sum runs in BLAS, so the rounding does not depend on the BLAS thread
        count either."""
        folds = len(self.a)
        step = ADD_GROUPS * folds
        for lo in range(0, len(y), step):
            part = slice(lo, lo + step)
            rows = len(y[part])
            head = (first + lo) % folds
            # the records as (group, fold) rows of [dense | dense * y], zero
            # padded: a sum over the leading axis adds one group after
            # another, and a padding row adds +0.0, which changes no sum
            grouped = np.zeros((-(-(head + rows) // folds), folds, 2, 11))
            flat = grouped.reshape(-1, 2, 11)
            flat[head:head + rows, 0] = dense[part]
            flat[head:head + rows, 1] = dense[part] * y[part, None]
            x = grouped[:, :, 0]
            self.a[:] = np.concatenate([self.a[None], x[..., :, None] * x[..., None, :]]).sum(axis=0)
            self.r_a[:] = np.concatenate([self.r_a[None], grouped[:, :, 1]]).sum(axis=0)
        fold = np.arange(first, first + len(y)) % folds
        np.add.at(self.b, (fold, slice(None), cells), dense)
        np.add.at(self.d, (fold, cells), 1.0)
        np.add.at(self.r_c, (fold, cells), y)

    def total(self) -> "_NormalEquations":
        """Sum over the fold axis."""
        return _NormalEquations(*(block.sum(axis=0) for block in self))

    def solve(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """(dense, cell) coefficients at lam > 0; the intercept is unpenalized.

        The diagonal cell block diag(d + lam) is eliminated through its Schur
        complement S = a + lam*P - b diag(1/(d + lam)) b', so only an 11x11
        system is solved; the cell coefficients follow by back-substitution.
        lam is a scalar, or an array that broadcasts against d: its leading
        axes then lead the coefficients', one 11x11 system per entry.
        """
        lam = np.asarray(lam, dtype=np.float64)
        w = 1.0 / (self.d + lam)
        bw = self.b * w[..., None, :]
        s = self.a + lam[..., None] * _DENSE_PENALTY - np.einsum("...ic,...jc->...ij", bw, self.b)
        rhs = self.r_a - np.einsum("...ic,...c->...i", bw, self.r_c)
        beta_a = np.linalg.solve(s, rhs[..., None])[..., 0]
        beta_c = (self.r_c - np.einsum("...ic,...i->...c", self.b, beta_a)) * w
        return beta_a, beta_c


_DENSE_PENALTY = np.diag([0.0] + [1.0] * 10)


def _fold_sums(corpus: HistoryCorpus) -> _NormalEquations:
    """The corpus's full-width per-fold blocks, carried on the corpus.

    Only the rows appended since the last call are folded in: their trends
    and dense columns are built, and their records added in row order. A
    row's trend reads only rows that start before it, so appended rows leave
    the carried rows' trends, and so their sums, as they were, unless one
    starts before the latest carried start: then every row is summed again
    from zero blocks. Either way the blocks equal zero blocks plus every row
    at once, bit for bit.
    """
    n = len(corpus)
    first, eqs = corpus._sums or (0, None)
    if first == n:
        return eqs
    if first > n or (first and corpus.starts[first:].min() < corpus.starts[:first].max()):
        first = 0
    cells, starts, y = corpus.cells[first:], corpus.starts[first:], corpus.rho[first:]
    if (cells < 0).any() or (cells >= corpus.n_cells).any():
        raise ValidationError(f"corpus cell outside the grid's 0..{corpus.n_cells - 1}")
    dense = _dense_columns(starts, trailing_trend(corpus, cells, starts), corpus.base_weekday)
    if not first:
        eqs = _NormalEquations.zeros(FOLDS, corpus.n_cells)
    eqs.add(dense, cells, y, first)
    corpus._sums = (n, eqs)
    return eqs


def _select_lambda(eqs: _NormalEquations, y: np.ndarray, grid) -> float:
    """Grid value minimizing mean fold MSE; ties go to the smaller lambda.

    Each fold's model is solved from the other folds' summed blocks and
    scored from the fold's own blocks: its squared error is
    y'y - 2 beta'X'y + beta'X'X beta over the fold's records. All lambdas
    and folds go in one pass: the train blocks come from one gather and one
    solve covers a (lambdas, folds) stack of 11x11 systems, so no record is
    visited past the fold sums of y*y. Mean MSEs closer to the minimum than
    TIE_RTOL times the mean squared target tie, so rounding cannot pick
    between lambdas that fit equally well (as on a corpus whose dense
    columns are all constant); that band also covers the rounding of the
    expanded squared error.
    """
    lams = np.asarray(grid, dtype=np.float64)
    folds = len(eqs.a)
    others = np.array([[g for g in range(folds) if g != f] for f in range(folds)])
    train = _NormalEquations(*(block[others].sum(axis=1) for block in eqs))
    beta_a, beta_c = train.solve(lams[:, None, None])  # (lambdas, folds, ...)
    a, r_a, b, d, r_c = eqs
    # X'X beta - 2 X'y per fold, its dense and its cell part
    xa = np.einsum("fij,lfj->lfi", a, beta_a) + np.einsum("fic,lfc->lfi", b, beta_c) - 2 * r_a
    xc = np.einsum("fic,lfi->lfc", b, beta_a) + d * beta_c - 2 * r_c
    yy = np.bincount(np.arange(len(y)) % folds, weights=y * y, minlength=folds)
    sse = yy + np.einsum("lfi,lfi->lf", beta_a, xa) + np.einsum("lfc,lfc->lf", beta_c, xc)
    mses = (sse / d.sum(axis=1)).mean(axis=1)
    band = mses.min() + TIE_RTOL * float(np.mean(y * y))
    return float(lams[mses <= band].min())


def retrain(corpus: HistoryCorpus) -> RidgeModel:
    """Fresh ridge fit over the full corpus with cross-validated lambda.

    The model is fit_ridge of rho on the feature_dim design, with lambda
    chosen from DEFAULT_LAMBDA_GRID by deterministic cross-validation: fold
    k holds the records whose index is k modulo FOLDS. The design is never
    built: the per-fold normal-equation blocks are carried on the corpus and
    extended by the rows appended since the last retrain (`_fold_sums`), and
    the lambda selection solves and scores every (lambda, fold) fit from
    them, gathered at the cells the corpus holds, in one batched pass. The
    final fit solves the full-width totals, so its rounding does not depend
    on which cells were observed.

    Empty corpus falls back to the uniform 0.5 prior. Corpora smaller than
    the fold count skip CV and use lambda = 1.0.
    """
    if len(corpus) == 0:
        return uniform_model(corpus.n_cells)
    eqs = _fold_sums(corpus)
    y = corpus.rho
    if len(y) < FOLDS:
        lam = 1.0
    else:
        present = np.flatnonzero(eqs.d.any(axis=0))
        observed = _NormalEquations(eqs.a, eqs.r_a, *(block.take(present, axis=-1) for block in eqs[2:]))
        lam = _select_lambda(observed, y, DEFAULT_LAMBDA_GRID)
    beta_a, beta_c = eqs.total().solve(lam)
    coefficients = np.concatenate([beta_a[1:10], beta_c, beta_a[10:]])
    return RidgeModel(coefficients, float(beta_a[0]), float(lam))


# --- persistence ---

HISTORY_COLS = ("k", "bucket_start", "rho", "attempts")


def save_corpus(path, corpus: HistoryCorpus):
    columns = (corpus.cells, corpus.starts, corpus.rho, corpus.attempts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(HISTORY_COLS) + "\n")
        for cell, start, rho, attempts in zip(*(col.tolist() for col in columns)):
            fh.write(f"{cell},{start},{rho!r},{attempts}\n")


def load_corpus(path, n_cells: int, base_weekday: int = 0) -> HistoryCorpus:
    """Read a `save_corpus` table (see `Table`); a rho outside [0, 1] or a
    cell outside the grid's 0..n_cells-1 is reported with its line."""
    rows = []
    for line, row in Table(path).rows("history", HISTORY_COLS, ("k", "bucket_start", "attempts")):
        try:
            rho = float(row["rho"])
        except ValueError:
            raise ParseError(f"rho {row['rho']!r} is not a number", line) from None
        if not (0.0 <= rho <= 1.0):
            raise ValidationError(f"line {line}: rho {rho} outside [0, 1]")
        if row["k"] >= n_cells:
            raise ValidationError(f"line {line}: cell {row['k']} outside grid with {n_cells} cells")
        rows.append((row["k"], row["bucket_start"], rho, row["attempts"]))
    cells, starts, rhos, attempts = zip(*rows) if rows else ((), (), (), ())
    return HistoryCorpus(n_cells, base_weekday, cells, starts, rhos, attempts)
