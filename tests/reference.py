"""Dense and scalar reference implementations that tests compare the
library against: the per-agent movement, parking and dwell contracts, the
per-cell occupancy operations, the scalar strategy costs, the dense
predictor, the `{(cell, minute): count}` dict demand pipeline, the
per-group arrival lists, the unbuffered engine column store, and the
unvectorized dispatch kernels: assignment, the grid-sized capture
probability table, oracle cost matrix, capture blocking and competitor
stepping."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from curbsim.agents import DwellSpec, step_toward_batch
from curbsim.demand import ArrivalSeries, MinuteCounts, _round_half_up, _synth_rates, largest_remainder
from curbsim.errors import CapacityError, ConfigError, ValidationError
from curbsim.grid import CellCoord, OccupancyState, manhattan, manhattan_matrix
from curbsim.matching import INFEASIBLE
from curbsim.predictor import (
    BUCKET_MINUTES,
    CLAMP_LO,
    DEFAULT_LAMBDA_GRID,
    TREND_BUCKETS,
    TREND_DEFAULT,
    RidgeModel,
    feature_dim,
    fit_ridge,
    uniform_model,
)
from curbsim.strategies import capture_probability, t_budget

# --- agents ---

SEARCHING = "searching"
PARKED = "parked"
FAILED = "failed"


@dataclass
class Participant:
    id: int
    pos: CellCoord
    spawn_tick: int
    target: CellCoord | None = None
    status: str = SEARCHING
    dwell_remaining: int | None = None


@dataclass
class Competitor:
    id: int
    pos: CellCoord
    spawn_tick: int
    status: str = SEARCHING
    dwell_remaining: int | None = None


def visible_spots(c: Competitor, state: OccupancyState, r: int) -> set[CellCoord]:
    """Cells with a free spot within Manhattan distance r of the competitor."""
    free = state.capacity - state.occupied
    out = set()
    for k in np.flatnonzero(free > 0):
        cell = CellCoord(int(k) // state.n, int(k) % state.n)
        if manhattan(c.pos, cell) <= r:
            out.add(cell)
    return out


def _step_toward(pos: CellCoord, target: CellCoord, u: float) -> CellCoord:
    """One step reducing distance to target by exactly 1; u breaks axis ties."""
    di = target[0] - pos[0]
    dj = target[1] - pos[1]
    if di == 0 and dj == 0:
        return pos
    if di != 0 and dj != 0:
        move_i = u < 0.5
    else:
        move_i = di != 0
    if move_i:
        return CellCoord(pos[0] + (1 if di > 0 else -1), pos[1])
    return CellCoord(pos[0], pos[1] + (1 if dj > 0 else -1))


def step_participant(d: Participant, target: CellCoord, rng: np.random.Generator) -> CellCoord:
    return _step_toward(d.pos, target, rng.random())


def step_competitor(c: Competitor, visible: set[CellCoord], rng: np.random.Generator, n: int) -> CellCoord:
    """Head for the nearest visible spot cell, else take a uniform random
    in-bounds step (von Neumann neighborhood, boundary-clipped)."""
    if visible:
        dists = sorted((manhattan(c.pos, cell), cell) for cell in visible)
        best = dists[0][0]
        choices = [cell for dist, cell in dists if dist == best]
        cell = choices[int(rng.random() * len(choices))] if len(choices) > 1 else choices[0]
        return _step_toward(c.pos, cell, rng.random())
    i, j = c.pos
    neighbors = [(i + di, j + dj) for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1))
                 if 0 <= i + di < n and 0 <= j + dj < n]
    return CellCoord(*neighbors[int(rng.random() * len(neighbors))])


def resolve_parking(claimants: list[int], free_count: int, rng: np.random.Generator) -> set[int]:
    """Uniform draw of min(free_count, len(claimants)) winners, no replacement."""
    if free_count <= 0 or not claimants:
        return set()
    order = sorted(claimants)
    if free_count >= len(order):
        return set(order)
    picks = rng.permutation(len(order))[:free_count]
    return {order[int(p)] for p in picks}


def sample_dwell(spec: DwellSpec, rng: np.random.Generator) -> int:
    if spec.kind == "fixed":
        return max(spec.floor, int(round(spec.minutes)))
    draw = rng.lognormal(mean=math.log(spec.minutes), sigma=spec.sigma)
    return max(spec.floor, int(round(draw)))


# --- occupancy ---

def free_spots(state: OccupancyState) -> list[tuple[CellCoord, int]]:
    """Every cell with at least one free spot, with its free count."""
    free = state.capacity - state.occupied
    out = []
    for k in np.flatnonzero(free > 0):
        out.append((CellCoord(int(k) // state.n, int(k) % state.n), int(free[k])))
    return out


def occupy(state: OccupancyState, z: CellCoord) -> OccupancyState:
    """Take one spot in cell z. Errors on a full cell (an engine ordering bug)."""
    k = z[0] * state.n + z[1]
    if state.occupied[k] >= state.capacity[k]:
        raise CapacityError(f"occupy on full cell {tuple(z)} (capacity {state.capacity[k]})")
    state.occupied[k] += 1
    return state


def release(state: OccupancyState, z: CellCoord) -> OccupancyState:
    """Free one spot in cell z. Errors on an empty cell."""
    k = z[0] * state.n + z[1]
    if state.occupied[k] <= 0:
        raise CapacityError(f"release on empty cell {tuple(z)}")
    state.occupied[k] -= 1
    return state


# --- strategy costs ---

def oracle_cost(d_pos: CellCoord, s: CellCoord, c_pos, r: int) -> float:
    """Scalar competitor-aware cost for one (participant, spot) pair, given
    the competitor positions c_pos and the visibility radius r."""
    tau = manhattan(d_pos, s)
    comp = np.asarray(c_pos, dtype=np.int64).reshape(-1, 2)
    if len(comp) == 0:
        return float(tau)
    taus_c = np.abs(comp[:, 0] - s[0]) + np.abs(comp[:, 1] - s[1])
    min_c = int(taus_c.min())
    if tau < min_c:
        return float(tau)
    if min_c <= r and min_c < tau:
        return INFEASIBLE
    total = float(tau)
    starred = (taus_c > r) & (taus_c < tau)
    if starred.any():
        t_c = t_budget(tau, r)
        for idx in np.flatnonzero(starred):
            c = CellCoord(int(comp[idx, 0]), int(comp[idx, 1]))
            total += tau * capture_probability(c, s, r, t_c)
    return total


def approx_cost(tau: float, p_hat: float) -> float:
    """Effective distance: travel time divided by predicted availability."""
    if p_hat <= 0:
        raise ValueError("p_hat must be positive (clamping happens in the predictor)")
    return tau / p_hat


# --- predictor ---



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
            raise ValidationError(f"cell index outside the grid's 0..{n_cells - 1}")
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
    return fit_ridge(x, y, lam)


def fold_mses(eqs, dense: np.ndarray, cells: np.ndarray, y: np.ndarray, grid, folds: int) -> list[float]:
    """Mean fold MSE per grid lambda from the normal-equation blocks, one
    (lambda, fold) fit at a time: each fold's model is solved from the other
    folds' summed blocks (`_NormalEquations.solve`) and scored on the fold's
    own records. predictor._select_lambda solves these fits in one batch and
    scores them from each fold's blocks instead of its records."""
    fold = np.arange(len(y)) % folds
    trains = [type(eqs)(*(block[np.arange(folds) != f].sum(axis=0) for block in eqs)) for f in range(folds)]
    mses = []
    for lam in grid:
        errs = []
        for f, train in enumerate(trains):
            test = fold == f
            beta_a, beta_c = train.solve(lam)
            pred = np.einsum("ri,i->r", dense[test], beta_a) + beta_c[cells[test]]
            errs.append(float(np.mean((y[test] - pred) ** 2)))
        mses.append(float(np.mean(errs)))
    return mses


# --- demand: {(cell, minute): count} dicts ---


def counts_of(table: dict) -> MinuteCounts:
    return MinuteCounts.of([(k, m, v) for (k, m), v in table.items()])


def dict_of(rows: MinuteCounts) -> dict:
    return {(k, m): v for k, m, v in zip(*(col.tolist() for col in rows))}


@dataclass
class DictSeries:
    participants: dict
    competitors: dict


def dict_series(series: ArrivalSeries) -> DictSeries:
    return DictSeries(dict_of(series.participants), dict_of(series.competitors))


def group_arrivals(series: ArrivalSeries, group: str, horizon: int) -> tuple[np.ndarray, list[int]]:
    """One group's arrivals one by one, as the engine sliced them when it
    kept a store per group: every arrival's cell in (minute, cell) order,
    and for each minute 0..horizon the index of its first arrival."""
    rows = series.group(group)
    first_row = np.searchsorted(rows.minutes, np.arange(horizon + 1))
    before = np.concatenate([[0], np.cumsum(rows.counts)])
    return np.repeat(rows.cells, rows.counts), before[first_row].tolist()


def series_of(participants=None, competitors=None) -> ArrivalSeries:
    """An ArrivalSeries from {(cell, minute): count} dicts."""
    return ArrivalSeries(counts_of(participants or {}), counts_of(competitors or {}))


def disaggregate_dict(records, origin=None) -> dict:
    out: dict[tuple[int, int], int] = {}
    if not records:
        return out
    if origin is None:
        first = min(r.interval_start for r in records)
        origin = first.replace(hour=0, minute=0, second=0, microsecond=0)
    for rec in records:
        target = _round_half_up(rec.count * rec.overlap_fraction)
        if target == 0:
            continue
        start_min = int((rec.interval_start - origin).total_seconds() // 60)
        if start_min < 0:
            raise ValidationError(f"record at {rec.interval_start} precedes origin {origin}")
        for offset, c in enumerate(largest_remainder(target, 15)):
            if c:
                key = (rec.cell, start_min + offset)
                out[key] = out.get(key, 0) + c
    return out


def _diffuse_dict(src: dict, factor: float, dest: dict):
    """Per cell, minutes ascending: x = count*factor + carry, n = floor(x + 1e-9)."""
    by_cell: dict[int, list[tuple[int, int]]] = {}
    for (cell, minute), count in src.items():
        by_cell.setdefault(cell, []).append((minute, count))
    for cell in sorted(by_cell):
        carry = 0.0
        for minute, count in sorted(by_cell[cell]):
            x = count * factor + carry
            n = int(math.floor(x + 1e-9))
            carry = x - n
            if n:
                dest[(cell, minute)] = n


def split_demand_dict(minute_counts: dict, participant_share, competitor_share) -> DictSeries:
    series = DictSeries({}, {})
    for share, dest in ((participant_share, series.participants), (competitor_share, series.competitors)):
        _diffuse_dict(minute_counts, share, dest)
    return series


def synth_demand_dict(arrivals, n, horizon, shares, seed) -> DictSeries:
    rates = _synth_rates(arrivals, n, horizon, seed)
    series = DictSeries({}, {})
    total_share = shares[0] + shares[1]
    if total_share <= 0:
        return series
    p_frac = shares[0] / total_share
    for cell in range(rates.shape[0]):
        row = rates[cell]
        if row.sum() <= 0:
            continue
        cum_total = np.floor(np.cumsum(row) + 1e-9).astype(np.int64)
        totals = np.diff(cum_total, prepend=0)
        cum_p = np.floor(cum_total * p_frac + 1e-9).astype(np.int64)
        parts = np.diff(cum_p, prepend=0)
        comps = totals - parts
        for m in np.flatnonzero(parts):
            series.participants[(cell, int(m))] = int(parts[m])
        for m in np.flatnonzero(comps):
            series.competitors[(cell, int(m))] = int(comps[m])
    return series


def scale_series_dict(series: DictSeries, scale: float) -> DictSeries:
    out = DictSeries({}, {})
    _diffuse_dict(series.participants, scale, out.participants)
    _diffuse_dict(series.competitors, scale, out.competitors)
    return out


# --- engine stores ---


class Columns:
    """The engine's struct-of-arrays store as it was before its buffers:
    every append concatenates and every keep masks each column anew."""

    def __init__(self, **shapes):
        self.columns = tuple(shapes)
        for name, shape in shapes.items():
            setattr(self, name, np.zeros((0, *shape), np.int64))

    def __len__(self):
        return len(getattr(self, self.columns[0]))

    def append(self, *cols):
        for name, col in zip(self.columns, cols):
            setattr(self, name, np.concatenate([getattr(self, name), col]))

    def keep(self, mask):
        for name in self.columns:
            setattr(self, name, getattr(self, name)[mask])


# --- dispatch kernels: the straightforward forms of the vectorized ones ---


def sap_core(cost):
    """Min-cost perfect matching of all rows (nr <= nc, finite costs):
    Dijkstra-style augmentation, fresh buffers per row, a masked copy per
    step and a per-row loop for the row duals."""
    nr, nc = cost.shape
    u = np.zeros(nr, np.float64)
    v = np.zeros(nc, np.float64)
    col4row = np.full(nr, -1, np.int64)
    row4col = np.full(nc, -1, np.int64)
    inf = np.inf
    for cur_row in range(nr):
        shortest = np.full(nc, inf)
        pred = np.full(nc, cur_row, np.int64)
        done = np.zeros(nc, np.bool_)
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            reduced = min_val + cost[i] - u[i] - v
            better = (~done) & (reduced < shortest)
            shortest[better] = reduced[better]
            pred[better] = i
            masked = np.where(done, inf, shortest)
            j = np.argmin(masked)
            min_val = masked[j]
            done[j] = True
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
        u[cur_row] += min_val
        for r in range(nr):
            jj = col4row[r]
            if jj >= 0 and done[jj]:
                u[r] += min_val - shortest[jj]
        v -= np.where(done, min_val - shortest, 0.0)
        j = sink
        while True:
            i = pred[j]
            row4col[j] = i
            j_next = col4row[i]
            col4row[i] = j
            if i == cur_row:
                break
            j = j_next
    return col4row


def solve_dense(entries) -> list[tuple[int, int]]:
    """The (row, col) pairs of matching.hungarian_assign, rows ascending,
    over sap_core with the pairs gathered row by row."""
    entries = np.asarray(entries, dtype=np.float64)
    nr, nc = entries.shape
    if nr == 0 or nc == 0:
        return []
    transposed = nr > nc
    work = entries.T if transposed else entries
    finite = np.isfinite(work)
    if finite.all():
        filled = work
    else:
        big = work[finite].sum() + 2.0
        filled = np.where(finite, work, big)
    col4row = sap_core(np.ascontiguousarray(filled))
    pairs = []
    for r, c in enumerate(col4row):
        c = int(c)
        if not np.isfinite(work[r, c]):
            continue  # sentinel match = unmatched
        pairs.append((c, r) if transposed else (r, c))
    return sorted(pairs)


def capture_prob_table(r: int, max_disp: int) -> np.ndarray:
    """strategies.capture_prob_table over every displacement up to max_disp
    (a grid's 2 * (n - 1)), not only up to 2r."""
    table = np.zeros((r + 1, max_disp + 1, max_disp + 1))
    for t_c in range(r + 1):
        offs = [(a, b) for a in range(-t_c, t_c + 1) for b in range(-(t_c - abs(a)), t_c - abs(a) + 1)]
        offs_arr = np.array(offs).reshape(-1, 2)
        size = len(offs)
        for dx in range(max_disp + 1):
            for dy in range(max_disp + 1):
                if dx + dy <= r:
                    continue  # outside condition-3 domain, never looked up
                hits = np.abs(dx - offs_arr[:, 0]) + np.abs(dy - offs_arr[:, 1]) == r
                table[t_c, dx, dy] = hits.sum() / size
    return table


def oracle_cost_matrix(d_pos, cells, comp_pos, r, p_table):
    """strategies.oracle_cost_matrix with np.add.at bucketing of every far
    competitor, a second distance matrix and a p_table that covers every
    displacement (capture_prob_table above). It keeps the visible-competitor
    rule (cond2: inf where a competitor within r is nearer than the
    participant), which the blind competitors dispatch prices never meet."""
    d_pos = np.ascontiguousarray(d_pos, dtype=np.int64).reshape(-1, 2)
    cells = np.ascontiguousarray(cells, dtype=np.int64).reshape(-1, 2)
    comp_pos = np.ascontiguousarray(comp_pos, dtype=np.int64).reshape(-1, 2)
    nd, nf, ncp = len(d_pos), len(cells), len(comp_pos)
    td = manhattan_matrix(d_pos, cells).astype(np.float64)
    if ncp == 0 or nd == 0 or nf == 0:
        return td
    tc_mat = manhattan_matrix(comp_pos, cells)
    min_c = tc_mat.min(axis=0)
    cond2 = (min_c <= r)[None, :] & (min_c[None, :] < td)
    max_d = int(max(td.max(), tc_mat.max()))
    adx = np.abs(comp_pos[:, 0, None] - cells[None, :, 0])
    ady = np.abs(comp_pos[:, 1, None] - cells[None, :, 1])
    far = tc_mat > r
    td_int = td.astype(np.int64)
    psum = np.zeros_like(td)
    cols = np.broadcast_to(np.arange(nf), (ncp, nf))
    for t_c in range(1, r + 1):
        pvals = p_table[t_c, adx, ady]
        buckets = np.zeros((nf, max_d + 2))
        np.add.at(buckets, (cols[far], tc_mat[far]), pvals[far])
        cum = np.cumsum(buckets, axis=1)
        gathered = cum[np.arange(nf)[None, :], np.maximum(td_int - 1, 0)]
        tc_match = np.minimum(td_int - r - 1, r) == t_c
        eligible = tc_match & (td_int >= r + 2)
        psum = np.where(eligible, gathered, psum)
    out = td * (1.0 + psum)
    out[cond2] = np.inf
    return out


def capture_blockers(free_cells, free_counts, c_pos, r):
    """Per free cell, the ascending distances of the competitors allocated
    to it (each seeing competitor goes to its nearest free cell, at most
    free_counts[f] per cell), plus the mask of unallocated competitors."""
    nf = len(free_cells)
    nc = len(c_pos)
    blockers = [np.zeros(0, np.int64) for _ in range(nf)]
    unallocated = np.ones(nc, dtype=bool)
    if nf == 0 or nc == 0:
        return blockers, unallocated
    dc = manhattan_matrix(c_pos, free_cells)
    nearest = np.argmin(dc, axis=1)
    best = dc[np.arange(nc), nearest]
    sees = best <= r
    if sees.any():
        for f in np.unique(nearest[sees]):
            blockers[int(f)] = np.sort(best[sees & (nearest == f)])[: int(free_counts[f])]
        unallocated = ~sees
    return blockers, unallocated


def block_units(cost, d_pos, free_cells, free_counts, blockers):
    """Mark unit j of cell f infeasible, in place, for participants strictly
    farther from f than the j-th blocker; one column per spot unit."""
    tau = manhattan_matrix(d_pos, free_cells)
    col = 0
    for f, cnt in enumerate(free_counts):
        for j in range(int(cnt)):
            if j < len(blockers[f]):
                cost[tau[:, f] > blockers[f][j], col] = np.inf
            col += 1
    return cost


def step_competitors_batch(pos, free_cells, r, n, rng):
    """agents.step_competitors_batch with a noisy argmin over every row and
    the blind step mapped through per-call neighbour candidates."""
    m = len(pos)
    if m == 0:
        return pos
    nf = len(free_cells)
    if nf:
        dist = manhattan_matrix(pos, free_cells)
        noisy = dist + rng.random((m, nf)) * 0.9
        pick = np.argmin(noisy, axis=1)
        best = dist[np.arange(m), pick]
        sees = best <= r
    else:
        sees = np.zeros(m, dtype=bool)
        pick = None
    out = pos.copy()
    if nf and sees.any():
        out[sees] = step_toward_batch(pos[sees], free_cells[pick[sees]], rng)
    blind = ~sees
    nb = int(blind.sum())
    if nb:
        bi = pos[blind, 0]
        bj = pos[blind, 1]
        cand = np.stack(
            [
                np.stack([bi - 1, bj], axis=1),
                np.stack([bi + 1, bj], axis=1),
                np.stack([bi, bj - 1], axis=1),
                np.stack([bi, bj + 1], axis=1),
            ],
            axis=1,
        )
        ok = (cand[:, :, 0] >= 0) & (cand[:, :, 0] < n) & (cand[:, :, 1] >= 0) & (cand[:, :, 1] < n)
        u = rng.random(nb)
        idx = np.floor(u * ok.sum(axis=1)).astype(np.int64)
        order = np.cumsum(ok, axis=1) - 1
        sel = np.argmax(order == idx[:, None], axis=1)
        out[blind] = cand[np.arange(nb), sel] if n > 1 else pos[blind]
    return out
