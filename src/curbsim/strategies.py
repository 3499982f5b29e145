"""The four dispatch policies.

unc-agn    every participant independently heads for its nearest free spot
           (conflicts allowed, per-participant ties uniform at random).
cord-agn   Hungarian match on plain travel times.
cord-oracle Hungarian match on competitor-aware piecewise costs: a pair costs
           its travel time when the participant is strictly closest, is
           infeasible when a competitor inside the visibility radius is
           closer, and otherwise inflates travel time by the total capture
           probability of nearer-but-blind competitors.
cord-approx Hungarian match on travel time divided by the predicted
           availability of the spot's cell.

Each strategy receives only its own information: every one sees the free
spots and the participants' positions, cord-oracle adds the active
competitors' sight view and the visibility radius R, cord-approx adds the
per-cell availability predictions. `dispatch` owns every pricing step.

The sight view (`grid.SightView`) holds the competitors' positions, their
cell-major distances to the free cells and each one's nearest free cell; the
engine builds it once per tick and competitor stepping reads it too. The
oracle computes no competitor distance of its own: `capture_limits` reads
the nearest cells, and `oracle_cost_matrix` reads the blind competitors'
columns plus the participant matrix `dispatch` already holds.

The oracle first allocates captures (`capture_limits`): each competitor that
sees a free cell is committed to its nearest one, at most one competitor per
spot unit, and the unit is infeasible for participants strictly farther
from the cell than its capturer. The remaining, blind competitors price the
pairs through their capture probability: the favorable/total ratio over a
competitor's reachable Manhattan ball, where endpoints after at most t_c
uniform moves are treated as equally likely and an endpoint is favorable
when it lands exactly on the visibility ring of the spot. Since t_c <= R, a
competitor more than 2R from the spot captures it with probability exactly
0, so the probability table depends on R alone and spans displacements up
to 2R.

Coordinated dispatch shuffles row/column presentation order with a seeded
stream before solving, so solver scan-order ties do not systematically favor
low-index participants or northwest cells; runs stay reproducible per seed.
"""
from __future__ import annotations

import enum
import functools

import numpy as np

from .errors import ConfigError
from .grid import CellCoord, SightView, manhattan, manhattan_matrix
from .matching import CostMatrix, hungarian_assign


class StrategyKind(enum.Enum):
    UNC_AGN = "unc-agn"
    CORD_AGN = "cord-agn"
    CORD_ORACLE = "cord-oracle"
    CORD_APPROX = "cord-approx"


def parse_strategy(name) -> StrategyKind:
    """The strategy called `name`; ConfigError names the valid ones otherwise."""
    try:
        return StrategyKind(name)
    except ValueError:
        valid = ", ".join(k.value for k in StrategyKind)
        raise ConfigError(f"unknown strategy {name!r} (expected one of {valid})") from None


def t_budget(tau_ds: int, r: int) -> int:
    """Competitor move budget before the participant nears the visibility ring."""
    if tau_ds <= r:
        raise ValueError(f"t_budget requires tau > R (got tau={tau_ds}, R={r})")
    return min(tau_ds - r - 1, r)


def reachable_set(c: CellCoord, t_c: int) -> set[CellCoord]:
    """Manhattan ball of radius t_c around c, unclipped (size
    1 + 2*t_c*(t_c+1))."""
    if t_c < 0:
        raise ValueError("t_c must be >= 0")
    out = set()
    for di in range(-t_c, t_c + 1):
        rem = t_c - abs(di)
        for dj in range(-rem, rem + 1):
            out.add(CellCoord(c[0] + di, c[1] + dj))
    return out


def capture_probability(c: CellCoord, s: CellCoord, r: int, t_c: int) -> float:
    """Probability the competitor's endpoint lands on the radius-r ring of s.

    Exact rational ratio by enumerating the reachable set. Requires the
    condition-3 setting tau(c, s) > r.
    """
    if manhattan(c, s) <= r:
        raise ValueError(f"capture_probability requires tau(c,s) > R (got {manhattan(c, s)} <= {r})")
    ball = reachable_set(c, t_c)
    favorable = sum(1 for z in ball if manhattan(z, s) == r)
    return favorable / len(ball)


@functools.lru_cache(maxsize=8)
def capture_prob_table(r: int) -> np.ndarray:
    """table[t_c, |di|, |dj|] = capture probability for a competitor displaced
    (di, dj) from the spot, for every budget t_c in 0..r and every
    displacement up to 2r (beyond it the probability is exactly 0).

    Displacement signs do not matter (the unclipped ball is symmetric).
    """
    ext = 2 * r
    table = np.zeros((r + 1, ext + 1, ext + 1))
    origin = CellCoord(0, 0)
    for t_c in range(r + 1):
        for dx in range(ext + 1):
            for dy in range(ext + 1):
                if dx + dy > r:  # the condition-3 domain; nothing else is looked up
                    table[t_c, dx, dy] = capture_probability(origin, CellCoord(dx, dy), r, t_c)
    table.flags.writeable = False  # shared by every caller
    return table


def capture_limits(sight: SightView, free_counts, r):
    """Capacity-aware capture estimate for the oracle's offer.

    Each competitor that can see a free cell is allocated to its nearest
    one (a competitor parks at most one spot, so a lone competitor cannot
    poison a whole multi-spot cell). Returns one distance limit per spot
    unit, cells in order and units within a cell by ascending capturer
    distance (unit j of a cell is lost to a participant strictly farther
    than the j-th capturer; inf where the cell has fewer capturers), and
    the mask of unallocated competitors; allocated ones are committed
    this tick and leave the pricing. sight gives each competitor's nearest
    distance and cell.
    """
    limit = np.full(int(free_counts.sum()), np.inf)
    sees = sight.best <= r
    capturers = sees.nonzero()[0]
    if len(capturers) == 0:
        return limit, ~sees
    cell, dist = sight.nearest.take(capturers), sight.best.take(capturers)
    order = np.lexsort((dist, cell))
    cell, dist = cell.take(order), dist.take(order)
    # rank of each capturer within its cell; a cell keeps free_counts of them
    rank = np.arange(len(cell)) - cell.searchsorted(cell)
    kept = (rank < free_counts.take(cell)).nonzero()[0]
    unit_start = free_counts.cumsum() - free_counts
    limit[unit_start.take(cell.take(kept)) + rank.take(kept)] = dist.take(kept)
    return limit, ~sees


def oracle_cost_matrix(tau, tc, comp_pos, cells, r):
    """(nd, nf) competitor-aware cost matrix; inf marks infeasible pairs.

    tau is the (nd, nf) int64 participant travel-time matrix, tc the
    (nf, nc) cell-major distances from the free cells (nf, 2) to the
    competitors at comp_pos (nc, 2).
    """
    nf = len(cells)
    if tc.size == 0:
        return tau.astype(np.float64)
    min_c = tc.min(axis=1)
    cond2 = (min_c <= r)[None, :] & (min_c[None, :] < tau)
    # bucket the blind competitors that can capture (R < distance <= 2R) by
    # (cell, distance) with one flat bincount; the cell-major nonzero visits
    # each bucket's entries in ascending competitor order, so each bucket
    # sums in competitor order. Then prefix-sum so sum_{tau_c < tau_d} is a
    # single gather; farther competitors would only add exact zeros
    width = 2 * r + 1
    near = (tc > r) & (tc <= 2 * r)
    cell, comp = near.nonzero()
    bucket = cell * width + tc[near]
    adx = np.abs(comp_pos[:, 0].take(comp) - cells[:, 0].take(cell))
    ady = np.abs(comp_pos[:, 1].take(comp) - cells[:, 1].take(cell))
    below = np.arange(nf) * width + np.minimum(np.maximum(tau - 1, 0), 2 * r)
    # the participant's budget min(tau_d - R - 1, R), 0 where tau_d <= R + 1
    t_of = np.minimum(np.maximum(tau - (r + 1), 0), r)
    p_table = capture_prob_table(r)
    psum = np.zeros(tau.shape)
    for t_c in range(1, r + 1):
        pvals = p_table[t_c, adx, ady]
        cum = np.bincount(bucket, pvals, minlength=nf * width).reshape(nf, width).cumsum(axis=1)
        eligible = t_of == t_c
        psum[eligible] = cum.ravel()[below[eligible]]
    out = tau * (1.0 + psum)
    out[cond2] = np.inf
    return out


def dispatch(
    kind: StrategyKind,
    d_pos: np.ndarray,
    free_cells: np.ndarray,
    free_counts: np.ndarray,
    rng: np.random.Generator,
    sight: SightView | None = None,
    r: int | None = None,
    p_hat: np.ndarray | None = None,
) -> np.ndarray:
    """Per-tick targets as an (m, 2) int64 array of (participant row, index
    into free_cells), sorted by participant row; (0, 2) when nothing is
    assigned.

    free_cells/free_counts describe the spot units offered to the strategy.
    A cell with f free spots contributes f identical columns, so each spot
    unit serves at most one participant. cord-oracle needs sight, the
    SightView of the active competitors against free_cells, and the
    visibility radius r; cord-approx needs p_hat, the predicted
    availability of each free cell.
    """
    d_pos = np.asarray(d_pos, dtype=np.int64).reshape(-1, 2)
    free_cells = np.asarray(free_cells, dtype=np.int64).reshape(-1, 2)
    free_counts = np.asarray(free_counts, dtype=np.int64).reshape(-1)
    nd = len(d_pos)
    if nd == 0 or len(free_cells) == 0:
        return np.zeros((0, 2), np.int64)
    tau = manhattan_matrix(d_pos, free_cells)

    if kind is StrategyKind.UNC_AGN:
        # nearest free spot per participant, ties uniform; conflicts permitted
        pick = (tau + rng.random(tau.shape) * 0.9).argmin(axis=1)
        return np.stack([np.arange(nd), pick], axis=1)

    # per-cell costs; a cell with f free spots becomes f identical unit columns
    if kind is StrategyKind.CORD_AGN:
        cost = tau.astype(np.float64)
    elif kind is StrategyKind.CORD_ORACLE:
        if sight is None or r is None or r < 0:
            raise ConfigError("cord-oracle dispatch requires the competitors' sight view and a radius R >= 0")
        limit, unallocated = capture_limits(sight, free_counts, r)
        blind = unallocated.nonzero()[0]
        cost = oracle_cost_matrix(tau, sight.dist.take(blind, axis=1), sight.pos.take(blind, axis=0),
                                  free_cells, r)
    elif kind is StrategyKind.CORD_APPROX:
        if p_hat is None:
            raise ConfigError("cord-approx dispatch requires per-cell availability predictions")
        cost = tau / np.asarray(p_hat, dtype=np.float64)
    else:
        raise ConfigError(f"unknown strategy {kind}")

    # randomize presentation so equal-cost optima do not bias by index order;
    # one gather builds the presented unit matrix
    unit_cell = np.arange(len(free_cells)).repeat(free_counts)
    row_perm = rng.permutation(nd)
    col_perm = rng.permutation(len(unit_cell))
    col_cell = unit_cell.take(col_perm)
    cost = cost.take(row_perm, axis=0).take(col_cell, axis=1)
    if kind is StrategyKind.CORD_ORACLE:
        cost[tau.take(row_perm, axis=0).take(col_cell, axis=1) > limit.take(col_perm)] = np.inf
    assignment = hungarian_assign(CostMatrix(cost))
    rows = row_perm.take(assignment.row)
    order = rows.argsort()
    return np.stack([rows.take(order), col_cell.take(assignment.col).take(order)], axis=1)
