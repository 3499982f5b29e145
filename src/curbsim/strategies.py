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

Capture probability is the favorable/total ratio over a competitor's
reachable Manhattan ball: endpoints after at most t_c uniform moves are
treated as equally likely, and an endpoint is favorable when it lands
exactly on the visibility ring of the spot.

Coordinated dispatch shuffles row/column presentation order with a seeded
stream before solving, so solver scan-order ties do not systematically favor
low-index participants or northwest cells; runs stay reproducible per seed.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import CellCoord, manhattan, manhattan_matrix
from .matching import INFEASIBLE, CostMatrix, hungarian_assign


class StrategyKind(enum.Enum):
    UNC_AGN = "unc-agn"
    CORD_AGN = "cord-agn"
    CORD_ORACLE = "cord-oracle"
    CORD_APPROX = "cord-approx"


COORDINATED = (StrategyKind.CORD_AGN, StrategyKind.CORD_ORACLE, StrategyKind.CORD_APPROX)


def parse_strategy(name) -> StrategyKind:
    """The strategy called `name`; ConfigError names the valid ones otherwise."""
    try:
        return StrategyKind(name)
    except ValueError:
        valid = ", ".join(k.value for k in StrategyKind)
        raise ConfigError(f"unknown strategy {name!r} (expected one of {valid})") from None


@dataclass
class OracleContext:
    """Live competitor positions and the visibility radius."""

    competitor_positions: np.ndarray  # (nc, 2) int
    r: int = 1

    def __post_init__(self):
        self.competitor_positions = np.asarray(self.competitor_positions, dtype=np.int64).reshape(-1, 2)
        if self.r < 0:
            raise ConfigError("visibility radius must be >= 0")


def t_budget(tau_ds: int, r: int) -> int:
    """Competitor move budget before the participant nears the visibility ring."""
    if tau_ds <= r:
        raise ValueError(f"t_budget requires tau > R (got tau={tau_ds}, R={r})")
    return min(tau_ds - r - 1, r)


def reachable_set(c: CellCoord, t_c: int, clip_to: int | None = None) -> set[CellCoord]:
    """Manhattan ball of radius t_c around c.

    Unclipped by default (size 1 + 2*t_c*(t_c+1)); pass clip_to=n to restrict
    to the n x n lattice.
    """
    if t_c < 0:
        raise ValueError("t_c must be >= 0")
    out = set()
    for di in range(-t_c, t_c + 1):
        rem = t_c - abs(di)
        for dj in range(-rem, rem + 1):
            z = CellCoord(c[0] + di, c[1] + dj)
            if clip_to is not None and not (0 <= z[0] < clip_to and 0 <= z[1] < clip_to):
                continue
            out.add(z)
    return out


def capture_probability(c: CellCoord, s: CellCoord, r: int, t_c: int, clip_to: int | None = None) -> float:
    """Probability the competitor's endpoint lands on the radius-r ring of s.

    Exact rational ratio by enumerating the reachable set. Requires the
    condition-3 setting tau(c, s) > r.
    """
    if manhattan(c, s) <= r:
        raise ValueError(f"capture_probability requires tau(c,s) > R (got {manhattan(c, s)} <= {r})")
    ball = reachable_set(c, t_c, clip_to)
    favorable = sum(1 for z in ball if manhattan(z, s) == r)
    return favorable / len(ball)


def capture_prob_table(r: int, max_disp: int) -> np.ndarray:
    """table[t_c, |di|, |dj|] = capture probability for a competitor displaced
    (di, dj) from the spot, for every budget t_c in 0..r.

    Displacement signs do not matter (the unclipped ball is symmetric).
    """
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


def unc_agn_targets(
    d_pos: np.ndarray,
    free_cells: np.ndarray,
    rng: np.random.Generator,
) -> dict[int, CellCoord]:
    """Greedy nearest-free-spot choice per participant; conflicts permitted."""
    nd = len(d_pos)
    if nd == 0 or len(free_cells) == 0:
        return {}
    dist = manhattan_matrix(d_pos, free_cells)
    noisy = dist + rng.random(dist.shape) * 0.9
    pick = np.argmin(noisy, axis=1)
    return {d: CellCoord(int(free_cells[pick[d], 0]), int(free_cells[pick[d], 1])) for d in range(nd)}


def cord_agn_matrix(d_pos: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Plain travel-time cost matrix (participants x spot cells)."""
    if len(d_pos) == 0 or len(cells) == 0:
        return np.zeros((len(d_pos), len(cells)))
    return manhattan_matrix(d_pos, cells).astype(np.float64)


def oracle_cost(d_pos: CellCoord, s: CellCoord, ctx: OracleContext, clip_to: int | None = None) -> float:
    """Scalar competitor-aware cost for one (participant, spot) pair."""
    tau = manhattan(d_pos, s)
    comp = ctx.competitor_positions
    if len(comp) == 0:
        return float(tau)
    taus_c = np.abs(comp[:, 0] - s[0]) + np.abs(comp[:, 1] - s[1])
    min_c = int(taus_c.min())
    if tau < min_c:
        return float(tau)
    if min_c <= ctx.r and min_c < tau:
        return INFEASIBLE
    total = float(tau)
    starred = (taus_c > ctx.r) & (taus_c < tau)
    if starred.any():
        t_c = t_budget(tau, ctx.r)
        for idx in np.flatnonzero(starred):
            c = CellCoord(int(comp[idx, 0]), int(comp[idx, 1]))
            total += tau * capture_probability(c, s, ctx.r, t_c, clip_to)
    return total


def approx_cost(tau: float, p_hat: float) -> float:
    """Effective distance: travel time divided by predicted availability."""
    if p_hat <= 0:
        raise ValueError("p_hat must be positive (clamping happens in the predictor)")
    return tau / p_hat


def oracle_cost_matrix(d_pos, cells, comp_pos, r, p_table):
    """(nd, nf) competitor-aware cost matrix; inf marks infeasible pairs."""
    d_pos = np.ascontiguousarray(d_pos, dtype=np.int64).reshape(-1, 2)
    cells = np.ascontiguousarray(cells, dtype=np.int64).reshape(-1, 2)
    comp_pos = np.ascontiguousarray(comp_pos, dtype=np.int64).reshape(-1, 2)
    nd, nf, ncp = len(d_pos), len(cells), len(comp_pos)
    td = manhattan_matrix(d_pos, cells).astype(np.float64)
    if ncp == 0 or nd == 0 or nf == 0:
        return td
    tc_mat = manhattan_matrix(comp_pos, cells)  # (ncp, nf)
    min_c = tc_mat.min(axis=0)
    cond2 = (min_c <= r)[None, :] & (min_c[None, :] < td)
    max_d = int(max(td.max(), tc_mat.max()))
    # bucket competitors by distance per cell, accumulate capture probability,
    # then prefix-sum so sum_{tau_c < tau_d} is a single gather
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


def dispatch(
    kind: StrategyKind,
    d_pos: np.ndarray,
    free_cells: np.ndarray,
    free_counts: np.ndarray,
    rng: np.random.Generator,
    ctx: OracleContext | None = None,
    p_hat: np.ndarray | None = None,
    p_table: np.ndarray | None = None,
    unit_block_dist: list | None = None,
) -> dict[int, CellCoord]:
    """Per-tick targets: participant row index -> spot cell.

    free_cells/free_counts describe the spot units offered to the strategy.
    A cell with f free spots contributes f identical columns, so each spot
    unit serves at most one participant. For the oracle, unit_block_dist
    (one ascending array of capturing-competitor distances per cell) marks
    unit j of a cell infeasible for participants strictly farther than the
    j-th capturer; a single competitor can take only a single spot, so it
    never poisons a whole multi-spot cell.
    """
    d_pos = np.asarray(d_pos, dtype=np.int64).reshape(-1, 2)
    free_cells = np.asarray(free_cells, dtype=np.int64).reshape(-1, 2)
    free_counts = np.asarray(free_counts, dtype=np.int64).reshape(-1)
    nd = len(d_pos)
    if nd == 0 or len(free_cells) == 0:
        return {}

    if kind is StrategyKind.UNC_AGN:
        return unc_agn_targets(d_pos, free_cells, rng)

    if kind is StrategyKind.CORD_AGN:
        cell_cost = cord_agn_matrix(d_pos, free_cells)
    elif kind is StrategyKind.CORD_ORACLE:
        if ctx is None:
            raise ConfigError("cord-oracle dispatch requires an OracleContext")
        if p_table is None:
            max_disp = int(
                max(
                    np.abs(ctx.competitor_positions[:, 0, None] - free_cells[None, :, 0]).max(initial=0),
                    np.abs(ctx.competitor_positions[:, 1, None] - free_cells[None, :, 1]).max(initial=0),
                )
            )
            p_table = capture_prob_table(ctx.r, max_disp)
        cell_cost = oracle_cost_matrix(d_pos, free_cells, ctx.competitor_positions, ctx.r, p_table)
    elif kind is StrategyKind.CORD_APPROX:
        if p_hat is None:
            raise ConfigError("cord-approx dispatch requires per-cell availability predictions")
        cell_cost = cord_agn_matrix(d_pos, free_cells) / np.asarray(p_hat, dtype=np.float64)[None, :]
    else:
        raise ConfigError(f"unknown strategy {kind}")

    unit_cell = np.repeat(np.arange(len(free_cells)), free_counts)
    cost = cell_cost[:, unit_cell]
    if unit_block_dist is not None:
        tau = manhattan_matrix(d_pos, free_cells)
        col = 0
        for f, cnt in enumerate(free_counts):
            blockers = unit_block_dist[f]
            for j in range(int(cnt)):
                if j < len(blockers):
                    cost[tau[:, f] > blockers[j], col] = np.inf
                col += 1
    # randomize presentation so equal-cost optima do not bias by index order
    row_perm = rng.permutation(nd)
    col_perm = rng.permutation(len(unit_cell))
    assignment = hungarian_assign(CostMatrix(cost[np.ix_(row_perm, col_perm)]))
    out: dict[int, CellCoord] = {}
    for pr, pc in assignment.pairs:
        d = int(row_perm[pr])
        f = int(unit_cell[col_perm[pc]])
        out[d] = CellCoord(int(free_cells[f, 0]), int(free_cells[f, 1]))
    return out
