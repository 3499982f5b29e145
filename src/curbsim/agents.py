"""Agent state and movement policies.

Participants walk toward their dispatched target, one cell per tick.
Competitors random-walk until a free spot comes within their visibility
radius, then head for the nearest one and grab it when co-located. Arrival
ties are broken uniformly at random.

Scalar functions below are the per-agent contracts; the *_batch variants are
the vectorized forms the engine runs each tick. Both draw one uniform per
decision, so a batch call and an agent-ordered scalar loop are statistically
identical (draw order differs, distributions do not).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import CellCoord, OccupancyState, manhattan, manhattan_matrix

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


@dataclass
class DwellSpec:
    """Parked-duration distribution; kind is "fixed" or "lognormal"."""

    kind: str = "lognormal"
    minutes: float = 45.0  # fixed value, or lognormal median
    sigma: float = 0.5
    floor: int = 1

    def __post_init__(self):
        if self.kind not in ("fixed", "lognormal"):
            raise ConfigError(f"unknown dwell kind {self.kind!r}")
        if self.minutes <= 0 or self.sigma < 0 or self.floor < 1:
            raise ConfigError("dwell parameters out of range")


def visible_spots(c: Competitor, state: OccupancyState, r: int) -> set[CellCoord]:
    """Cells with a free spot within Manhattan distance r of the competitor."""
    free = state.free()
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


def sample_dwell_batch(spec: DwellSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if spec.kind == "fixed":
        return np.full(count, max(spec.floor, int(round(spec.minutes))), dtype=np.int64)
    draws = rng.lognormal(mean=math.log(spec.minutes), sigma=spec.sigma, size=count)
    return np.maximum(spec.floor, np.round(draws)).astype(np.int64)


# --- vectorized engine paths ---

def step_toward_batch(pos: np.ndarray, target: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized _step_toward for (m,2) position/target arrays."""
    m = len(pos)
    if m == 0:
        return pos
    di = target[:, 0] - pos[:, 0]
    dj = target[:, 1] - pos[:, 1]
    u = rng.random(m)
    move_i = np.where((di != 0) & (dj != 0), u < 0.5, di != 0)
    out = pos.copy()
    out[:, 0] += np.where(move_i, np.sign(di), 0)
    out[:, 1] += np.where(~move_i & (dj != 0), np.sign(dj), 0)
    return out


def step_competitors_batch(
    pos: np.ndarray,
    free_cells: np.ndarray,
    r: int,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One tick of competitor movement for all searchers at once.

    free_cells is the (nf,2) array of cells holding at least one free spot.
    Draw order: one tie-break uniform per competitor for target choice, one
    per competitor for the step (random walkers consume the step draw).
    """
    m = len(pos)
    if m == 0:
        return pos
    nf = len(free_cells)
    if nf:
        dist = manhattan_matrix(pos, free_cells)
        # dist + u*0.9 picks uniformly among minimal-distance cells
        noisy = dist + rng.random((m, nf)) * 0.9
        pick = np.argmin(noisy, axis=1)
        best = dist[np.arange(m), pick]
        sees = best <= r
    else:
        sees = np.zeros(m, dtype=bool)
        pick = None

    out = pos.copy()
    if nf and sees.any():
        tgt = free_cells[pick[sees]]
        out[sees] = step_toward_batch(pos[sees], tgt, rng)
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
        )  # (nb, 4, 2)
        ok = (
            (cand[:, :, 0] >= 0)
            & (cand[:, :, 0] < n)
            & (cand[:, :, 1] >= 0)
            & (cand[:, :, 1] < n)
        )
        u = rng.random(nb)
        idx = np.floor(u * ok.sum(axis=1)).astype(np.int64)
        # map the uniform index into the surviving neighbor slots
        order = np.cumsum(ok, axis=1) - 1
        sel = np.argmax(order == idx[:, None], axis=1)
        out[blind] = cand[np.arange(nb), sel]
    return out
