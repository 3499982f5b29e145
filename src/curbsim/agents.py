"""Agent movement and dwell sampling, vectorized over all searchers.

Participants walk toward their dispatched target, one cell per tick.
Competitors random-walk until a free spot comes within their visibility
radius, then head for the nearest one and grab it when co-located. Every
function draws one uniform per decision; the per-agent scalar contracts they
implement live with the tests (tests/reference.py).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_int
from .grid import manhattan_matrix


@dataclass
class DwellSpec:
    """Parked-duration distribution; kind is "fixed" or "lognormal"."""

    kind: str = "lognormal"
    minutes: float = 45.0  # fixed value, or lognormal median
    sigma: float = 0.5
    floor: int = 1

    def __post_init__(self):
        if self.kind not in ("fixed", "lognormal"):
            raise ConfigError(f"dwell.kind must be 'fixed' or 'lognormal', got {self.kind!r}")
        # Python's json reads NaN and Infinity; either would cast to INT64_MIN
        if not (math.isfinite(self.minutes) and self.minutes > 0):
            raise ConfigError(f"dwell.minutes must be > 0 and finite, got {self.minutes}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError(f"dwell.sigma must be >= 0 and finite, got {self.sigma}")
        check_int("dwell.floor", self.floor, 1)


def sample_dwell_batch(spec: DwellSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if spec.kind == "fixed":
        return np.full(count, max(spec.floor, int(round(spec.minutes))), dtype=np.int64)
    draws = rng.lognormal(mean=math.log(spec.minutes), sigma=spec.sigma, size=count)
    return np.maximum(spec.floor, np.round(draws)).astype(np.int64)


def step_toward_batch(pos: np.ndarray, target: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One step of each (m,2) position toward its target (none once there);
    one uniform per agent breaks the axis tie."""
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


@functools.lru_cache(maxsize=8)
def _neighbour_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per cell k = i*n + j: its in-bounds von Neumann neighbours packed in
    slot order up, down, left, right ((n*n, 4, 2); unused slots hold the
    cell itself) and how many there are."""
    i, j = np.divmod(np.arange(n * n), n)
    cand = np.stack([np.stack([i - 1, j], 1), np.stack([i + 1, j], 1),
                     np.stack([i, j - 1], 1), np.stack([i, j + 1], 1)], axis=1)
    ok = ((cand >= 0) & (cand < n)).all(axis=2)
    count = ok.sum(axis=1)
    table = np.repeat(np.stack([i, j], 1)[:, None, :], 4, axis=1)
    slot = np.cumsum(ok, axis=1) - 1
    rows = np.nonzero(ok)[0]
    table[rows, slot[ok]] = cand[ok]
    table.flags.writeable = count.flags.writeable = False  # shared by every caller
    return table, count


def step_competitors_batch(
    pos: np.ndarray,
    free_cells: np.ndarray,
    r: int,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One tick of competitor movement for all searchers at once.

    free_cells is the (nf,2) array of cells holding at least one free spot.
    Draw order: one tie-break uniform per (competitor, free cell) for target
    choice, one per competitor for the step (random walkers consume the step
    draw). A walker with no in-bounds neighbour (a 1x1 grid) stays put.
    """
    m = len(pos)
    if m == 0:
        return pos
    out = pos.copy()
    nf = len(free_cells)
    sees = np.zeros(m, dtype=bool)
    if nf:
        dist = manhattan_matrix(pos, free_cells)
        noise = rng.random((m, nf))
        sees = dist.min(axis=1) <= r
        if sees.any():
            # dist + u*0.9 picks uniformly among minimal-distance cells
            pick = np.argmin(dist[sees] + noise[sees] * 0.9, axis=1)
            out[sees] = step_toward_batch(pos[sees], free_cells[pick], rng)
    blind = ~sees
    nb = int(blind.sum())
    if nb:
        table, count = _neighbour_table(n)
        k = pos[blind, 0] * n + pos[blind, 1]
        idx = np.floor(rng.random(nb) * count[k]).astype(np.int64)
        out[blind] = table[k, idx]
    return out
