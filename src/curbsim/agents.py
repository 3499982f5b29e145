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

from .errors import ConfigError, check_int, check_number
from .grid import SightView


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
        check_number("dwell.minutes", self.minutes, 0, above=True)
        check_number("dwell.sigma", self.sigma, 0)
        check_int("dwell.floor", self.floor, 1)


def sample_dwell_batch(spec: DwellSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if spec.kind == "fixed":
        return np.full(count, max(spec.floor, int(round(spec.minutes))), dtype=np.int64)
    draws = rng.lognormal(mean=math.log(spec.minutes), sigma=spec.sigma, size=count)
    return np.maximum(spec.floor, draws.round()).astype(np.int64)


def step_toward_batch(pos: np.ndarray, target: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One step of each (m,2) position toward its target (none once there);
    one uniform per agent breaks the axis tie."""
    m = len(pos)
    if m == 0:
        return pos
    step = np.sign(target - pos)
    u = rng.random(m)
    # the row axis when only it is open, or when both are and u < 0.5; a
    # sign is +-1, odd, so the bitwise and is nonzero exactly when both are
    move_i = np.where(step[:, 0] & step[:, 1], u < 0.5, step[:, 0] != 0)
    step[:, 0] *= move_i
    step[:, 1] *= ~move_i
    return pos + step


@functools.lru_cache(maxsize=8)
def _neighbour_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per cell k = i*n + j: its in-bounds von Neumann neighbours packed in
    slot order up, down, left, right (row 4k + slot of an (4*n*n, 2) table;
    unused slots hold the cell itself) and how many there are."""
    i, j = np.divmod(np.arange(n * n), n)
    cand = np.stack([np.stack([i - 1, j], 1), np.stack([i + 1, j], 1),
                     np.stack([i, j - 1], 1), np.stack([i, j + 1], 1)], axis=1)
    ok = ((cand >= 0) & (cand < n)).all(axis=2)
    count = ok.sum(axis=1)
    table = np.repeat(np.stack([i, j], 1)[:, None, :], 4, axis=1)
    slot = np.cumsum(ok, axis=1) - 1
    rows = np.nonzero(ok)[0]
    table[rows, slot[ok]] = cand[ok]
    table = table.reshape(-1, 2)  # row 4k + slot
    table.flags.writeable = count.flags.writeable = False  # shared by every caller
    return table, count


def step_competitors_batch(
    pos: np.ndarray,
    free_cells: np.ndarray,
    sight: SightView | None,
    r: int,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One tick of competitor movement for all searchers at once.

    free_cells is the (nf,2) array of cells holding at least one free spot,
    and sight the SightView of pos against them (None when there is none).
    Draw order, unchanged by the view: one tie-break uniform per (competitor,
    free cell) for target choice, drawn as the full (m, nf) matrix though
    only the rows that see a free cell read it, then one per competitor for
    the step (random walkers consume the step draw). A walker with no
    in-bounds neighbour (a 1x1 grid) stays put.
    """
    m = len(pos)
    if m == 0:
        return pos
    out = np.empty_like(pos)
    sees = np.zeros(m, dtype=bool)
    if len(free_cells):
        u = rng.random((m, len(free_cells)))
        sees = sight.best <= r
        rows = sees.nonzero()[0]
        if len(rows):
            # dist + u*0.9 picks uniformly among minimal-distance cells
            score = u.take(rows, axis=0)
            score *= 0.9
            score += sight.dist.take(rows, axis=1).T
            pick = score.argmin(axis=1)
            out[rows] = step_toward_batch(pos.take(rows, axis=0), free_cells.take(pick, axis=0), rng)
    rows = (~sees).nonzero()[0]
    if len(rows):
        table, count = _neighbour_table(n)
        k = pos[:, 0].take(rows) * n + pos[:, 1].take(rows)
        # u * count >= 0, so the cast floors it
        slot = (rng.random(len(rows)) * count.take(k)).astype(np.int64)
        out[rows] = table.take(4 * k + slot, axis=0)
    return out
