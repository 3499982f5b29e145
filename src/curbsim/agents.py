"""Agent movement and dwell sampling, vectorized over all searchers.

Participants walk toward their dispatched target, one cell per tick.
Competitors random-walk until a free spot comes within their visibility
radius, then head for the nearest one and grab it when co-located. Every
function draws one uniform per decision; the per-agent scalar contracts they
implement live with the tests (tests/reference.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
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
            raise ConfigError(f"unknown dwell kind {self.kind!r}")
        if self.minutes <= 0 or self.sigma < 0 or self.floor < 1:
            raise ConfigError("dwell parameters out of range")


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
        # a 1x1 grid leaves no neighbour in bounds: the walker stays put
        out[blind] = cand[np.arange(nb), sel] if n > 1 else pos[blind]
    return out
