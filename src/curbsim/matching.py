"""Exact minimum-cost bipartite assignment over rectangular cost matrices.

Solver: shortest-augmenting-path (Jonker-Volgenant flavour), O(nr^2 * nc)
after orienting the matrix so rows are the smaller side. Infeasible entries
use the INFEASIBLE sentinel (inf); internally they become a finite penalty
larger than the sum of all finite entries, which makes the solver maximize
feasible-match cardinality first and total cost second. Matches landing on
the sentinel are stripped from the result.

The kernel is numpy-vectorized; ties between equal-cost optima resolve by the
fixed scan order, so identical inputs always yield identical assignments.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

INFEASIBLE = float("inf")


@dataclass
class CostMatrix:
    """Participants x spot-unit costs; entries are finite >= 0 or INFEASIBLE."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 2:
            raise ValidationError("cost matrix must be 2-D")
        finite = np.isfinite(self.entries)
        if np.isnan(self.entries).any():
            raise ValidationError("cost matrix contains NaN")
        if (self.entries[finite] < 0).any():
            raise ValidationError("finite costs must be non-negative")

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


@dataclass
class Assignment:
    pairs: set[tuple[int, int]]
    total_cost: float


def _sap_core(cost):
    """Min-cost perfect matching of all rows; requires nr <= nc, finite costs.

    Returns col4row (row -> matched column). Dijkstra-style augmentation with
    the column relax step vectorized.
    """
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


def solve_dense(entries: np.ndarray) -> list[tuple[int, int]]:
    """Assignment pairs for a raw matrix (may be rectangular, may hold inf)."""
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
    col4row = _sap_core(np.ascontiguousarray(filled))
    pairs = []
    for r, c in enumerate(col4row):
        c = int(c)
        if not np.isfinite(work[r, c]):
            continue  # sentinel match = unmatched
        pairs.append((c, r) if transposed else (r, c))
    return sorted(pairs)


def hungarian_assign(m: CostMatrix) -> Assignment:
    """Minimum-cost maximum-cardinality assignment restricted to finite entries."""
    pairs = solve_dense(m.entries)
    total = float(sum(m.entries[r, c] for r, c in pairs))
    return Assignment(set(pairs), total)
