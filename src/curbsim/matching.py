"""Exact minimum-cost bipartite assignment over rectangular cost matrices.

Solver: shortest-augmenting-path (Jonker-Volgenant flavour), O(nr^2 * nc)
after orienting the matrix so rows are the smaller side. Infeasible entries
use the INFEASIBLE sentinel (inf); internally they become a finite penalty
larger than the sum of all finite entries, which makes the solver maximize
feasible-match cardinality first and total cost second. Matches landing on
the sentinel are stripped from the result.

The result is a pair of index arrays, rows ascending: row[i] takes col[i].

Each row is augmented by a Dijkstra search over the columns, with the relax
step vectorized over buffers allocated once per solve. A column's distance
is final once it is scanned, so the dual update after an augmentation
touches only the scanned columns (their v) and the rows matched to them
(their u), one scalar update each; a row whose nearest column is free
moves only its own u. Every dual gets the same floating-point
operations as in the textbook update over all rows and columns
(tests/reference.py keeps that form), so ties between equal-cost optima
resolve by the same fixed scan order and identical inputs always yield
identical assignments.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

INFEASIBLE = float("inf")
_NO_PAIRS = np.zeros(0, np.int64)


@dataclass
class CostMatrix:
    """Participants x spot-unit costs; entries are finite >= 0 or INFEASIBLE."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 2:
            raise ValidationError("cost matrix must be 2-D")
        # a minimum >= 0 (inf included) rules out NaN and negatives, -inf
        # among them, in one pass; the solver would read -inf as INFEASIBLE
        if self.entries.size and not self.entries.min() >= 0:
            if np.isnan(self.entries).any():
                raise ValidationError("cost matrix contains NaN")
            raise ValidationError("costs must be >= 0 or INFEASIBLE (+inf)")

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


@dataclass
class Assignment:
    """Matched (row, col) index arrays, rows ascending, and their summed cost."""

    row: np.ndarray
    col: np.ndarray
    total_cost: float

    @property
    def pairs(self) -> set[tuple[int, int]]:
        return set(zip(self.row.tolist(), self.col.tolist()))


def _sap_core(cost):
    """Min-cost perfect matching of all rows; requires nr <= nc, finite costs.

    Returns col4row (row -> matched column). During a search, `masked`
    holds each open column's tentative distance and inf once it is scanned;
    the scanned columns' distances are kept in scan order in `dists`.
    """
    nr, nc = cost.shape
    rows = list(cost)
    u = np.zeros(nr, np.float64)
    v = np.zeros(nc, np.float64)
    col4row = [-1] * nr
    row4col = [-1] * nc
    inf = np.inf
    masked = np.empty(nc, np.float64)
    reduced = np.empty(nc, np.float64)
    v_open = np.empty(nc, np.float64)
    pred = np.empty(nc, np.int64)
    better = np.empty(nc, np.bool_)
    for cur_row in range(nr):
        # first scan from cur_row: every column is open and at distance inf,
        # and u[cur_row] is still 0, so subtracting it would change no bit
        np.add(rows[cur_row], 0.0, out=masked)
        np.subtract(masked, v, out=masked)
        j = int(masked.argmin())
        min_val = masked[j]
        if row4col[j] == -1:
            # the nearest column is free: only this row's dual moves
            u[cur_row] += min_val
            row4col[j], col4row[cur_row] = cur_row, j
            continue
        # v_open is v on open columns and -inf on scanned ones, where the
        # reduced cost becomes +inf and so never beats masked
        np.copyto(v_open, v)
        pred.fill(cur_row)
        scanned, dists, via = [], [], []
        while True:
            masked[j] = inf
            v_open[j] = -inf
            scanned.append(j)
            dists.append(min_val)
            i = row4col[j]
            if i == -1:
                break
            via.append(i)
            np.add(rows[i], min_val, out=reduced)
            np.subtract(reduced, u[i], out=reduced)
            np.subtract(reduced, v_open, out=reduced)
            np.less(reduced, masked, out=better)
            np.putmask(masked, better, reduced)
            np.putmask(pred, better, i)
            j = int(masked.argmin())
            min_val = masked[j]
        u[cur_row] += min_val
        # a scan visits few columns, and one scalar update per visited row
        # and column is cheaper than a fancy-indexed update of that size
        for i, dist in zip(via, dists):
            u[i] += min_val - dist
        for j, dist in zip(scanned, dists):
            v[j] -= min_val - dist
        j = scanned[-1]
        while True:
            i = int(pred[j])
            row4col[j] = i
            j, col4row[i] = col4row[i], j
            if i == cur_row:
                break
    return np.array(col4row, np.int64)


def _solve(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matched (row, col) index arrays of a raw matrix (may be rectangular,
    may hold inf), rows ascending."""
    nr, nc = entries.shape
    if nr == 0 or nc == 0:
        return _NO_PAIRS, _NO_PAIRS
    transposed = nr > nc
    work = entries.T if transposed else entries
    finite = np.isfinite(work)
    if np.count_nonzero(finite) == finite.size:
        col = _sap_core(np.ascontiguousarray(work))
        row = np.arange(len(col))
    else:
        big = work[finite].sum() + 2.0
        col4row = _sap_core(np.ascontiguousarray(np.where(finite, work, big)))
        row = finite[np.arange(len(col4row)), col4row].nonzero()[0]  # sentinel match = unmatched
        col = col4row[row]
    if transposed:
        order = np.argsort(col)
        row, col = col[order], row[order]
    return row, col


def hungarian_assign(m: CostMatrix) -> Assignment:
    """Minimum-cost maximum-cardinality assignment restricted to finite entries."""
    row, col = _solve(m.entries)
    total = float(sum(m.entries[row, col].tolist()))  # summed in pair order
    return Assignment(row, col, total)
