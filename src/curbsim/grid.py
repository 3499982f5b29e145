"""City lattice: cell labels, spot capacities and live occupancy.

The city is an n x n grid. Cell k (row-major, k = i*n + j) carries an opaque
7-character label and a spot capacity; travel time between cells is their
Manhattan distance, one cell per tick. Spots are fungible within a cell.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .errors import CapacityError, ConfigError, Table, ValidationError


class CellCoord(NamedTuple):
    i: int
    j: int


def manhattan(a: CellCoord, b: CellCoord) -> int:
    """Travel time (in ticks) between two cells."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def manhattan_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Manhattan distances between coordinate arrays (na,2) and (nb,2)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return np.abs(a[:, None, 0] - b[None, :, 0]) + np.abs(a[:, None, 1] - b[None, :, 1])


class SightView(NamedTuple):
    """Searchers against one tick's free cells, built once per tick and read
    by the oracle's capture allocation and pricing and by competitor
    stepping."""

    pos: np.ndarray  # (m, 2) int64 searcher positions
    dist: np.ndarray  # (nf, m) Manhattan distances, cell-major, in the narrowest exact integer type
    best: np.ndarray  # (m,) int64 distance to the nearest free cell
    nearest: np.ndarray  # (m,) int64 index of the first nearest free cell


_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
# (type, lowest, highest value), narrowest first
_NARROW = tuple((t, int(np.iinfo(t).min), int(np.iinfo(t).max)) for t in (np.int16, np.int32))


def sight_dtype(lo: int, hi: int, nf: int):
    """The narrowest of int16, int32 and int64 holding every coordinate in
    lo..hi, their differences and every key dist * nf + index of nf cells
    (dist <= 2 * (hi - lo), so a key is below (2 * (hi - lo) + 1) * nf)."""
    for kind, low, high in _NARROW:
        if low <= lo and hi <= high and (2 * (hi - lo) + 1) * nf <= high:
            return kind
    return np.int64


def sight_view(pos, cells) -> SightView:
    """The SightView of searchers pos (m, 2) against free cells (nf, 2).

    The distances are cell-major because the readers reduce over the cells:
    a reduction down nf columns m wide is several times cheaper than one
    along m rows nf wide. They are built in `sight_dtype` of the
    coordinates' range, exact and about half the cost of int64 on a city
    grid. One min over dist * nf + cell index gives each searcher's nearest
    distance and, among equally near cells, the lowest index, as argmin
    does. With no free cell, best is the int64 maximum, so no searcher sees
    one, and nearest is 0.
    """
    pos = np.asarray(pos, dtype=np.int64).reshape(-1, 2)
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    nf = len(cells)
    # the coordinates' range (an empty array leaves it as it was); the bare
    # ufunc reductions cost less than the methods on a small view
    lo = int(np.minimum.reduce(pos, None, initial=np.minimum.reduce(cells, None, initial=_INT64_MAX)))
    hi = int(np.maximum.reduce(pos, None, initial=np.maximum.reduce(cells, None, initial=_INT64_MIN)))
    kind = sight_dtype(lo, hi, nf)
    at, to = cells.astype(kind), pos.astype(kind)
    dist = np.abs(at[:, 0, None] - to[:, 0])
    dist += np.abs(at[:, 1, None] - to[:, 1])
    if nf == 0:
        return SightView(pos, dist, np.full(len(pos), _INT64_MAX), np.zeros(len(pos), np.int64))
    key = dist * kind(nf)
    key += np.arange(nf, dtype=kind)[:, None]
    best, nearest = np.divmod(key.min(axis=0).astype(np.int64), nf)
    return SightView(pos, dist, best, nearest)


@dataclass
class GridSpec:
    """Static lattice definition: dimension, cell labels, optional zones."""

    n: int
    cell_labels: list[str]
    zone_map: dict[int, str] | None = None

    def __post_init__(self):
        if self.n <= 0:
            raise ValidationError(f"grid dimension must be positive, got {self.n}")
        if len(self.cell_labels) != self.n * self.n:
            raise ValidationError(
                f"expected {self.n * self.n} cell labels, got {len(self.cell_labels)}"
            )
        if len(set(self.cell_labels)) != len(self.cell_labels):
            raise ValidationError("cell labels must be unique")
        if self.zone_map is not None:
            missing = set(range(self.n * self.n)) - set(self.zone_map)
            if missing:
                raise ValidationError(f"zone_map does not cover cells {sorted(missing)[:5]}...")

    @property
    def label_to_cell(self) -> dict[str, int]:
        return {lab: k for k, lab in enumerate(self.cell_labels)}

    def zones(self) -> dict[str, list[int]]:
        """Zone id -> member cell indices (empty when no zones defined)."""
        out: dict[str, list[int]] = {}
        if self.zone_map:
            for k in sorted(self.zone_map):
                out.setdefault(self.zone_map[k], []).append(k)
        return out


@dataclass
class OccupancyState:
    """Live per-cell occupancy against fixed capacities. Single-writer.
    Capacities summing past MAX_TOTAL_CAPACITY spots are a ConfigError, as
    in `load_grid`, for a grid built through the API."""

    n: int
    capacity: np.ndarray
    occupied: np.ndarray = field(default=None)  # type: ignore[assignment]
    tick: int = 0

    def __post_init__(self):
        self.capacity = np.asarray(self.capacity, dtype=np.int64)
        if self.capacity.shape != (self.n * self.n,):
            raise ValidationError("capacity must have one entry per cell")
        if (self.capacity < 0).any():
            raise ValidationError("capacities must be non-negative")
        # the per-cell test first: a sum of huge capacities can wrap around int64
        if (self.capacity > MAX_TOTAL_CAPACITY).any() or self.total_capacity > MAX_TOTAL_CAPACITY:
            raise ConfigError(f"grid capacity sums past {MAX_TOTAL_CAPACITY} spots")
        if self.occupied is None:
            self.occupied = np.zeros_like(self.capacity)
        else:
            self.occupied = np.asarray(self.occupied, dtype=np.int64)
        self.check()

    @property
    def total_capacity(self) -> int:
        return int(self.capacity.sum())

    def check(self):
        # count_nonzero: the engine checks after every departure and parking
        if np.count_nonzero(self.occupied < 0) or np.count_nonzero(self.occupied > self.capacity):
            bad = int(np.flatnonzero((self.occupied < 0) | (self.occupied > self.capacity))[0])
            raise CapacityError(
                f"cell {bad}: occupied={self.occupied[bad]} outside [0, {self.capacity[bad]}]"
            )


# --- grid definition file: columns k, geohash7, i, j, capacity[, zone_id] ---

GRID_COLS = ("k", "geohash7", "i", "j", "capacity")
# the engine holds per-spot rows (the phantom occupants among them), so a
# grid's summed capacity is bounded where the file is read and again where
# OccupancyState takes it
MAX_TOTAL_CAPACITY = 2**22


def load_grid(path) -> tuple[GridSpec, np.ndarray]:
    """Read a grid definition table (see `Table`); returns (spec, capacity
    array). The zone_id column is optional. A grid whose capacities sum past
    MAX_TOTAL_CAPACITY spots is a ConfigError naming the row that passes it."""
    rows = list(Table(path).rows("grid", GRID_COLS, ("k", "i", "j", "capacity")))
    count = len(rows)
    n = int(round(count ** 0.5))
    if n * n != count:
        raise ValidationError(f"grid file has {count} rows, not a perfect square")
    labels = [""] * count
    capacity = np.zeros(count, dtype=np.int64)
    zone_map: dict[int, str] = {}
    seen = set()
    total = 0
    for line, row in rows:
        k = row["k"]
        if k >= count or k in seen:
            raise ValidationError(f"line {line}: bad or duplicate cell index k={k}")
        if k != row["i"] * n + row["j"]:
            raise ValidationError(f"line {line}: cell k={k} inconsistent with (i={row['i']}, j={row['j']}) for n={n}")
        seen.add(k)
        labels[k] = row["geohash7"]
        capacity[k] = row["capacity"]
        total += row["capacity"]
        if total > MAX_TOTAL_CAPACITY:
            raise ConfigError(f"line {line}: grid capacity sums past {MAX_TOTAL_CAPACITY} spots")
        if row.get("zone_id"):
            zone_map[k] = row["zone_id"]
    spec = GridSpec(n, labels, zone_map or None)
    return spec, capacity


def save_grid(path, spec: GridSpec, capacity: np.ndarray):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        has_zone = spec.zone_map is not None
        cols = list(GRID_COLS) + (["zone_id"] if has_zone else [])
        writer = csv.writer(fh, delimiter="\t")
        writer.writerow(cols)
        for k in range(spec.n * spec.n):
            row = [k, spec.cell_labels[k], k // spec.n, k % spec.n, int(capacity[k])]
            if has_zone:
                row.append(spec.zone_map.get(k, ""))
            writer.writerow(row)


def make_grid(
    n: int = 22,
    capacity: int | Iterable[int] = 2,
    zones: int | None = None,
) -> tuple[GridSpec, np.ndarray]:
    """Synthesize an n x n grid with generated labels (default n=22).

    `capacity` is either a uniform per-cell count or a per-cell iterable.
    `zones=3` splits the lattice into a 3x3 block partition labelled z0..z8.
    """
    if np.isscalar(capacity):
        caps = np.full(n * n, int(capacity), dtype=np.int64)
    else:
        caps = np.asarray(list(capacity), dtype=np.int64)
    labels = [f"g{k:06d}" for k in range(n * n)]
    zone_map = None
    if zones:
        block = -(-n // zones)  # ceil
        zone_map = {}
        for k in range(n * n):
            i, j = k // n, k % n
            zone_map[k] = f"z{(i // block) * zones + (j // block)}"
    return GridSpec(n, labels, zone_map), caps
