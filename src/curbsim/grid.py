"""City lattice: cell labels, spot capacities and live occupancy.

The city is an n x n grid. Cell k (row-major, k = i*n + j) carries an opaque
7-character label and a spot capacity; travel time between cells is their
Manhattan distance, one cell per tick. Spots are fungible within a cell.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .errors import CapacityError, ParseError, ValidationError


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
    """Live per-cell occupancy against fixed capacities. Single-writer."""

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

_REQUIRED_COLS = ("k", "geohash7", "i", "j", "capacity")


def _detect_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def load_grid(source) -> tuple[GridSpec, np.ndarray]:
    """Read a grid definition table; returns (spec, capacity array).

    `source` is a path or a text file object. Header row required;
    zone_id column optional.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty grid file")
    delim = _detect_delimiter(lines[0])
    reader = csv.DictReader(io.StringIO(text), delimiter=delim)
    cols = reader.fieldnames or []
    for col in _REQUIRED_COLS:
        if col not in cols:
            raise ParseError(f"grid file missing column {col!r}")
    has_zone = "zone_id" in cols

    rows = []
    for lineno, row in enumerate(reader, start=2):
        try:
            k = int(row["k"])
            i = int(row["i"])
            j = int(row["j"])
            cap = int(row["capacity"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad grid row: {exc}", line=lineno) from None
        if cap < 0:
            raise ValidationError(f"line {lineno}: negative capacity {cap}")
        zone = row.get("zone_id") if has_zone else None
        rows.append((k, row["geohash7"], i, j, cap, zone))

    count = len(rows)
    n = int(round(count ** 0.5))
    if n * n != count:
        raise ValidationError(f"grid file has {count} rows, not a perfect square")
    labels = [""] * count
    capacity = np.zeros(count, dtype=np.int64)
    zone_map: dict[int, str] = {}
    seen = set()
    for k, label, i, j, cap, zone in rows:
        if not (0 <= k < count) or k in seen:
            raise ValidationError(f"bad or duplicate cell index k={k}")
        if k != i * n + j:
            raise ValidationError(f"cell k={k} inconsistent with (i={i}, j={j}) for n={n}")
        seen.add(k)
        labels[k] = label
        capacity[k] = cap
        if zone not in (None, ""):
            zone_map[k] = zone
    spec = GridSpec(n, labels, zone_map or None)
    return spec, capacity


def save_grid(path, spec: GridSpec, capacity: np.ndarray):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        has_zone = spec.zone_map is not None
        cols = list(_REQUIRED_COLS) + (["zone_id"] if has_zone else [])
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
