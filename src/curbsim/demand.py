"""Demand ingestion and generation.

Pipeline: 15-minute traffic-intensity rows -> per-cell minute bins (one
reader, `parse_intensity`) -> participant/competitor arrival series
(error-diffusion share split). synth_demand generates desk-scale series
directly from documented closed-form intensities.

Every per-(cell, minute) table is one `MinuteCounts`: three int64 columns
`cells`, `minutes`, `counts`, rows sorted by (minute, cell), no repeated
(cell, minute) pair and no zero count. `ArrivalSeries` holds one per driver
group; `ArrivalSeries.arrivals` lists both groups' arrivals one by one in one
list with per-minute offsets, for the engine to slice.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ParseError, Table, ValidationError, check_int, check_number, check_path

INTENSITY_COLS = ("segment_id", "interval_start", "count", "geohash7", "overlap_fraction")
SERIES_COLS = ("cell", "minute", "group", "count")


class MinuteCounts(NamedTuple):
    """Counts per (cell, minute) as columns, kept as the module docstring says."""

    cells: np.ndarray
    minutes: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, rows) -> MinuteCounts:
        """Canonical columns from (cell, minute, count) rows in any order:
        repeated (cell, minute) rows are summed, zero counts dropped."""
        cells, minutes, counts = np.array(rows, np.int64).reshape(-1, 3).T
        order = np.lexsort((cells, minutes))
        cells, minutes = cells.take(order), minutes.take(order)
        new = np.ones(len(order), bool)  # the first row of each (minute, cell) run
        new[1:] = (cells[1:] != cells[:-1]) | (minutes[1:] != minutes[:-1])
        head = np.flatnonzero(new)
        summed = np.add.reduceat(counts.take(order), head)
        keep = summed != 0
        return cls(cells.take(head)[keep], minutes.take(head)[keep], summed[keep])


NO_ARRIVALS = MinuteCounts(*(np.zeros(0, np.int64),) * 3)


@dataclass
class ArrivalSeries:
    """Integer arrivals per (cell, minute) for each driver group."""

    participants: MinuteCounts = NO_ARRIVALS
    competitors: MinuteCounts = NO_ARRIVALS

    def group(self, group: str) -> MinuteCounts:
        return self.participants if group == "participant" else self.competitors

    def total(self, group: str) -> int:
        return int(self.group(group).counts.sum())

    def arrivals(self, horizon: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Both groups' arrivals one by one in one list: every arrival's cell
        and group code (0 participant, 1 competitor), ordered by minute, each
        minute's participants first and each group's in cell order; and for
        each minute 0..horizon the index of its first arrival, so minute t's
        arrivals are rows first[t]:first[t + 1]. A run numbers its agents by
        their row in this list."""
        groups = (self.participants, self.competitors)
        minutes = np.concatenate([np.repeat(rows.minutes, rows.counts) for rows in groups])
        cells = np.concatenate([np.repeat(rows.cells, rows.counts) for rows in groups])
        codes = np.repeat(np.arange(len(groups)), [rows.counts.sum() for rows in groups])
        order = np.argsort(minutes, kind="stable")  # participants first, each group in cell order
        first = np.searchsorted(minutes.take(order), np.arange(horizon + 1))
        return cells.take(order), codes.take(order), first.tolist()


def parse_intensity(table: Table, label_to_cell: dict[str, int]) -> MinuteCounts:
    """Minute-level counts per cell from the intensity rows of `table`; a
    bad row is reported with its line. `label_to_cell` maps geohash labels
    to cell indices. The per-segment overlap fractions must sum to 1 for
    each interval. Each row's target floor(count * overlap_fraction + 0.5)
    is split over its 15 one-minute bins by largest remainder, ties to the
    earliest: bin b gets target // 15, plus one while b < target % 15. Rows
    that share a (cell, minute) add up; minutes count from midnight of the
    earliest row's day.
    """
    slot_of: dict[str, int] = {}  # each interval_start text -> its timestamp's index in `when`
    when: list[datetime] = []
    sums: dict[tuple[str, datetime], float] = {}
    rows = []  # (timestamp index, count, cell, fraction)
    for line, row in table.rows("intensity", INTENSITY_COLS, ("count",)):
        text = row["interval_start"]
        slot = slot_of.get(text)
        if slot is None:  # each distinct text is parsed and checked once
            try:
                ts = datetime.fromisoformat(text)
            except ValueError:
                raise ParseError(f"bad ISO-8601 timestamp {text!r}", line) from None
            if when and (ts.tzinfo is None) != (when[0].tzinfo is None):
                raise ParseError("timestamps with and without a UTC offset are mixed", line)
            if ts.minute % 15 or ts.second or ts.microsecond:
                raise ParseError(f"timestamp {ts.isoformat()} not 15-minute aligned", line)
            slot = slot_of[text] = len(when)
            when.append(ts)
        try:
            frac = float(row["overlap_fraction"])
        except ValueError:
            raise ParseError(f"overlap_fraction {row['overlap_fraction']!r} is not a number", line) from None
        if not (0.0 < frac <= 1.0):
            raise ValidationError(f"line {line}: overlap_fraction {frac} outside (0, 1]")
        if row["geohash7"] not in label_to_cell:
            raise ValidationError(f"line {line}: unknown geohash {row['geohash7']!r}")
        key = (row["segment_id"], when[slot])  # datetimes: equal instants share a key
        sums[key] = sums.get(key, 0.0) + frac
        rows.append((slot, row["count"], label_to_cell[row["geohash7"]], frac))
    for (seg, ts), total in sums.items():
        if abs(total - 1.0) > 1e-6:
            raise ValidationError(
                f"segment {seg} at {ts.isoformat()}: overlap fractions sum to {total}, not 1"
            )
    if not rows:
        return NO_ARRIVALS
    origin = min(when).replace(hour=0, minute=0, second=0, microsecond=0)
    start = np.array([int((ts - origin).total_seconds() // 60) for ts in when], np.int64)
    slots, counts, cells, fracs = (np.array(col) for col in zip(*rows))
    base, rem = np.divmod(np.floor(counts * fracs + 0.5).astype(np.int64), 15)
    bins = np.arange(15)
    columns = (cells[:, None], start.take(slots)[:, None] + bins, base[:, None] + (bins < rem[:, None]))
    return MinuteCounts.of(np.stack(np.broadcast_arrays(*columns), axis=-1))


def _diffuse(rows: MinuteCounts, factor: float) -> MinuteCounts:
    """Integer counts tracking count * factor, error-diffused per cell over
    ascending minutes (x = count * factor + carry, n = floor(x + 1e-9), carry
    = x - n), so each cell's total stays within one vehicle of its scaled one."""
    cells, minutes, counts = rows
    ids, slot = np.unique(cells, return_inverse=True)
    carry = np.zeros(len(ids))
    out = np.empty_like(counts)
    edges = np.flatnonzero(np.diff(minutes)) + 1
    for lo, hi in zip([0, *edges], [*edges, len(cells)]):
        s = slot[lo:hi]
        x = counts[lo:hi] * factor + carry[s]
        n = np.floor(x + 1e-9)  # guard exact products against float dust
        carry[s] = x - n
        out[lo:hi] = n
    keep = out != 0
    return MinuteCounts(cells[keep], minutes[keep], out[keep])


def split_demand(minute_counts: MinuteCounts, participant_share: float, competitor_share: float) -> ArrivalSeries:
    """Split per-minute vehicle counts into the two searching groups, each
    share error-diffused per cell (`_diffuse`), so realized totals track the
    configured share within one vehicle per cell."""
    return ArrivalSeries(*(_diffuse(minute_counts, f) for f in (participant_share, competitor_share)))


PATTERNS = ("uniform", "diurnal", "hotspot")


def _check_centers(name, centers):
    if centers is None:
        return
    for c in centers:
        if not isinstance(c, (list, tuple)) or len(c) != 2:
            raise ConfigError(f"{name} must be a list of [i, j] cells, got {centers!r}")
        for x in c:
            check_int(name, x)


@dataclass
class ArrivalsConfig:
    """Where a run's arrivals come from: a file (an arrival series or raw
    intensity records) or a closed-form synthetic pattern.

    Patterns (rate = searching arrivals per cell per minute, H = horizon):
      uniform  rate(k, m) = magnitude
      diurnal  rate(k, m) = magnitude * 0.5 * (1 - cos(2*pi*(m - peak_minute + H/2) / H))
               (peaks at peak_minute, vanishes half a day away)
      hotspot  rate(k, m) = magnitude * exp(-d(k, center) / decay) summed over
               centers, where d is Manhattan distance; stationary in time
               unless rotate_every > 0, in which case exactly one center is
               active at a time and the active index is (m // rotate_every)
               mod len(centers). static_centers, when given, contribute their
               weight at every minute regardless of rotation.

    Realization is deterministic error diffusion per cell and group; the seed
    only places n_centers hotspot centers when none are given (None derives
    it from the master seed).
    """

    kind: str = "synth"  # synth | file
    path: str | None = None
    pattern: str = "hotspot"
    magnitude: float = 0.05
    peak_minute: int = 720
    centers: list | None = None
    static_centers: list | None = None
    n_centers: int = 2
    decay: float = 3.0
    rotate_every: int = 0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("synth", "file"):
            raise ConfigError(f"arrivals.kind must be 'synth' or 'file', got {self.kind!r}")
        check_path("arrivals.path", self.path)
        if self.pattern not in PATTERNS:
            raise ConfigError(f"arrivals.pattern must be one of {', '.join(PATTERNS)}, got {self.pattern!r}")
        check_number("arrivals.magnitude", self.magnitude, 0)
        check_number("arrivals.decay", self.decay, 0, above=True)
        _check_centers("arrivals.centers", self.centers)
        _check_centers("arrivals.static_centers", self.static_centers)
        for name, lo in (("peak_minute", None), ("n_centers", 1), ("rotate_every", 0)):
            check_int(f"arrivals.{name}", getattr(self, name), lo)
        if self.seed is not None:
            check_int("arrivals.seed", self.seed, 0, 64)


def _synth_rates(a: ArrivalsConfig, n: int, horizon: int, seed: int) -> np.ndarray:
    """(cells, minutes) rate array for the documented closed forms."""
    k = n * n
    minutes = np.arange(horizon, dtype=np.float64)
    if a.pattern == "uniform":
        return np.full((k, horizon), a.magnitude)
    if a.pattern == "diurnal":
        phase = 2.0 * np.pi * (minutes - a.peak_minute + horizon / 2.0) / horizon
        per_min = a.magnitude * 0.5 * (1.0 - np.cos(phase))
        return np.tile(per_min, (k, 1))
    # hotspot, the one pattern left
    centers = a.centers
    if not centers:
        gen = np.random.default_rng(np.random.SeedSequence([seed, 0x5E0D]))
        centers = [tuple(int(x) for x in gen.integers(0, n, 2)) for _ in range(a.n_centers)]
    ii, jj = np.divmod(np.arange(k), n)
    weights = np.stack(
        [np.exp(-(np.abs(ii - ci) + np.abs(jj - cj)) / a.decay) for ci, cj in centers]
    )
    static = np.zeros(k)
    for ci, cj in a.static_centers or ():
        static += np.exp(-(np.abs(ii - ci) + np.abs(jj - cj)) / a.decay)
    if a.rotate_every > 0:
        active = (minutes.astype(np.int64) // a.rotate_every) % len(centers)
        return a.magnitude * (weights[active].T + static[:, None])
    return np.outer(a.magnitude * (weights.sum(axis=0) + static), np.ones(horizon))


def synth_demand(a: ArrivalsConfig, n: int, horizon: int, shares: tuple[float, float], seed: int) -> ArrivalSeries:
    """Deterministic ArrivalSeries realizing the pattern's closed form on an
    n x n grid; shares are the (participant, competitor) fractions and seed
    the resolved hotspot placement seed.

    Combined arrivals per cell follow the cumulative-floor of the rate (total
    counts exact within rounding); the participant stream then takes its
    share of that integer stream by a second cumulative floor, so group
    totals stay within one vehicle of the configured split per cell.
    A center off the grid is a ConfigError.
    """
    for name in ("centers", "static_centers"):
        for i, j in getattr(a, name) or ():
            if not (0 <= i < n and 0 <= j < n):
                raise ConfigError(f"arrivals.{name} holds [{i}, {j}], off the {n}x{n} grid")
    rates = _synth_rates(a, n, horizon, seed)
    total_share = shares[0] + shares[1]
    if total_share <= 0:
        return ArrivalSeries()
    p_frac = shares[0] / total_share
    rates[rates.sum(axis=1) <= 0] = 0.0  # cells without demand spawn nothing
    # cumulative (cells, minutes) tables, in place: exact integers in float64
    cum = np.floor(np.cumsum(rates, axis=1, out=rates) + 1e-9, out=rates)
    cum_p = cum * p_frac + 1e-9
    np.floor(cum_p, out=cum_p)
    cum -= cum_p  # competitors take the rest
    return ArrivalSeries(_increments(cum_p), _increments(cum))


def _increments(cum: np.ndarray) -> MinuteCounts:
    """The nonzero per-minute steps of a (cells, minutes) cumulative table."""
    moved = np.empty(cum.shape, dtype=bool)  # a bool table keeps the peak memory low
    np.not_equal(cum[:, :1], 0, out=moved[:, :1])
    np.not_equal(cum[:, 1:], cum[:, :-1], out=moved[:, 1:])
    minutes, cells = np.nonzero(moved.T)
    before = np.where(minutes > 0, cum[cells, minutes - 1], 0.0)
    return MinuteCounts(cells, minutes, (cum[cells, minutes] - before).astype(np.int64))


def scale_series(series: ArrivalSeries, scale: float) -> ArrivalSeries:
    """Multiply arrival counts by `scale`, error-diffused per cell so integer
    totals track the scaled demand."""
    return ArrivalSeries(_diffuse(series.participants, scale), _diffuse(series.competitors, scale))


def save_series(path, series: ArrivalSeries):
    """Serialize as (cell, minute, group, count) rows: participants, then
    competitors, each ordered by (cell, minute)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SERIES_COLS)
        for group in ("participant", "competitor"):
            for k, m, c in sorted(zip(*(col.tolist() for col in series.group(group)))):
                writer.writerow([k, m, group, c])


def load_series(table: Table, n_cells: int) -> ArrivalSeries:
    """Read a `save_series` table for a grid of `n_cells` cells; repeated
    rows add up. A cell off the grid or an unknown group is reported with
    its line."""
    rows = {"participant": [], "competitor": []}
    for line, row in table.rows("series", SERIES_COLS, ("cell", "minute", "count")):
        if row["cell"] >= n_cells:
            raise ValidationError(f"line {line}: cell {row['cell']} outside the grid's cells 0..{n_cells - 1}")
        if row["group"] not in rows:
            raise ValidationError(f"line {line}: unknown group {row['group']!r}")
        rows[row["group"]].append((row["cell"], row["minute"], row["count"]))
    return ArrivalSeries(MinuteCounts.of(rows["participant"]), MinuteCounts.of(rows["competitor"]))
