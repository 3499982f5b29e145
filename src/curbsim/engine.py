"""Rolling-horizon simulation loop.

`Simulation.tick` runs one minute as a fixed sequence of phases:

1. `_spawn`: the minute's arrivals join the searching store, one slice of
   the arrival list `ArrivalSeries.arrivals` builds once at start;
2. `_depart`: parked stays count down and finished ones free their spots;
3. `_free_spots`: one view of the free spots (count per cell, the cells
   holding one, their coordinates and counts), and the availability
   sample; dispatch, movement and claims all read it, since nothing parks
   or departs between dispatch and claim resolution. When a free spot
   exists, the active competitors' sight view (`grid.sight_view`: their
   cell-major distances to the free cells and nearest free cell) is built
   once, for the oracle's pricing and the competitor step;
4. `_dispatch`: when an active participant and a free spot exist, hand
   each strategy its information (cord-oracle: the sight view and R;
   cord-approx: the availability predictions); `strategies.dispatch`
   prices and assigns, the oracle's competitor capture allocation
   included, and returns (participant row, free-cell index) pairs sorted
   by row, so the tick's `assign` events are ascending by agent id;
5. `_move`: every active searcher takes one step;
6. `_resolve`: claims per cell with uniform tie-breaks, parking, and the
   cord-approx observations;
7. `_expire`: agents over the search budget fail, and the searching store
   drops its parked and failed agents in one compaction;
8. `_learn`: on bucket ends, merge the observations into the predictor
   history, retrain on schedule and predict every cell's availability for
   the next bucket, which `_dispatch` gathers at the free cells
   (cord-approx only).

Departures run before dispatch so freed spots are assignable the same minute.
Every phase is array-wide, runs once over both driver groups and skips its
numpy work when it has no rows; `_emit` writes one event line, one sink
write, per agent, and only when an event sink is attached.

Searching agents, parked spots and outcomes live in `_Columns` stores: int64
columns in capacity-doubling buffers with a live length, so a spawn or a
park writes into spare rows instead of reallocating every column. One store
holds both groups' searchers, the group a column. Where the groups' order
shows (the outcome rows, events and dwell draws of winners, failures and
censored agents), participants come first. The invariant checks still run
every tick: agent conservation per group after the tick's phases, and the
occupancy bounds after every departure and every parking.

Determinism: every stochastic concern draws from its own seeded stream
(demand, strategy ties, movement, parking ties, dwell), in a fixed order
within each tick, so identical (config, seed) reproduce identical event logs
byte for byte and changing the strategy never perturbs arrivals.
"""
from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import demand as demand_mod
from . import metrics as metrics_mod
from .agents import DwellSpec, sample_dwell_batch, step_competitors_batch, step_toward_batch
from .demand import ArrivalsConfig, ArrivalSeries, scale_series, synth_demand
from .errors import ConfigError, Table, ValidationError, check_int, check_number, check_path
from .grid import GridSpec, OccupancyState, SightView, load_grid, sight_view
from .metrics import GROUPS, STATUS_CENSORED, STATUS_FAILED, STATUS_PARKED, RunOutcomes
from .predictor import (
    BUCKET_MINUTES,
    HistoryCorpus,
    load_corpus,
    predict_many,
    retrain,
    uniform_model,
    update_history,
)
from .rng import RngStreams, derive_seed
from .strategies import StrategyKind, dispatch, parse_strategy

GROUP_PARTICIPANT = 0
GROUP_COMPETITOR = 1
GROUP_PHANTOM = 2

_NO_ROWS = np.zeros(0, np.int64)
_NO_CELLS = np.zeros((0, 2), np.int64)


@dataclass
class SimConfig:
    grid_file: str | None = None
    arrivals: ArrivalsConfig = field(default_factory=ArrivalsConfig)
    strategy: StrategyKind = StrategyKind.CORD_AGN
    r: int = 1
    t_max: int = 30
    shares: tuple[float, float] = (0.015, 0.08)
    dwell: DwellSpec = field(default_factory=DwellSpec)
    horizon: int = 1440
    seed: int = 0
    runs: int = 3
    history_file: str | None = None
    retrain_every: int = 60
    peak_window: tuple[int, int] = (540, 1020)
    initial_occupancy: float = 0.0
    demand_scale: float = 1.0
    weekday: int = 0
    log_moves: bool = True

    def __post_init__(self):
        self.strategy = parse_strategy(self.strategy)
        for name, kind in (("arrivals", ArrivalsConfig), ("dwell", DwellSpec)):
            value = getattr(self, name)
            if isinstance(value, dict):
                setattr(self, name, kind(**value))
            elif not isinstance(value, kind):
                raise ConfigError(f"{name} must be a JSON object, got {value!r}")
        check_path("grid_file", self.grid_file)
        check_path("history_file", self.history_file)
        self.shares = tuple(self.shares)
        self.peak_window = tuple(self.peak_window)
        for name, lo in (("r", 0), ("horizon", 0), ("runs", 1), ("t_max", 1), ("seed", None)):
            check_int(name, getattr(self, name), lo)
        # Python's json reads NaN and Infinity; check_number rejects both
        check_number("initial_occupancy", self.initial_occupancy, 0, 1)
        check_number("demand_scale", self.demand_scale, 0)
        for x in self.shares:
            check_number("shares", x, 0)
        if len(self.shares) != 2 or sum(self.shares) > 1:
            raise ConfigError(f"shares must be two fractions with a sum <= 1, got {list(self.shares)}")
        if not isinstance(self.log_moves, bool):
            raise ConfigError(f"log_moves must be true or false, got {self.log_moves!r}")
        check_int("weekday", self.weekday, 0)
        if self.weekday > 6:
            raise ConfigError(f"weekday must be in 0..6, got {self.weekday}")
        for x in self.peak_window:
            check_int("peak_window", x)
        if len(self.peak_window) != 2 or not 0 <= self.peak_window[0] < self.peak_window[1]:
            raise ConfigError(f"peak_window must be [start, end] with 0 <= start < end, got {list(self.peak_window)}")
        # the engine retrains only at bucket ends
        check_int("retrain_every", self.retrain_every)
        if self.retrain_every <= 0 or self.retrain_every % BUCKET_MINUTES:
            raise ConfigError(
                f"retrain_every must be a positive multiple of {BUCKET_MINUTES} minutes, got {self.retrain_every}"
            )

    @classmethod
    def from_dict(cls, raw) -> SimConfig:
        """Checked construction from parsed JSON: ConfigError on anything else."""
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config field: {', '.join(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(f"bad config value: {exc}") from None

    def to_dict(self) -> dict:
        out = asdict(self)
        out["strategy"] = self.strategy.value
        return out


@dataclass
class RunResult:
    seed: int
    outcomes: RunOutcomes
    availability: np.ndarray  # free fraction sampled at dispatch time, per tick
    spawned: tuple[int, int]


class _Columns:
    """Struct-of-arrays store: equal-length int64 columns appended and
    filtered together. Each column lives in a capacity-doubling buffer, and
    the attribute named after it is a view of the buffer's live rows,
    rebound after every append and keep, so writes through it land in the
    store. `Simulation.searching` is one: both groups' searchers in id
    order, an id being the agent's row in the run's arrival list."""

    def __init__(self, **shapes):
        # column name -> shape of one row: () for a number, (2,) for a cell
        self.columns = tuple(shapes)
        self._bufs = [np.empty((4, *shape), np.int64) for shape in shapes.values()]
        self._len = 0
        self._rebind()

    def __len__(self):
        return self._len

    def _rebind(self):
        for name, buf in zip(self.columns, self._bufs):
            setattr(self, name, buf[:self._len])

    def append(self, *cols):
        """Append rows column by column; the first column sets the row count,
        a later one may be a scalar broadcast over the rows."""
        n = self._len
        end = n + len(cols[0])
        if end > len(self._bufs[0]):
            cap = max(2 * len(self._bufs[0]), end)
            grown = [np.empty((cap, *buf.shape[1:]), np.int64) for buf in self._bufs]
            for new, buf in zip(grown, self._bufs):
                new[:n] = buf[:n]
            self._bufs = grown
        for buf, col in zip(self._bufs, cols):
            buf[n:end] = col
        self._len = end
        self._rebind()

    def keep(self, mask: np.ndarray):
        """Keep the rows where the boolean mask is true, in order."""
        rows = mask.nonzero()[0]
        for buf in self._bufs:
            buf[:len(rows)] = buf.take(rows, axis=0)
        self._len = len(rows)
        self._rebind()


class _Parked(_Columns):
    """Occupied spots: agent id (-1 for phantoms), group, cell, dwell left."""

    def __init__(self):
        super().__init__(ids=(), group=(), cell=(), dwell=())


class _FreeSpots(NamedTuple):
    """One tick's free spots, built once after departures: nothing parks or
    departs again before the claims resolve."""

    free: np.ndarray  # free spots per cell
    k: np.ndarray  # the cells holding one, ascending
    cells: np.ndarray  # their (i, j)
    counts: np.ndarray  # their free spots


@functools.lru_cache(maxsize=8)
def _coord_table(n: int) -> np.ndarray:
    """Row k = i*n + j holds (i, j); shared by every caller, so read-only."""
    table = np.stack(np.divmod(np.arange(n * n), n), axis=1)
    table.flags.writeable = False
    return table


class Simulation:
    """One seeded run over one day."""

    def __init__(
        self,
        grid: GridSpec,
        capacity: np.ndarray,
        series: ArrivalSeries,
        cfg: SimConfig,
        seed: int,
        event_sink=None,
        corpus: HistoryCorpus | None = None,
    ):
        self.n = grid.n
        self.cfg = cfg
        self.occ = OccupancyState(self.n, np.asarray(capacity, dtype=np.int64).copy())
        self.streams = RngStreams(seed)
        self.sink = event_sink
        # target (-1, -1): a competitor, or a participant never assigned
        self.searching = _Columns(ids=(), group=(), pos=(2,), spawn=(), target=(2,))
        self.parked = _Parked()
        self.availability = np.zeros(cfg.horizon)
        self._outcomes = _Columns(spawn=(), group=(), status=(), terminal=(), park_cell=())
        self._arrivals = series.arrivals(cfg.horizon)
        self._coords = _coord_table(self.n)
        self._flat = np.array([self.n, 1])  # (i, j) . _flat = cell index k
        self._total_capacity = self.occ.total_capacity
        # per group: [participants, competitors]
        self.spawned = np.zeros(2, np.int64)
        self.parked_count = np.zeros(2, np.int64)
        self.failed_count = np.zeros(2, np.int64)

        # predictor state (cord-approx)
        self.corpus = corpus
        self.model = None
        self.minute0 = 0
        if cfg.strategy is StrategyKind.CORD_APPROX:
            n_cells = self.n * self.n
            if self.corpus is None:
                self.corpus = HistoryCorpus(n_cells, cfg.weekday)
            if self.corpus.n_cells != n_cells:
                raise ConfigError(
                    f"history corpus covers {self.corpus.n_cells} cells, not the {self.n}x{self.n} grid's {n_cells}"
                )
            if len(self.corpus):
                self.minute0 = (int(self.corpus.starts.max()) // 1440 + 1) * 1440
            self.model = retrain(self.corpus) if len(self.corpus) else uniform_model(n_cells)
            self._forecast(0)
            self._attempts = np.zeros(n_cells, np.int64)
            self._successes = np.zeros(n_cells, np.int64)

        if cfg.initial_occupancy > 0:
            self._place_phantoms()

    def tick(self):
        """One simulated minute: the phases in the module docstring's order."""
        t = self.occ.tick
        self._spawn(t)
        self._depart(t)
        spots = self._free_spots(t)
        act = self._active(t)
        is_p = self.searching.group == GROUP_PARTICIPANT
        act_p, act_c = act & is_p, act & ~is_p
        sight = None
        if len(spots.k):
            sight = sight_view(self.searching.pos.take(act_c.nonzero()[0], axis=0), spots.cells)
        self._dispatch(t, act_p, spots, sight)
        self._move(t, act_p, act_c, spots.cells, sight)
        won = self._resolve(t, act, spots.free)
        self._expire(t, won)
        self._check_conservation()
        self.occ.tick = t + 1
        self._learn(t + 1)

    # --- helpers ---

    def _emit(self, t, event, ids, group, cells):
        """One event line, and one sink write, per agent; group holds each
        agent's group code."""
        if self.sink is None:
            return
        write = self.sink.write
        head = f'{{"tick": {t}, "agent_id": '
        tails = [f', "group": "{name}", "event": "{event}", "cell": ' for name in GROUPS]
        for aid, g, k in zip(ids.tolist(), group.tolist(), cells.tolist()):
            write(f"{head}{aid}{tails[g]}{k}}}\n")

    def _record(self, spawn, groups, status, t, cells):
        """One outcome row (group, spawn, status, terminal tick, cell) per
        agent; every argument but spawn may be one value for all."""
        self._outcomes.append(spawn, groups, status, t, cells)

    def _active(self, t: int) -> np.ndarray:
        """The searching rows spawned before this tick and within the search
        budget, so a distance-d target costs exactly d minutes of search
        time; over-budget agents are inert in their final tick and fail in
        _expire."""
        spawn = self.searching.spawn
        return (spawn < t) & (spawn >= t - self.cfg.t_max)

    def _by_group(self, rows) -> np.ndarray:
        """Searching rows reordered participants first, each group's rows in
        their given order: the order of outcome rows, events and dwell draws."""
        return rows.take(np.argsort(self.searching.group.take(rows), kind="stable"))

    def _place_phantoms(self):
        """Background occupants so a run can start inside a target availability
        regime; they depart on sampled dwell like everyone else but never
        appear in events or outcomes. Stays begin mid-dwell (staggered)."""
        b = self._total_capacity
        want = int(round(self.cfg.initial_occupancy * b))
        if want == 0:
            return
        caps = self.occ.capacity
        quota = want * caps / b
        base = np.floor(quota).astype(np.int64)
        short = want - int(base.sum())
        if short > 0:
            order = np.argsort(-(quota - base), kind="stable")
            base[order[:short]] += 1
        base = np.minimum(base, caps)
        # rounding against full cells may drop a few; availability targets are approximate
        cells = np.repeat(np.arange(len(caps)), base)
        rng = self.streams.stream("dwell")
        dwell = sample_dwell_batch(self.cfg.dwell, len(cells), rng)
        dwell = np.maximum(1, np.ceil(dwell * rng.random(len(cells))).astype(np.int64))
        self.occ.occupied += np.bincount(cells, minlength=len(caps))
        self.parked.append(np.full(len(cells), -1, np.int64), GROUP_PHANTOM, cells, dwell)
        self.occ.check()

    # --- phases, in tick order ---

    def _spawn(self, t):
        cells, group, first = self._arrivals
        lo, hi = first[t], first[t + 1]
        if lo == hi:
            return
        ks, group = cells[lo:hi], group[lo:hi]
        ids = np.arange(lo, hi, dtype=np.int64)
        self.searching.append(ids, group, self._coords.take(ks, axis=0), t, -1)
        self.spawned += np.bincount(group, minlength=2)
        self._emit(t, "spawn", ids, group, ks)

    def _depart(self, t):
        parked = self.parked
        if len(parked) == 0:
            return
        parked.dwell -= 1
        done = parked.dwell <= 0
        if np.count_nonzero(done):
            self.occ.occupied -= np.bincount(parked.cell[done], minlength=self.n * self.n)
            if self.sink is not None:
                seen = done & (parked.group != GROUP_PHANTOM)
                self._emit(t, "depart", parked.ids[seen], parked.group[seen], parked.cell[seen])
            parked.keep(~done)
            self.occ.check()

    def _free_spots(self, t) -> _FreeSpots:
        """The tick's free spots; samples the availability on the way."""
        free = self.occ.capacity - self.occ.occupied
        k = (free > 0).nonzero()[0]
        counts = free.take(k)
        b = self._total_capacity
        self.availability[t] = counts.sum() / b if b else 0.0
        return _FreeSpots(free, k, self._coords.take(k, axis=0), counts)

    def _dispatch(self, t, act_p, spots: _FreeSpots, sight: SightView | None):
        """Dispatch the active participants, when there are any and a free
        spot. Each strategy gets only its own information: the oracle alone
        knows the live competitor positions (for the others Eq. 1 plays out
        physically at resolution time), and cord-approx alone gets
        availability predictions."""
        cfg = self.cfg
        s = self.searching
        rows = act_p.nonzero()[0]
        if len(rows) == 0 or len(spots.k) == 0:
            return
        info = {}
        if cfg.strategy is StrategyKind.CORD_ORACLE:
            info = dict(sight=sight, r=cfg.r)
        elif cfg.strategy is StrategyKind.CORD_APPROX:
            info["p_hat"] = self._p_hat.take(spots.k)
        targets = dispatch(cfg.strategy, s.pos.take(rows, axis=0), spots.cells, spots.counts,
                           self.streams.stream("strategy"), **info)
        if len(targets):
            # sorted by participant row, which follows spawn order: agent ids ascend
            rows = rows.take(targets[:, 0])
            k = spots.k.take(targets[:, 1])
            changed = (k != s.target.take(rows, axis=0).dot(self._flat)).nonzero()[0]
            rows, k = rows.take(changed), k.take(changed)
            s.target[rows] = self._coords.take(k, axis=0)
            self._emit(t, "assign", s.ids.take(rows), s.group.take(rows), k)

    def _move(self, t, act_p, act_c, free_cells, sight: SightView | None):
        """Step every active searcher: assigned participants, unassigned
        participants, then competitors, in this draw order. Never-dispatched
        participants cruise like blind searchers, so a tick without an
        assignment is repositioning, not a lost minute."""
        cfg = self.cfg
        mrng = self.streams.stream("movement")
        s = self.searching
        assigned = s.target[:, 0] >= 0  # only a participant ever holds a target
        rows = (act_p & assigned).nonzero()[0]
        if len(rows):
            pos, target = s.pos.take(rows, axis=0), s.target.take(rows, axis=0)
            self._relocate(t, rows, step_toward_batch(pos, target, mrng))
        rows = (act_p & ~assigned).nonzero()[0]
        if len(rows):
            pos = s.pos.take(rows, axis=0)
            self._relocate(t, rows, step_competitors_batch(pos, _NO_CELLS, None, cfg.r, self.n, mrng))
        rows = act_c.nonzero()[0]
        if len(rows):
            pos = s.pos.take(rows, axis=0)
            self._relocate(t, rows, step_competitors_batch(pos, free_cells, sight, cfg.r, self.n, mrng))

    def _relocate(self, t, rows, new_pos):
        s = self.searching
        if self.cfg.log_moves and self.sink is not None:
            k = new_pos.dot(self._flat)
            changed = (k != s.pos.take(rows, axis=0).dot(self._flat)).nonzero()[0]
            moved = rows.take(changed)
            self._emit(t, "move", s.ids.take(moved), s.group.take(moved), k.take(changed))
        s.pos[rows] = new_pos

    def _resolve(self, t, act, free) -> np.ndarray:
        """Claims, parking and the cord-approx observations; returns the
        rows that parked. A participant claims at its assigned cell, or
        wherever it stands while unassigned; a competitor, never assigned,
        claims wherever it stands."""
        s = self.searching
        if len(s) == 0:
            return _NO_ROWS
        k = s.pos.dot(self._flat)
        at_target = k == s.target.dot(self._flat)  # (-1, -1), no target, is no cell
        rows = (act & (at_target | (s.target[:, 0] < 0)) & (free.take(k) > 0)).nonzero()[0]
        won = _NO_ROWS
        if len(rows):
            won = self._claim_winners(free, rows, k)
            self._park(t, won, k)
        if self.cfg.strategy is StrategyKind.CORD_APPROX:
            # an attempt is a participant's arrival at its target: the history
            # estimates exactly the availability cord-approx divides by
            n_cells = len(free)
            self._attempts += np.bincount(k[act & at_target], minlength=n_cells)
            self._successes += np.bincount(k[won[at_target[won]]], minlength=n_cells)
        return won

    def _claim_winners(self, free, rows, k):
        """The winning rows among the claiming ones, participants first, each
        group's in (cell, row) order. A cell with more claims than free spots
        draws its winners uniformly from the "ties" stream, one permutation
        per such cell, cells ascending, over its claims keyed (row within
        group, group)."""
        codes = self.searching.group
        competitors_upto = np.cumsum(codes).take(rows)  # competitor rows up to each claim, inclusive
        group = codes.take(rows)
        within = np.where(group, competitors_upto - 1, rows - competitors_upto)  # group 1: competitor
        cells = k.take(rows)
        order = np.lexsort((group, within, cells))
        rows = rows.take(order)
        size = np.bincount(cells, minlength=len(free))
        contested = (size > free).nonzero()[0]
        if len(contested):
            start = size.cumsum() - size  # each cell's first claim in sorted order
            trng = self.streams.stream("ties")
            lost = np.zeros(len(rows), dtype=bool)
            per_cell = zip(start.take(contested).tolist(), size.take(contested).tolist(),
                           free.take(contested).tolist())
            for first, claims, spots in per_cell:
                lost[first + trng.permutation(claims)[spots:]] = True
            rows = rows[~lost]
        return self._by_group(rows)

    def _park(self, t, won, k):
        """Occupy one spot per winner, in the given order, with sampled dwell."""
        s = self.searching
        ids, group, cells = s.ids.take(won), s.group.take(won), k.take(won)
        dwell = sample_dwell_batch(self.cfg.dwell, len(ids), self.streams.stream("dwell"))
        self.occ.occupied += np.bincount(cells, minlength=self.n * self.n)
        self.parked.append(ids, group, cells, dwell)
        self.parked_count += np.bincount(group, minlength=2)
        self._record(s.spawn.take(won), group, STATUS_PARKED, t, cells)
        self._emit(t, "park", ids, group, cells)
        self.occ.check()

    def _expire(self, t, won):
        """Agents over the search budget fail, participants first; then the
        searching store drops its parked (won) and failed rows in one
        compaction."""
        s = self.searching
        if len(s) == 0:
            return
        over = s.spawn < t - self.cfg.t_max
        gone = over.nonzero()[0]
        if len(gone):
            gone = self._by_group(gone)
            group = s.group.take(gone)
            self.failed_count += np.bincount(group, minlength=2)
            self._record(s.spawn.take(gone), group, STATUS_FAILED, t, -1)
            if self.sink is not None:
                cells = s.pos.take(gone, axis=0).dot(self._flat)
                self._emit(t, "fail", s.ids.take(gone), group, cells)
        if len(gone) or len(won):
            keep = ~over
            keep[won] = False
            s.keep(keep)

    def _learn(self, end):
        """At each bucket end (cord-approx only): merge the bucket's outcomes
        into the history, retrain on schedule, and predict the next bucket."""
        if self.cfg.strategy is not StrategyKind.CORD_APPROX or end % BUCKET_MINUTES:
            return
        update_history(self.corpus, self.minute0 + end - BUCKET_MINUTES, self._attempts, self._successes)
        self._attempts[:] = 0
        self._successes[:] = 0
        if end % self.cfg.retrain_every == 0 and len(self.corpus):
            self.model = retrain(self.corpus)
        self._forecast(end)

    def _forecast(self, start):
        """Predict every cell's availability for the bucket that starts at
        tick start. The predictions depend only on the bucket, the model and
        the trend, which change only at bucket ends, so dispatch gathers a
        tick's free cells from this one vector. The weekday is the corpus's,
        the one retrain fits with."""
        trend = self.corpus.trend_vector(self.minute0 + start)
        self._p_hat = predict_many(self.model, self.minute0 + start, trend, self.corpus.base_weekday)

    def _check_conservation(self):
        # parked_count is cumulative: departures stay inside it
        total = np.bincount(self.searching.group, minlength=2) + self.parked_count + self.failed_count
        if (total != self.spawned).any():
            grp = int((total != self.spawned).argmax())
            raise ValidationError(
                f"agent conservation broken for {GROUPS[grp]}: {self.spawned[grp]} spawned vs {total[grp]} accounted"
            )
        if int(self.occ.occupied.sum()) != len(self.parked):
            raise ValidationError("occupancy does not match the parked registry")

    def finish(self) -> RunOutcomes:
        """Censor agents still searching at horizon end, participants first."""
        s = self.searching
        rows = self._by_group(np.arange(len(s)))
        self._record(s.spawn.take(rows), s.group.take(rows), STATUS_CENSORED, -1, -1)
        o = self._outcomes
        return RunOutcomes(o.group, o.spawn, o.status, o.terminal, o.park_cell)

    def run(self) -> RunOutcomes:
        for _ in range(self.cfg.horizon):
            self.tick()
        return self.finish()


def build_arrivals(cfg: SimConfig, grid: GridSpec, master_seed: int) -> ArrivalSeries:
    """Materialize the run's arrival series from the configured source. A
    file of either kind holds no arrival at or past the horizon: its minute
    counts are checked as read, before the share split and scaling."""
    a = cfg.arrivals
    if a.kind == "synth":
        seed = a.seed if a.seed is not None else derive_seed(master_seed, 0xDE)
        series = synth_demand(a, grid.n, cfg.horizon, cfg.shares, seed)
    else:  # "file"; ArrivalsConfig admits no other kind
        if not a.path:
            raise ConfigError("arrivals.kind=file requires arrivals.path")
        table = Table(a.path)
        intensity = "segment_id" in table.columns
        if intensity:
            counts = demand_mod.disaggregate(demand_mod.parse_intensity(table, grid.label_to_cell))
            read = (counts,)
        else:
            series = demand_mod.load_series(table, grid.n * grid.n)
            read = (series.participants, series.competitors)
        # MinuteCounts hold no zero count, so every minute read has an arrival
        last = max(int(rows.minutes.max(initial=-1)) for rows in read)
        if last >= cfg.horizon:
            raise ConfigError(f"{a.path}: arrival at minute {last}, past horizon {cfg.horizon}")
        if intensity:
            series = demand_mod.split_demand(counts, *cfg.shares)
    if cfg.demand_scale != 1.0:
        series = scale_series(series, cfg.demand_scale)
    return series


def config_grid(cfg: SimConfig) -> tuple[GridSpec, np.ndarray]:
    """The grid and capacity read from cfg.grid_file."""
    if not cfg.grid_file:
        raise ConfigError("config needs grid_file")
    return load_grid(cfg.grid_file)


def load_inputs(cfg: SimConfig, grid: GridSpec | None = None, capacity: np.ndarray | None = None):
    """(grid, capacity, arrival series, history template): every input file
    cfg names, loaded and checked. The grid file is skipped when grid and
    capacity are given; the history template (cord-approx with a
    history_file only) is None otherwise."""
    if grid is None or capacity is None:
        grid, capacity = config_grid(cfg)
    series = build_arrivals(cfg, grid, cfg.seed)
    corpus = None
    if cfg.strategy is StrategyKind.CORD_APPROX and cfg.history_file:
        corpus = load_corpus(cfg.history_file, grid.n * grid.n, cfg.weekday)
    return grid, capacity, series, corpus


def run_simulation(
    cfg: SimConfig,
    out_dir: str | Path | None = None,
    grid: GridSpec | None = None,
    capacity: np.ndarray | None = None,
) -> tuple[dict, list[RunResult]]:
    """Execute cfg.runs seeded runs; returns (report dict, per-run results).

    When out_dir is given, writes events_r<i>.ndjson per run (plain
    events.ndjson for a single run) plus report.json and the CSV/SVG set.
    """
    grid, capacity, series, corpus_template = load_inputs(cfg, grid, capacity)

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    results = []
    for run_idx in range(cfg.runs):
        run_seed = derive_seed(cfg.seed, 1, run_idx)
        sink = None
        if out_path is not None:
            name = "events.ndjson" if cfg.runs == 1 else f"events_r{run_idx}.ndjson"
            sink = open(out_path / name, "w", encoding="utf-8")
        # runs share the template's columns: update_history rebinds them, never writes
        corpus = replace(corpus_template) if corpus_template is not None else None
        sim = Simulation(grid, capacity, series, cfg, run_seed, sink, corpus)
        try:
            outcomes = sim.run()
        finally:
            if sink is not None:
                sink.close()
        results.append(
            RunResult(
                seed=run_seed,
                outcomes=outcomes,
                availability=sim.availability,
                spawned=tuple(sim.spawned.tolist()),
            )
        )

    report = metrics_mod.build_report(cfg, grid, results)
    if out_path is not None:
        with open(out_path / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        metrics_mod.export_report(report, out_path, grid)
    return report, results
