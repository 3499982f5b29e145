"""Rolling-horizon simulation loop.

`Simulation.tick` runs one minute as a fixed sequence of phases:

1. `_spawn`: the minute's arrivals join the searching pools;
2. `_depart`: parked stays count down and finished ones free their spots;
3. `_dispatch`: sample availability, then hand each strategy its
   information (cord-oracle: competitor positions and R; cord-approx: the
   availability predictions); `strategies.dispatch` prices and assigns,
   the oracle's competitor capture allocation included;
4. `_move`: every active searcher takes one step;
5. `_resolve`: claims per cell with uniform tie-breaks, parking, and the
   cord-approx observations;
6. `_expire`: agents over the search budget fail;
7. `_learn`: on bucket ends, merge the observations into the predictor
   history and retrain on schedule (cord-approx only).

Departures run before dispatch so freed spots are assignable the same minute.
Every phase is array-wide; `_emit` writes one event line per agent, and
only when an event sink is attached.

Determinism: every stochastic concern draws from its own seeded stream
(demand, strategy ties, movement, parking ties, dwell), in a fixed order
within each tick, so identical (config, seed) reproduce identical event logs
byte for byte and changing the strategy never perturbs arrivals.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import demand as demand_mod
from . import metrics as metrics_mod
from .agents import DwellSpec, sample_dwell_batch, step_competitors_batch, step_toward_batch
from .demand import ArrivalsConfig, ArrivalSeries, scale_series, synth_demand
from .errors import ConfigError, ValidationError, check_int, check_path
from .grid import GridSpec, OccupancyState, load_grid
from .metrics import GROUPS, STATUS_CENSORED, STATUS_FAILED, STATUS_PARKED
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
    # which outcomes feed the availability history: participant arrivals
    # estimate exactly the quantity cord-approx divides by; "both" adds
    # competitor claim outcomes
    history_groups: str = "participants"

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
        if not (0.0 <= self.initial_occupancy <= 1.0):
            raise ConfigError("initial_occupancy must be in [0, 1]")
        check_int("weekday", self.weekday, 0)
        if self.weekday > 6:
            raise ConfigError(f"weekday must be in 0..6, got {self.weekday}")
        # Python's json reads NaN and Infinity; either would spawn no agent
        if not (math.isfinite(self.demand_scale) and self.demand_scale >= 0):
            raise ConfigError(f"demand_scale must be >= 0 and finite, got {self.demand_scale}")
        if len(self.shares) != 2 or not all(math.isfinite(x) and x >= 0 for x in self.shares) or sum(self.shares) > 1:
            raise ConfigError(f"shares must be two finite fractions >= 0 with a sum <= 1, got {list(self.shares)}")
        for x in self.peak_window:
            check_int("peak_window", x)
        if len(self.peak_window) != 2 or not 0 <= self.peak_window[0] < self.peak_window[1]:
            raise ConfigError(f"peak_window must be [start, end] with 0 <= start < end, got {list(self.peak_window)}")
        if self.history_groups not in ("participants", "both"):
            raise ConfigError(f"history_groups must be 'participants' or 'both', got {self.history_groups!r}")
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
class RunOutcomes:
    """Terminal outcome per spawned agent (column arrays)."""

    group: np.ndarray
    spawn: np.ndarray
    status: np.ndarray
    terminal: np.ndarray
    park_cell: np.ndarray

    @staticmethod
    def from_lists(rows: list[tuple[int, int, int, int, int]]) -> "RunOutcomes":
        return RunOutcomes(*np.array(rows, dtype=np.int64).reshape(-1, 5).T)


@dataclass
class RunResult:
    seed: int
    outcomes: RunOutcomes
    availability: np.ndarray  # free fraction sampled at dispatch time, per tick
    spawned: tuple[int, int]
    events_path: str | None = None


class _Columns:
    """Struct-of-arrays store: equal-length columns appended and filtered together."""

    columns: tuple[str, ...] = ()

    def __len__(self):
        return len(self.ids)

    def append(self, *cols):
        for name, col in zip(self.columns, cols):
            setattr(self, name, np.concatenate([getattr(self, name), col]))

    def keep(self, mask: np.ndarray):
        for name in self.columns:
            setattr(self, name, getattr(self, name)[mask])


class _Agents(_Columns):
    """One searching group; participants also carry their dispatched target
    ((-1, -1) until the first assignment)."""

    def __init__(self, group: int):
        self.group = group
        self.ids = np.zeros(0, np.int64)
        self.pos = np.zeros((0, 2), np.int64)
        self.spawn = np.zeros(0, np.int64)
        self.columns = ("ids", "pos", "spawn")
        if group == GROUP_PARTICIPANT:
            self.target = np.full((0, 2), -1, np.int64)
            self.columns += ("target",)

    def append(self, ids, pos, spawn):
        super().append(ids, pos, spawn, np.full((len(ids), 2), -1, np.int64))


class _Parked(_Columns):
    """Occupied spots: agent id (-1 for phantoms), group, cell, dwell left."""

    columns = ("ids", "group", "cell", "dwell")

    def __init__(self):
        for name in self.columns:
            setattr(self, name, np.zeros(0, np.int64))


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
        self.grid = grid
        self.n = grid.n
        self.cfg = cfg
        self.seed = seed
        self.occ = OccupancyState(self.n, np.asarray(capacity, dtype=np.int64).copy())
        self.streams = RngStreams(seed)
        self.sink = event_sink
        self.series = series
        self.participants = _Agents(GROUP_PARTICIPANT)
        self.competitors = _Agents(GROUP_COMPETITOR)
        self.parked = _Parked()
        self.availability = np.zeros(cfg.horizon)
        self._outcomes: list[np.ndarray] = []
        self.next_id = 0
        self.spawned = [0, 0]
        self.parked_count = [0, 0]
        self.failed_count = [0, 0]

        # predictor state (cord-approx)
        self.corpus = corpus
        self.model = None
        self.minute0 = 0
        if cfg.strategy is StrategyKind.CORD_APPROX:
            if self.corpus is None:
                self.corpus = HistoryCorpus(self.n * self.n, cfg.weekday)
            if len(self.corpus):
                self.minute0 = (int(self.corpus.starts.max()) // 1440 + 1) * 1440
            self.model = retrain(self.corpus) if len(self.corpus) else uniform_model(self.n * self.n)
            self._trend = self.corpus.trend_vector(self.minute0)
            self._attempts = np.zeros(self.n * self.n, np.int64)
            self._successes = np.zeros(self.n * self.n, np.int64)

        if cfg.initial_occupancy > 0:
            self._place_phantoms()

    def tick(self):
        """One simulated minute: the phases in the module docstring's order."""
        t = self.occ.tick
        self._spawn(t)
        self._depart(t)
        act_p = self._active(self.participants, t)
        act_c = self._active(self.competitors, t)
        free_cells = self._dispatch(t, act_p, act_c)
        self._move(t, act_p, act_c, free_cells)
        self._resolve(t, act_p, act_c)
        self._expire(t)
        self._check_conservation()
        self.occ.tick = t + 1
        self._learn(t + 1)

    # --- helpers ---

    def _emit(self, t, event, ids, groups, cells):
        """One event line per agent; groups is one code or one per agent."""
        if self.sink is None:
            return
        write = self.sink.write
        groups = [groups] * len(ids) if isinstance(groups, int) else groups.tolist()
        for aid, g, k in zip(ids.tolist(), groups, cells.tolist()):
            write(f'{{"tick": {t}, "agent_id": {aid}, "group": "{GROUPS[g]}", '
                  f'"event": "{event}", "cell": {k}}}\n')

    def _record(self, groups, spawn, status, t, cells):
        """One outcome row (group, spawn, status, terminal tick, cell) per agent."""
        rows = np.empty((len(spawn), 5), np.int64)
        for j, col in enumerate((groups, spawn, status, t, cells)):
            rows[:, j] = col
        self._outcomes.append(rows)

    def _coords(self, k: np.ndarray) -> np.ndarray:
        return np.stack([k // self.n, k % self.n], axis=1)

    def _cells(self, pos: np.ndarray) -> np.ndarray:
        return pos[:, 0] * self.n + pos[:, 1]

    def _active(self, agents: _Agents, t: int) -> np.ndarray:
        """Spawned before this tick and within the search budget, so a
        distance-d target costs exactly d minutes of search time; over-budget
        agents are inert in their final tick and fail in _expire."""
        age = t - agents.spawn
        return (age > 0) & (age <= self.cfg.t_max)

    def _place_phantoms(self):
        """Background occupants so a run can start inside a target availability
        regime; they depart on sampled dwell like everyone else but never
        appear in events or outcomes. Stays begin mid-dwell (staggered)."""
        b = self.occ.total_capacity
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
        no_id = np.full(len(cells), -1, np.int64)
        self.parked.append(no_id, np.full(len(cells), GROUP_PHANTOM, np.int64), cells, dwell)
        self.occ.check()

    # --- phases, in tick order ---

    def _spawn(self, t):
        for agents in (self.participants, self.competitors):
            cells, counts = self.series.at(GROUPS[agents.group], t)
            total = int(counts.sum())
            if total == 0:
                continue
            ks = np.repeat(cells, counts)
            ids = np.arange(self.next_id, self.next_id + total, dtype=np.int64)
            self.next_id += total
            agents.append(ids, self._coords(ks), np.full(total, t, np.int64))
            self.spawned[agents.group] += total
            self._emit(t, "spawn", ids, agents.group, ks)

    def _depart(self, t):
        parked = self.parked
        if len(parked) == 0:
            return
        parked.dwell -= 1
        done = parked.dwell <= 0
        if done.any():
            self.occ.occupied -= np.bincount(parked.cell[done], minlength=self.n * self.n)
            seen = done & (parked.group != GROUP_PHANTOM)
            self._emit(t, "depart", parked.ids[seen], parked.group[seen], parked.cell[seen])
            parked.keep(~done)
            self.occ.check()

    def _dispatch(self, t, act_p, act_c) -> np.ndarray:
        """Sample availability, then dispatch the active participants; returns
        the cells holding a free spot. Each strategy gets only its own
        information: the oracle alone knows the live competitor positions
        (for the others Eq. 1 plays out physically at resolution time), and
        cord-approx alone gets availability predictions."""
        cfg = self.cfg
        free = self.occ.free()
        free_k = np.flatnonzero(free > 0)
        free_cells = self._coords(free_k)
        b = self.occ.total_capacity
        self.availability[t] = free.sum() / b if b else 0.0
        p = self.participants
        d_pos = p.pos[act_p]
        if len(d_pos) == 0:
            return free_cells
        counts = free[free_k]
        info = {}
        if cfg.strategy is StrategyKind.CORD_ORACLE:
            info = dict(c_pos=self.competitors.pos[act_c], r=cfg.r)
        elif cfg.strategy is StrategyKind.CORD_APPROX:
            info["p_hat"] = predict_many(
                self.model, free_k, self.minute0 + t, self._trend, self.n * self.n, cfg.weekday,
            )
        targets = dispatch(cfg.strategy, d_pos, free_cells, counts, self.streams.stream("strategy"), **info)
        if targets:
            # assign events follow the strategy's own order
            rows = np.flatnonzero(act_p)[list(targets)]
            cells = np.array(list(targets.values()), np.int64)
            changed = (p.target[rows] != cells).any(axis=1)
            rows, cells = rows[changed], cells[changed]
            p.target[rows] = cells
            self._emit(t, "assign", p.ids[rows], GROUP_PARTICIPANT, self._cells(cells))
        return free_cells

    def _move(self, t, act_p, act_c, free_cells):
        """Step every active searcher. Never-dispatched participants cruise
        like blind searchers, so a tick without an assignment is
        repositioning, not a lost minute."""
        cfg = self.cfg
        mrng = self.streams.stream("movement")
        p, c = self.participants, self.competitors
        if len(p):
            assigned = p.target[:, 0] >= 0
            sel = act_p & assigned
            if sel.any():
                self._relocate(t, p, sel, step_toward_batch(p.pos[sel], p.target[sel], mrng))
            sel = act_p & ~assigned
            if sel.any():
                self._relocate(t, p, sel, step_competitors_batch(p.pos[sel], _NO_CELLS, cfg.r, self.n, mrng))
        if act_c.any():
            self._relocate(t, c, act_c, step_competitors_batch(c.pos[act_c], free_cells, cfg.r, self.n, mrng))

    def _relocate(self, t, agents: _Agents, sel, new_pos):
        if self.cfg.log_moves and self.sink is not None:
            moved = (agents.pos[sel] != new_pos).any(axis=1)
            self._emit(t, "move", agents.ids[sel][moved], agents.group, self._cells(new_pos[moved]))
        agents.pos[sel] = new_pos

    def _resolve(self, t, act_p, act_c):
        """Claims, parking and the cord-approx observations. A participant
        claims at its assigned cell, or wherever it stands while unassigned;
        a competitor claims wherever it stands."""
        cfg = self.cfg
        p, c = self.participants, self.competitors
        free = self.occ.free()
        assigned = p.target[:, 0] >= 0
        at_target = assigned & (p.pos == p.target).all(axis=1)
        p_k = self._cells(p.pos)
        c_k = self._cells(c.pos)
        p_claim = act_p & (at_target | ~assigned) & (free[p_k] > 0)
        c_claim = act_c & (free[c_k] > 0)
        won_p = won_c = _NO_ROWS
        if p_claim.any() or c_claim.any():
            won_p, won_c = self._claim_winners(free, np.flatnonzero(p_claim), p_k, np.flatnonzero(c_claim), c_k)
            self._park(t, won_p, won_c, p_k, c_k)
        if cfg.strategy is StrategyKind.CORD_APPROX:
            # participant attempt = arrival at target, competitor attempt = co-located claim
            n_cells = len(free)
            self._attempts += np.bincount(p_k[act_p & at_target], minlength=n_cells)
            self._successes += np.bincount(p_k[won_p[at_target[won_p]]], minlength=n_cells)
            if cfg.history_groups == "both":
                self._attempts += np.bincount(c_k[c_claim], minlength=n_cells)
                self._successes += np.bincount(c_k[won_c], minlength=n_cells)
        for agents, won in ((p, won_p), (c, won_c)):
            if len(won):
                keep = np.ones(len(agents), dtype=bool)
                keep[won] = False
                agents.keep(keep)

    def _claim_winners(self, free, p_rows, p_k, c_rows, c_k):
        """Winning participant and competitor rows, in (cell, row) order. A
        cell with more claims than free spots draws its winners uniformly
        from the "ties" stream, one permutation per such cell, cells
        ascending."""
        rows = np.concatenate([p_rows, c_rows])
        cells = np.concatenate([p_k[p_rows], c_k[c_rows]])
        group = np.repeat([GROUP_PARTICIPANT, GROUP_COMPETITOR], [len(p_rows), len(c_rows)])
        order = np.lexsort((group, rows, cells))
        rows, group = rows[order], group[order]
        won = np.ones(len(rows), dtype=bool)
        size = np.bincount(cells, minlength=len(free))
        contested = np.flatnonzero(size > free)
        if len(contested):
            start = np.cumsum(size) - size  # each cell's first claim in sorted order
            trng = self.streams.stream("ties")
            for k in contested.tolist():
                won[start[k] + trng.permutation(int(size[k]))[free[k]:]] = False
        return rows[won & (group == GROUP_PARTICIPANT)], rows[won & (group == GROUP_COMPETITOR)]

    def _park(self, t, won_p, won_c, p_k, c_k):
        """Occupy one spot per winner, participants first, with sampled dwell."""
        p, c = self.participants, self.competitors
        ids = np.concatenate([p.ids[won_p], c.ids[won_c]])
        groups = np.repeat([GROUP_PARTICIPANT, GROUP_COMPETITOR], [len(won_p), len(won_c)])
        cells = np.concatenate([p_k[won_p], c_k[won_c]])
        dwell = sample_dwell_batch(self.cfg.dwell, len(ids), self.streams.stream("dwell"))
        self.occ.occupied += np.bincount(cells, minlength=self.n * self.n)
        self.parked.append(ids, groups, cells, dwell)
        self.parked_count[GROUP_PARTICIPANT] += len(won_p)
        self.parked_count[GROUP_COMPETITOR] += len(won_c)
        self._record(groups, np.concatenate([p.spawn[won_p], c.spawn[won_c]]), STATUS_PARKED, t, cells)
        self._emit(t, "park", ids, groups, cells)
        self.occ.check()

    def _expire(self, t):
        for agents in (self.participants, self.competitors):
            over = (t - agents.spawn) > self.cfg.t_max
            if over.any():
                self.failed_count[agents.group] += int(over.sum())
                self._record(agents.group, agents.spawn[over], STATUS_FAILED, t, -1)
                self._emit(t, "fail", agents.ids[over], agents.group, self._cells(agents.pos[over]))
                agents.keep(~over)

    def _learn(self, end):
        """At each bucket end (cord-approx only): merge the bucket's outcomes
        into the history, refresh the trend, and retrain on schedule."""
        if self.cfg.strategy is not StrategyKind.CORD_APPROX or end % BUCKET_MINUTES:
            return
        update_history(self.corpus, self.minute0 + end - BUCKET_MINUTES, self._attempts, self._successes)
        self._attempts[:] = 0
        self._successes[:] = 0
        self._trend = self.corpus.trend_vector(self.minute0 + end)
        if end % self.cfg.retrain_every == 0 and len(self.corpus):
            self.model = retrain(self.corpus)

    def _check_conservation(self):
        for agents in (self.participants, self.competitors):
            grp = agents.group
            # parked_count is cumulative: departures stay inside it
            total = len(agents) + self.parked_count[grp] + self.failed_count[grp]
            if total != self.spawned[grp]:
                raise ValidationError(
                    f"agent conservation broken for {GROUPS[grp]}: "
                    f"{self.spawned[grp]} spawned vs {total} accounted"
                )
        if int(self.occ.occupied.sum()) != len(self.parked):
            raise ValidationError("occupancy does not match the parked registry")

    def finish(self) -> RunOutcomes:
        """Censor agents still searching at horizon end."""
        for agents in (self.participants, self.competitors):
            self._record(agents.group, agents.spawn, STATUS_CENSORED, -1, -1)
        rows = np.concatenate(self._outcomes)
        return RunOutcomes(*rows.T)

    def run(self) -> RunOutcomes:
        for _ in range(self.cfg.horizon):
            self.tick()
        return self.finish()


def build_arrivals(cfg: SimConfig, grid: GridSpec, master_seed: int) -> ArrivalSeries:
    """Materialize the run's arrival series from the configured source."""
    a = cfg.arrivals
    if a.kind == "synth":
        seed = a.seed if a.seed is not None else derive_seed(master_seed, 0xDE)
        series = synth_demand(a, grid.n, cfg.horizon, cfg.shares, seed)
    else:  # "file"; ArrivalsConfig admits no other kind
        if not a.path:
            raise ConfigError("arrivals.kind=file requires arrivals.path")
        with open(a.path, "r", encoding="utf-8") as fh:
            header = fh.readline()
        if "segment_id" in header:
            records = demand_mod.parse_intensity(a.path, grid.label_to_cell)
            counts = demand_mod.disaggregate(records)
            series = demand_mod.split_demand(counts, cfg.shares[0], cfg.shares[1], horizon=cfg.horizon)
        else:
            series = demand_mod.load_series(a.path, grid.n * grid.n)
            if series.horizon > cfg.horizon:
                raise ConfigError(
                    f"arrival series spans {series.horizon} minutes, beyond horizon {cfg.horizon}"
                )
            series.horizon = cfg.horizon
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
        events_path = None
        if out_path is not None:
            name = "events.ndjson" if cfg.runs == 1 else f"events_r{run_idx}.ndjson"
            events_path = out_path / name
            sink = open(events_path, "w", encoding="utf-8")
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
                spawned=(sim.spawned[0], sim.spawned[1]),
                events_path=str(events_path) if events_path else None,
            )
        )

    report = metrics_mod.build_report(cfg, grid, results)
    if out_path is not None:
        with open(out_path / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        metrics_mod.export_report(report, out_path, grid)
    return report, results
