"""Rolling-horizon simulation loop.

Tick order is fixed: (1) spawn the minute's arrivals, (2) decrement dwell and
depart finished vehicles, (3) compute competitor captures and sample
availability, (4) dispatch per strategy, (5) step all searching agents,
(6) resolve parking claims per cell with uniform tie-breaks, (7) fail agents
over the search budget, then merge outcomes into the predictor history on
hour boundaries (cord-approx only). Departures run before dispatch so freed
spots are assignable the same minute.

Determinism: every stochastic concern draws from its own seeded stream
(demand, strategy ties, movement, parking ties, dwell), in a fixed order
within each tick, so identical (config, seed) reproduce identical event logs
byte for byte and changing the strategy never perturbs arrivals.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import demand as demand_mod
from .agents import DwellSpec, sample_dwell_batch, step_competitors_batch, step_toward_batch
from .demand import ArrivalSeries, SynthSpec, scale_series, synth_demand
from .errors import ConfigError, ValidationError
from .grid import GridSpec, OccupancyState, load_grid, manhattan_matrix
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
from .strategies import OracleContext, StrategyKind, capture_prob_table, dispatch, parse_strategy

GROUP_PARTICIPANT = 0
GROUP_COMPETITOR = 1
GROUP_PHANTOM = 2
GROUP_NAMES = ("participant", "competitor")

STATUS_PARKED = 0
STATUS_FAILED = 1
STATUS_CENSORED = 2


@dataclass
class ArrivalsConfig:
    kind: str = "synth"  # synth | file (file = arrival series or raw intensity)
    path: str | None = None
    pattern: str = "hotspot"
    magnitude: float = 0.05
    peak_minute: int = 720
    centers: list | None = None
    static_centers: list | None = None
    n_centers: int = 2
    decay: float = 3.0
    rotate_every: int = 0
    seed: int | None = None  # hotspot center placement; None derives from master


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
    clip_reachable: bool = False
    history_file: str | None = None
    retrain_every: int = 60
    peak_window: tuple[int, int] = (540, 1020)
    initial_occupancy: float = 0.0
    demand_scale: float = 1.0
    weekday: int = 0
    log_moves: bool = True
    checks: bool = True
    # which outcomes feed the availability history: participant arrivals
    # estimate exactly the quantity cord-approx divides by; "both" adds
    # competitor claim outcomes
    history_groups: str = "participants"

    def __post_init__(self):
        self.strategy = parse_strategy(self.strategy)
        if isinstance(self.arrivals, dict):
            self.arrivals = ArrivalsConfig(**self.arrivals)
        if isinstance(self.dwell, dict):
            self.dwell = DwellSpec(**self.dwell)
        self.shares = tuple(self.shares)
        self.peak_window = tuple(self.peak_window)
        if self.r < 0:
            raise ConfigError("R must be >= 0")
        if self.horizon < 0:
            raise ConfigError("horizon must be >= 0")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if not (0.0 <= self.initial_occupancy <= 1.0):
            raise ConfigError("initial_occupancy must be in [0, 1]")

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
        if rows:
            arr = np.array(rows, dtype=np.int64)
        else:
            arr = np.zeros((0, 5), dtype=np.int64)
        return RunOutcomes(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4])


@dataclass
class RunResult:
    seed: int
    outcomes: RunOutcomes
    availability: np.ndarray  # free fraction sampled at dispatch time, per tick
    spawned: tuple[int, int]
    events_path: str | None = None


class _Agents:
    """Struct-of-arrays store for one searching group."""

    def __init__(self, with_target: bool):
        self.ids = np.zeros(0, np.int64)
        self.pos = np.zeros((0, 2), np.int64)
        self.spawn = np.zeros(0, np.int64)
        self.target = np.full((0, 2), -1, np.int64) if with_target else None

    def __len__(self):
        return len(self.ids)

    def append(self, ids, pos, spawn):
        self.ids = np.concatenate([self.ids, ids])
        self.pos = np.vstack([self.pos, pos])
        self.spawn = np.concatenate([self.spawn, spawn])
        if self.target is not None:
            self.target = np.vstack([self.target, np.full((len(ids), 2), -1, np.int64)])

    def keep(self, mask: np.ndarray):
        self.ids = self.ids[mask]
        self.pos = self.pos[mask]
        self.spawn = self.spawn[mask]
        if self.target is not None:
            self.target = self.target[mask]


class _SeriesIndex:
    """Per-minute slices of an arrival series, cells in ascending order."""

    def __init__(self, series: ArrivalSeries, group: str):
        src = series.participants if group == "participant" else series.competitors
        items = sorted(src.items())
        self.minutes = np.array([m for ((_, m), _) in items], dtype=np.int64)
        self.cells = np.array([c for ((c, _), _) in items], dtype=np.int64)
        self.counts = np.array([v for (_, v) in items], dtype=np.int64)
        order = np.argsort(self.minutes, kind="stable")
        self.minutes = self.minutes[order]
        self.cells = self.cells[order]
        self.counts = self.counts[order]

    def at(self, minute: int) -> tuple[np.ndarray, np.ndarray]:
        lo = np.searchsorted(self.minutes, minute, side="left")
        hi = np.searchsorted(self.minutes, minute, side="right")
        return self.cells[lo:hi], self.counts[lo:hi]


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
        self.p_idx = _SeriesIndex(series, "participant")
        self.c_idx = _SeriesIndex(series, "competitor")
        self.participants = _Agents(with_target=True)
        self.competitors = _Agents(with_target=False)
        self.parked_ids = np.zeros(0, np.int64)
        self.parked_group = np.zeros(0, np.int64)
        self.parked_cell = np.zeros(0, np.int64)
        self.parked_dwell = np.zeros(0, np.int64)
        self.availability = np.zeros(cfg.horizon)
        self.outcome_rows: list[tuple[int, int, int, int, int]] = []
        self.next_id = 0
        self.spawned = [0, 0]
        self.parked_count = [0, 0]
        self.failed_count = [0, 0]
        self.departed_count = [0, 0]
        self._p_table = None
        if cfg.strategy is StrategyKind.CORD_ORACLE:
            self._p_table = capture_prob_table(cfg.r, 2 * (self.n - 1))

        # predictor state (cord-approx)
        self.corpus = corpus
        self.model = None
        self.minute0 = 0
        if cfg.strategy is StrategyKind.CORD_APPROX:
            if self.corpus is None:
                self.corpus = HistoryCorpus(self.n * self.n, cfg.weekday)
            if len(self.corpus):
                self.minute0 = (max(r.bucket_start for r in self.corpus.records) // 1440 + 1) * 1440
            self.model = retrain(self.corpus) if len(self.corpus) else uniform_model(self.n * self.n)
            self._trend = self.corpus.trend_vector(self.minute0)
            self._attempts = np.zeros(self.n * self.n, np.int64)
            self._successes = np.zeros(self.n * self.n, np.int64)

        if cfg.initial_occupancy > 0:
            self._place_phantoms()

    # --- helpers ---

    def _emit(self, tick, agent_id, group, event, cell_k):
        if self.sink is not None:
            self.sink.write(
                f'{{"tick": {tick}, "agent_id": {agent_id}, "group": "{group}", '
                f'"event": "{event}", "cell": {cell_k}}}\n'
            )

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
        self.parked_ids = np.concatenate([self.parked_ids, np.full(len(cells), -1, np.int64)])
        self.parked_group = np.concatenate([self.parked_group, np.full(len(cells), GROUP_PHANTOM, np.int64)])
        self.parked_cell = np.concatenate([self.parked_cell, cells])
        self.parked_dwell = np.concatenate([self.parked_dwell, dwell])
        self.occ.check()

    def _spawn(self, t):
        for group, idx, agents in (
            (GROUP_PARTICIPANT, self.p_idx, self.participants),
            (GROUP_COMPETITOR, self.c_idx, self.competitors),
        ):
            cells, counts = idx.at(t)
            total = int(counts.sum())
            if total == 0:
                continue
            ks = np.repeat(cells, counts)
            ids = np.arange(self.next_id, self.next_id + total, dtype=np.int64)
            self.next_id += total
            pos = np.stack([ks // self.n, ks % self.n], axis=1)
            agents.append(ids, pos, np.full(total, t, np.int64))
            self.spawned[group] += total
            name = GROUP_NAMES[group]
            for aid, k in zip(ids, ks):
                self._emit(t, int(aid), name, "spawn", int(k))

    def _depart(self, t):
        if len(self.parked_dwell) == 0:
            return
        self.parked_dwell -= 1
        done = self.parked_dwell <= 0
        if done.any():
            freed = np.bincount(self.parked_cell[done], minlength=self.n * self.n)
            self.occ.occupied -= freed
            for gi, aid, k in zip(self.parked_group[done], self.parked_ids[done], self.parked_cell[done]):
                if gi != GROUP_PHANTOM:
                    self.departed_count[int(gi)] += 1
                    self._emit(t, int(aid), GROUP_NAMES[int(gi)], "depart", int(k))
            keep = ~done
            self.parked_ids = self.parked_ids[keep]
            self.parked_group = self.parked_group[keep]
            self.parked_cell = self.parked_cell[keep]
            self.parked_dwell = self.parked_dwell[keep]
            if self.cfg.checks:
                self.occ.check()

    def _capture_allocation(self, free_cells, free_counts, c_pos):
        """Capacity-aware capture estimate for the oracle's offer.

        Each competitor that can see a free cell is allocated to its nearest
        one (a competitor parks at most one spot, so a lone competitor cannot
        poison a whole multi-spot cell). Returns per-cell ascending capturer
        distances (unit j of a cell is lost to a participant strictly farther
        than the j-th capturer) and the mask of unallocated competitors;
        allocated ones are committed this tick and leave the live context.
        """
        nf = len(free_cells)
        nc = len(c_pos)
        blockers = [np.zeros(0, np.int64) for _ in range(nf)]
        unallocated = np.ones(nc, dtype=bool)
        if nf == 0 or nc == 0:
            return blockers, unallocated
        dc = manhattan_matrix(c_pos, free_cells)
        nearest = np.argmin(dc, axis=1)
        best = dc[np.arange(nc), nearest]
        sees = best <= self.cfg.r
        if sees.any():
            for f in np.unique(nearest[sees]):
                dists = np.sort(best[sees & (nearest == f)])[: int(free_counts[f])]
                blockers[int(f)] = dists
            unallocated = ~sees
        return blockers, unallocated

    def tick(self):
        t = self.occ.tick
        cfg = self.cfg
        self._spawn(t)
        self._depart(t)

        # active = spawned before this tick and within the search budget, so a
        # distance-d target costs exactly d minutes of search time; over-budget
        # agents are inert in their final tick and fail at step 7
        age_p = t - self.participants.spawn
        age_c = t - self.competitors.spawn
        act_p = (age_p > 0) & (age_p <= cfg.t_max)
        act_c = (age_c > 0) & (age_c <= cfg.t_max)
        d_pos = self.participants.pos[act_p]
        c_pos = self.competitors.pos[act_c]

        free = self.occ.free()
        free_k = np.flatnonzero(free > 0)
        free_cells = np.stack([free_k // self.n, free_k % self.n], axis=1) if len(free_k) else np.zeros((0, 2), np.int64)
        b = self.occ.total_capacity
        self.availability[t] = free.sum() / b if b else 0.0

        # dispatch; captured units are withheld only from the oracle, which is
        # the one strategy entitled to know competitor positions (for the
        # others Eq. 1 plays out physically at resolution time)
        if len(d_pos):
            srng = self.streams.stream("strategy")
            offered = free_cells
            counts = free[free_k]
            kwargs = {}
            if cfg.strategy is StrategyKind.CORD_ORACLE:
                blockers, unallocated = self._capture_allocation(free_cells, counts, c_pos)
                kwargs["ctx"] = OracleContext(c_pos[unallocated], cfg.r)
                kwargs["p_table"] = self._p_table
                kwargs["unit_block_dist"] = blockers
            elif cfg.strategy is StrategyKind.CORD_APPROX:
                kwargs["p_hat"] = predict_many(
                    self.model, free_k, self.minute0 + t, self._trend,
                    self.n * self.n, cfg.weekday,
                )
            targets = dispatch(cfg.strategy, d_pos, offered, counts, srng, **kwargs)
            if targets:
                rows = np.flatnonzero(act_p)
                for local, cell in targets.items():
                    gi = rows[local]
                    old = self.participants.target[gi]
                    if old[0] != cell[0] or old[1] != cell[1]:
                        self.participants.target[gi, 0] = cell[0]
                        self.participants.target[gi, 1] = cell[1]
                        self._emit(t, int(self.participants.ids[gi]), "participant", "assign",
                                   int(cell[0] * self.n + cell[1]))

        # move; never-dispatched participants cruise like blind searchers so a
        # tick without an assignment is repositioning, not a lost minute
        mrng = self.streams.stream("movement")
        if len(self.participants):
            has_tgt = act_p & (self.participants.target[:, 0] >= 0)
            if has_tgt.any():
                old_pos = self.participants.pos[has_tgt]
                new_pos = step_toward_batch(old_pos, self.participants.target[has_tgt], mrng)
                self.participants.pos[has_tgt] = new_pos
                if cfg.log_moves and self.sink is not None:
                    moved = (old_pos != new_pos).any(axis=1)
                    ids = self.participants.ids[has_tgt]
                    for aid, p in zip(ids[moved], new_pos[moved]):
                        self._emit(t, int(aid), "participant", "move", int(p[0] * self.n + p[1]))
            adrift = act_p & (self.participants.target[:, 0] < 0)
            if adrift.any():
                new_pos = step_competitors_batch(
                    self.participants.pos[adrift], np.zeros((0, 2), np.int64), cfg.r, self.n, mrng
                )
                self.participants.pos[adrift] = new_pos
                if cfg.log_moves and self.sink is not None:
                    for aid, p in zip(self.participants.ids[adrift], new_pos):
                        self._emit(t, int(aid), "participant", "move", int(p[0] * self.n + p[1]))
        if act_c.any():
            old_pos = self.competitors.pos[act_c]
            new_pos = step_competitors_batch(old_pos, free_cells, cfg.r, self.n, mrng)
            self.competitors.pos[act_c] = new_pos
            if cfg.log_moves and self.sink is not None:
                moved = (old_pos != new_pos).any(axis=1)
                ids = self.competitors.ids[act_c]
                for aid, p in zip(ids[moved], new_pos[moved]):
                    self._emit(t, int(aid), "competitor", "move", int(p[0] * self.n + p[1]))

        # resolve claims, cell by cell, uniform winners; a participant claims
        # at its assigned cell, or wherever it stands while unassigned
        free = self.occ.free()
        has_target = self.participants.target[:, 0] >= 0
        at_target = has_target & (self.participants.pos == self.participants.target).all(axis=1)
        p_claim = act_p & (at_target | ~has_target)
        p_k = self.participants.pos[:, 0] * self.n + self.participants.pos[:, 1]
        c_k = self.competitors.pos[:, 0] * self.n + self.competitors.pos[:, 1]
        p_claim &= free[p_k] > 0
        c_claim = act_c & (free[c_k] > 0)

        p_arrived = act_p & at_target

        trng = self.streams.stream("ties")
        winners_p: list[int] = []
        winners_c: list[int] = []
        if p_claim.any() or c_claim.any():
            claim_cells = np.concatenate([p_k[p_claim], c_k[c_claim]])
            claim_group = np.concatenate([
                np.zeros(int(p_claim.sum()), np.int64),
                np.ones(int(c_claim.sum()), np.int64),
            ])
            claim_row = np.concatenate([np.flatnonzero(p_claim), np.flatnonzero(c_claim)])
            order = np.lexsort((claim_group, claim_row, claim_cells))
            claim_cells = claim_cells[order]
            claim_group = claim_group[order]
            claim_row = claim_row[order]
            start = 0
            while start < len(claim_cells):
                end = start
                k = claim_cells[start]
                while end < len(claim_cells) and claim_cells[end] == k:
                    end += 1
                m = end - start
                take = min(int(free[k]), m)
                if take == m:
                    picks = np.arange(m)
                else:
                    picks = trng.permutation(m)[:take]
                for p in np.sort(picks):
                    gi = int(claim_row[start + p])
                    if claim_group[start + p] == GROUP_PARTICIPANT:
                        winners_p.append(gi)
                    else:
                        winners_c.append(gi)
                start = end

        n_winners = len(winners_p) + len(winners_c)
        if n_winners:
            drng = self.streams.stream("dwell")
            dwell = sample_dwell_batch(cfg.dwell, n_winners, drng)
            w_rows = []
            for gi in winners_p:
                w_rows.append((GROUP_PARTICIPANT, gi))
            for gi in winners_c:
                w_rows.append((GROUP_COMPETITOR, gi))
            new_ids, new_groups, new_cells = [], [], []
            for (grp, gi), dw in zip(w_rows, dwell):
                agents = self.participants if grp == GROUP_PARTICIPANT else self.competitors
                k = int(agents.pos[gi, 0] * self.n + agents.pos[gi, 1])
                self.occ.occupied[k] += 1
                new_ids.append(int(agents.ids[gi]))
                new_groups.append(grp)
                new_cells.append(k)
                self.parked_count[grp] += 1
                self.outcome_rows.append((grp, int(agents.spawn[gi]), STATUS_PARKED, t, k))
                self._emit(t, int(agents.ids[gi]), GROUP_NAMES[grp], "park", k)
            self.parked_ids = np.concatenate([self.parked_ids, np.array(new_ids, np.int64)])
            self.parked_group = np.concatenate([self.parked_group, np.array(new_groups, np.int64)])
            self.parked_cell = np.concatenate([self.parked_cell, np.array(new_cells, np.int64)])
            self.parked_dwell = np.concatenate([self.parked_dwell, np.asarray(dwell, np.int64)])
            if cfg.checks:
                self.occ.check()

        # predictor observations: participant attempt = arrival at target,
        # competitor attempt = co-located claim
        if cfg.strategy is StrategyKind.CORD_APPROX:
            won_p = np.zeros(len(self.participants), dtype=bool)
            won_p[winners_p] = True
            np.add.at(self._attempts, p_k[p_arrived], 1)
            np.add.at(self._successes, p_k[p_arrived & won_p], 1)
            if cfg.history_groups == "both":
                won_c = np.zeros(len(self.competitors), dtype=bool)
                won_c[winners_c] = True
                np.add.at(self._attempts, c_k[c_claim], 1)
                np.add.at(self._successes, c_k[c_claim & won_c], 1)

        # remove parked agents from the searching pools
        for grp, agents, winners in (
            (GROUP_PARTICIPANT, self.participants, winners_p),
            (GROUP_COMPETITOR, self.competitors, winners_c),
        ):
            if winners:
                keep = np.ones(len(agents), dtype=bool)
                keep[winners] = False
                agents.keep(keep)

        # expire
        for grp, agents in ((GROUP_PARTICIPANT, self.participants), (GROUP_COMPETITOR, self.competitors)):
            over = (t - agents.spawn) > cfg.t_max
            if over.any():
                for aid, spawn, pos in zip(agents.ids[over], agents.spawn[over], agents.pos[over]):
                    k = int(pos[0] * self.n + pos[1])
                    self.failed_count[grp] += 1
                    self.outcome_rows.append((grp, int(spawn), STATUS_FAILED, t, -1))
                    self._emit(t, int(aid), GROUP_NAMES[grp], "fail", k)
                agents.keep(~over)

        if cfg.checks:
            self._check_conservation()

        self.occ.tick = t + 1

        # learn
        if cfg.strategy is StrategyKind.CORD_APPROX and (t + 1) % BUCKET_MINUTES == 0:
            bucket_start = self.minute0 + t + 1 - BUCKET_MINUTES
            obs = {}
            for k in np.flatnonzero(self._attempts):
                obs[(int(k), bucket_start)] = (int(self._attempts[k]), int(self._successes[k]))
            if obs:
                update_history(self.corpus, obs)
            self._attempts[:] = 0
            self._successes[:] = 0
            self._trend = self.corpus.trend_vector(self.minute0 + t + 1)
            if (t + 1) % self.cfg.retrain_every == 0 and len(self.corpus):
                self.model = retrain(self.corpus)

    def _check_conservation(self):
        for grp, agents in ((GROUP_PARTICIPANT, self.participants), (GROUP_COMPETITOR, self.competitors)):
            total = len(agents) + self.parked_count[grp] + self.failed_count[grp]
            # parked_count is cumulative: departures stay inside it
            if total != self.spawned[grp]:
                raise ValidationError(
                    f"agent conservation broken for {GROUP_NAMES[grp]}: "
                    f"{self.spawned[grp]} spawned vs {total} accounted"
                )
        if int(self.occ.occupied.sum()) != len(self.parked_cell):
            raise ValidationError("occupancy does not match the parked registry")

    def finish(self) -> RunOutcomes:
        """Censor agents still searching at horizon end."""
        for grp, agents in ((GROUP_PARTICIPANT, self.participants), (GROUP_COMPETITOR, self.competitors)):
            for spawn in agents.spawn:
                self.outcome_rows.append((grp, int(spawn), STATUS_CENSORED, -1, -1))
        return RunOutcomes.from_lists(self.outcome_rows)

    def run(self) -> RunOutcomes:
        for _ in range(self.cfg.horizon):
            self.tick()
        return self.finish()


def build_arrivals(cfg: SimConfig, grid: GridSpec, master_seed: int) -> ArrivalSeries:
    """Materialize the run's arrival series from the configured source."""
    a = cfg.arrivals
    if a.kind == "synth":
        seed = a.seed if a.seed is not None else derive_seed(master_seed, 0xDE)
        spec = SynthSpec(
            pattern=a.pattern,
            n=grid.n,
            horizon=cfg.horizon,
            magnitude=a.magnitude,
            peak_minute=a.peak_minute,
            seed=seed,
            participant_share=cfg.shares[0],
            competitor_share=cfg.shares[1],
            centers=[tuple(c) for c in a.centers] if a.centers else None,
            static_centers=[tuple(c) for c in a.static_centers] if a.static_centers else None,
            n_centers=a.n_centers,
            decay=a.decay,
            rotate_every=a.rotate_every,
        )
        series = synth_demand(spec)
    elif a.kind == "file":
        if not a.path:
            raise ConfigError("arrivals.kind=file requires arrivals.path")
        with open(a.path, "r", encoding="utf-8") as fh:
            header = fh.readline()
        if "segment_id" in header:
            records = demand_mod.parse_intensity(a.path, grid.label_to_cell)
            counts = demand_mod.disaggregate(records)
            series = demand_mod.split_demand(counts, cfg.shares[0], cfg.shares[1], horizon=cfg.horizon)
        else:
            series = demand_mod.load_series(a.path)
            if series.horizon > cfg.horizon:
                raise ConfigError(
                    f"arrival series spans {series.horizon} minutes, beyond horizon {cfg.horizon}"
                )
            series.horizon = cfg.horizon
    else:
        raise ConfigError(f"unknown arrivals kind {a.kind!r}")
    if cfg.demand_scale != 1.0:
        series = scale_series(series, cfg.demand_scale)
    return series


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
    from . import metrics as metrics_mod

    if grid is None or capacity is None:
        if not cfg.grid_file:
            raise ConfigError("config needs grid_file (or pass grid and capacity)")
        grid, capacity = load_grid(cfg.grid_file)
    series = build_arrivals(cfg, grid, cfg.seed)

    corpus_template = None
    if cfg.strategy is StrategyKind.CORD_APPROX and cfg.history_file:
        corpus_template = load_corpus(cfg.history_file, grid.n * grid.n, cfg.weekday)

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
        corpus = None
        if cfg.strategy is StrategyKind.CORD_APPROX:
            if corpus_template is not None:
                corpus = HistoryCorpus(
                    corpus_template.n_cells,
                    corpus_template.base_weekday,
                    list(corpus_template.records),
                )
            else:
                corpus = HistoryCorpus(grid.n * grid.n, cfg.weekday)
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
