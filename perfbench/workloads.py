"""The benchmark's workloads: their cities, configs and one round each.

A round is the unit the measuring loop repeats: one simulated day on the
city workloads, and one four-strategy sweep plus a ``curbsim report``
re-read of every cell on ``desk-sweep``. Every round of a run repeats the
same (config, seed), so rounds measure identical work and their outcome
digests must agree.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from curbsim.engine import ArrivalsConfig, SimConfig, Simulation, build_arrivals, run_simulation
from curbsim.grid import load_grid, make_grid, save_grid
from curbsim.metrics import GROUPS, STATUS_CENSORED, STATUS_FAILED, STATUS_PARKED
from curbsim.predictor import save_corpus
from curbsim.rng import derive_seed

STRATEGIES = ("unc-agn", "cord-agn", "cord-oracle", "cord-approx")
DWELL = {"kind": "lognormal", "minutes": 10, "sigma": 0.5}
BOOTSTRAP_DAYS = 3


def lattice_capacity(n: int) -> np.ndarray:
    """Two spots on every third cell of every third row, none elsewhere."""
    ii, jj = np.divmod(np.arange(n * n), n)
    caps = np.zeros(n * n, dtype=np.int64)
    caps[(ii % 3 == 0) & (jj % 3 == 0)] = 2
    return caps


def hotspot_weight(n: int, centers, decay: float) -> float:
    ii, jj = np.divmod(np.arange(n * n), n)
    return float(sum(np.exp(-(np.abs(ii - ci) + np.abs(jj - cj)) / decay) for ci, cj in centers).sum())


def desk_config(seed: int, grid_file: str, history_file: str | None, log_moves: bool) -> SimConfig:
    """The acceptance gate's 10x10 bench city (tests/conftest.py::bench_config)."""
    return SimConfig(
        grid_file=grid_file,
        arrivals=ArrivalsConfig(
            kind="synth", pattern="hotspot",
            magnitude=3.0 / hotspot_weight(10, [(2, 2), (7, 7)], 1.4),
            centers=[(7, 7), (2, 7), (7, 2)], static_centers=[(2, 2)],
            decay=1.4, rotate_every=180,
        ),
        strategy="cord-approx", horizon=1440, seed=seed, runs=1,
        initial_occupancy=0.78, dwell=dict(DWELL), shares=(0.015, 0.08),
        history_file=history_file, retrain_every=60, peak_window=(120, 1380),
        log_moves=log_moves,
    )


def city22_config(strategy: str, seed: int) -> SimConfig:
    """Criterion 9's 22x22 city: about 50k searching agents per day."""
    return SimConfig(
        arrivals=ArrivalsConfig(
            kind="synth", pattern="hotspot",
            magnitude=34.7 / hotspot_weight(22, [(5, 5), (16, 16)], 3.0),
            centers=[(16, 16), (5, 16), (16, 5)], static_centers=[(5, 5)],
            decay=3.0, rotate_every=360,
        ),
        strategy=strategy, horizon=1440, seed=seed, runs=1,
        initial_occupancy=0.5, dwell=dict(DWELL), log_moves=False,
    )


def config_hash(cfg: SimConfig) -> str:
    return hashlib.sha256(json.dumps(cfg.to_dict(), sort_keys=True).encode()).hexdigest()[:16]


def outcome_digest(outcomes) -> str:
    h = hashlib.sha256()
    for col in (outcomes.group, outcomes.spawn, outcomes.status, outcomes.terminal, outcomes.park_cell):
        h.update(np.ascontiguousarray(col, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def agent_ticks(outcomes, horizon: int) -> int:
    """Searching agent-minutes: an agent spawned at s and resolved at T spent
    T - s + 1 ticks in a search pool; a censored one spent horizon - s."""
    end = np.where(outcomes.status == STATUS_CENSORED, horizon - 1, outcomes.terminal)
    return int((end - outcomes.spawn + 1).sum())


def day_record(strategy: str, cfg: SimConfig, report: dict, result) -> dict:
    """What the output checks and the printed statistics need from one day."""
    o = result.outcomes
    resolved = {
        name: [int(((o.group == code) & (o.status == s)).sum())
               for s in (STATUS_PARKED, STATUS_FAILED, STATUS_CENSORED)]
        for code, name in enumerate(GROUPS)
    }
    return {
        "strategy": strategy,
        "error": None,
        "spawned": list(result.spawned),
        "resolved": resolved,
        "digest": outcome_digest(o),
        "agent_ticks": agent_ticks(o, cfg.horizon),
        "peak": {g: report["aggregate"]["peak"][g] for g in GROUPS},
    }


def failed_record(strategy: str, exc: BaseException) -> dict:
    return {"strategy": strategy, "error": f"{type(exc).__name__}: {exc}"}


def check_day(day: dict, reference: list[int]) -> str | None:
    """Why a day failed, or None: it raised, broke conservation
    (spawned = parked + failed + censored), or spawned another number of
    agents than the workload's arrival series holds."""
    if day["error"]:
        return day["error"]
    for code, name in enumerate(GROUPS):
        if sum(day["resolved"][name]) != day["spawned"][code]:
            return f"{name} conservation broken: spawned {day['spawned'][code]}, resolved {day['resolved'][name]}"
    if day["spawned"] != reference:
        return f"spawned {day['spawned']} differs from the arrival series' {reference}"
    return None


def series_reference(cfg: SimConfig, grid) -> list[int]:
    series = build_arrivals(cfg, grid, cfg.seed)
    return [series.total("participant"), series.total("competitor")]


class CityWorkload:
    """One 22x22 day per round, in memory."""

    def __init__(self, strategy: str, seed: int):
        self.strategy = strategy
        self.cfg = city22_config(strategy, seed)
        self.grid, _ = make_grid(22, capacity=1, zones=3)
        self.capacity = lattice_capacity(22)

    def run_round(self) -> list[dict]:
        try:
            report, results = run_simulation(self.cfg, grid=self.grid, capacity=self.capacity)
        except Exception as exc:  # a raising day is a failed day, not a harness error
            return [failed_record(self.strategy, exc)]
        return [day_record(self.strategy, self.cfg, report, results[0])]

    def reference(self) -> list[int]:
        return series_reference(self.cfg, self.grid)


class DeskSweepWorkload:
    """``curbsim sweep --jobs 1`` over the four strategies, then
    ``curbsim report`` on every cell, all inside this process."""

    def __init__(self, seed: int, work: Path):
        from curbsim import cli

        self.cli = cli
        self.seed = seed
        self.config_path = work / "desk.json"
        self.out = work / "sweep"
        self.cfg = cli.load_config(self.config_path)
        self._days: list[dict] = []
        run = cli.run_simulation

        def recorded_run(cfg, out_dir=None, **kwargs):
            strategy = cfg.strategy.value
            try:
                report, results = run(cfg, out_dir=out_dir, **kwargs)
            except Exception as exc:
                self._days.append(failed_record(strategy, exc))
                raise
            self._days.append(day_record(strategy, cfg, report, results[0]))
            return report, results

        cli.run_simulation = recorded_run

    @staticmethod
    def prepare(seed: int, work: Path):
        """Write the grid, the sweep config and a bootstrap history made of
        BOOTSTRAP_DAYS chained cord-approx days, so cord-approx warm-starts."""
        grid, _ = make_grid(10, capacity=1, zones=3)
        caps = lattice_capacity(10)
        grid_file = work / "desk_grid.tsv"
        save_grid(grid_file, grid, caps)
        corpus = None
        for day in range(BOOTSTRAP_DAYS):
            cfg = desk_config(derive_seed(seed, 0xB0, day), str(grid_file), None, log_moves=False)
            sim = Simulation(grid, caps, build_arrivals(cfg, grid, cfg.seed), cfg,
                             derive_seed(seed, 0xB1, day), corpus=corpus)
            sim.run()
            corpus = sim.corpus
        history_file = work / "desk_history.csv"
        save_corpus(history_file, corpus)
        cfg = desk_config(seed, str(grid_file), str(history_file), log_moves=True)
        with open(work / "desk.json", "w", encoding="utf-8") as fh:
            json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)

    def run_round(self) -> list[dict]:
        self._days = []
        self.cli.main([
            "sweep", "--config", str(self.config_path), "--strategies", ",".join(STRATEGIES),
            "--seeds", str(self.seed), "--jobs", "1", "--out", str(self.out),
        ])
        days = self._days
        by_strategy = {d["strategy"]: d for d in days}
        for s in STRATEGIES:
            if s not in by_strategy:
                days.append({"strategy": s, "error": "sweep cell never reached the engine"})
                continue
            day = by_strategy[s]
            if day["error"]:
                continue
            # recount every cell's event log against its report.json
            rc = self.cli.main(["report", str(self.out / "cells" / f"{s}_s{self.seed}")])
            if rc != 0:
                day["error"] = f"curbsim report exited {rc}"
        return days

    def reference(self) -> list[int]:
        grid, _ = load_grid(self.cfg.grid_file)
        return series_reference(self.cfg, grid)


def make_workload(name: str, seed: int, work: Path):
    if name == "desk-sweep":
        return DeskSweepWorkload(seed, work)
    if name == "city22-oracle":
        return CityWorkload("cord-oracle", seed)
    if name == "city22-approx":
        return CityWorkload("cord-approx", seed)
    raise ValueError(f"unknown workload {name!r}")
