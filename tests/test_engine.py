import io

import numpy as np
import pytest

from conftest import bench_config

from curbsim.demand import ArrivalSeries
from curbsim.engine import (
    ArrivalsConfig,
    SimConfig,
    Simulation,
    build_arrivals,
    run_simulation,
)
from curbsim.errors import ConfigError
from curbsim.grid import CellCoord, make_grid, manhattan_matrix


def empty_series(horizon=10):
    return ArrivalSeries(horizon)


def sim_with(grid, caps, series, cfg, seed=7, sink=None):
    return Simulation(grid, caps, series, cfg, seed, sink)


def base_cfg(**kw):
    defaults = dict(
        arrivals=ArrivalsConfig(kind="synth", pattern="uniform", magnitude=0.0),
        strategy="cord-agn", horizon=10, seed=0, runs=1, log_moves=True,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def competitor_captures(sim, r=None):
    """Eq.-1 capture set over the free cells: some active competitor within r
    (default: the config's R) and strictly closer than every active
    participant; equality defers to the arrival tie-break."""
    r = sim.cfg.r if r is None else r
    free_k = np.flatnonzero(sim.occ.free() > 0)
    free_cells = np.stack([free_k // sim.n, free_k % sim.n], axis=1)

    def active(agents):
        age = sim.occ.tick - agents.spawn
        return agents.pos[(age > 0) & (age <= sim.cfg.t_max)]

    c_pos, d_pos = active(sim.competitors), active(sim.participants)
    if len(c_pos) == 0:
        return set()
    min_c = manhattan_matrix(c_pos, free_cells).min(axis=0)
    min_d = manhattan_matrix(d_pos, free_cells).min(axis=0, initial=np.iinfo(np.int64).max)
    mask = (min_c <= r) & (min_c < min_d)
    return {CellCoord(int(i), int(j)) for i, j in free_cells[mask]}


def test_captures_examples():
    grid, caps = make_grid(8, capacity=1)
    cfg = base_cfg(r=1)
    series = empty_series()

    def at_tick_one(sim):
        sim.occ.tick = 1  # agents spawned at 0 become active at tick 1
        return sim

    # competitor adjacent, nearest participant far -> captured
    sim = at_tick_one(sim_with(grid, caps, series, cfg))
    sim.competitors.append(np.array([10]), np.array([[0, 1]]), np.array([0]))
    sim.participants.append(np.array([11]), np.array([[4, 4]]), np.array([0]))
    assert CellCoord(0, 0) in competitor_captures(sim)

    # competitor outside the radius -> not captured
    sim = at_tick_one(sim_with(grid, caps, series, cfg))
    sim.competitors.append(np.array([10]), np.array([[0, 2]]), np.array([0]))
    assert CellCoord(0, 0) not in competitor_captures(sim)

    # equality with a participant defers to the arrival tie-break
    sim = at_tick_one(sim_with(grid, caps, series, cfg))
    sim.competitors.append(np.array([10]), np.array([[0, 1]]), np.array([0]))
    sim.participants.append(np.array([11]), np.array([[1, 0]]), np.array([0]))
    assert CellCoord(0, 0) not in competitor_captures(sim)


def test_tick_noop():
    grid, caps = make_grid(4, capacity=1)
    sim = sim_with(grid, caps, empty_series(), base_cfg())
    occ_before = sim.occ.occupied.copy()
    sim.tick()
    assert sim.occ.tick == 1
    assert (sim.occ.occupied == occ_before).all()
    assert len(sim.participants) == 0 and len(sim.competitors) == 0


def test_adjacent_participant_parks_next_tick():
    grid, caps = make_grid(4, capacity=0)
    caps = caps.copy()
    caps[5] = 1  # (1,1)
    series = ArrivalSeries(10, participants={(6, 0): 1})  # spawn at (1,2), adjacent
    cfg = base_cfg()
    sim = sim_with(grid, caps, series, cfg)
    sim.tick()
    assert sim.parked_count[0] == 0  # newly spawned agents act from the next tick
    sim.tick()
    assert sim.parked_count[0] == 1
    out = sim.finish()
    assert out.terminal[0] - out.spawn[0] == 1  # search time equals the distance


def test_search_time_equals_initial_distance():
    grid, caps = make_grid(8, capacity=0)
    caps = caps.copy()
    caps[0] = 1  # spot at (0,0)
    series = ArrivalSeries(20, participants={(7 * 8 + 7, 0): 1})  # spawn at (7,7), distance 14
    sim = sim_with(grid, caps, series, base_cfg(horizon=20))
    out = sim.run()
    assert out.status[0] == 0
    assert out.terminal[0] - out.spawn[0] == 14


def test_tie_break_frequency_micro():
    # one participant and one competitor flank the last free spot; each should
    # win about half of seeded replays (sd ~ 0.0035 at 20k trials)
    grid, caps = make_grid(4, capacity=0)
    caps = caps.copy()
    caps[5] = 1
    series = ArrivalSeries(4, participants={(4, 0): 1}, competitors={(6, 0): 1})
    wins = 0
    trials = 20_000
    for seed in range(trials):
        sim = sim_with(grid, caps, series, base_cfg(horizon=2), seed=seed)
        sim.tick()
        sim.tick()
        wins += sim.parked_count[0]
    assert abs(wins / trials - 0.5) < 0.02


def test_unassigned_keeps_stale_target():
    grid, caps = make_grid(6, capacity=0)
    caps = caps.copy()
    caps[0] = 1  # single spot at (0,0)
    series = ArrivalSeries(10, participants={(5 * 6 + 5, 0): 1})
    sim = sim_with(grid, caps, series, base_cfg(horizon=10, checks=False))
    sim.tick()
    sim.tick()
    assert tuple(sim.participants.target[0]) == (0, 0)
    # someone takes the spot: no free spots remain (registry bypassed, checks off)
    sim.occ.occupied[0] = 1
    pos_before = sim.participants.pos[0].copy()
    sim.tick()
    # dispatch had nothing to offer; the stale target still pulls the agent
    assert tuple(sim.participants.target[0]) == (0, 0)
    d_before = abs(pos_before[0] - 0) + abs(pos_before[1] - 0)
    p = sim.participants.pos[0]
    assert abs(p[0]) + abs(p[1]) == d_before - 1


def test_expiry_strictly_after_budget():
    grid, caps = make_grid(4, capacity=0)  # no spots anywhere
    series = ArrivalSeries(40, participants={(5, 2): 1})
    cfg = base_cfg(horizon=40, t_max=5)
    sim = sim_with(grid, caps, series, cfg)
    out = sim.run()
    assert out.status[0] == 1
    assert out.terminal[0] - out.spawn[0] == 6  # first tick strictly over budget


def test_run_simulation_horizon_zero():
    grid, caps = make_grid(4, capacity=1)
    report, results = run_simulation(base_cfg(horizon=0), grid=grid, capacity=caps)
    assert results[0].spawned == (0, 0)
    assert report["runs"][0]["hourly"] == []


def test_runs_derive_three_seeds():
    grid, caps = make_grid(4, capacity=1)
    cfg = base_cfg(runs=3, arrivals=ArrivalsConfig(kind="synth", pattern="uniform", magnitude=0.05))
    report, results = run_simulation(cfg, grid=grid, capacity=caps)
    seeds = [r.seed for r in results]
    assert len(set(seeds)) == 3
    assert [run["seed"] for run in report["runs"]] == seeds


def test_same_seed_identical_logs(tmp_path):
    grid, caps = make_grid(5, capacity=1)
    cfg = base_cfg(
        horizon=120,
        runs=1,
        arrivals=ArrivalsConfig(kind="synth", pattern="hotspot", magnitude=0.1, centers=[(2, 2)]),
    )
    buf_a, buf_b = io.StringIO(), io.StringIO()
    series = build_arrivals(cfg, grid, cfg.seed)
    Simulation(grid, caps, series, cfg, 99, buf_a).run()
    Simulation(grid, caps, series, cfg, 99, buf_b).run()
    assert buf_a.getvalue() == buf_b.getvalue()
    assert len(buf_a.getvalue()) > 0


def test_paired_spawns_across_strategies():
    grid, caps = make_grid(5, capacity=1)
    spawn_logs = []
    for strategy in ("unc-agn", "cord-oracle"):
        cfg = base_cfg(
            strategy=strategy, horizon=60,
            arrivals=ArrivalsConfig(kind="synth", pattern="hotspot", magnitude=0.2, centers=[(2, 2)]),
        )
        buf = io.StringIO()
        series = build_arrivals(cfg, grid, cfg.seed)
        Simulation(grid, caps, series, cfg, 4, buf).run()
        spawns = [l for l in buf.getvalue().splitlines() if '"spawn"' in l]
        spawn_logs.append(spawns)
    assert spawn_logs[0] == spawn_logs[1]


def test_conservation_counters():
    grid, caps = make_grid(6, capacity=1)
    cfg = base_cfg(
        horizon=240, checks=True,
        arrivals=ArrivalsConfig(kind="synth", pattern="hotspot", magnitude=0.3, centers=[(3, 3)]),
        initial_occupancy=0.5,
    )
    series = build_arrivals(cfg, grid, cfg.seed)
    sim = Simulation(grid, caps, series, cfg, 11)
    out = sim.run()
    for code in (0, 1):
        spawned = sim.spawned[code]
        resolved = int(((out.group == code) & (out.status != 2)).sum())
        censored = int(((out.group == code) & (out.status == 2)).sum())
        assert spawned == resolved + censored


def test_all_strategies_run_end_to_end(bootstrap_history, bench_city):
    grid, caps = bench_city
    for strategy in ("unc-agn", "cord-agn", "cord-oracle", "cord-approx"):
        cfg = bench_config(strategy, seed=3,
                           history_file=bootstrap_history if strategy == "cord-approx" else None)
        cfg.horizon = 240
        report, results = run_simulation(cfg, grid=grid, capacity=caps)
        assert results[0].spawned[1] > 0
        assert results[0].availability.shape == (240,)


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(r=-1)
    with pytest.raises(ConfigError):
        SimConfig(runs=0)
    with pytest.raises(ConfigError):
        SimConfig(initial_occupancy=1.5)


@pytest.mark.parametrize("every", [0, -60, 30, 90])
def test_retrain_every_must_be_positive_multiple_of_bucket(every):
    # 0 used to divide by zero mid-run; 90 quietly retrained every 180 min
    with pytest.raises(ConfigError, match="retrain_every"):
        SimConfig(retrain_every=every)


def test_retrain_every_multiples_of_bucket_accepted():
    for every in (60, 120, 360):
        assert SimConfig(retrain_every=every).retrain_every == every


@pytest.mark.parametrize("field, value", [
    ("history_groups", "bth"), ("weekday", 9), ("weekday", -1), ("t_max", 0),
])
def test_config_rejects_out_of_range_fields(field, value):
    with pytest.raises(ConfigError, match=field):
        SimConfig(**{field: value})


def test_config_accepts_field_bounds():
    for kwargs in ({"history_groups": "both"}, {"weekday": 0}, {"weekday": 6}, {"t_max": 1}):
        SimConfig(**kwargs)


def test_arrival_file_sniffing(tmp_path):
    grid, caps = make_grid(3, capacity=1)
    intensity = tmp_path / "intensity.csv"
    intensity.write_text(
        "segment_id,interval_start,count,geohash7,overlap_fraction\n"
        "s1,2024-04-18T00:00:00,40,g000004,1.0\n"
    )
    cfg = base_cfg(horizon=15, shares=(0.5, 0.5),
                   arrivals=ArrivalsConfig(kind="file", path=str(intensity)))
    series = build_arrivals(cfg, grid, 0)
    assert series.total("participant") + series.total("competitor") > 0

    from curbsim.demand import save_series
    direct = tmp_path / "series.csv"
    save_series(direct, series)
    cfg2 = base_cfg(horizon=15, arrivals=ArrivalsConfig(kind="file", path=str(direct)))
    series2 = build_arrivals(cfg2, grid, 0)
    assert series2.participants == series.participants
