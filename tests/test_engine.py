import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import bench_config, draw_cells
from reference import dict_series, resolve_parking, series_of

from curbsim import engine as engine_mod
from curbsim import strategies
from curbsim.demand import ArrivalSeries
from curbsim.engine import (
    GROUP_COMPETITOR,
    GROUP_PARTICIPANT,
    GROUP_PHANTOM,
    ArrivalsConfig,
    SimConfig,
    Simulation,
    _Columns,
    build_arrivals,
    run_simulation,
)
from curbsim.errors import ConfigError
from curbsim.grid import CellCoord, make_grid, manhattan_matrix, sight_view
from curbsim.metrics import STATUS_PARKED, fold_events, hourly_series
from curbsim.predictor import HistoryCorpus
from curbsim.rng import RngStreams, derive_seed
from curbsim.strategies import StrategyKind


def sim_with(grid, caps, series, cfg, seed=7, sink=None):
    return Simulation(grid, caps, series, cfg, seed, sink)


def base_cfg(**kw):
    defaults = dict(
        arrivals=ArrivalsConfig(kind="synth", pattern="uniform", magnitude=0.0),
        strategy="cord-agn", horizon=10, seed=0, runs=1, log_moves=True,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def add_searchers(sim, ids, group, pos, spawn):
    """Append searching agents of one group code, or one code per agent,
    without a target."""
    sim.searching.append(np.asarray(ids), group, np.asarray(pos), np.asarray(spawn), -1)


def competitor_captures(sim, r=None):
    """Eq.-1 capture set over the free cells: some active competitor within r
    (default: the config's R) and strictly closer than every active
    participant; equality defers to the arrival tie-break."""
    r = sim.cfg.r if r is None else r
    free_k = np.flatnonzero(sim.occ.capacity - sim.occ.occupied > 0)
    free_cells = np.stack([free_k // sim.n, free_k % sim.n], axis=1)

    def active(group):
        s = sim.searching
        age = sim.occ.tick - s.spawn
        return s.pos[(age > 0) & (age <= sim.cfg.t_max) & (s.group == group)]

    c_pos, d_pos = active(GROUP_COMPETITOR), active(GROUP_PARTICIPANT)
    if len(c_pos) == 0:
        return set()
    min_c = manhattan_matrix(c_pos, free_cells).min(axis=0)
    min_d = manhattan_matrix(d_pos, free_cells).min(axis=0, initial=np.iinfo(np.int64).max)
    mask = (min_c <= r) & (min_c < min_d)
    return {CellCoord(int(i), int(j)) for i, j in free_cells[mask]}


def test_captures_examples():
    grid, caps = make_grid(8, capacity=1)
    cfg = base_cfg(r=1)
    series = ArrivalSeries()

    def at_tick_one(sim):
        sim.occ.tick = 1  # agents spawned at 0 become active at tick 1
        return sim

    # competitor adjacent, nearest participant far -> captured
    sim = at_tick_one(sim_with(grid, caps, series, cfg))
    add_searchers(sim, [10], GROUP_COMPETITOR, [[0, 1]], [0])
    add_searchers(sim, [11], GROUP_PARTICIPANT, [[4, 4]], [0])
    assert CellCoord(0, 0) in competitor_captures(sim)

    # competitor outside the radius -> not captured
    sim = at_tick_one(sim_with(grid, caps, series, cfg))
    add_searchers(sim, [10], GROUP_COMPETITOR, [[0, 2]], [0])
    assert CellCoord(0, 0) not in competitor_captures(sim)

    # equality with a participant defers to the arrival tie-break
    sim = at_tick_one(sim_with(grid, caps, series, cfg))
    add_searchers(sim, [10], GROUP_COMPETITOR, [[0, 1]], [0])
    add_searchers(sim, [11], GROUP_PARTICIPANT, [[1, 0]], [0])
    assert CellCoord(0, 0) not in competitor_captures(sim)


def test_tick_noop():
    grid, caps = make_grid(4, capacity=1)
    sim = sim_with(grid, caps, ArrivalSeries(), base_cfg())
    occ_before = sim.occ.occupied.copy()
    sim.tick()
    assert sim.occ.tick == 1
    assert (sim.occ.occupied == occ_before).all()
    assert len(sim.searching) == 0


def test_adjacent_participant_parks_next_tick():
    grid, caps = make_grid(4, capacity=0)
    caps = caps.copy()
    caps[5] = 1  # (1,1)
    series = series_of(participants={(6, 0): 1})  # spawn at (1,2), adjacent
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
    series = series_of(participants={(7 * 8 + 7, 0): 1})  # spawn at (7,7), distance 14
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
    series = series_of(participants={(4, 0): 1}, competitors={(6, 0): 1})
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
    series = series_of(participants={(5 * 6 + 5, 0): 1})
    sim = sim_with(grid, caps, series, base_cfg(horizon=10))
    sim.tick()
    sim.tick()
    assert tuple(sim.searching.target[0]) == (0, 0)
    # a background occupant takes the spot for the rest of the run: no free
    # spots remain, and the engine's invariant checks still hold
    sim.parked.append(np.array([-1]), np.array([GROUP_PHANTOM]), np.array([0]), np.array([100]))
    sim.occ.occupied[0] = 1
    pos_before = sim.searching.pos[0].copy()
    sim.tick()
    # dispatch had nothing to offer; the stale target still pulls the agent
    assert tuple(sim.searching.target[0]) == (0, 0)
    d_before = abs(pos_before[0] - 0) + abs(pos_before[1] - 0)
    p = sim.searching.pos[0]
    assert abs(p[0]) + abs(p[1]) == d_before - 1


def test_expiry_strictly_after_budget():
    grid, caps = make_grid(4, capacity=0)  # no spots anywhere
    series = series_of(participants={(5, 2): 1})
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


@pytest.mark.parametrize("strategy", [kind.value for kind in StrategyKind])
def test_assign_events_ascend_by_agent_id_within_a_tick(strategy, bench_city):
    """dispatch returns its targets sorted by participant row, and rows
    follow spawn order, so each tick's assign lines ascend by agent id."""
    grid, caps = bench_city
    cfg = replace(bench_config(strategy, seed=3), horizon=90)
    sink = io.StringIO()
    Simulation(grid, caps, build_arrivals(cfg, grid, cfg.seed), cfg, cfg.seed, sink).run()
    per_tick = {}
    for line in sink.getvalue().splitlines():
        event = json.loads(line)
        if event["event"] == "assign":
            per_tick.setdefault(event["tick"], []).append(event["agent_id"])
    assert sum(len(ids) > 1 for ids in per_tick.values()) >= 10
    for tick, ids in per_tick.items():
        assert ids == sorted(set(ids)), tick


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
        horizon=240,
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


def test_a_corpus_of_another_cell_count_is_a_config_error():
    # used to fail in the first forecast with a bare numpy broadcast error
    grid, caps = make_grid(10, capacity=1)
    with pytest.raises(ConfigError, match=r"^history corpus covers 4 cells, not the 10x10 grid's 100$"):
        Simulation(grid, caps, ArrivalSeries(), base_cfg(strategy="cord-approx"), 7, None, HistoryCorpus(4))


@pytest.mark.parametrize("field, value", [
    ("log_moves", "false"), ("weekday", 9), ("weekday", -1), ("t_max", 0),
    ("shares", (-0.1, 0.5)), ("shares", (0.6, 0.5)), ("shares", (0.1,)),
    ("peak_window", (600, 600)), ("peak_window", (700, 600)), ("peak_window", (-1, 60)),
    ("arrivals", {"magnitude": -0.2}), ("arrivals", {"kind": "synthetic"}), ("demand_scale", -1.0),
    ("arrivals", {"pattern": "hotsp0t"}), ("arrivals", {"decay": 0}), ("arrivals", {"decay": -1.0}),
    ("arrivals", {"centers": [[1]]}), ("arrivals", {"n_centers": 0}), ("arrivals", {"n_centers": 1.5}),
    ("arrivals", {"rotate_every": 30.5}), ("arrivals", {"rotate_every": -30}), ("runs", 1.5), ("r", 1.5),
    # JSON booleans, which Python reads as 0 and 1, are no numbers here
    ("initial_occupancy", True), ("demand_scale", True), ("shares", (True, 0.0)),
    ("arrivals", {"magnitude": True}), ("dwell", {"minutes": True}),
])
def test_config_rejects_out_of_range_fields(field, value):
    with pytest.raises(ConfigError, match=field):
        SimConfig(**{field: value})


def test_config_accepts_field_bounds():
    for kwargs in ({"log_moves": False}, {"weekday": 0}, {"weekday": 6}, {"t_max": 1},
                   {"shares": (0.0, 1.0)}, {"shares": (0.5, 0.5)}, {"peak_window": (0, 1)},
                   {"arrivals": {"kind": "file", "magnitude": 0.0}}, {"demand_scale": 0.0},
                   {"arrivals": {"n_centers": 1, "rotate_every": 0, "centers": [[0, 0]]}}, {"r": 0}):
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
    assert dict_series(series2).participants == dict_series(series).participants


@st.composite
def oracle_offers(draw):
    """An oracle dispatch input: participants, free cells (unique, 1-3 free
    spots each) and competitors on an n x n grid, R = 0, 1 or 2."""
    n, r = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    free_cells = draw_cells(draw, n, max_size=6, unique=True)
    counts = np.array(draw(st.lists(st.integers(1, 3), min_size=len(free_cells), max_size=len(free_cells))),
                      np.int64)
    return (n, r, draw_cells(draw, n, max_size=6), free_cells, counts, draw_cells(draw, n, max_size=14),
            draw(st.integers(0, 2**32)))


@settings(max_examples=300, deadline=None)
@given(oracle_offers())
def test_oracle_unit_blocking_equals_the_blocker_lists(case):
    """capture_limits' per-unit limits, applied in dispatch, hand the
    solver the same matrix as the per-cell blocker lists with the double
    loop (tests/reference.py), and dispatch returns the reference pairs
    sorted by participant row, with the same strategy draws."""
    n, r, d_pos, free_cells, counts, c_pos, seed = case
    sight = sight_view(c_pos, free_cells)
    limit, unallocated = strategies.capture_limits(sight, counts, r)
    blockers, want_unallocated = reference.capture_blockers(free_cells, counts, c_pos, r)
    assert np.array_equal(unallocated, want_unallocated)
    want_limit = [float(b[j]) if j < len(b) else np.inf for b, cnt in zip(blockers, counts) for j in range(cnt)]
    assert limit.tolist() == want_limit

    seen = []
    solve = strategies.hungarian_assign
    strategies.hungarian_assign = lambda m: seen.append(m.entries) or solve(m)
    try:
        rng = np.random.default_rng(seed)
        got = strategies.dispatch(StrategyKind.CORD_ORACLE, d_pos, free_cells, counts, rng, sight=sight, r=r)
    finally:
        strategies.hungarian_assign = solve

    if len(d_pos) == 0 or len(free_cells) == 0:
        assert got.shape == (0, 2) and seen == []
        return
    unit_cell = np.repeat(np.arange(len(free_cells)), counts)
    table = reference.capture_prob_table(r, 2 * (n - 1))
    cost = reference.oracle_cost_matrix(d_pos, free_cells, c_pos[unallocated], r, table)[:, unit_cell]
    reference.block_units(cost, d_pos, free_cells, counts, blockers)
    want_rng = np.random.default_rng(seed)
    row_perm, col_perm = want_rng.permutation(len(d_pos)), want_rng.permutation(len(unit_cell))
    want_matrix = cost[np.ix_(row_perm, col_perm)]
    assert len(seen) == 1 and np.array_equal(seen[0], want_matrix)
    want = sorted([int(row_perm[pr]), int(unit_cell[col_perm[pc]])]
                  for pr, pc in reference.solve_dense(want_matrix))
    assert got.tolist() == want
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_resolve_matches_per_cell_scalar_draws():
    """The array-wide claim resolution picks the same winners as a per-cell
    loop over the scalar contract fed by a "ties" stream with the same seed:
    claimants keyed by (row, group), cells ascending, where row counts the
    agent's group only. The two groups interleave in the searching store."""
    contested_multi = 0
    for trial in range(300):
        rng = np.random.default_rng(trial)
        n = 3
        grid, _ = make_grid(n, capacity=0)
        caps = rng.integers(0, 5, n * n)
        sim = sim_with(grid, caps, ArrivalSeries(), base_cfg(strategy="unc-agn"), seed=trial)
        sim.occ.occupied = rng.integers(0, caps // 2 + 1)
        t = sim.occ.tick = 1
        m = int(rng.integers(0, 32))
        group = rng.integers(0, 2, m)
        # spawn 1 is not yet active at tick 1 and must never claim
        add_searchers(sim, 100 + np.arange(m), group, rng.integers(0, n, (m, 2)), rng.integers(0, 2, m))
        # targets: at the agent (claims), elsewhere (does not) or none (claims
        # where it stands); a competitor never holds one
        s = sim.searching
        kind = np.where(group == GROUP_PARTICIPANT, rng.integers(0, 3, m), 2)
        s.target[kind == 0] = s.pos[kind == 0]
        s.target[kind == 1] = (s.pos[kind == 1] + 1) % n

        free = sim.occ.capacity - sim.occ.occupied
        claims: dict[int, list[tuple[int, int]]] = {}
        ids = {}
        for code in (GROUP_PARTICIPANT, GROUP_COMPETITOR):
            for row, i in enumerate((group == code).nonzero()[0].tolist()):
                k = int(s.pos[i, 0] * n + s.pos[i, 1])
                ids[(row, code)] = int(s.ids[i])
                if s.spawn[i] == 0 and kind[i] != 1 and free[k] > 0:
                    claims.setdefault(k, []).append((row, code))
        ties = RngStreams(trial).stream("ties")
        want: set[tuple[int, int]] = set()
        for k in sorted(claims):
            want |= resolve_parking(claims[k], int(free[k]), ties)
            contested_multi += 2 <= free[k] < len(claims[k])

        sim._resolve(t, sim._active(t), free)
        assert set(sim.parked.ids.tolist()) == {ids[key] for key in want}
        assert sim.parked_count.tolist() == [sum(g == 0 for _, g in want), sum(g == 1 for _, g in want)]
        assert (sim.occ.occupied <= caps).all()
    # multi-spot cells with more claims than spots: 44 over these seeds
    assert contested_multi >= 30


@st.composite
def small_configs(draw):
    n = draw(st.integers(2, 6))
    horizon = draw(st.integers(1, 120))
    caps = np.array(draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)), np.int64)
    share_p = draw(st.floats(0.0, 0.5))
    cfg = SimConfig(
        arrivals=ArrivalsConfig(kind="synth", pattern=draw(st.sampled_from(["uniform", "hotspot"])),
                                magnitude=draw(st.floats(0.0, 0.3)), seed=draw(st.integers(0, 99))),
        strategy=draw(st.sampled_from(["unc-agn", "cord-agn", "cord-oracle", "cord-approx"])),
        r=draw(st.integers(0, 2)), t_max=draw(st.integers(1, 30)),
        shares=(share_p, draw(st.floats(0.0, 1.0 - share_p))),
        dwell={"kind": "lognormal", "minutes": draw(st.floats(1.0, 30.0)), "sigma": 0.5},
        horizon=horizon, seed=draw(st.integers(0, 2**32)), runs=1, peak_window=(0, horizon),
        initial_occupancy=draw(st.sampled_from([0.0, 0.3, 0.8, 1.0])),
    )
    grid, _ = make_grid(n, capacity=0)
    return cfg, grid, caps


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_engine_invariants_on_random_small_configs(case):
    cfg, grid, caps = case
    buf = io.StringIO()
    sim = Simulation(grid, caps, build_arrivals(cfg, grid, cfg.seed), cfg, derive_seed(cfg.seed, 1, 0), buf)
    for _ in range(cfg.horizon):
        sim.tick()
        assert ((0 <= sim.occ.occupied) & (sim.occ.occupied <= caps)).all()
        for code in (GROUP_PARTICIPANT, GROUP_COMPETITOR):
            searching = int(np.count_nonzero(sim.searching.group == code))
            assert searching + sim.parked_count[code] + sim.failed_count[code] == sim.spawned[code]
    out = sim.finish()
    for code in (0, 1):
        assert (out.group == code).sum() == sim.spawned[code]
    parked = out.status == STATUS_PARKED
    assert (out.terminal[parked] - out.spawn[parked] <= cfg.t_max).all()

    with tempfile.TemporaryDirectory() as tmp:
        run_simulation(cfg, out_dir=tmp, grid=grid, capacity=caps)
        events = Path(tmp) / "events.ndjson"
        assert events.read_text(encoding="utf-8") == buf.getvalue()
        stored = json.loads((Path(tmp) / "report.json").read_text())
        folded = fold_events(events, cfg.t_max)
        assert hourly_series(folded, cfg.horizon) == stored["runs"][0]["hourly"]

    def rows(o):
        return sorted(zip(*(col.tolist() for col in (o.group, o.spawn, o.status, o.terminal, o.park_cell))))

    assert rows(folded) == rows(out)


def test_blind_walker_on_a_1x1_grid_stays_on_it():
    # the lone cell has no in-bounds neighbour; the walker used to step to cell -1
    grid, caps = make_grid(1, capacity=0)
    cfg = base_cfg(horizon=5, shares=(0.0, 1.0),
                   arrivals=ArrivalsConfig(kind="synth", pattern="uniform", magnitude=1.0))
    buf = io.StringIO()
    sim = Simulation(grid, caps, build_arrivals(cfg, grid, cfg.seed), cfg, 7, buf)
    for _ in range(5):
        sim.tick()
    events = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert [e["event"] for e in events][:1] == ["spawn"]
    assert {e["cell"] for e in events} == {0}


def test_the_engine_builds_one_sight_view_per_tick_with_a_free_spot(bench_city, monkeypatch):
    grid, caps = bench_city
    cfg = replace(bench_config("cord-oracle", seed=3), horizon=120)
    sim = Simulation(grid, caps, build_arrivals(cfg, grid, cfg.seed), cfg, cfg.seed)
    built = []
    build = engine_mod.sight_view
    monkeypatch.setattr(engine_mod, "sight_view", lambda pos, cells: built.append(sim.occ.tick) or build(pos, cells))
    sim.run()
    assert built == (sim.availability > 0).nonzero()[0].tolist() != []


def test_an_oracle_tick_without_active_competitors_prices_with_zero_columns(monkeypatch):
    """The view always exists when a free spot does: with no competitor it
    has zero columns, and the oracle prices as the dense reference does."""
    grid, caps = make_grid(6, capacity=1)
    series = series_of(participants={(0, 0): 2, (35, 1): 1, (14, 3): 2, (21, 5): 1})
    cfg = base_cfg(strategy="cord-oracle", horizon=12, r=1)
    offers, priced = [], []
    dispatch, price = engine_mod.dispatch, strategies.oracle_cost_matrix

    def spy_dispatch(kind, d_pos, free_cells, free_counts, rng, **info):
        offers.append((d_pos, free_cells, info["sight"]))
        return dispatch(kind, d_pos, free_cells, free_counts, rng, **info)

    monkeypatch.setattr(engine_mod, "dispatch", spy_dispatch)
    monkeypatch.setattr(strategies, "oracle_cost_matrix", lambda *args: priced.append(price(*args)) or priced[-1])
    sim_with(grid, caps, series, cfg).run()
    assert offers and len(priced) == len(offers)
    table = reference.capture_prob_table(1, 10)
    for (d_pos, free_cells, sight), got in zip(offers, priced):
        assert sight.dist.shape == (len(free_cells), 0) and sight.pos.shape == (0, 2)
        assert np.array_equal(got, reference.oracle_cost_matrix(d_pos, free_cells, sight.pos, 1, table))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_buffered_columns_equal_the_concatenating_store(data):
    """Random appends (a later column sometimes a broadcast scalar), keeps
    and in-place writes through the column views leave the buffered store
    equal, column for column, to tests/reference.py's Columns."""
    shapes = dict(ids=(), cell=(2,), dwell=())
    store, want = _Columns(**shapes), reference.Columns(**shapes)
    value = st.integers(-(2**40), 2**40)
    for _ in range(data.draw(st.integers(0, 30))):
        op = data.draw(st.sampled_from(["append", "keep", "write"]))
        if op == "append":
            m = data.draw(st.integers(0, 9))
            ids = np.array(data.draw(st.lists(value, min_size=m, max_size=m)), np.int64)
            cell = np.array(data.draw(st.lists(value, min_size=2 * m, max_size=2 * m)), np.int64).reshape(m, 2)
            dwell = data.draw(st.one_of(value, st.lists(value, min_size=m, max_size=m)))
            store.append(ids, cell, np.array(dwell) if isinstance(dwell, list) else dwell)
            want.append(ids, cell, np.broadcast_to(np.array(dwell, np.int64), (m,)))
        elif op == "keep":
            mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(want), max_size=len(want))), bool)
            store.keep(mask)
            want.keep(mask)
        else:
            store.dwell -= 1
            want.dwell -= 1
            store.cell[::2] = 7
            want.cell[::2] = 7
        assert len(store) == len(want)
        for name in shapes:
            got = getattr(store, name)
            assert got.dtype == np.int64 and np.array_equal(got, getattr(want, name)), name
