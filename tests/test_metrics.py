import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curbsim.engine import ArrivalsConfig, SimConfig, run_simulation
from curbsim.grid import make_grid
from curbsim.metrics import (
    GROUPS,
    REGIME_BINS,
    RunOutcomes,
    avg_search_time,
    export_report,
    fold_events,
    outcome_blocks,
    regime_gap,
    success_ratio,
    zone_report,
)


def outcomes_from(rows):
    return RunOutcomes(*np.array(rows, np.int64).reshape(-1, 5).T)


def test_success_ratio_examples():
    rows = [(0, 5, 0, 10, 3)] * 7 + [(0, 5, 1, 20, -1)] * 3
    o = outcomes_from(rows)
    assert success_ratio(o, 0, (0, 60)) == pytest.approx(0.7)
    assert success_ratio(o, 1, (0, 60)) is None  # zero spawned -> undefined


def test_censored_excluded_from_both():
    rows = [(0, 5, 0, 10, 3), (0, 5, 1, 40, -1), (0, 5, 2, -1, -1)]
    o = outcomes_from(rows)
    parked = success_ratio(o, 0, (0, 60))
    assert parked == pytest.approx(0.5)  # censored agent out of the denominator


def test_avg_search_time_examples():
    rows = [(0, 0, 0, 3, 1), (0, 0, 0, 7, 2)]
    o = outcomes_from(rows)
    assert avg_search_time(o, 0, (0, 60)) == pytest.approx(5.0)
    failures = outcomes_from([(0, 0, 1, 31, -1)])
    assert avg_search_time(failures, 0, (0, 60)) is None


def test_regime_gap_identical_and_empty():
    avail = np.concatenate([np.full(50, 0.22), np.full(50, 0.80)])
    rows = [(0, t, 0, t + 2, 1) for t in range(0, 40)] + [(1, t, 0, t + 2, 2) for t in range(0, 40)]
    o = outcomes_from(rows)
    gaps = regime_gap(o, avail)
    assert gaps["intermediate"] == pytest.approx(0.0)
    assert gaps["high"] is None  # no ticks recorded in that regime
    assert gaps["low"] is None


def test_regime_gap_matches_brute_recount():
    rng = np.random.default_rng(0)
    avail = rng.uniform(0.0, 0.5, 300)
    rows = []
    for _ in range(800):
        group = int(rng.integers(0, 2))
        spawn = int(rng.integers(0, 300))
        status = int(rng.integers(0, 2))
        rows.append((group, spawn, status, spawn + 3, 0 if status == 0 else -1))
    o = outcomes_from(rows)
    gaps = regime_gap(o, avail)
    for label, lo, hi in REGIME_BINS:
        per_group = []
        for g in (0, 1):
            n = ok = 0
            for group, spawn, status, *_ in rows:
                if group == g and lo <= avail[spawn] < hi:
                    n += 1
                    ok += status == 0
            per_group.append(ok / n if n else None)
        want = None if None in per_group else per_group[0] - per_group[1]
        if want is None:
            assert gaps[label] is None
        else:
            assert gaps[label] == pytest.approx(want)


def test_zone_report_partition_identity():
    rng = np.random.default_rng(1)
    rows = []
    for _ in range(200):
        cell = int(rng.integers(0, 16))
        spawn = int(rng.integers(0, 100))
        rows.append((0, spawn, 0, spawn + int(rng.integers(1, 9)), cell))
    o = outcomes_from(rows)
    whole = {"all": list(range(16))}
    zr = zone_report(o, whole, (0, 200))
    assert zr["all"]["participant"] == pytest.approx(avg_search_time(o, 0, (0, 200)))

    left = [k for k in range(16) if k % 4 < 2]
    right = [k for k in range(16) if k % 4 >= 2]
    two = zone_report(o, {"L": left, "R": right}, (0, 200))
    n_l = sum(1 for r in rows if r[4] in left)
    n_r = sum(1 for r in rows if r[4] in right)
    recombined = (two["L"]["participant"] * n_l + two["R"]["participant"] * n_r) / (n_l + n_r)
    assert recombined == pytest.approx(avg_search_time(o, 0, (0, 200)))
    assert two["L"]["competitor"] is None  # no competitor parks -> undefined


def _small_report(tmp_path, runs=1):
    grid, caps = make_grid(5, capacity=1, zones=3)
    cfg = SimConfig(
        arrivals=ArrivalsConfig(kind="synth", pattern="hotspot", magnitude=0.15, centers=[(2, 2)]),
        strategy="cord-agn", horizon=180, seed=5, runs=runs, peak_window=(0, 180),
    )
    report, results = run_simulation(cfg, out_dir=tmp_path, grid=grid, capacity=caps)
    return grid, cfg, report, results


def test_export_byte_stable(tmp_path):
    grid, cfg, report, _ = _small_report(tmp_path / "a")
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    export_report(report, out1, grid)
    export_report(report, out2, grid)
    for name in ("series.csv", "regimes.csv", "zones.csv", "heatmap_participant.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_export_headers_when_empty(tmp_path):
    grid, caps = make_grid(4, capacity=1)
    cfg = SimConfig(
        arrivals=ArrivalsConfig(kind="synth", pattern="uniform", magnitude=0.0),
        strategy="cord-agn", horizon=0, seed=1, runs=1,
    )
    report, _ = run_simulation(cfg, grid=grid, capacity=caps)
    export_report(report, tmp_path, grid)
    series = (tmp_path / "series.csv").read_text().splitlines()
    assert series[0] == "hour,strategy,group,success_ratio,avg_search_time,n"
    assert len(series) == 1


def test_multirun_series_has_per_run_columns(tmp_path):
    grid, cfg, report, _ = _small_report(tmp_path / "runs", runs=3)
    export_report(report, tmp_path, grid)
    header = (tmp_path / "series.csv").read_text().splitlines()[0].split(",")
    assert header[:6] == ["hour", "strategy", "group", "success_ratio", "avg_search_time", "n"]
    assert header[6:] == ["success_ratio_r0", "success_ratio_r1", "success_ratio_r2"]


def test_fold_events_matches_engine(tmp_path):
    grid, cfg, report, results = _small_report(tmp_path / "log")
    folded = fold_events(tmp_path / "log" / "events.ndjson", cfg.t_max)
    o = results[0].outcomes

    def rows(out):
        return sorted(zip(out.group, out.spawn, out.status, out.terminal, out.park_cell))

    assert rows(o) == rows(folded)


def test_report_structure(tmp_path):
    grid, cfg, report, _ = _small_report(tmp_path / "log")
    blob = json.dumps(report)
    assert "aggregate" in report and "runs" in report
    assert report["strategy"] == "cord-agn"
    assert len(report["runs"][0]["hourly"]) == 2 * (cfg.horizon // 60)
    json.loads(blob)


# --- every report statistic against a per-agent recount ---

# cells 6..8 form a zone no agent parks in
RECOUNT_ZONES = {"a": [0, 1, 2], "b": [3, 4, 5], "c": [6, 7, 8]}
# availability values on and around the regime bin edges
AVAILABILITY = (0.0, 0.03, 0.05, 0.2, 0.22, 0.25, 0.4, 0.44, 0.45, 0.7)


@st.composite
def recount_case(draw):
    horizon = draw(st.integers(0, 200))
    lo = draw(st.integers(0, horizon))
    window = (lo, draw(st.integers(lo, horizon)))
    availability = np.array(draw(st.lists(st.sampled_from(AVAILABILITY), min_size=horizon, max_size=horizon)))
    rows = []
    for _ in range(draw(st.integers(0, 60)) if horizon else 0):
        group = draw(st.integers(0, 1))
        spawn = draw(st.integers(0, horizon - 1))
        status = draw(st.integers(0, 2))
        if status == 0:
            rows.append((group, spawn, 0, spawn + draw(st.integers(0, 30)), draw(st.integers(0, 5))))
        elif status == 1:
            rows.append((group, spawn, 1, spawn + 31, -1))
        else:
            rows.append((group, spawn, 2, -1, -1))
    return horizon, window, availability, rows


def _recount(rows, group, window, cells=None):
    """The outcome block of one group over spawns in window, agent by agent;
    cells, when given, keeps only parks in them."""
    lo, hi = window
    mine = [r for r in rows if r[0] == group and lo <= r[1] < hi]
    parked = [r for r in mine if r[2] == 0 and (cells is None or r[4] in cells)]
    failed = sum(r[2] == 1 for r in mine)
    resolved = len(parked) + failed
    return {
        "success_ratio": len(parked) / resolved if resolved else None,
        "avg_search_time": sum(r[3] - r[1] for r in parked) / len(parked) if parked else None,
        "spawned": len(mine),
        "parked": len(parked),
        "failed": failed,
        "censored": sum(r[2] == 2 for r in mine),
    }


@settings(max_examples=200, deadline=None)
@given(recount_case())
def test_outcome_blocks_and_regimes_equal_a_per_agent_recount(case):
    # integer counts and sums stay exact in float64, so every ratio and mean
    # is the one correctly rounded double and equality is exact
    horizon, window, availability, rows = case
    o = outcomes_from(rows)
    cfg = SimpleNamespace(peak_window=window, horizon=horizon)
    grid = SimpleNamespace(zones=lambda: RECOUNT_ZONES)
    blocks = outcome_blocks(cfg, grid, o)

    want = {"peak": {}, "full_day": {}, "hourly": [], "zones": {}}
    for code, name in enumerate(GROUPS):
        want["peak"][name] = _recount(rows, code, window)
        want["full_day"][name] = _recount(rows, code, (0, horizon))
    for hour in range(math.ceil(horizon / 60)):
        for code, name in enumerate(GROUPS):
            got = _recount(rows, code, (hour * 60, hour * 60 + 60))
            want["hourly"].append({
                "hour": hour, "group": name, "success_ratio": got["success_ratio"],
                "avg_search_time": got["avg_search_time"], "n": got["parked"] + got["failed"],
            })
    for zone_id, cells in RECOUNT_ZONES.items():
        want["zones"][zone_id] = {
            name: _recount(rows, code, window, cells)["avg_search_time"]
            for code, name in enumerate(GROUPS)
        }
    assert blocks == want
    assert set(blocks["zones"]["c"].values()) == {None}
    # the hours, a partial last one included, cover the day
    resolved = sum(block["parked"] + block["failed"] for block in blocks["full_day"].values())
    assert sum(row["n"] for row in blocks["hourly"]) == resolved

    gaps = regime_gap(o, availability)
    for label, lo, hi in REGIME_BINS:
        ratios = [
            _recount([r for r in rows if lo <= availability[r[1]] < hi], code, (0, horizon))["success_ratio"]
            for code in (0, 1)
        ]
        assert gaps[label] == (None if None in ratios else ratios[0] - ratios[1])
