import json

import numpy as np
import pytest

from curbsim.engine import ArrivalsConfig, RunOutcomes, SimConfig, run_simulation
from curbsim.grid import make_grid
from curbsim.metrics import (
    REGIME_BINS,
    avg_search_time,
    export_report,
    fold_events,
    regime_gap,
    success_ratio,
    zone_report,
)


def outcomes_from(rows):
    return RunOutcomes.from_lists(rows)


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
