"""Golden outputs: a 240-tick run of each strategy on the 10x10 bench city,
event log on with moves, pinned by the sha256 of its outcome columns and of
its events.ndjson; and the report side, a 2-run cord-agn run's report.json,
CSV tables and heatmaps, pinned by the sha256 of each file.

The pins hold the outputs of the code as it was when they were recorded. A
change meant to be byte-identical must leave them as they are; a change that
alters the random-draw pattern updates them and says so in CHANGES.md.
"""
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from conftest import bench_config

from curbsim.engine import run_simulation

GOLDEN = {
    "unc-agn": ("06b6d131692a7cf1339e01e4801f6a56965ab0b53ca280cff0f5bad11c5584b3",
                "d5fe3531fcbaf7f470aef2d1083520223f8b46d30db3511267d8835e0021a613"),
    "cord-agn": ("c1f08055342db2ab9a9797de437f333f0980de1ee36d4c7fd30b17613e13fc60",
                 "c19a03c24ed1f40c51f61434ac2d4f0ffce160d351283e0ca61b9e42e7f7cb68"),
    "cord-oracle": ("3f9a1eae1113075130e0862a30ff7340000d3251f6d73892877ae5e3c7660c56",
                    "98e87d8e46a7e67baa77defdfb1cc560831ac392de9b88ddba69ca5896468b05"),
    # cold start: no history file, so the hourly retrains fit this run's own observations
    "cord-approx": ("b0e8a00e0f2fd8567e66d8696b2590710299156835e1911e51513601d1356c78",
                    "ba2d681ce188d67757cf2afff63bed5bae894135a3e3ef710b50984bcea8b411"),
}


def outcome_digest(o) -> str:
    h = hashlib.sha256()
    for col in (o.group, o.spawn, o.status, o.terminal, o.park_cell):
        h.update(np.ascontiguousarray(col, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("strategy", sorted(GOLDEN))
def test_bench_city_outputs_match_their_pins(strategy, bench_city, tmp_path):
    grid, caps = bench_city
    cfg = replace(bench_config(strategy, seed=3), horizon=240, log_moves=True)
    _, results = run_simulation(cfg, out_dir=tmp_path, grid=grid, capacity=caps)
    events = hashlib.sha256((tmp_path / "events.ndjson").read_bytes()).hexdigest()
    assert (outcome_digest(results[0].outcomes), events) == GOLDEN[strategy]


# a 240-tick, 2-run cord-agn run (no event moves) on the same city: the
# multi-run report, series columns, regimes, zones and both heatmaps
EXPORTS = {
    "report.json": "11dbebd2abdcfa88e319de2f6d0a19cb4054946f958a8456bfffeaa4b18bf20c",
    "series.csv": "eed70b51b7b889e4c6b33a88e926c5d99166610faae6f79c18840b58c0150fc9",
    "regimes.csv": "3d84a39b5bdd9083deaeefff18285e0da66a71ee36fbe469c8b78f62210155c7",
    "zones.csv": "74e3a790b853ce34c0dd9a0c2ceb18b6557b1cee4f7ce9a54c21977f296ab93c",
    "heatmap_participant.svg": "dddd1e48b9c5a268a8034e33f97156f715ab1c3560100d14bd7e69a886c7a88e",
    "heatmap_competitor.svg": "52caa2673c8e2388af64f7883d41c490b97ad943c11dce270facb2fb2afa348d",
}


def test_bench_city_report_exports_match_their_pins(bench_city, tmp_path):
    grid, caps = bench_city
    cfg = replace(bench_config("cord-agn", seed=3, runs=2), horizon=240)
    run_simulation(cfg, out_dir=tmp_path, grid=grid, capacity=caps)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in EXPORTS}
    assert got == EXPORTS
