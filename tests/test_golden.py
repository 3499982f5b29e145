"""Golden outputs: a 240-tick run of each strategy on the 10x10 bench city,
event log on with moves, pinned by the sha256 of its outcome columns and of
its events.ndjson.

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
