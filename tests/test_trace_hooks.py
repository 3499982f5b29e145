"""The benchmark's tracer wraps curbsim functions by name from outside the
package; a rename in src/ must fail here, not only under --trace."""
import io
from dataclasses import replace

import numpy as np

from curbsim.engine import Simulation, build_arrivals
from curbsim.grid import make_grid
from perfbench.tracing import SPANS, Tracer
from perfbench.workloads import city22_config, lattice_capacity


def test_every_span_target_is_bound_where_it_is_patched():
    for owner, attr, name in SPANS:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is gone"


def test_tracer_sees_the_predictor_on_a_cord_approx_run():
    cfg = replace(city22_config("cord-approx", 7), horizon=120)
    grid, _ = make_grid(22, capacity=1, zones=3)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in SPANS]
    tracer = Tracer()
    tracer.install()
    try:
        sim = Simulation(grid, lattice_capacity(22), build_arrivals(cfg, grid, cfg.seed), cfg, cfg.seed)
        sim.run()
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    layers = tracer.layer_metrics(days=1)
    for span in ("predictor.retrain", "predictor.predict", "predictor.trend", "predictor.update"):
        assert layers[f"{span}_s"] > 0, span
    assert layers["predictor.retrains"] == 2
    assert layers["predictor.corpus_records"] > 0
    assert layers["engine.ticks"] == 120


def test_tracer_counts_every_event_line_and_byte():
    """The benchmark's per-layer event counters wrap sink.write and count one
    event per call, so the engine must write each event line on its own."""
    cfg = replace(city22_config("cord-oracle", 7), horizon=30, log_moves=True)
    grid, _ = make_grid(22, capacity=1, zones=3)
    sink = io.StringIO()
    tracer = Tracer()
    tracer.install()
    try:
        Simulation(grid, lattice_capacity(22), build_arrivals(cfg, grid, cfg.seed), cfg, cfg.seed, sink).run()
    finally:
        tracer.uninstall()
    log = sink.getvalue()
    layers = tracer.layer_metrics(days=1)
    assert layers["engine.events"] == log.count("\n") > 0
    assert layers["engine.event_bytes"] == len(log.encode("utf-8"))


def test_tracer_counts_one_assignment_per_dispatch_target_row():
    """The tracer reads len(dispatch(...)) as the number assigned; unc-agn
    targets every participant it is offered, so the share is exactly 1."""
    cfg = replace(city22_config("unc-agn", 7), horizon=30)
    grid, _ = make_grid(22, capacity=1, zones=3)
    tracer = Tracer()
    tracer.install()
    try:
        Simulation(grid, lattice_capacity(22), build_arrivals(cfg, grid, cfg.seed), cfg, cfg.seed).run()
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(days=1)
    assert layers["strategies.dispatch_calls"] > 0
    assert layers["strategies.assigned_share"] == 1.0


def test_tracer_counts_competitor_pairs_and_oracle_entries_exactly(monkeypatch):
    """Both counters read positional arguments: step_competitors_batch's
    (pos, free_cells) and oracle_cost_matrix's first two lengths (nd, nf)."""
    cfg = replace(city22_config("cord-oracle", 7), horizon=30)
    grid, _ = make_grid(22, capacity=1, zones=3)
    seen = []
    free_spots = Simulation._free_spots

    def spy(sim, t):
        spots = free_spots(sim, t)
        active = [int(np.count_nonzero(sim._active(t) & (sim.searching.group == code))) for code in (0, 1)]
        seen.append((len(spots.k), *active))
        return spots

    monkeypatch.setattr(Simulation, "_free_spots", spy)
    tracer = Tracer()
    tracer.install()
    try:
        Simulation(grid, lattice_capacity(22), build_arrivals(cfg, grid, cfg.seed), cfg, cfg.seed).run()
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(days=1)
    assert len(seen) == 30
    assert layers["agents.step_competitors_pairs"] == sum(nf * nc for nf, _, nc in seen) > 0
    assert layers["strategies.oracle_matrix_entries"] == sum(nf * nd for nf, nd, _ in seen) > 0
