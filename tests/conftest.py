"""Shared fixtures: the benchmark city, scenario builders, and oracles."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from curbsim.engine import ArrivalsConfig, SimConfig, Simulation, build_arrivals
from curbsim.grid import GridSpec, make_grid
from curbsim.metrics import STATUS_CENSORED, STATUS_PARKED

# --- benchmark city: 10x10, spots on a 3-spaced lattice, two-zone demand ---

N = 10
STATIC_CENTERS = [(2, 2)]
ROT_CENTERS = [(7, 7), (2, 7), (7, 2)]
DECAY = 1.4
ROTATE_EVERY = 180
DWELL = {"kind": "lognormal", "minutes": 10, "sigma": 0.5}
INITIAL_OCC = 0.78
WINDOW = (120, 1380)
SCALE_HIGH = 0.60
SCALE_LOW = 2.6
# demand composition for the uncoordinated-pathology measurements: greedy
# herding needs participant flows comparable to spot supply, which city-scale
# volumes provide naturally but a desk-scale grid must concentrate
HERD_SHARES = (0.14, 0.08)


def bench_capacity() -> np.ndarray:
    ii, jj = np.divmod(np.arange(N * N), N)
    caps = np.zeros(N * N, dtype=np.int64)
    caps[(ii % 3 == 0) & (jj % 3 == 0)] = 2
    return caps


def bench_magnitude(total_rate: float = 3.0) -> float:
    ii, jj = np.divmod(np.arange(N * N), N)
    w = np.zeros(N * N)
    for ci, cj in STATIC_CENTERS + [ROT_CENTERS[0]]:
        w += np.exp(-(np.abs(ii - ci) + np.abs(jj - cj)) / DECAY)
    return total_rate / w.sum()


def bench_config(strategy, seed, runs=1, scale=1.0, shares=(0.015, 0.08),
                 history_file=None, retrain_every=60) -> SimConfig:
    return SimConfig(
        arrivals=ArrivalsConfig(
            kind="synth", pattern="hotspot", magnitude=bench_magnitude(),
            centers=ROT_CENTERS, static_centers=STATIC_CENTERS,
            decay=DECAY, rotate_every=ROTATE_EVERY,
        ),
        strategy=strategy, horizon=1440, seed=seed, runs=runs,
        initial_occupancy=INITIAL_OCC, dwell=dict(DWELL), shares=shares,
        demand_scale=scale, history_file=history_file, retrain_every=retrain_every,
        peak_window=WINDOW, log_moves=False,
    )


@pytest.fixture(scope="session")
def bench_city():
    grid, _ = make_grid(N, capacity=1, zones=3)
    return grid, bench_capacity()


@pytest.fixture(scope="session")
def bootstrap_history(bench_city, tmp_path_factory):
    """Three bootstrap days of availability history for cord-approx,
    mirroring a train-on-prior-days protocol. Fixed seeds, shared dataset."""
    from curbsim.predictor import save_corpus

    grid, caps = bench_city
    corpus = None
    for day in range(3):
        cfg = bench_config("cord-approx", seed=990 + day)
        sim = Simulation(grid, caps, build_arrivals(cfg, grid, cfg.seed), cfg, 4242 + day, corpus=corpus)
        sim.run()
        corpus = sim.corpus
    path = tmp_path_factory.mktemp("hist") / "history3.csv"
    save_corpus(path, corpus)
    return str(path)


def window_success(outcomes, group_code, window=WINDOW):
    m = (
        (outcomes.group == group_code)
        & (outcomes.status != STATUS_CENSORED)
        & (outcomes.spawn >= window[0])
        & (outcomes.spawn < window[1])
    )
    if m.sum() == 0:
        return None
    return float((outcomes.status[m] == STATUS_PARKED).sum() / m.sum())


def paired_t(diffs) -> float:
    """One-sided paired t statistic for mean(diffs) > 0."""
    diffs = np.asarray(diffs, dtype=float)
    sd = diffs.std(ddof=1)
    if sd == 0:
        return np.inf if diffs.mean() > 0 else -np.inf if diffs.mean() < 0 else 0.0
    return float(diffs.mean() / (sd / np.sqrt(len(diffs))))


# one-sided 95% critical value, df = 19 (20 paired seeds)
T_CRIT_19 = 1.7291


def brute_force_assignment(entries) -> tuple[int, float]:
    """Max-cardinality-then-min-cost over all injections (independent oracle)."""
    entries = np.asarray(entries, dtype=float)
    nr, nc = entries.shape
    best_card, best_cost = -1, 0.0
    if nr == 0 or nc == 0:
        return 0, 0.0
    if nr <= nc:
        for perm in itertools.permutations(range(nc), nr):
            pairs = [(r, c) for r, c in enumerate(perm) if np.isfinite(entries[r, c])]
            card = len(pairs)
            cost = sum(entries[r, c] for r, c in pairs)
            if card > best_card or (card == best_card and cost < best_cost):
                best_card, best_cost = card, cost
    else:
        for perm in itertools.permutations(range(nr), nc):
            pairs = [(r, c) for c, r in enumerate(perm) if np.isfinite(entries[r, c])]
            card = len(pairs)
            cost = sum(entries[r, c] for r, c in pairs)
            if card > best_card or (card == best_card and cost < best_cost):
                best_card, best_cost = card, cost
    return best_card, best_cost


def tiny_grid(n=4, capacity=1) -> tuple[GridSpec, np.ndarray]:
    return make_grid(n, capacity=capacity)


def draw_cells(draw, n: int, **kw) -> np.ndarray:
    """A Hypothesis-drawn (k, 2) int64 array of cells on an n x n grid;
    kw goes to st.lists (max_size, unique)."""
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return np.array(draw(st.lists(cell, **kw)), np.int64).reshape(-1, 2)
