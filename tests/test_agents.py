import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import draw_cells
from reference import (
    Competitor,
    Participant,
    resolve_parking,
    sample_dwell,
    step_competitor,
    step_participant,
    visible_spots,
)

from curbsim.agents import DwellSpec, sample_dwell_batch, step_competitors_batch, step_toward_batch
from curbsim.errors import ConfigError
from curbsim.grid import CellCoord, OccupancyState, sight_view


def _state(n, free_cells):
    caps = np.zeros(n * n, dtype=np.int64)
    for k in free_cells:
        caps[k] = 1
    return OccupancyState(n, caps)


def test_visible_spots():
    st = _state(5, [12])  # (2,2)
    c = Competitor(1, CellCoord(2, 2), 0)
    assert visible_spots(c, st, 0) == {CellCoord(2, 2)}
    st2 = _state(5, [11, 14])  # (2,1) dist 1, (2,4) dist 2
    assert visible_spots(c, st2, 1) == {CellCoord(2, 1)}
    st3 = _state(5, [])
    assert visible_spots(c, st3, 3) == set()


def test_step_competitor_forced_move():
    rng = np.random.default_rng(0)
    c = Competitor(1, CellCoord(2, 2), 0)
    assert step_competitor(c, {CellCoord(2, 3)}, rng, 5) == CellCoord(2, 3)


def test_step_competitor_blind_frequencies():
    rng = np.random.default_rng(1)
    c = Competitor(1, CellCoord(2, 2), 0)
    counts = {}
    trials = 100_000
    for _ in range(trials):
        nxt = step_competitor(c, set(), rng, 5)
        counts[nxt] = counts.get(nxt, 0) + 1
    assert set(counts) == {CellCoord(1, 2), CellCoord(3, 2), CellCoord(2, 1), CellCoord(2, 3)}
    for v in counts.values():
        assert abs(v / trials - 0.25) < 0.02


def test_step_competitor_corner_clip():
    rng = np.random.default_rng(2)
    c = Competitor(1, CellCoord(0, 0), 0)
    seen = {step_competitor(c, set(), rng, 4) for _ in range(200)}
    assert seen == {CellCoord(1, 0), CellCoord(0, 1)}


def test_step_participant_examples():
    rng = np.random.default_rng(3)
    d = Participant(1, CellCoord(0, 0), 0)
    assert step_participant(d, CellCoord(0, 3), rng) == CellCoord(0, 1)
    d2 = Participant(2, CellCoord(2, 2), 0)
    assert step_participant(d2, CellCoord(2, 2), rng) == CellCoord(2, 2)


def test_step_participant_diagonal_frequency():
    rng = np.random.default_rng(4)
    d = Participant(1, CellCoord(0, 0), 0)
    hits = sum(step_participant(d, CellCoord(2, 2), rng) == CellCoord(1, 0) for _ in range(100_000))
    assert abs(hits / 100_000 - 0.5) < 0.02


def test_step_reduces_distance_by_one():
    rng = np.random.default_rng(5)
    for _ in range(500):
        pos = CellCoord(*rng.integers(0, 9, 2))
        tgt = CellCoord(*rng.integers(0, 9, 2))
        nxt = step_participant(Participant(0, pos, 0), tgt, rng)
        d0 = abs(pos[0] - tgt[0]) + abs(pos[1] - tgt[1])
        d1 = abs(nxt[0] - tgt[0]) + abs(nxt[1] - tgt[1])
        assert d1 == max(0, d0 - 1)
        assert abs(nxt[0] - pos[0]) + abs(nxt[1] - pos[1]) <= 1


def test_resolve_parking_examples():
    rng = np.random.default_rng(6)
    assert resolve_parking([7], 1, rng) == {7}
    assert resolve_parking([1, 2, 3], 0, rng) == set()
    wins = {1: 0, 2: 0}
    trials = 100_000
    for _ in range(trials):
        w = resolve_parking([1, 2], 1, rng)
        wins[w.pop()] += 1
    assert abs(wins[1] / trials - 0.5) < 0.02


def test_resolve_parking_never_overawards():
    rng = np.random.default_rng(7)
    for _ in range(300):
        k = int(rng.integers(0, 6))
        free = int(rng.integers(0, 4))
        winners = resolve_parking(list(range(k)), free, rng)
        assert len(winners) == min(free, k)
        assert winners <= set(range(k))


def test_sample_dwell():
    rng = np.random.default_rng(8)
    assert sample_dwell(DwellSpec("fixed", 45), rng) == 45
    draws = sample_dwell_batch(DwellSpec("lognormal", 45, 0.5), 100_000, rng)
    assert abs(np.median(draws) - 45) <= 2
    assert draws.min() >= 1
    tiny = sample_dwell_batch(DwellSpec("lognormal", 1.01, 2.0), 10_000, rng)
    assert tiny.min() >= 1
    with pytest.raises(ConfigError):
        DwellSpec("weibull")


def test_batch_matches_scalar_on_forced_moves():
    rng = np.random.default_rng(9)
    pos = np.array([[0, 0], [3, 3], [5, 0]])
    tgt = np.array([[0, 4], [3, 3], [2, 0]])
    out = step_toward_batch(pos, tgt, rng)
    assert (out == np.array([[0, 1], [3, 3], [4, 0]])).all()


def test_batch_competitors_stay_in_bounds():
    rng = np.random.default_rng(10)
    n = 6
    pos = rng.integers(0, n, (200, 2))
    free = rng.integers(0, n, (5, 2))
    for _ in range(50):
        pos = step_competitors_batch(pos, free, sight_view(pos, free), 1, n, rng)
        assert (pos >= 0).all() and (pos < n).all()


def test_batch_competitor_grabs_visible():
    rng = np.random.default_rng(11)
    pos = np.array([[2, 2]])
    free = np.array([[2, 3]])
    out = step_competitors_batch(pos, free, sight_view(pos, free), 1, 6, rng)
    assert (out == [[2, 3]]).all()
    # co-located with a free spot: stays put
    at = np.array([[2, 3]])
    out2 = step_competitors_batch(at, free, sight_view(at, free), 1, 6, rng)
    assert (out2 == [[2, 3]]).all()


@st.composite
def stepping_inputs(draw):
    """Searchers and free cells (unique, possibly none) on an n x n grid,
    n from 1, with R = 0, 1 or 2."""
    n = draw(st.integers(1, 6))
    return (draw_cells(draw, n, max_size=30), draw_cells(draw, n, max_size=8, unique=True),
            draw(st.integers(0, 2)), n, draw(st.integers(0, 2**32)))


def blind_walkers(n):
    """Forty searchers spread over an n x n grid with no free cell, R = 1."""
    pos = np.array([[i % n, i // 2 % n] for i in range(40)], np.int64)
    return pos, np.zeros((0, 2), np.int64), 1, n, 12


@settings(max_examples=400, deadline=None)
@given(stepping_inputs())
@example(blind_walkers(1))  # no in-bounds neighbour: every walker stays put
@example(blind_walkers(2))
def test_batch_competitors_equal_the_reference_draw_for_draw(case):
    """Same new positions and the same generator state after the call, so
    the number and order of draws are pinned too."""
    pos, free, r, n, seed = case
    rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = step_competitors_batch(pos, free, sight_view(pos, free), r, n, rng)
    assert np.array_equal(got, reference.step_competitors_batch(pos, free, r, n, want_rng))
    assert rng.bit_generator.state == want_rng.bit_generator.state

