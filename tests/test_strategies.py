import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import draw_cells
from reference import approx_cost, oracle_cost

from curbsim import strategies
from curbsim.errors import ConfigError
from curbsim.grid import CellCoord, manhattan_matrix, sight_view
from curbsim.strategies import (
    StrategyKind,
    capture_limits,
    capture_prob_table,
    capture_probability,
    dispatch,
    oracle_cost_matrix,
    reachable_set,
    t_budget,
)


def unc_agn_targets(d_pos, free_cells, rng):
    """unc-agn dispatch with one free spot per offered cell."""
    return dispatch(StrategyKind.UNC_AGN, d_pos, free_cells, np.ones(len(free_cells), np.int64), rng)


def cost_matrix(kind, d_pos, cells, **info):
    """The cost matrix dispatch hands the solver for one spot per cell, with
    the presentation shuffle undone (participants x cells)."""
    seen = []
    solve = strategies.hungarian_assign
    strategies.hungarian_assign = lambda m: seen.append(m.entries) or solve(m)
    try:
        dispatch(kind, d_pos, cells, np.ones(len(cells), np.int64), np.random.default_rng(0), **info)
    finally:
        strategies.hungarian_assign = solve
    if not seen:
        return np.zeros((len(d_pos), len(cells)))
    rng = np.random.default_rng(0)
    rows, cols = rng.permutation(len(d_pos)), rng.permutation(len(cells))
    out = np.empty_like(seen[0])
    out[np.ix_(rows, cols)] = seen[0]
    return out


def blind_competitors(comp_pos, cells, r):
    """The competitors capture_limits leaves unallocated, the only ones
    dispatch prices: those more than r from every free cell."""
    sight = sight_view(comp_pos, cells)
    _, unallocated = capture_limits(sight, np.ones(len(sight.dist), np.int64), r)
    return sight.pos[unallocated]


def oracle_matrix(d_pos, cells, comp_pos, r):
    """oracle_cost_matrix fed the participant matrix and the sight view of
    comp_pos, as dispatch feeds it the view of its blind competitors."""
    sight = sight_view(comp_pos, cells)
    return oracle_cost_matrix(manhattan_matrix(d_pos, cells), sight.dist, sight.pos, cells, r)


def cord_agn_matrix(d_pos, cells):
    return cost_matrix(StrategyKind.CORD_AGN, d_pos, cells)


def test_unc_agn_examples():
    rng = np.random.default_rng(0)
    # two participants nearest to the same single spot: both target it
    targets = unc_agn_targets(np.array([[0, 0], [0, 2]]), np.array([[0, 1]]), rng)
    assert targets.dtype == np.int64 and targets.tolist() == [[0, 0], [1, 0]]
    assert unc_agn_targets(np.array([[3, 3]]), np.array([[1, 1]]), rng).tolist() == [[0, 0]]
    none = unc_agn_targets(np.array([[0, 0]]), np.zeros((0, 2)), rng)
    assert none.dtype == np.int64 and none.shape == (0, 2)


def test_unc_agn_equidistant_frequency():
    rng = np.random.default_rng(1)
    # one vectorized call: many independent participants with two equidistant spots
    d = np.tile([[2, 2]], (100_000, 1))
    spots = np.array([[2, 4], [4, 2]])
    targets = unc_agn_targets(d, spots, rng)
    assert targets[:, 0].tolist() == list(range(100_000))
    first = np.count_nonzero(targets[:, 1] == 0)  # spot (2, 4)
    assert abs(first / 100_000 - 0.5) < 0.02


def test_cord_agn_matrix_examples():
    m = cord_agn_matrix(np.array([[0, 0]]), np.array([[0, 1], [2, 2]]))
    assert m.tolist() == [[1.0, 4.0]]
    assert cord_agn_matrix(np.array([[2, 2]]), np.array([[2, 2]]))[0, 0] == 0
    assert cord_agn_matrix(np.zeros((0, 2)), np.array([[1, 1]])).shape == (0, 1)


def test_t_budget():
    assert t_budget(7, 1) == 1
    assert t_budget(3, 1) == 1
    assert t_budget(2, 1) == 0
    with pytest.raises(ValueError):
        t_budget(1, 1)


def test_reachable_set_sizes():
    c = CellCoord(5, 5)
    assert reachable_set(c, 0) == {c}
    assert len(reachable_set(c, 1)) == 5
    ball2 = reachable_set(c, 2)
    assert len(ball2) == 13
    # enumeration oracle: all cells with manhattan distance <= 2
    want = {
        CellCoord(5 + di, 5 + dj)
        for di in range(-2, 3)
        for dj in range(-2, 3)
        if abs(di) + abs(dj) <= 2
    }
    assert ball2 == want
    for t_c in range(5):
        assert len(reachable_set(c, t_c)) == 1 + 2 * t_c * (t_c + 1)


def test_capture_probability_examples():
    # singleton ball misses the ring
    assert capture_probability(CellCoord(2, 0), CellCoord(0, 0), 1, 0) == 0.0
    # hand-enumerated favorable/total ratio
    assert capture_probability(CellCoord(1, 1), CellCoord(0, 0), 1, 1) == pytest.approx(2 / 5)
    with pytest.raises(ValueError):
        capture_probability(CellCoord(0, 1), CellCoord(0, 0), 1, 1)


def test_capture_probability_enumeration_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        r = int(rng.integers(1, 3))
        s = CellCoord(*rng.integers(0, 8, 2))
        while True:
            c = CellCoord(*rng.integers(0, 8, 2))
            if abs(c[0] - s[0]) + abs(c[1] - s[1]) > r:
                break
        t_c = int(rng.integers(0, r + 1))
        got = capture_probability(c, s, r, t_c)
        ball = reachable_set(c, t_c)
        want = sum(1 for z in ball if abs(z[0] - s[0]) + abs(z[1] - s[1]) == r) / len(ball)
        assert got == pytest.approx(want)


def test_capture_prob_table_matches_scalar():
    for r in (1, 2):
        table = capture_prob_table(r)
        rng = np.random.default_rng(3)
        for _ in range(80):
            dx, dy = (int(v) for v in rng.integers(0, 2 * r + 1, 2))
            if dx + dy <= r:
                continue
            t_c = int(rng.integers(0, r + 1))
            want = capture_probability(CellCoord(10, 10), CellCoord(10 + dx, 10 + dy), r, t_c)
            assert table[t_c, dx, dy] == pytest.approx(want)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_capture_prob_table_is_the_grid_table_within_2r(r):
    """A competitor more than 2R from the spot (budget t_c <= R) cannot
    reach the radius-R ring: the grid-sized reference table is exactly 0
    beyond displacement 2R and equals capture_prob_table(r) within it, and
    both agree with the scalar capture probability everywhere."""
    ext, max_disp = 2 * r, 2 * r + 5
    grid_table = reference.capture_prob_table(r, max_disp)
    table = capture_prob_table(r)
    assert table.shape == (r + 1, ext + 1, ext + 1)
    assert np.array_equal(grid_table[:, : ext + 1, : ext + 1], table)
    dx, dy = np.meshgrid(np.arange(max_disp + 1), np.arange(max_disp + 1), indexing="ij")
    assert not grid_table[:, dx + dy > ext].any()
    for t_c in range(r + 1):
        for i, j in zip(dx[dx + dy > r].tolist(), dy[dx + dy > r].tolist()):
            assert grid_table[t_c, i, j] == capture_probability(CellCoord(0, 0), CellCoord(i, j), r, t_c)
    # built once per R and shared read-only
    assert capture_prob_table(r) is table and not table.flags.writeable


def test_oracle_cost_conditions():
    # condition 1: strictly closest participant pays plain travel time
    assert oracle_cost(CellCoord(0, 4), CellCoord(0, 0), np.array([[6, 6]]), 1) == 4
    # condition 2: competitor inside the radius and closer -> infeasible
    assert oracle_cost(CellCoord(0, 4), CellCoord(0, 0), np.array([[0, 1]]), 1) == float("inf")
    # condition 3: nearer-but-blind competitor inflates by tau * p
    tau = 5
    t_c = t_budget(tau, 1)
    p = capture_probability(CellCoord(0, 3), CellCoord(0, 0), 1, t_c)
    got = oracle_cost(CellCoord(0, 5), CellCoord(0, 0), np.array([[0, 3]]), 1)
    assert got == pytest.approx(tau + tau * p)


def test_oracle_cost_monotone_in_competitors():
    rng = np.random.default_rng(4)
    for _ in range(100):
        comp = rng.integers(0, 10, (4, 2))
        d = CellCoord(*rng.integers(0, 10, 2))
        s = CellCoord(*rng.integers(0, 10, 2))
        assert oracle_cost(d, s, comp[:3], 1) <= oracle_cost(d, s, comp, 1) or (
            np.isinf(oracle_cost(d, s, comp[:3], 1)) and np.isinf(oracle_cost(d, s, comp, 1))
        )


def test_oracle_matrix_agrees_with_scalar():
    rng = np.random.default_rng(5)
    for r in (0, 1, 2):
        for _ in range(40):
            d = rng.integers(0, 12, (3, 2))
            f = rng.integers(0, 12, (4, 2))
            c = blind_competitors(rng.integers(0, 12, (int(rng.integers(0, 5)), 2)), f, r)
            mat = oracle_matrix(d, f, c, r)
            for i in range(3):
                for j in range(4):
                    want = oracle_cost(CellCoord(*d[i]), CellCoord(*f[j]), c, r)
                    if np.isinf(want):
                        assert np.isinf(mat[i, j])
                    else:
                        assert mat[i, j] == pytest.approx(want, abs=1e-9)


@st.composite
def oracle_inputs(draw):
    """Participants, free cells (unique) and competitors on an n x n grid,
    n from 1, with R = 0, 1 or 2."""
    n, r = draw(st.integers(1, 7)), draw(st.integers(0, 2))
    return (draw_cells(draw, n, max_size=6), draw_cells(draw, n, max_size=8, unique=True),
            draw_cells(draw, n, max_size=12), r, n)


@settings(max_examples=300, deadline=None)
@given(oracle_inputs())
def test_oracle_matrix_equals_the_scatter_add_reference(case):
    d, f, c, r, n = case
    c = blind_competitors(c, f, r)
    got = oracle_matrix(d, f, c, r)
    table = reference.capture_prob_table(r, 2 * (n - 1))
    want = reference.oracle_cost_matrix(d, f, c, r, table)
    # the reference's visible-competitor rule (cond2), its only source of
    # inf, never fires on the blind competitors dispatch prices
    assert np.isfinite(want).all()
    assert np.array_equal(got, want)


def test_approx_cost():
    assert approx_cost(6, 0.5) == 12
    assert approx_cost(6, 1.0) == 6
    assert approx_cost(0, 0.25) == 0
    with pytest.raises(ValueError):
        approx_cost(3, 0.0)


def test_dispatch_cord_agn_tie():
    rng = np.random.default_rng(6)
    # two participants, one spot: the closer wins
    out = dispatch(
        StrategyKind.CORD_AGN,
        np.array([[0, 0], [0, 3]]),
        np.array([[0, 1]]),
        np.array([1]),
        rng,
    )
    assert out.tolist() == [[0, 0]]
    # equidistant pair: winner is uniform across seeded draws
    wins = [0, 0]
    for _ in range(4000):
        out = dispatch(
            StrategyKind.CORD_AGN,
            np.array([[0, 0], [0, 2]]),
            np.array([[0, 1]]),
            np.array([1]),
            rng,
        )
        assert len(out) == 1 and out[0, 1] == 0
        wins[out[0, 0]] += 1
    assert abs(wins[0] / 4000 - 0.5) < 0.03


def test_dispatch_eq3_eq4_properties():
    rng = np.random.default_rng(7)
    for _ in range(50):
        nd = int(rng.integers(1, 8))
        nf = int(rng.integers(1, 5))
        d = rng.integers(0, 9, (nd, 2))
        cells = rng.integers(0, 9, (nf, 2))
        counts = rng.integers(1, 3, nf)
        out = dispatch(StrategyKind.CORD_AGN, d, cells, counts, rng)
        assert len(out) == min(nd, int(counts.sum()))
        # one target per participant, rows ascending
        assert (np.diff(out[:, 0]) > 0).all() and 0 <= out[:, 0].min() and out[:, 0].max() < nd
        # no offered cell takes more participants than its free spots
        assert 0 <= out[:, 1].min() and out[:, 1].max() < nf
        assert (np.bincount(out[:, 1], minlength=nf) <= counts).all()


def test_dispatch_oracle_all_blocked():
    rng = np.random.default_rng(8)
    # a competitor sitting on the only free spot blocks every farther participant
    out = dispatch(
        StrategyKind.CORD_ORACLE,
        np.array([[4, 4], [5, 5]]),
        np.array([[0, 1]]),
        np.array([1]),
        rng,
        sight=sight_view(np.array([[0, 1]]), np.array([[0, 1]])),
        r=1,
    )
    assert out.dtype == np.int64 and out.shape == (0, 2)


def test_dispatch_requires_context():
    rng = np.random.default_rng(9)
    with pytest.raises(ConfigError):
        dispatch(StrategyKind.CORD_ORACLE, np.array([[0, 0]]), np.array([[1, 1]]), np.array([1]), rng)
    with pytest.raises(ConfigError):
        dispatch(StrategyKind.CORD_APPROX, np.array([[0, 0]]), np.array([[1, 1]]), np.array([1]), rng)


def test_approx_equals_agn_under_constant_phat():
    # argmin invariance under uniform scaling: the pairings are optima of the
    # same objective (float division can re-break exact ties, so equality is
    # asserted on assignment cardinality and total travel cost)
    def total_tau(d, cells, targets):
        return int(np.abs(d.take(targets[:, 0], axis=0) - cells.take(targets[:, 1], axis=0)).sum())

    for seed in range(10):
        d = np.random.default_rng(seed).integers(0, 9, (5, 2))
        cells = np.random.default_rng(seed + 100).integers(0, 9, (4, 2))
        counts = np.ones(4, dtype=np.int64)
        agn = dispatch(StrategyKind.CORD_AGN, d, cells, counts, np.random.default_rng(77))
        approx = dispatch(
            StrategyKind.CORD_APPROX, d, cells, counts, np.random.default_rng(77),
            p_hat=np.full(4, 0.37),
        )
        assert len(agn) == len(approx)
        assert total_tau(d, cells, agn) == total_tau(d, cells, approx)


def test_oracle_equals_agn_without_competitors():
    rng0 = np.random.default_rng(11)
    for seed in range(10):
        d = np.random.default_rng(seed).integers(0, 9, (5, 2))
        cells = np.random.default_rng(seed + 50).integers(0, 9, (4, 2))
        counts = np.ones(4, dtype=np.int64)
        agn = dispatch(StrategyKind.CORD_AGN, d, cells, counts, np.random.default_rng(5))
        oracle = dispatch(
            StrategyKind.CORD_ORACLE, d, cells, counts, np.random.default_rng(5),
            sight=sight_view(np.zeros((0, 2)), cells), r=1,
        )
        assert np.array_equal(agn, oracle)


def test_capture_probability_vs_monte_carlo_small():
    # the paper's endpoint model: all reachable-ball endpoints equally likely
    rng = np.random.default_rng(12)
    for _ in range(10):
        r = int(rng.integers(1, 3))
        tau = int(rng.integers(r + 1, r + 6))
        c = CellCoord(20, 20)
        s = CellCoord(20 + tau, 20)
        t_c = t_budget(tau, r)
        exact = capture_probability(c, s, r, t_c)
        ball = sorted(reachable_set(c, t_c))
        draws = rng.integers(0, len(ball), 20_000)
        hits = sum(
            1 for idx in draws
            if abs(ball[idx][0] - s[0]) + abs(ball[idx][1] - s[1]) == r
        )
        assert abs(hits / 20_000 - exact) < 0.02
