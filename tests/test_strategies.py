import numpy as np
import pytest

from curbsim.errors import ConfigError
from curbsim.grid import CellCoord
from curbsim.strategies import (
    OracleContext,
    StrategyKind,
    approx_cost,
    capture_prob_table,
    capture_probability,
    cord_agn_matrix,
    dispatch,
    oracle_cost,
    oracle_cost_matrix,
    reachable_set,
    t_budget,
    unc_agn_targets,
)


def test_unc_agn_examples():
    rng = np.random.default_rng(0)
    # two participants nearest to the same single spot: both target it
    targets = unc_agn_targets(np.array([[0, 0], [0, 2]]), np.array([[0, 1]]), rng)
    assert targets == {0: CellCoord(0, 1), 1: CellCoord(0, 1)}
    assert unc_agn_targets(np.array([[3, 3]]), np.array([[1, 1]]), rng) == {0: CellCoord(1, 1)}
    assert unc_agn_targets(np.array([[0, 0]]), np.zeros((0, 2)), rng) == {}


def test_unc_agn_equidistant_frequency():
    rng = np.random.default_rng(1)
    # one vectorized call: many independent participants with two equidistant spots
    d = np.tile([[2, 2]], (100_000, 1))
    spots = np.array([[2, 4], [4, 2]])
    targets = unc_agn_targets(d, spots, rng)
    first = sum(1 for t in targets.values() if t == CellCoord(2, 4))
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


def test_reachable_set_clipping():
    assert reachable_set(CellCoord(0, 0), 1, clip_to=3) == {
        CellCoord(0, 0), CellCoord(1, 0), CellCoord(0, 1),
    }


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
        table = capture_prob_table(r, 8)
        rng = np.random.default_rng(3)
        for _ in range(80):
            dx, dy = (int(v) for v in rng.integers(0, 9, 2))
            if dx + dy <= r:
                continue
            t_c = int(rng.integers(0, r + 1))
            want = capture_probability(CellCoord(10, 10), CellCoord(10 + dx, 10 + dy), r, t_c)
            assert table[t_c, dx, dy] == pytest.approx(want)


def test_oracle_cost_conditions():
    # condition 1: strictly closest participant pays plain travel time
    ctx = OracleContext(np.array([[6, 6]]), r=1)
    assert oracle_cost(CellCoord(0, 4), CellCoord(0, 0), ctx) == 4
    # condition 2: competitor inside the radius and closer -> infeasible
    ctx = OracleContext(np.array([[0, 1]]), r=1)
    assert oracle_cost(CellCoord(0, 4), CellCoord(0, 0), ctx) == float("inf")
    # condition 3: nearer-but-blind competitor inflates by tau * p
    ctx = OracleContext(np.array([[0, 3]]), r=1)
    tau = 5
    t_c = t_budget(tau, 1)
    p = capture_probability(CellCoord(0, 3), CellCoord(0, 0), 1, t_c)
    got = oracle_cost(CellCoord(0, 5), CellCoord(0, 0), ctx)
    assert got == pytest.approx(tau + tau * p)


def test_oracle_cost_monotone_in_competitors():
    rng = np.random.default_rng(4)
    for _ in range(100):
        comp = rng.integers(0, 10, (4, 2))
        ctx_all = OracleContext(comp, r=1)
        ctx_less = OracleContext(comp[:3], r=1)
        d = CellCoord(*rng.integers(0, 10, 2))
        s = CellCoord(*rng.integers(0, 10, 2))
        assert oracle_cost(d, s, ctx_less) <= oracle_cost(d, s, ctx_all) or (
            np.isinf(oracle_cost(d, s, ctx_less)) and np.isinf(oracle_cost(d, s, ctx_all))
        )


def test_oracle_matrix_agrees_with_scalar():
    rng = np.random.default_rng(5)
    for r in (0, 1, 2):
        table = capture_prob_table(r, 2 * 11)
        for _ in range(40):
            d = rng.integers(0, 12, (3, 2))
            f = rng.integers(0, 12, (4, 2))
            c = rng.integers(0, 12, (int(rng.integers(0, 5)), 2))
            ctx = OracleContext(c, r)
            mat = oracle_cost_matrix(d, f, c, r, table)
            for i in range(3):
                for j in range(4):
                    want = oracle_cost(CellCoord(*d[i]), CellCoord(*f[j]), ctx)
                    if np.isinf(want):
                        assert np.isinf(mat[i, j])
                    else:
                        assert mat[i, j] == pytest.approx(want, abs=1e-9)


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
    assert out == {0: CellCoord(0, 1)}
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
        wins[list(out)[0]] += 1
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
        per_cell = {}
        for cell in out.values():
            per_cell[cell] = per_cell.get(cell, 0) + 1
        for f in range(nf):
            cell = CellCoord(int(cells[f, 0]), int(cells[f, 1]))
            assert per_cell.get(cell, 0) <= counts[f] * (cells.tolist().count(cells[f].tolist()))


def test_dispatch_oracle_all_blocked():
    rng = np.random.default_rng(8)
    # a competitor sitting on the only free spot blocks every farther participant
    ctx = OracleContext(np.array([[0, 1]]), r=1)
    out = dispatch(
        StrategyKind.CORD_ORACLE,
        np.array([[4, 4], [5, 5]]),
        np.array([[0, 1]]),
        np.array([1]),
        rng,
        ctx=ctx,
    )
    assert out == {}


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
    def total_tau(d, targets):
        return sum(abs(int(d[i][0]) - t[0]) + abs(int(d[i][1]) - t[1]) for i, t in targets.items())

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
        assert total_tau(d, agn) == total_tau(d, approx)


def test_oracle_equals_agn_without_competitors():
    rng0 = np.random.default_rng(11)
    for seed in range(10):
        d = np.random.default_rng(seed).integers(0, 9, (5, 2))
        cells = np.random.default_rng(seed + 50).integers(0, 9, (4, 2))
        counts = np.ones(4, dtype=np.int64)
        agn = dispatch(StrategyKind.CORD_AGN, d, cells, counts, np.random.default_rng(5))
        oracle = dispatch(
            StrategyKind.CORD_ORACLE, d, cells, counts, np.random.default_rng(5),
            ctx=OracleContext(np.zeros((0, 2)), r=1),
        )
        assert agn == oracle


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
