import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_assignment
from reference import solve_dense as solve_dense_reference

from curbsim.errors import ValidationError
from curbsim.matching import INFEASIBLE, CostMatrix, hungarian_assign


def test_examples():
    a = hungarian_assign(CostMatrix([[1, 2], [3, 1]]))
    assert a.pairs == {(0, 0), (1, 1)} and a.total_cost == 2

    diag = np.full((4, 4), 5.0)
    np.fill_diagonal(diag, 0.0)
    a = hungarian_assign(CostMatrix(diag))
    assert a.pairs == {(i, i) for i in range(4)} and a.total_cost == 0

    a = hungarian_assign(CostMatrix([[INFEASIBLE, 5.0]]))
    assert a.pairs == {(0, 1)} and a.total_cost == 5

    a = hungarian_assign(CostMatrix(np.zeros((1, 0))))
    assert a.pairs == set() and a.total_cost == 0


def test_optimality_vs_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(150):
        nr, nc = rng.integers(1, 7, 2)
        m = rng.uniform(0, 100, (int(nr), int(nc)))
        m[rng.random(m.shape) < 0.2] = INFEASIBLE
        got = hungarian_assign(CostMatrix(m))
        card, cost = brute_force_assignment(m)
        assert len(got.pairs) == card
        assert got.total_cost == pytest.approx(cost, abs=1e-9)


def test_max_cardinality_beats_cheap_skips():
    # matching the expensive entry is required: cardinality dominates cost
    a = hungarian_assign(CostMatrix([[100.0]]))
    assert a.pairs == {(0, 0)}


def test_sentinel_safety_property():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = rng.uniform(0, 50, (5, 5))
        mask = rng.random((5, 5)) < 0.4
        mask[:, 0] = False  # keep at least one feasible column per row
        m[mask] = INFEASIBLE
        a = hungarian_assign(CostMatrix(m))
        for r, c in a.pairs:
            assert np.isfinite(m[r, c])


def test_scale_invariance_of_argmin():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = rng.uniform(1, 9, (4, 6))
        base = hungarian_assign(CostMatrix(m)).pairs
        scaled = hungarian_assign(CostMatrix(m * 7.3)).pairs
        assert base == scaled


def test_determinism():
    rng = np.random.default_rng(3)
    m = rng.uniform(0, 10, (6, 6))
    a = hungarian_assign(CostMatrix(m))
    b = hungarian_assign(CostMatrix(m.copy()))
    assert a.pairs == b.pairs and a.total_cost == b.total_cost


def test_validation():
    with pytest.raises(ValidationError):
        CostMatrix([[-1.0]])
    with pytest.raises(ValidationError):
        CostMatrix([[float("nan")]])


@pytest.mark.parametrize("entries", [[[-np.inf, 1.0]], [[-np.inf]], [[2.0, INFEASIBLE], [1.0, -np.inf]]])
def test_minus_inf_is_rejected_not_read_as_infeasible(entries):
    # the solver reads every non-finite entry as INFEASIBLE, so a -inf would
    # silently drop the cheapest possible pair
    with pytest.raises(ValidationError):
        CostMatrix(entries)


# --- the solver against the unvectorized augmentation (tests/reference.py) ---


@st.composite
def cost_matrices(draw):
    """Small rectangular matrices, either shape, with integer ties or float
    costs, scattered infeasible entries and some all-infeasible rows."""
    nr, nc = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    finite = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0]) if draw(st.booleans()) else st.floats(0.0, 100.0)
    entry = st.one_of(finite, st.just(INFEASIBLE)) if draw(st.booleans()) else finite
    m = np.array(draw(st.lists(entry, min_size=nr * nc, max_size=nr * nc))).reshape(nr, nc)
    for r in draw(st.lists(st.integers(0, nr - 1), max_size=2)):
        m[r] = INFEASIBLE
    return m


@st.composite
def engine_sized_matrices(draw):
    """Matrices of the dispatcher's size, up to 25 spot units by 150
    participants in either orientation, with integer costs 0-3 so that long
    scans tie; scattered infeasible entries, all-infeasible lines (the big-M
    rows and columns of the solve) and zeros stored as -0.0, which
    Hypothesis' floats(0.0, ...) never draws. Built from a drawn seed:
    drawing 3750 entries one by one would pass Hypothesis' data budget."""
    nr, nc = draw(st.integers(1, 25)), draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(0, 4, (nr, nc)).astype(np.float64)
    m[rng.random(m.shape) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = INFEASIBLE
    m[rng.random(nr) < draw(st.sampled_from([0.0, 0.2]))] = INFEASIBLE
    m[:, rng.random(nc) < draw(st.sampled_from([0.0, 0.1]))] = INFEASIBLE
    m[(m == 0) & (rng.random(m.shape) < 0.5)] = -0.0
    return m.T if draw(st.booleans()) else m


@settings(max_examples=400, deadline=None)
@given(st.one_of(cost_matrices(), engine_sized_matrices()))
@example(np.zeros((3, 5)))  # every optimum ties
@example(np.full((2, 2), -0.0))
# row 1's search reaches column 1 at distance 2 from row 1 itself and again
# through row 0: the path's predecessor is the first, row 1
@example(np.full((2, 2), 2.0))
# row 2's search reaches column 0 at distance 1 through row 0 and again
# through row 1 (the rows matched to columns 1 and 2): the predecessor is
# row 0
@example(np.array([[1.0, 0.0, 0.0], [2.0, 1.0, 1.0], [2.0, 0.0, 2.0]]))
@example(np.full((2, 2), INFEASIBLE))  # nothing feasible
@example(np.array([[INFEASIBLE, INFEASIBLE], [1.0, 2.0], [2.0, 1.0], [1.0, 1.0]]))  # nr > nc
@example(np.array([[5.0]]))
def test_solver_picks_the_reference_pairs(m):
    want = solve_dense_reference(m)
    got = hungarian_assign(CostMatrix(m))
    assert list(zip(got.row.tolist(), got.col.tolist())) == want
    assert got.pairs == set(want)
    assert got.total_cost == float(sum(m[r, c] for r, c in want))


@pytest.mark.parametrize("m", [
    np.array([[-0.0, 1.0, 2.0], [3.0, -0.0, 1.0]]),
    np.array([[-0.0, INFEASIBLE], [1.0, -0.0], [-0.0, 2.0]]),  # big-M entries, transposed
])
def test_solver_core_gets_a_c_ordered_copy_without_minus_zero(m, monkeypatch):
    # the core's first scan relies on it; a -0.0 would move no pair, since it
    # compares equal to 0.0, only the sign of some zero distance and dual
    from curbsim import matching

    seen, core = [], matching._sap_core

    def spy(cost):
        seen.append(cost)
        return core(cost)

    monkeypatch.setattr(matching, "_sap_core", spy)
    matching._solve(m)
    (cost,) = seen
    assert cost.flags.c_contiguous and not np.shares_memory(cost, m)
    assert not np.signbit(cost).any()
