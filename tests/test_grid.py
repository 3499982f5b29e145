import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import draw_cells
from reference import free_spots, occupy, release

from curbsim.errors import CapacityError, ConfigError, ParseError, ValidationError
from curbsim.grid import (
    CellCoord,
    MAX_TOTAL_CAPACITY,
    GridSpec,
    OccupancyState,
    load_grid,
    make_grid,
    manhattan,
    manhattan_matrix,
    save_grid,
    sight_dtype,
    sight_view,
)


def test_manhattan_examples():
    assert manhattan(CellCoord(0, 0), CellCoord(2, 3)) == 5
    assert manhattan(CellCoord(4, 4), CellCoord(4, 4)) == 0
    assert manhattan(CellCoord(1, 1), CellCoord(4, 1)) == 3


def test_manhattan_symmetry_and_triangle():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a, b, c = (CellCoord(*rng.integers(0, 22, 2)) for _ in range(3))
        assert manhattan(a, b) == manhattan(b, a)
        assert manhattan(a, c) <= manhattan(a, b) + manhattan(b, c)


@st.composite
def searchers_and_cells(draw):
    """Searchers and free cells (unique, possibly none) on an n x n grid."""
    n = draw(st.integers(1, 8))
    return draw_cells(draw, n, max_size=20), draw_cells(draw, n, max_size=10, unique=True)


NO_CELLS = np.zeros((0, 2), np.int64)


@settings(max_examples=300, deadline=None)
@given(searchers_and_cells())
@example((NO_CELLS, np.array([[0, 1], [2, 2]])))  # no searcher
@example((np.array([[0, 0], [3, 1]]), NO_CELLS))  # no free cell
@example((np.array([[0, 0], [3, 1]]), np.array([[2, 2]])))  # one free cell
@example((np.array([[2, 2], [2, 2]]), np.array([[1, 2], [3, 2], [2, 1], [2, 3]])))  # all distances equal
def test_sight_view_equals_the_dense_references(case):
    """The cell-major distances are the dense matrix transposed; best and
    nearest are its row min and argmin, the first index on ties."""
    pos, cells = case
    view = sight_view(pos, cells)
    dense = manhattan_matrix(pos, cells)
    assert np.array_equal(view.pos, pos)
    # coordinates below 8 and at most 10 cells: every key is below 2**15
    assert view.dist.dtype == np.int16 and view.dist.shape == (len(cells), len(pos))
    assert np.array_equal(view.dist, dense.T)
    if len(cells) == 0:
        # no free cell: no searcher sees one, whatever the radius
        assert view.best.tolist() == [np.iinfo(np.int64).max] * len(pos)
        return
    assert np.array_equal(view.best, dense.min(axis=1))
    assert np.array_equal(view.nearest, dense.argmin(axis=1))


# coordinates just inside and outside int16 and int32, and far beyond both
EDGES = (0, 2**15 - 1, -(2**15), 2**15, 2**31 - 1, -(2**31), 2**31, 2**40, -(2**40))


@st.composite
def far_searchers_and_cells(draw):
    """Searchers and free cells (repeats allowed, possibly none) a small
    or a wide spread away from a coordinate base near an integer type's
    edge; no grid is built."""
    base = draw(st.sampled_from(EDGES) | st.integers(-(2**40), 2**40))
    spread = draw(st.sampled_from((0, 3, 40, 2**14, 2**16, 2**30)))
    coord = st.integers(base - spread, base + spread)
    pos = draw(st.lists(st.tuples(coord, coord), max_size=12))
    cells = draw(st.lists(st.tuples(coord, coord), max_size=12))
    return np.array(pos, np.int64).reshape(-1, 2), np.array(cells, np.int64).reshape(-1, 2)


def narrowest_exact(pos, cells):
    """The narrowest of int16, int32 and int64 holding every coordinate and
    every key dist * nf + index below (2 * spread + 1) * nf."""
    both = np.concatenate([pos, cells]).ravel()
    lo, hi = (int(both.min()), int(both.max())) if len(both) else (0, 0)
    for kind in (np.int16, np.int32):
        info = np.iinfo(kind)
        if info.min <= lo and hi <= info.max and (2 * (hi - lo) + 1) * len(cells) <= info.max:
            return kind
    return np.int64


@settings(max_examples=400, deadline=None)
@given(far_searchers_and_cells())
@example((np.array([[2**40, 2**40 + 3]]), np.array([[2**40 + 1, 2**40], [2**40, 2**40]])))
@example((np.array([[-(2**15), 2**15 - 1]]), np.array([[2**15 - 1, -(2**15)]])))  # spread past int16
@example((np.array([[3, -7]]), NO_CELLS))  # no free cell: best stays the int64 maximum
@example((np.array([[2**31, 0]]), NO_CELLS))
def test_narrow_sight_view_equals_the_int64_reference(case):
    """Whatever type the rule picks, the distances, nearest distance and
    first nearest cell equal the int64 dense matrix's; the view picks the
    narrowest type that holds every key, and best and nearest stay int64."""
    pos, cells = case
    view = sight_view(pos, cells)
    dense = manhattan_matrix(pos, cells)
    assert view.dist.dtype == narrowest_exact(pos, cells)
    assert view.best.dtype == view.nearest.dtype == np.int64
    assert np.array_equal(view.pos, pos) and view.dist.shape == (len(cells), len(pos))
    assert np.array_equal(view.dist, dense.T)
    if len(cells) == 0:
        assert view.best.tolist() == [np.iinfo(np.int64).max] * len(pos)
        assert view.nearest.tolist() == [0] * len(pos)
        return
    assert np.array_equal(view.best, dense.min(axis=1))
    assert np.array_equal(view.nearest, dense.argmin(axis=1))


@pytest.mark.parametrize("lo, hi, nf, kind", [
    # every cell of the 10x10 and 22x22 cities free; the 44x44 city's median tick
    (0, 9, 100, np.int16), (0, 21, 484, np.int16), (0, 43, 69, np.int16),
    (0, 999, 1000, np.int32), (-(2**40), 0, 1, np.int64),
])
def test_sight_dtype_on_the_benchmark_cities_and_beyond(lo, hi, nf, kind):
    assert sight_dtype(lo, hi, nf) is kind


def test_free_spots_examples():
    st = OccupancyState(2, np.array([3, 0, 0, 0]), np.array([3, 0, 0, 0]))
    assert free_spots(st) == []
    st = OccupancyState(2, np.array([3, 0, 0, 0]), np.array([1, 0, 0, 0]))
    assert free_spots(st) == [(CellCoord(0, 0), 2)]
    st = OccupancyState(2, np.array([1, 2, 0, 1]))
    assert {c for c, _ in free_spots(st)} == {CellCoord(0, 0), CellCoord(0, 1), CellCoord(1, 1)}


def test_free_spot_totals_reconcile():
    rng = np.random.default_rng(1)
    st = OccupancyState(4, rng.integers(0, 4, 16))
    b = st.total_capacity
    cells = [CellCoord(int(k) // 4, int(k) % 4) for k in range(16)]
    for _ in range(200):
        k = int(rng.integers(0, 16))
        z = cells[k]
        if rng.random() < 0.5 and st.occupied[k] < st.capacity[k]:
            occupy(st, z)
        elif st.occupied[k] > 0:
            release(st, z)
        assert sum(n for _, n in free_spots(st)) == b - st.occupied.sum()


def test_occupy_release_inverse_and_errors():
    st = OccupancyState(2, np.array([1, 1, 0, 0]))
    before = st.occupied.copy()
    occupy(st, CellCoord(0, 0))
    release(st, CellCoord(0, 0))
    assert (st.occupied == before).all()
    occupy(st, CellCoord(0, 0))
    with pytest.raises(CapacityError):
        occupy(st, CellCoord(0, 0))
    with pytest.raises(CapacityError):
        release(st, CellCoord(0, 1))


def test_grid_spec_invariants():
    with pytest.raises(ValidationError):
        GridSpec(2, ["a", "b", "c"])  # wrong count
    with pytest.raises(ValidationError):
        GridSpec(2, ["a", "a", "b", "c"])  # duplicate labels
    with pytest.raises(ValidationError):
        GridSpec(2, ["a", "b", "c", "d"], zone_map={0: "z"})  # partial zones


def test_grid_file_roundtrip(tmp_path):
    spec, caps = make_grid(5, capacity=[k % 3 for k in range(25)], zones=3)
    path = tmp_path / "grid.tsv"
    save_grid(path, spec, caps)
    spec2, caps2 = load_grid(path)
    assert spec2.n == 5
    assert spec2.cell_labels == spec.cell_labels
    assert spec2.zone_map == spec.zone_map
    assert (caps2 == caps).all()


def test_grid_file_errors(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("k,geohash7,i,j\n")  # missing capacity column
    with pytest.raises(ParseError):
        load_grid(path)
    path.write_text("k,geohash7,i,j,capacity\n0,aaaaaaa,0,0,1\n1,bbbbbbb,0,1,1\n")
    with pytest.raises(ValidationError):
        load_grid(path)
    path.write_text("k,geohash7,i,j,capacity\n0,aaaaaaa,0,0,-2\n")
    with pytest.raises(ValidationError):
        load_grid(path)


def test_load_grid_bounds_the_total_capacity(tmp_path):
    # a cell of capacity 10**9 used to load, and a run with initial
    # occupancy then held one int64 row per phantom occupant: gigabytes
    path = tmp_path / "grid.csv"
    header = "k,geohash7,i,j,capacity\n"
    path.write_text(header + f"0,a,0,0,{MAX_TOTAL_CAPACITY}\n")
    assert load_grid(path)[1].tolist() == [MAX_TOTAL_CAPACITY]
    path.write_text(header + "0,a,0,0,1000000000\n")
    with pytest.raises(ConfigError, match="^line 2: grid capacity sums past 4194304 spots$"):
        load_grid(path)
    half = MAX_TOTAL_CAPACITY // 2
    path.write_text(header + f"0,a,0,0,{half}\n1,b,0,1,{half}\n2,c,1,0,0\n3,d,1,1,1\n")
    with pytest.raises(ConfigError, match="^line 5: "):
        load_grid(path)


def test_occupancy_state_bounds_the_total_capacity():
    # an API-built grid skips load_grid's check; 4e9 spots used to be accepted
    assert OccupancyState(1, np.array([MAX_TOTAL_CAPACITY])).total_capacity == MAX_TOTAL_CAPACITY
    with pytest.raises(ConfigError, match="^grid capacity sums past 4194304 spots$"):
        OccupancyState(2, make_grid(2, capacity=10**9)[1])
    with pytest.raises(ConfigError, match="sums past"):
        OccupancyState(2, np.full(4, 2**62))  # sums to 2**64, which wraps to 0 in int64


def test_occupancy_bounds_checked():
    with pytest.raises(CapacityError):
        OccupancyState(2, np.array([1, 1, 1, 1]), np.array([2, 0, 0, 0]))
