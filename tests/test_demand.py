import math
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    DictSeries,
    IntensityRecord,
    counts_of,
    dict_of,
    dict_series,
    disaggregate_dict,
    group_arrivals,
    largest_remainder,
    scale_series_dict,
    split_demand_dict,
    synth_demand_dict,
)

from curbsim.demand import (
    ArrivalSeries,
    ArrivalsConfig,
    MinuteCounts,
    load_series,
    parse_intensity,
    save_series,
    scale_series,
    split_demand,
    synth_demand,
)
from curbsim.errors import ConfigError, ParseError, Table, ValidationError

SHARES = (0.015, 0.08)
HEADER = "segment_id,interval_start,count,geohash7,overlap_fraction\n"
LABELS = {str(k): k for k in range(16)}  # geohash "k" is cell k


def _parse(tmp_path, text):
    path = tmp_path / "intensity.csv"
    path.write_text(text)
    return parse_intensity(Table(path), LABELS)


def test_parse_empty_file(tmp_path):
    assert dict_of(_parse(tmp_path, HEADER)) == {}


def test_parse_one_row(tmp_path):
    # one record: its 30 vehicles at cell 7 over its 15 minutes from 08:00
    rows = _parse(tmp_path, HEADER + "s1,2024-04-18T08:00:00,30,7,1.0\n")
    assert dict_of(rows) == {(7, 480 + m): 2 for m in range(15)}


def test_parse_negative_count(tmp_path):
    with pytest.raises(ValidationError):
        _parse(tmp_path, HEADER + "s1,2024-04-18T08:00:00,-1,7,1.0\n")


def test_parse_count_past_int64_columns(tmp_path):
    with pytest.raises(ValidationError, match=r"^line 2: count 1099511627776 outside 0..2\*\*40$"):
        _parse(tmp_path, HEADER + f"s1,2024-04-18T08:00:00,{2**40},7,1.0\n")
    assert _parse(tmp_path, HEADER + f"s1,2024-04-18T08:00:00,{2**40 - 1},7,1.0\n").counts.sum() == 2**40 - 1


def test_parse_missing_column(tmp_path):
    with pytest.raises(ParseError):
        _parse(tmp_path, "segment_id,interval_start,count,geohash7\ns,x,1,7\n")


def test_parse_bad_timestamp_reports_line(tmp_path):
    with pytest.raises(ParseError) as err:
        _parse(tmp_path, HEADER + "s1,not-a-date,3,7,1.0\n")
    assert "line 2" in str(err.value)


def test_parse_rejects_mixed_naive_and_offset_timestamps(tmp_path):
    # used to end in a TypeError from the minute offsets' min()
    text = HEADER + "s1,2024-04-18T08:00:00,3,7,1.0\ns2,2024-04-18T08:00:00+02:00,3,7,1.0\n"
    with pytest.raises(ParseError, match="^line 3: "):
        _parse(tmp_path, text)


def test_parse_overlap_sum_enforced(tmp_path):
    text = HEADER + "s1,2024-04-18T08:00:00,30,7,0.5\n"
    with pytest.raises(ValidationError):
        _parse(tmp_path, text)


def _records(tmp_path, count, fraction, when="2024-04-18T08:00:00"):
    text = HEADER
    rest = 1.0 - fraction
    text += f"s1,{when},{count},3,{fraction}\n"
    if rest > 0:
        text += f"s1,{when},{count},4,{rest}\n"
    return _parse(tmp_path, text)


def test_disaggregate_exact_division(tmp_path):
    out = dict_of(_records(tmp_path, 30, 1.0))
    bins = [out.get((3, 480 + m), 0) for m in range(15)]
    assert bins == [2] * 15


def test_disaggregate_largest_remainder_oracle(tmp_path):
    # independent oracle: floor quotas, then distribute the remainder to the
    # largest fractional parts (all equal under uniform split -> earliest bins)
    for total in (10, 7, 29, 44):
        got = largest_remainder(total, 15)
        quota = total / 15
        base = [math.floor(quota)] * 15
        remainder = total - sum(base)
        want = [base[i] + (1 if i < remainder else 0) for i in range(15)]
        assert got == want
        assert sum(got) == total
    out = dict_of(_records(tmp_path, 10, 1.0))
    bins = [out.get((3, 480 + m), 0) for m in range(15)]
    assert sum(bins) == 10 and set(bins) <= {0, 1}
    assert bins == largest_remainder(10, 15)


def test_disaggregate_zero_count(tmp_path):
    assert dict_of(_records(tmp_path, 0, 1.0)) == {}


def test_disaggregate_conservation_property(tmp_path):
    rng = np.random.default_rng(2)
    for _ in range(100):
        count = int(rng.integers(0, 300))
        frac = float(rng.uniform(0.05, 1.0))
        out = dict_of(_records(tmp_path, count, frac))
        total = sum(v for (cell, _), v in out.items() if cell == 3)
        assert total == int(math.floor(count * frac + 0.5))


def test_split_exact_products():
    counts = {(0, m): 200 for m in range(5)}
    series = dict_series(split_demand(counts_of(counts), 0.015, 0.08))
    assert all(series.participants[(0, m)] == 3 for m in range(5))
    assert all(series.competitors[(0, m)] == 16 for m in range(5))


def test_split_error_diffusion_oracle():
    # oracle: cumulative arrivals after m minutes equal floor(rate * m)
    counts = {(0, m): 10 for m in range(100)}
    series = dict_series(split_demand(counts_of(counts), 0.015, 0.0))
    cum = 0
    for m in range(100):
        cum += series.participants.get((0, m), 0)
        assert cum == math.floor(10 * 0.015 * (m + 1) + 1e-9)
    assert cum == 15


def test_split_zero_shares_and_validation():
    # the shares' bounds are SimConfig's (tests/test_engine.py); a zero share
    # or an empty table splits into no arrivals
    five = counts_of({(0, 0): 5})
    assert dict_series(split_demand(five, 0.0, 0.0)) == DictSeries({}, {})
    assert dict_series(split_demand(five, 0.0, 0.4)) == DictSeries({}, {(0, 0): 2})
    assert dict_series(split_demand(counts_of({}), 0.3, 0.4)) == DictSeries({}, {})


def test_split_share_accuracy_property():
    rng = np.random.default_rng(3)
    counts = {(c, m): int(rng.integers(0, 40)) for c in range(4) for m in range(200)}
    series = dict_series(split_demand(counts_of(counts), 0.1, 0.3))
    for cell in range(4):
        total = sum(v for (c, _), v in counts.items() if c == cell)
        got = sum(v for (c, _), v in series.participants.items() if c == cell)
        assert abs(got - 0.1 * total) <= 1.0


def test_synth_uniform_total():
    series = synth_demand(ArrivalsConfig(pattern="uniform", magnitude=1.0), 4, 10, SHARES, 0)
    # 16 cells (not 10), so scale the documented example: 1/min/cell
    assert series.total("participant") + series.total("competitor") == 16 * 10


def test_synth_determinism():
    spec = (ArrivalsConfig(pattern="hotspot", magnitude=0.4), 6, 60, SHARES, 9)
    a, b = dict_series(synth_demand(*spec)), dict_series(synth_demand(*spec))
    assert a.participants == b.participants and a.competitors == b.competitors


def test_synth_diurnal_matches_closed_form():
    spec = ArrivalsConfig(pattern="diurnal", magnitude=0.5, peak_minute=720)
    series = dict_series(synth_demand(spec, 3, 1440, (0.5, 0.5), 0))
    # per-cell cumulative participant arrivals track half (their share) of the
    # documented sinusoid within rounding of the two nested floors
    for cell in range(9):
        expect = 0.0
        got = 0
        for m in range(1440):
            phase = 2 * math.pi * (m - 720 + 720) / 1440
            expect += 0.5 * 0.5 * (1 - math.cos(phase))
            got += series.participants.get((cell, m), 0)
        assert abs(got - 0.5 * expect) <= 2.0


def test_synth_rotation_activates_one_center():
    spec = ArrivalsConfig(pattern="hotspot", magnitude=1.0, decay=0.4,
                          centers=[(0, 0), (5, 5)], rotate_every=120)
    series = dict_series(synth_demand(spec, 6, 240, (0.5, 0.5), 0))
    near_a = sum(v for (c, m), v in series.participants.items() if c == 0 and m < 120)
    near_a_late = sum(v for (c, m), v in series.participants.items() if c == 0 and m >= 120)
    assert near_a > 10 * max(1, near_a_late)


def test_synth_unknown_pattern():
    with pytest.raises(ConfigError):
        synth_demand(ArrivalsConfig(pattern="wavelet"), 3, 1440, SHARES, 0)


def test_scale_series_preserves_totals():
    series = synth_demand(ArrivalsConfig(pattern="uniform", magnitude=0.7), 3, 50, SHARES, 0)
    doubled = scale_series(series, 2.0)
    for group in ("participant", "competitor"):
        assert abs(doubled.total(group) - 2 * series.total(group)) <= 9 * 2  # per-cell carry


def test_series_roundtrip(tmp_path):
    series = synth_demand(ArrivalsConfig(pattern="hotspot", magnitude=0.8), 4, 30, SHARES, 4)
    path = tmp_path / "series.csv"
    save_series(path, series)
    back = dict_series(load_series(Table(path), 16))
    series = dict_series(series)
    assert back.participants == series.participants
    assert back.competitors == series.competitors


# --- columnar pipeline against the dict oracles (tests/reference.py) ---

cells_st = st.integers(0, 5)
minutes_st = st.integers(0, 40)
rows_st = st.lists(st.tuples(cells_st, minutes_st, st.integers(0, 30)), max_size=40)
share_st = st.one_of(st.just(0.0), st.floats(0.0, 0.5))


def summed(rows) -> dict:
    """The dict the old pipeline held for these rows: repeated (cell, minute)
    rows add up, and no entry is zero (MinuteCounts holds no zero count)."""
    out: dict = {}
    for k, m, v in rows:
        out[(k, m)] = out.get((k, m), 0) + v
    return {key: v for key, v in out.items() if v}


# shown offsets for a file whose timestamps all carry one; 2024-04-18 00:00Z
# reads as 2024-04-17 19:00-05:00, a day earlier
OFFSETS = [timezone.utc, timezone(timedelta(hours=2)), timezone(timedelta(hours=-5)),
           timezone(timedelta(hours=5, minutes=30))]


@st.composite
def intensity_records(draw):
    """Intensity rows in any order: each (segment, interval) split over one
    to three cells (possibly the same one) with fractions summing to 1, over
    up to three days, all naive or all with mixed UTC offsets, with counts
    and fractions small enough that some targets round to zero."""
    aware = draw(st.booleans())
    start = datetime(2024, 4, 18, tzinfo=timezone.utc if aware else None)
    records = []
    for seg, q in draw(st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 3 * 96)), max_size=8, unique=True)):
        ts = start + timedelta(minutes=15 * q)
        if aware:
            ts = ts.astimezone(draw(st.sampled_from(OFFSETS)))
        count = draw(st.one_of(st.integers(0, 3), st.integers(0, 400)))
        weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
        records += [IntensityRecord(seg, ts, count, draw(cells_st), w / sum(weights)) for w in weights]
    return draw(st.permutations(records))


@settings(max_examples=200, deadline=None)
@given(intensity_records())
def test_disaggregate_matches_dict_oracle(records):
    """parse_intensity over the rows written to a file equals the record by
    record oracle; repeated (cell, interval) rows overlap in the same minute
    bins."""
    text = HEADER + "".join(f"{r.segment_id},{r.interval_start.isoformat()},{r.count},{r.cell},{r.overlap_fraction!r}\n"
                            for r in records)
    with tempfile.TemporaryDirectory() as tmp:
        assert dict_of(_parse(Path(tmp), text)) == disaggregate_dict(records)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(cells_st, st.integers(0, 5), st.integers(-3, 30)), max_size=40).flatmap(st.permutations))
def test_minute_counts_of_matches_dict_oracle(rows):
    """Rows in any order, repeated, summing to zero or none at all: the
    summed nonzero counts, sorted by (minute, cell), one row per pair."""
    got = MinuteCounts.of(rows)
    assert all(col.dtype == np.int64 for col in got)
    assert dict_of(got) == summed(rows)
    keys = list(zip(got.minutes.tolist(), got.cells.tolist()))
    assert keys == sorted(set(keys)) and (got.counts != 0).all()


@settings(max_examples=300, deadline=None)
@given(rows_st, share_st, share_st)
def test_split_demand_matches_dict_oracle(rows, p_share, c_share):
    want = split_demand_dict(summed(rows), p_share, c_share)
    assert dict_series(split_demand(MinuteCounts.of(rows), p_share, c_share)) == want


@settings(max_examples=300, deadline=None)
@given(rows_st, rows_st, st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 4.0)))
def test_scale_series_matches_dict_oracle(p_rows, c_rows, scale):
    series = ArrivalSeries(MinuteCounts.of(p_rows), MinuteCounts.of(c_rows))
    want = scale_series_dict(DictSeries(summed(p_rows), summed(c_rows)), scale)
    assert dict_series(scale_series(series, scale)) == want


@settings(max_examples=300, deadline=None)
@given(rows_st, rows_st, st.integers(0, 50))
def test_merged_arrivals_split_by_group_into_the_per_group_lists(p_rows, c_rows, horizon):
    """Each minute's slice of the one arrival list, split by group code,
    holds the per-group lists' slices (tests/reference.py), participants
    first; the rows up to the horizon are both groups' arrivals before it."""
    series = ArrivalSeries(MinuteCounts.of(p_rows), MinuteCounts.of(c_rows))
    cells, codes, first = series.arrivals(horizon)
    want = [group_arrivals(series, name, horizon) for name in ("participant", "competitor")]
    assert len(first) == horizon + 1 and first[0] == 0
    assert first[horizon] == sum(w_first[horizon] for _, w_first in want)
    for t in range(horizon):
        minute_cells, minute_codes = cells[first[t]:first[t + 1]], codes[first[t]:first[t + 1]]
        assert (np.diff(minute_codes) >= 0).all()
        for code, (w_cells, w_first) in enumerate(want):
            assert minute_cells[minute_codes == code].tolist() == w_cells[w_first[t]:w_first[t + 1]].tolist()


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["uniform", "diurnal", "hotspot"]), st.integers(1, 4), st.integers(0, 90),
    st.one_of(st.just(0.0), st.floats(0.0, 3.0)), share_st, share_st,
    st.integers(0, 60), st.integers(0, 9),
)
def test_synth_demand_matches_dict_oracle(pattern, n, horizon, magnitude, p_share, c_share, rotate, seed):
    spec = (ArrivalsConfig(pattern=pattern, magnitude=magnitude, peak_minute=horizon // 3,
                           rotate_every=rotate, decay=1.5), n, horizon, (p_share, c_share), seed)
    assert dict_series(synth_demand(*spec)) == synth_demand_dict(*spec)


def test_series_file_survives_load_save_byte_for_byte(tmp_path):
    spec = ArrivalsConfig(pattern="hotspot", magnitude=0.9, rotate_every=30)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    save_series(first, synth_demand(spec, 5, 120, SHARES, 3))
    save_series(second, load_series(Table(first), 25))
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_bytes().splitlines()) > 100


def test_load_series_sums_repeated_rows(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("cell,minute,group,count\n3,4,participant,2\n3,4,participant,5\n3,4,competitor,0\n")
    series = dict_series(load_series(Table(path), 9))
    assert series == DictSeries({(3, 4): 7}, {})


@pytest.mark.parametrize("row, what", [
    ("150,3,participant,2", "cell 150"),
    ("100,3,participant,2", "cell 100"),
    ("-3,3,competitor,2", "cell -3"),
    ("4,-1,competitor,2", "minute -1"),
    ("4,1099511627776,competitor,2", "minute 1099511627776"),  # would overflow the int64 columns
    ("4,1,competitor,-2", "count -2"),
    ("4,1,competitor,99999999999999999999", "count 99999999999999999999"),
])
def test_load_series_rejects_rows_off_the_grid_or_clock(tmp_path, row, what):
    path = tmp_path / "series.csv"
    path.write_text("cell,minute,group,count\n0,0,participant,1\n" + row + "\n")
    with pytest.raises(ValidationError, match=f"line 3: .*{what}"):
        load_series(Table(path), 100)
