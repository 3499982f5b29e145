import argparse
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from curbsim.cli import build_parser, main
from curbsim.demand import INTENSITY_COLS, SERIES_COLS
from curbsim.errors import ValidationError
from curbsim.grid import GRID_COLS
from curbsim.metrics import fold_events
from curbsim.predictor import HISTORY_COLS, HistoryCorpus, save_corpus

REPO = Path(__file__).resolve().parents[1]
EXAMPLE_CONFIG = REPO / "configs" / "example.json"
EXAMPLE_GRID = REPO / "configs" / "example_grid.tsv"


@pytest.fixture
def short_config(tmp_path):
    """Example config trimmed to a 2-hour horizon for fast CLI runs."""
    cfg = json.loads(EXAMPLE_CONFIG.read_text())
    cfg["grid_file"] = str(EXAMPLE_GRID)
    cfg["horizon"] = 120
    cfg["peak_window"] = [0, 120]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_validate_shipped_config():
    assert main(["validate", "--config", str(EXAMPLE_CONFIG)]) == 0


def test_validate_missing_grid(tmp_path, short_config):
    cfg = json.loads(short_config.read_text())
    cfg["grid_file"] = str(tmp_path / "nope.tsv")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(bad)]) == 2


def test_run_ok_and_outputs(tmp_path, short_config):
    out = tmp_path / "out"
    assert main(["run", "--config", str(short_config), "--out", str(out)]) == 0
    for name in ("events.ndjson", "report.json", "series.csv", "regimes.csv",
                 "zones.csv", "heatmap_participant.svg"):
        assert (out / name).exists(), name


def test_run_missing_grid(tmp_path, short_config):
    cfg = json.loads(short_config.read_text())
    cfg["grid_file"] = "does/not/exist.tsv"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_run_cord_approx_requires_history(tmp_path, short_config, capsys):
    code = main(["run", "--config", str(short_config), "--strategy", "cord-approx",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "predictor requires history" in capsys.readouterr().err


def test_run_byte_identical(tmp_path, short_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(short_config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(short_config), "--out", str(out2)]) == 0
    for name in ("events.ndjson", "report.json", "series.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_flags_override_config(tmp_path, short_config):
    out = tmp_path / "o"
    assert main(["run", "--config", str(short_config), "--seed", "99",
                 "--horizon", "60", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["master_seed"] == 99
    assert report["config"]["horizon"] == 60


@pytest.mark.parametrize("flag, value, message", [
    ("--horizon", "-5", "horizon must be an integer >= 0"),
    ("--runs", "0", "runs must be an integer >= 1"),
])
def test_run_flags_go_through_the_config_checks(tmp_path, short_config, capsys, flag, value, message):
    # --horizon -5 used to die in numpy, --runs 0 to exit 0 with an empty report
    out = tmp_path / "o"
    assert main(["run", "--config", str(short_config), flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--horizon", "-5", "horizon must be an integer >= 0"),
    ("--scales", "-1", "demand_scale must be >= 0"),
    ("--scales", "1,-1", "demand_scale must be >= 0"),
    ("--scales", "nan", "demand_scale must be >= 0 and finite"),
    ("--scales", "1,inf", "demand_scale must be >= 0 and finite"),
    ("--seeds", "1,x", "--seeds must be a comma-separated list of ints"),
    ("--jobs", "0", "--jobs must be an integer >= 1"),
    ("--jobs", "-3", "--jobs must be an integer >= 1"),
])
def test_sweep_flags_go_through_the_config_checks(tmp_path, short_config, capsys, flag, value, message):
    # each used to run every cell and report each bad one as failed (exit 1);
    # --jobs below 1 used to run the cells one after another and exit 0
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(short_config), flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_sweep_1x1_matches_run(tmp_path, short_config):
    run_out = tmp_path / "run"
    sweep_out = tmp_path / "sweep"
    assert main(["run", "--config", str(short_config), "--out", str(run_out)]) == 0
    assert main(["sweep", "--config", str(short_config), "--out", str(sweep_out)]) == 0
    cell = sweep_out / "cells" / "cord-agn_s1"
    assert (cell / "events.ndjson").read_bytes() == (run_out / "events.ndjson").read_bytes()
    assert (sweep_out / "sweep_summary.json").exists()


def test_sweep_grid_and_partial_failure(tmp_path, short_config):
    out = tmp_path / "sweep"
    hist = tmp_path / "hist.csv"
    save_corpus(hist, HistoryCorpus(100))
    config = _edited_config(tmp_path, short_config, history_file=str(hist))
    # a plain file where a cord-approx cell's directory goes fails that cell at run time
    (out / "cells").mkdir(parents=True)
    for seed in (1, 2):
        (out / "cells" / f"cord-approx_s{seed}").write_text("")
    code = main([
        "sweep", "--config", str(config), "--out", str(out),
        "--strategies", "unc-agn,cord-agn,cord-approx",
        "--seeds", "1,2",
    ])
    assert code == 1
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert len(summary["failures"]) == 2
    assert len(summary["cells"]) == 4
    assert all(f"cells/{name}" in msg for name, msg in summary["failures"].items())


def test_sweep_loads_every_input_file_before_any_cell_runs(tmp_path, short_config, capsys):
    # the cord-agn cell used to run to its end before cord-approx's cell failed on the missing file
    out = tmp_path / "sweep"
    config = _edited_config(tmp_path, short_config, history_file=str(tmp_path / "nope.csv"))
    code = main(["sweep", "--config", str(config), "--out", str(out), "--strategies", "cord-agn,cord-approx"])
    assert code == 2
    assert "nope.csv: no such file" in capsys.readouterr().err
    assert not (out / "cells").exists()


def test_sweep_checks_the_history_rule_before_any_cell_runs(tmp_path, short_config, capsys):
    # the cord-agn cell used to run to its end before cord-approx's cell exited 1
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(short_config), "--out", str(out),
                 "--strategies", "cord-agn,cord-approx"])
    assert code == 2
    assert capsys.readouterr().err == "error: predictor requires history (set history_file for cord-approx)\n"
    assert not (out / "cells").exists()


def test_sweep_four_by_three(tmp_path, short_config):
    cfg = json.loads(short_config.read_text())
    cfg["horizon"] = 60
    cfg["peak_window"] = [0, 60]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", str(path), "--out", str(out),
        "--strategies", "unc-agn,cord-agn,cord-oracle",
        "--seeds", "1,2,3,4", "--jobs", "2",
    ])
    assert code == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert len(summary["cells"]) == 12
    assert {row["strategy"] for row in summary["comparison"]} == {"unc-agn", "cord-agn", "cord-oracle"}


def test_report_empty_dir(tmp_path):
    assert main(["report", str(tmp_path)]) == 2


def test_report_rerenders(tmp_path, short_config):
    out = tmp_path / "out"
    assert main(["run", "--config", str(short_config), "--out", str(out)]) == 0
    (out / "series.csv").unlink()
    assert main(["report", str(out)]) == 0
    assert (out / "series.csv").exists()


def test_validate_unknown_strategy(tmp_path, short_config, capsys):
    cfg = json.loads(short_config.read_text())
    cfg["strategy"] = "cord-aprox"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown strategy 'cord-aprox'")
    assert "Traceback" not in err


@pytest.mark.parametrize("every", [0, 90])
def test_validate_bad_retrain_every(tmp_path, short_config, capsys, every):
    cfg = json.loads(short_config.read_text())
    cfg["retrain_every"] = every
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: retrain_every must be a positive multiple of 60")
    assert "Traceback" not in err


def test_sweep_unknown_strategy_runs_no_cell(tmp_path, short_config, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(short_config), "--out", str(out),
                 "--strategies", "unc-agn,cord-aprox"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: unknown strategy 'cord-aprox'")
    assert not out.exists()


def _edited_config(tmp_path, short_config, **fields):
    """The short config with fields replaced, written to a file; a dotted
    name such as ``arrivals.kind`` replaces a nested field."""
    cfg = json.loads(short_config.read_text())
    for name, value in fields.items():
        *parents, leaf = name.split(".")
        target = cfg
        for parent in parents:
            target = target[parent]
        target[leaf] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cfg))
    return path


def _validate(tmp_path, short_config, **fields):
    """Validate the short config with fields replaced (see `_edited_config`)."""
    return main(["validate", "--config", str(_edited_config(tmp_path, short_config, **fields))])


def test_validate_unknown_field(tmp_path, short_config, capsys):
    assert _validate(tmp_path, short_config, bogus=1) == 2
    err = capsys.readouterr().err
    assert err == "error: unknown config field: bogus\n"
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([{"seed": 1}]))
    assert main(["validate", "--config", str(listed)]) == 2
    assert capsys.readouterr().err == "error: config must be a JSON object\n"


def test_validate_wrong_typed_value(tmp_path, short_config, capsys):
    assert _validate(tmp_path, short_config, retrain_every="60") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config value:")
    assert "unknown config field" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("log_moves", "false"), ("weekday", 9), ("t_max", 0),
    ("shares", [-0.1, 0.5]), ("shares", [0.6, 0.5]), ("peak_window", [600, 600]),
    ("peak_window", [-1, 60]), ("arrivals.magnitude", -0.2), ("demand_scale", -1.0),
    ("arrivals.kind", "synthetic"), ("arrivals.pattern", "hotsp0t"), ("arrivals.decay", 0),
    ("arrivals.decay", -1.0), ("arrivals.centers", [[1]]), ("arrivals.n_centers", 0),
    ("arrivals.n_centers", 1.5), ("arrivals.rotate_every", 30.5), ("arrivals.rotate_every", -30),
    ("runs", 1.5), ("r", 1.5),
    # JSON booleans, which Python reads as 0 and 1, are no numbers here
    ("initial_occupancy", True), ("demand_scale", True), ("arrivals.magnitude", True), ("dwell.minutes", True),
])
def test_validate_out_of_range_field(tmp_path, short_config, capsys, field, value):
    assert _validate(tmp_path, short_config, **{field: value}) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be")
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["centers", "static_centers"])
def test_validate_rejects_arrival_centers_off_the_grid(tmp_path, short_config, capsys, field):
    # centers off the grid used to pass validate, and run spawned no agent
    fields = {"arrivals.centers": [[2, 2]], f"arrivals.{field}": [[99, 99], [-5, 3]]}
    assert _validate(tmp_path, short_config, **fields) == 2
    assert capsys.readouterr().err == f"error: arrivals.{field} holds [99, 99], off the 10x10 grid\n"


def test_validate_non_numeric_history_field(tmp_path, short_config, capsys):
    # only cord-approx loads its history file
    hist = tmp_path / "hist.csv"
    hist.write_text("k,bucket_start,rho,attempts\nx,0,0.5,2\n")
    code = _validate(tmp_path, short_config, strategy="cord-approx", history_file=str(hist))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ")
    assert "Traceback" not in err


# Per loader: the config field naming its table, the other fields that make
# `validate` read it, a valid table, and the integer column the failure
# cases spoil. The grid is the shipped 10x10 example, tab-separated; the
# others are comma-separated.
TABLES = {
    "grid": ("grid_file", {}, EXAMPLE_GRID.read_text().splitlines(), "capacity"),
    "intensity": ("arrivals.path", {"arrivals.kind": "file"},
                  ["segment_id,interval_start,count,geohash7,overlap_fraction",
                   "s1,2024-04-18T00:00:00,30,g000005,1.0", "s2,2024-04-18T00:15:00,20,g000006,1.0"], "count"),
    "series": ("arrivals.path", {"arrivals.kind": "file"},
               ["cell,minute,group,count", "5,1,participant,1", "7,2,competitor,2"], "minute"),
    "history": ("history_file", {"strategy": "cord-approx"},
                ["k,bucket_start,rho,attempts", "0,0,0.5,2", "3,60,1.0,1"], "bucket_start"),
}


@pytest.mark.parametrize("loader", sorted(TABLES))
def test_a_missing_input_file_names_the_working_directory(tmp_path, short_config, capsys, monkeypatch, loader):
    # used to print only "error: [Errno 2] No such file or directory: 'configs/nope.tsv'"
    path_field, fields, _, _ = TABLES[loader]
    config = _edited_config(tmp_path, short_config, **{path_field: "configs/nope.tsv"}, **fields)
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: configs/nope.tsv: no such file (input paths resolve against the working "
                   f"directory, {tmp_path})\n")


def _spoil(lines, column, value):
    """lines with the second data row's `column` field set to value."""
    delim = "\t" if "\t" in lines[0] else ","
    fields = lines[2].split(delim)
    fields[lines[0].split(delim).index(column)] = value
    return [*lines[:2], delim.join(fields), *lines[3:]]


def _missing_column(lines, column):
    return [lines[0].replace(column, "bogus"), *lines[1:]], 1


def _extra_field(lines, column):
    delim = "\t" if "\t" in lines[0] else ","
    return [*lines[:2], lines[2] + delim + "9", *lines[3:]], 3


def _non_integer(lines, column):
    return _spoil(lines, column, "x"), 3


def _past_the_bound(lines, column):
    return _spoil(lines, column, str(2**70)), 3


def _after_blank_lines(lines, column):
    return [lines[0], "", "", *_spoil(lines, column, "-1")[1:]], 5


@pytest.mark.parametrize("failure", [_missing_column, _extra_field, _non_integer, _past_the_bound,
                                     _after_blank_lines], ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("loader", sorted(TABLES))
def test_validate_names_the_physical_line_of_a_bad_table(tmp_path, short_config, capsys, loader, failure):
    # past the bound: a grid capacity or history bucket_start of 2**70 used
    # to end in an OverflowError traceback; after blank lines: the grid,
    # intensity and series loaders named line 3, not 5; extra field: the
    # grid, intensity and series loaders dropped it
    path_field, fields, lines, column = TABLES[loader]
    bad, line = failure(lines, column)
    table = tmp_path / f"{loader}.txt"
    table.write_text("\n".join(bad) + "\n")
    assert _validate(tmp_path, short_config, **{path_field: str(table)}, **fields) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("delim, order", [(None, 1), ("\t", -1), (",", -1)], ids=["as-is", "tsv-reversed", "csv-reversed"])
@pytest.mark.parametrize("loader", sorted(TABLES))
def test_validate_reads_each_table_in_either_delimiter_and_any_column_order(tmp_path, short_config, loader, delim, order):
    path_field, fields, lines, _ = TABLES[loader]
    if delim is not None:
        split = "\t" if "\t" in lines[0] else ","
        lines = [delim.join(line.split(split)[::order]) for line in lines]
    table = tmp_path / f"{loader}.txt"
    table.write_text("\n".join(lines) + "\n")
    assert _validate(tmp_path, short_config, **{path_field: str(table)}, **fields) == 0


@pytest.mark.parametrize("content, message", [
    (b"k,geohash7,i,j,capacity\n0,\xe9,0,0,1\n", "is not UTF-8 text"),
    (b"k,geohash7,i,j,capacity\n0," + b"a" * 200_000 + b",0,0,1\n", "line 2: field larger than field limit"),
], ids=["not-utf8", "field-past-csv-limit"])
def test_validate_rejects_a_grid_file_that_is_no_text_table(tmp_path, short_config, capsys, content, message):
    # each used to end in a UnicodeDecodeError or csv.Error traceback
    grid = tmp_path / "grid.csv"
    grid.write_bytes(content)
    assert _validate(tmp_path, short_config, grid_file=str(grid)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_validate_rejects_a_history_count_past_the_bound(tmp_path, short_config, capsys):
    # 23 digits used to end in an OverflowError traceback
    hist = tmp_path / "hist.csv"
    hist.write_text("k,bucket_start,rho,attempts\n0,0,0.5,2\n0,60,0.5,99999999999999999999999\n")
    assert _validate(tmp_path, short_config, strategy="cord-approx", history_file=str(hist)) == 2
    assert capsys.readouterr().err == "error: line 3: attempts 99999999999999999999999 outside 0..2**40\n"


def _arrival_file_config(tmp_path, short_config, row):
    """The short config reading its arrivals from a series file that holds
    one good row and then `row`."""
    series = tmp_path / "series.csv"
    series.write_text("cell,minute,group,count\n5,1,participant,1\n" + row + "\n")
    cfg = json.loads(short_config.read_text())
    cfg["arrivals"] = {"kind": "file", "path": str(series)}
    path = tmp_path / "file_config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("row, what", [
    ("150,3,participant,2", "cell 150"),  # used to die with an IndexError in the engine
    ("-3,3,competitor,2", "cell -3"),     # used to spawn agents off the grid
])
def test_run_rejects_arrival_cell_off_the_grid(tmp_path, short_config, capsys, row, what):
    cfg = _arrival_file_config(tmp_path, short_config, row)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 3: {what} outside")
    assert not (tmp_path / "o" / "events.ndjson").exists()
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == err


def test_run_reads_a_series_file(tmp_path, short_config):
    cfg = _arrival_file_config(tmp_path, short_config, "7,2,competitor,2")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    spawns = [json.loads(line) for line in (out / "events.ndjson").read_text().splitlines()
              if '"spawn"' in line]
    assert [(e["tick"], e["group"], e["cell"]) for e in spawns] == [
        (1, "participant", 5), (2, "competitor", 7), (2, "competitor", 7)]


def test_a_zero_count_series_row_past_the_horizon_runs(tmp_path, short_config):
    # used to fail with "arrival series spans 501 minutes, beyond horizon 120"
    cfg = _arrival_file_config(tmp_path, short_config, "7,500,competitor,0")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "events.ndjson").read_text().count('"spawn"') == 1


@pytest.mark.parametrize("kind, late_row", [
    ("intensity", "s3,2024-04-18T02:00:00,1,g000005,1.0"),  # one vehicle, at minute 120
    ("series", "5,120,participant,1"),
])
def test_an_arrival_at_the_horizon_is_rejected_from_either_file_kind(tmp_path, short_config, capsys, kind, late_row):
    # an intensity file used to fail with "minute 120 outside horizon 120",
    # a series file with "arrival series spans 121 minutes, beyond horizon 120"
    arrivals = tmp_path / "arrivals.csv"
    arrivals.write_text("\n".join([*TABLES[kind][2], late_row]) + "\n")
    config = _edited_config(tmp_path, short_config, **{"arrivals.kind": "file", "arrivals.path": str(arrivals)})
    for argv in (["validate", "--config", str(config)], ["run", "--config", str(config), "--out", str(tmp_path / "o")]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {arrivals}: arrival at minute 120, past horizon 120\n"


def test_report_rejects_unknown_config_key(tmp_path, short_config, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(short_config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    report["config"]["bogus"] = 1
    (out / "report.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown config field: bogus\n"


def test_run_and_validate_reject_an_intensity_count_past_int64_columns(tmp_path, short_config, capsys):
    # used to die with an OverflowError traceback once the count met an int64 column
    intensity = tmp_path / "intensity.csv"
    intensity.write_text("segment_id,interval_start,count,geohash7,overlap_fraction\n"
                         f"s1,2024-04-18T08:00:00,{10**21},g000000,1.0\n")
    cfg = json.loads(short_config.read_text())
    cfg["arrivals"] = {"kind": "file", "path": str(intensity)}
    path = tmp_path / "intensity_config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: line 2: count {10**21} outside 0..2**40\n"
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == err


def _break_report(out, edit):
    """Rewrite a finished run's report.json as edit(report) returns it."""
    report = json.loads((out / "report.json").read_text())
    (out / "report.json").write_text(json.dumps(edit(report)))


def _drop_runs(report):
    del report["runs"]
    return report


def _drop_hourly(report):
    del report["runs"][0]["hourly"]
    return report


def _drop_strategy(report):
    del report["strategy"]
    return report


def _drop_aggregate(report):
    del report["aggregate"]
    return report


def _drop_regimes(report):
    del report["aggregate"]["regimes"]
    return report


def _drop_zones(report):
    del report["runs"][0]["zones"]
    return report


@pytest.mark.parametrize("edit, message", [
    (lambda report: [1], "report.json must hold a JSON object"),
    (_drop_runs, "report.json has no runs list"),
    (_drop_hourly, "report.json runs[0] has no hourly series"),
    (_drop_strategy, "report.json has no strategy"),
    (_drop_aggregate, "report.json has no aggregate.regimes"),
    (_drop_regimes, "report.json has no aggregate.regimes"),
    (_drop_zones, "report.json runs[0] has no zones"),
])
def test_report_rejects_a_malformed_report(tmp_path, short_config, capsys, edit, message):
    # each used to end in an AttributeError or KeyError traceback
    out = tmp_path / "out"
    assert main(["run", "--config", str(short_config), "--out", str(out)]) == 0
    _break_report(out, edit)
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_report_recounts_spawned_and_censored_agents(tmp_path, short_config, capsys):
    # hourly n counts parked and failed agents only: a spawn that stays
    # censored used to pass the recount, which compared hourly alone
    out = tmp_path / "out"
    assert main(["run", "--config", str(short_config), "--out", str(out)]) == 0
    with open(out / "events.ndjson", "a", encoding="utf-8") as fh:
        fh.write('{"tick": 119, "agent_id": 5000000, "group": "competitor", "event": "spawn", "cell": 3}\n')
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    assert capsys.readouterr().err == "error: event log events.ndjson disagrees with report.json runs[0].peak\n"


def test_report_rejects_a_park_past_the_search_budget(tmp_path, short_config, capsys):
    # t_max is 30; of two parks past it, the message names the lower agent id's
    out = tmp_path / "out"
    assert main(["run", "--config", str(short_config), "--out", str(out)]) == 0
    with open(out / "events.ndjson", "a", encoding="utf-8") as fh:
        for aid, spawn, park in ((5000001, 60, 100), (5000000, 80, 111)):
            fh.write(f'{{"tick": {spawn}, "agent_id": {aid}, "group": "competitor", "event": "spawn", "cell": 3}}\n')
            fh.write(f'{{"tick": {park}, "agent_id": {aid}, "group": "competitor", "event": "park", "cell": 3}}\n')
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    assert capsys.readouterr().err == "error: parked search time 31 exceeds budget 30\n"


@pytest.mark.parametrize("block", ["peak", "full_day"])
def test_report_reads_a_missing_outcome_block_as_a_mismatch(tmp_path, short_config, capsys, block):
    out = tmp_path / "out"
    assert main(["run", "--config", str(short_config), "--out", str(out)]) == 0
    _break_report(out, lambda report: {**report, "runs": [{k: v for k, v in report["runs"][0].items() if k != block}]})
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    assert capsys.readouterr().err == f"error: event log events.ndjson disagrees with report.json runs[0].{block}\n"


def test_report_of_a_run_that_still_has_the_checks_field(tmp_path, short_config, capsys):
    # SimConfig lost its `checks` knob: such a report.json needs the key deleted
    out = tmp_path / "out"
    assert main(["run", "--config", str(short_config), "--out", str(out)]) == 0
    _break_report(out, lambda report: {**report, "config": {**report["config"], "checks": True}})
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown config field: checks\n"


def test_report_rejects_more_event_logs_than_runs(tmp_path, short_config, capsys):
    # used to end in an IndexError traceback on the second log
    out = tmp_path / "out"
    assert main(["run", "--config", str(short_config), "--out", str(out)]) == 0
    (out / "events_r1.ndjson").write_text((out / "events.ndjson").read_text())
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    assert capsys.readouterr().err == "error: report.json holds 1 run(s) for 2 event log(s)\n"


def test_report_pairs_each_event_log_with_its_run_past_ten_runs(tmp_path, short_config, capsys):
    # a name sort put events_r10 before events_r2 and compared it with runs[2]
    out = tmp_path / "out"
    assert main(["run", "--config", str(short_config), "--runs", "11", "--horizon", "60", "--out", str(out)]) == 0
    assert (out / "events_r10.ndjson").exists()
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_report_rejects_an_event_log_past_the_runs_or_with_another_name(tmp_path, short_config, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(short_config), "--out", str(out)]) == 0
    (out / "events.ndjson").rename(out / "events_r3.ndjson")
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    assert capsys.readouterr().err == "error: event log events_r3.ndjson has no report.json runs[3]\n"
    (out / "events_r3.ndjson").rename(out / "events_old.ndjson")
    assert main(["report", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: events_old.ndjson is no event log name (events.ndjson or events_r<i>.ndjson)\n")


def _validate_and_run(tmp_path, path, capsys):
    """Exit codes and stderr of `validate` and `run` on one config file;
    checks that run wrote nothing."""
    out = tmp_path / "o"
    capsys.readouterr()
    codes = (main(["validate", "--config", str(path)]), main(["run", "--config", str(path), "--out", str(out)]))
    errs = capsys.readouterr().err
    assert not out.exists()
    return codes, errs


@pytest.mark.parametrize("field, value", [
    ("arrivals.magnitude", math.nan), ("arrivals.magnitude", math.inf),
    ("demand_scale", math.nan), ("demand_scale", math.inf),
    ("shares", [math.nan, 0.08]), ("shares", [0.015, math.inf]), ("shares", [-math.inf, 0.08]),
    ("dwell.minutes", math.nan), ("dwell.minutes", math.inf),
    ("dwell.sigma", math.nan), ("dwell.sigma", math.inf),
    ("dwell.floor", 2.5), ("dwell.floor", 0),
])
def test_validate_and_run_reject_non_finite_numbers(tmp_path, short_config, capsys, field, value):
    # json writes and reads NaN and Infinity; each used to pass validate and run
    # a day with no agent, or with every dwell cast to INT64_MIN
    path = _edited_config(tmp_path, short_config, **{field: value})
    codes, errs = _validate_and_run(tmp_path, path, capsys)
    assert codes == (2, 2)
    validate_err, run_err = errs.splitlines()
    assert validate_err == run_err
    assert validate_err.startswith(f"error: {field} must be")


@pytest.mark.parametrize("field, value", [
    ("arrivals", 5), ("arrivals", [1]), ("dwell", 5), ("dwell", "fixed"),
    ("grid_file", 5), ("history_file", 5), ("arrivals.path", 5),
])
def test_validate_and_run_reject_wrong_typed_nested_and_path_fields(tmp_path, short_config, capsys, field, value):
    # arrivals: 5 used to end in an AttributeError traceback, dwell: 5 passed
    # validate, grid_file: 5 gave a TypeError traceback
    path = _edited_config(tmp_path, short_config, **{field: value})
    codes, errs = _validate_and_run(tmp_path, path, capsys)
    assert codes == (2, 2)
    assert errs.startswith(f"error: {field} must be")
    assert "Traceback" not in errs


def test_validate_loads_the_history_file(tmp_path, short_config, capsys):
    # validate used to skip history_file and print "config ok" for a file
    # that run then failed to open
    path = _edited_config(tmp_path, short_config, strategy="cord-approx",
                          history_file=str(tmp_path / "missing.csv"))
    codes, errs = _validate_and_run(tmp_path, path, capsys)
    assert codes == (2, 2)
    assert errs.count("missing.csv") == 2
    path = _edited_config(tmp_path, short_config, strategy="cord-approx")
    codes, errs = _validate_and_run(tmp_path, path, capsys)
    assert codes == (2, 2)
    assert errs == "error: predictor requires history (set history_file for cord-approx)\n" * 2


def test_validate_loads_what_run_loads(tmp_path, short_config, capsys):
    corpus = HistoryCorpus(100, 0, [0, 4, 44], [0, 60, 120], [3 / 5, 4 / 4, 1 / 6], [5, 4, 6])
    hist = tmp_path / "hist.csv"
    save_corpus(hist, corpus)
    path = _edited_config(tmp_path, short_config, strategy="cord-approx", history_file=str(hist))
    assert main(["validate", "--config", str(path)]) == 0
    hist.write_text("k,bucket_start,rho,attempts\nx,0,0.5,2\n")
    codes, errs = _validate_and_run(tmp_path, path, capsys)
    assert codes == (2, 2)
    assert errs.startswith("error: line 2: ")


def test_validate_requires_a_grid_file(tmp_path, short_config, capsys):
    # run always needed grid_file; validate used to accept a config without it
    cfg = json.loads(short_config.read_text())
    del cfg["grid_file"]
    path = tmp_path / "no_grid.json"
    path.write_text(json.dumps(cfg))
    codes, errs = _validate_and_run(tmp_path, path, capsys)
    assert codes == (2, 2)
    assert errs == "error: config needs grid_file\n" * 2


@pytest.mark.parametrize("flags, clash", [
    (["--seeds", "1,1"], "cord-agn_s1"),
    (["--seeds", "1,1", "--scales", "1,1.0000001"], "cord-agn_s1_x1"),
    (["--scales", "1,1.0"], "cord-agn_s1_x1"),
    (["--strategies", "unc-agn,unc-agn"], "unc-agn_s1"),
])
def test_sweep_rejects_cells_that_share_a_directory(tmp_path, short_config, capsys, flags, clash):
    # such cells used to run one after another into one directory, and
    # sweep_summary.json listed one cell
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(short_config), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith(f"error: two sweep cells share the directory cells/{clash}:")
    assert not out.exists()


@pytest.mark.parametrize("line", [
    '{"tick": 3}',
    "[1]",
    '"spawn"',
    '{"event": "spawn", "agent_id": 99999, "group": "pedestrian", "tick": 3, "cell": 0}',
    '{"event": "park", "agent_id": 0, "tick": 3}',
    '{"event": "spawn", "agent_id": [1], "group": "participant", "tick": 3, "cell": 0}',
    "{not json",
    # a park or fail of an agent that never spawned, or that already parked
    # (agent 0 parks at tick 7 in this run)
    '{"tick": 5, "agent_id": 999999, "group": "participant", "event": "park", "cell": 3}',
    '{"tick": 9, "agent_id": 0, "group": "competitor", "event": "park", "cell": 3}',
    '{"tick": 9, "agent_id": 0, "group": "competitor", "event": "fail"}',
])
def test_report_names_the_malformed_event_line(tmp_path, short_config, capsys, line):
    # each used to end in a KeyError, TypeError or JSONDecodeError traceback
    out = tmp_path / "out"
    assert main(["run", "--config", str(short_config), "--out", str(out)]) == 0
    events = out / "events.ndjson"
    n_lines = len(events.read_text().splitlines())
    with open(events, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {events}: line {n_lines + 1}: malformed event (")
    assert "Traceback" not in err
    with pytest.raises(ValidationError, match=f"line {n_lines + 1}: "):
        fold_events(events, 30)


@pytest.mark.parametrize("line", [
    '{"event": "spawn", "agent_id": 99999, "group": "participant", "tick": "x", "cell": 0}',
    '{"event": "spawn", "agent_id": 99999, "group": "participant", "tick": 3.5, "cell": 0}',
    '{"event": "spawn", "agent_id": 99999, "group": "participant", "tick": "3", "cell": 0}',
    '{"event": "spawn", "agent_id": 99999, "group": "participant", "tick": true, "cell": 0}',
    '{"event": "spawn", "agent_id": 99999.0, "group": "participant", "tick": 3, "cell": 0}',
    '{"event": "park", "agent_id": 0, "tick": 3, "cell": 1.5}',
    '{"event": "park", "agent_id": false, "tick": 3, "cell": 0}',
    '{"event": "fail", "agent_id": 0, "tick": "7", "cell": 0}',
])
def test_report_rejects_a_non_integer_event_field(tmp_path, short_config, capsys, line):
    # "x" used to end in a ValueError traceback; 3.5, "3" and true were read as 3, 3 and 1
    out = tmp_path / "out"
    assert main(["run", "--config", str(short_config), "--out", str(out)]) == 0
    events = out / "events.ndjson"
    n_lines = len(events.read_text().splitlines())
    with open(events, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {events}: line {n_lines + 1}: malformed event (TypeError: ")
    assert "must be an integer" in err and "Traceback" not in err


SPAWN_5M = '{"tick": 100, "agent_id": 5000000, "group": "competitor", "event": "spawn", "cell": 3}'


@pytest.mark.parametrize("lines, message", [
    # agent 0 parks at tick 7 in this run
    (['{"tick": 9, "agent_id": 0, "group": "participant", "event": "spawn", "cell": 3}'],
     "second spawn of agent 0"),
    ([SPAWN_5M, SPAWN_5M.replace('"tick": 100', '"tick": 119')], "second spawn of agent 5000000"),
    ([SPAWN_5M, '{"tick": 50, "agent_id": 5000000, "group": "competitor", "event": "park", "cell": 3}'],
     "park of agent 5000000 at tick 50, before its spawn at tick 100"),
    ([SPAWN_5M, '{"tick": 99, "agent_id": 5000000, "group": "competitor", "event": "fail"}'],
     "fail of agent 5000000 at tick 99, before its spawn at tick 100"),
], ids=["spawn-of-a-parked-agent", "spawn-of-a-searching-agent", "park-before-spawn", "fail-before-spawn"])
def test_report_rejects_a_second_spawn_or_an_end_before_the_spawn(tmp_path, short_config, capsys, lines, message):
    # a second spawn used to replace the first silently; a park before its
    # spawn was recorded with a negative search time, and report named no line
    out = tmp_path / "out"
    assert main(["run", "--config", str(short_config), "--out", str(out)]) == 0
    events = out / "events.ndjson"
    bad_line = len(events.read_text().splitlines()) + len(lines)
    with open(events, "a", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {events}: line {bad_line}: malformed event (ValueError: {message})\n"
    with pytest.raises(ValidationError, match=f"line {bad_line}: "):
        fold_events(events, 30)


def test_sweep_comparison_follows_each_cells_strategy(tmp_path, short_config):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(short_config), "--out", str(out), "--horizon", "60",
                 "--strategies", "unc-agn,cord-agn", "--seeds", "1,2"]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    for row in summary["comparison"]:
        reports = [json.loads((out / "cells" / f"{row['strategy']}_s{seed}" / "report.json").read_text())
                   for seed in (1, 2)]
        for group in ("participant", "competitor"):
            vals = [r["aggregate"]["peak"][group]["success_ratio"] for r in reports]
            assert row[f"{group}_success"] == pytest.approx(sum(vals) / 2)


def _readme_commands():
    """Every `curbsim ...` command line in README's code blocks, with its
    backslash continuations joined."""
    text = (REPO / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("curbsim ")]


def test_readme_names_only_existing_commands_and_flags():
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    commands = _readme_commands()
    assert commands
    for words in commands:
        assert words[1] in subcommands, words
        flags = subcommands[words[1]]._option_string_actions
        for word in words[2:]:
            if word.startswith("--"):
                assert word.partition("=")[0] in flags, (words[1], word)


def test_readme_gives_each_tables_loader_columns():
    # the columns cell of each row of README's input-table table
    rows = re.findall(r"^\| (\w+) \| `[\w.]+` \| (.*) \|$", (REPO / "README.md").read_text(), re.M)
    assert {table: tuple(re.findall(r"`(\w+)`", cols)) for table, cols in rows} == {
        "grid": GRID_COLS, "intensity": INTENSITY_COLS, "series": SERIES_COLS, "history": HISTORY_COLS,
    }
