import json
from pathlib import Path

import pytest

from curbsim.cli import main
from curbsim.predictor import HistoryCorpus, save_corpus, update_history

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
    code = main([
        "sweep", "--config", str(short_config), "--out", str(out),
        "--strategies", "unc-agn,cord-agn,cord-approx",
        "--seeds", "1,2",
    ])
    # cord-approx cells fail (no history); the others complete
    assert code == 1
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert len(summary["failures"]) == 2
    assert len(summary["cells"]) == 4
    assert all("history" in msg for msg in summary["failures"].values())


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


def test_train_writes_model(tmp_path, short_config):
    corpus = HistoryCorpus(100)
    update_history(corpus, {(0, 0): (5, 3), (4, 60): (4, 4), (44, 120): (6, 1)})
    hist = tmp_path / "hist.csv"
    save_corpus(hist, corpus)
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", str(short_config), "--history", str(hist),
                 "--out", str(model_path)]) == 0
    model = json.loads(model_path.read_text())
    assert {"beta", "intercept", "lambda", "schema"} <= set(model)


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


def test_sweep_unknown_strategy_runs_no_cell(tmp_path, short_config, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(short_config), "--out", str(out),
                 "--strategies", "unc-agn,cord-aprox"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: unknown strategy 'cord-aprox'")
    assert not out.exists()
