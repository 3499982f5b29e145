"""Command-line front door.

Commands: run | sweep | report | validate. Every flag has a config file
equivalent; flags win. Exit codes: 0 success, 1 partial sweep failure,
2 bad config or I/O: `main` turns every curbsim, OS and JSON error into
`error: <message>` and exit 2.
"""
from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .engine import SimConfig, config_grid, load_inputs, run_simulation
from .errors import ConfigError, CurbsimError, ValidationError
from .metrics import GROUPS, export_report, fold_events, mean_defined, outcome_blocks
from .strategies import StrategyKind, parse_strategy


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return SimConfig.from_dict(json.load(fh))


def _apply_overrides(cfg: SimConfig, args) -> SimConfig:
    """cfg with the given flags in place, checked like a loaded config; a
    flag the command lacks (sweep has no --strategy or --seed) is unset."""
    flags = {name: getattr(args, name, None) for name in ("strategy", "seed", "horizon", "runs")}
    return replace(cfg, **{name: value for name, value in flags.items() if value is not None})


def _require_history(cfg: SimConfig):
    """The CLI never cold-starts cord-approx: it needs a history file."""
    if cfg.strategy is StrategyKind.CORD_APPROX and not cfg.history_file:
        raise ConfigError("predictor requires history (set history_file for cord-approx)")


def cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    _require_history(cfg)
    run_simulation(cfg, out_dir=args.out)
    return 0


def _sweep_cell(payload):
    cfg, out_dir = payload
    report, _ = run_simulation(cfg, out_dir=out_dir)
    return report


def _list_flag(flag: str, text: str, kind):
    try:
        return [kind(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of {kind.__name__}s, got {text!r}") from None


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs must be an integer >= 1")
    cfg = _apply_overrides(load_config(args.config), args)
    strategies = (
        [parse_strategy(s).value for s in args.strategies.split(",")]
        if args.strategies
        else [cfg.strategy.value]
    )
    seeds = _list_flag("--seeds", args.seeds, int) if args.seeds else [cfg.seed]
    scales = _list_flag("--scales", args.scales, float) if args.scales else [cfg.demand_scale]
    # every cell's config and directory is checked before the first cell runs
    out_root = Path(args.out)
    cells: dict[str, tuple[SimConfig, str]] = {}
    for strategy, seed, scale in itertools.product(strategies, seeds, scales):
        name = f"{strategy}_s{seed}" + (f"_x{scale:g}" if len(scales) > 1 else "")
        if name in cells:
            raise ConfigError(f"two sweep cells share the directory cells/{name}: "
                              f"give distinct strategies, seeds and scales")
        cell_cfg = replace(cfg, strategy=strategy, seed=seed, demand_scale=scale)
        _require_history(cell_cfg)
        cells[name] = (cell_cfg, str(out_root / "cells" / name))
    # the cells name the same input files; a cord-approx cell's config reads the history too
    configs = [cell_cfg for cell_cfg, _ in cells.values()]
    load_inputs(next((c for c in configs if c.strategy is StrategyKind.CORD_APPROX), configs[0]))
    out_root.mkdir(parents=True, exist_ok=True)

    results: dict[str, dict] = {}
    failures: dict[str, str] = {}
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futs = {name: pool.submit(_sweep_cell, cell) for name, cell in cells.items()}
            for name, fut in futs.items():
                try:
                    results[name] = fut.result()
                except Exception as exc:
                    failures[name] = str(exc)
    else:
        for name, cell in cells.items():
            try:
                results[name] = _sweep_cell(cell)
            except Exception as exc:
                failures[name] = str(exc)

    summary = {"cells": sorted(results), "failures": failures, "comparison": []}
    for strategy in strategies:
        reports = [rep for name, rep in results.items() if cells[name][0].strategy.value == strategy]
        row = {"strategy": strategy}
        for group in GROUPS:
            ratios = [rep["aggregate"]["peak"][group]["success_ratio"] for rep in reports]
            row[f"{group}_success"] = mean_defined(ratios)
        summary["comparison"].append(row)
    with open(out_root / "sweep_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for row in summary["comparison"]:
        print(row)
    if failures:
        print(f"{len(failures)} of {len(cells)} cells failed: {failures}", file=sys.stderr)
        return 1
    return 0


def _check_report(report, n_logs: int):
    """The report.json structure `report` reads: an object with a `strategy`,
    `aggregate.regimes` and a `runs` list that holds an `hourly` series and
    `zones` per run, one run per event log at least."""
    if not isinstance(report, dict):
        raise ValidationError("report.json must hold a JSON object")
    if not isinstance(report.get("strategy"), str):
        raise ValidationError("report.json has no strategy")
    if not isinstance(report.get("aggregate"), dict) or not isinstance(report["aggregate"].get("regimes"), dict):
        raise ValidationError("report.json has no aggregate.regimes")
    runs = report.get("runs")
    if not isinstance(runs, list):
        raise ValidationError("report.json has no runs list")
    if len(runs) < n_logs:
        raise ValidationError(f"report.json holds {len(runs)} run(s) for {n_logs} event log(s)")
    for i, run in enumerate(runs):
        if not isinstance(run, dict) or not isinstance(run.get("hourly"), list):
            raise ValidationError(f"report.json runs[{i}] has no hourly series")
        if not isinstance(run.get("zones"), dict):
            raise ValidationError(f"report.json runs[{i}] has no zones")


_EVENT_LOG = re.compile(r"events(?:_r(\d+))?\.ndjson")


def _event_logs(log_dir: Path) -> list[tuple[int, Path]]:
    """The run directory's event logs as (run index, path), by index:
    run_simulation names run i's log events_r<i>.ndjson, or events.ndjson
    when there is one run. A name sort would put events_r10 before
    events_r2."""
    logs = []
    for path in log_dir.glob("events*.ndjson"):
        match = _EVENT_LOG.fullmatch(path.name)
        if match is None:
            raise ValidationError(f"{path.name} is no event log name (events.ndjson or events_r<i>.ndjson)")
        logs.append((int(match.group(1) or 0), path))
    return sorted(logs)


def cmd_report(args) -> int:
    log_dir = Path(args.log_dir)
    report_path = log_dir / "report.json"
    if not report_path.exists():
        raise ValidationError(f"no report.json in {log_dir}")
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    event_logs = _event_logs(log_dir)
    _check_report(report, len(event_logs))
    cfg = SimConfig.from_dict(report.get("config"))
    grid, _ = config_grid(cfg)
    # recount each run's outcome blocks from its raw events as a cross-check
    for i, path in event_logs:
        if i >= len(report["runs"]):
            raise ValidationError(f"event log {path.name} has no report.json runs[{i}]")
        recount = outcome_blocks(cfg, grid, fold_events(path, cfg.t_max))
        for block, value in recount.items():
            if report["runs"][i].get(block) != value:
                raise ValidationError(f"event log {path.name} disagrees with report.json runs[{i}].{block}")
    export_report(report, log_dir, grid)
    print(f"rendered outputs in {log_dir}")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    _require_history(cfg)
    load_inputs(cfg)
    print("config ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="curbsim", description="grid-city parking search simulator")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one simulation config")
    run.add_argument("--config", required=True)
    run.add_argument("--strategy", choices=[k.value for k in StrategyKind])
    run.add_argument("--seed", type=int)
    run.add_argument("--horizon", type=int)
    run.add_argument("--runs", type=int)
    run.add_argument("--out", required=True)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="cartesian sweep over strategies x seeds x demand scales")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--strategies", help="comma-separated strategy names")
    sweep.add_argument("--seeds", help="comma-separated master seeds")
    sweep.add_argument("--scales", help="comma-separated demand scales")
    sweep.add_argument("--horizon", type=int)
    sweep.add_argument("--runs", type=int)
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    report = sub.add_parser("report", help="re-render outputs from a run directory")
    report.add_argument("log_dir")
    report.set_defaults(func=cmd_report)

    validate = sub.add_parser("validate", help="check a config and load every input file it names")
    validate.add_argument("--config", required=True)
    validate.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CurbsimError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
