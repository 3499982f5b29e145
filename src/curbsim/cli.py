"""Command-line front door.

Commands: run | sweep | train | report | validate. Every flag has a config
file equivalent; flags win. Exit codes: 0 success, 1 partial sweep failure,
2 bad config or I/O.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .engine import SimConfig, build_arrivals, run_simulation
from .errors import ConfigError, CurbsimError, ValidationError
from .grid import load_grid
from .metrics import GROUPS, export_report, fold_events, hourly_series
from .predictor import load_corpus, retrain, save_model
from .strategies import StrategyKind, parse_strategy


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return SimConfig.from_dict(json.load(fh))


def _apply_overrides(cfg: SimConfig, args) -> SimConfig:
    """cfg with the given flags in place, checked like a loaded config."""
    flags = {name: getattr(args, name) for name in ("strategy", "seed", "horizon", "runs")}
    return replace(cfg, **{name: value for name, value in flags.items() if value is not None})


def cmd_run(args) -> int:
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if cfg.strategy is StrategyKind.CORD_APPROX and not cfg.history_file:
            print("error: predictor requires history (set history_file for cord-approx)", file=sys.stderr)
            return 2
        if not cfg.grid_file or not Path(cfg.grid_file).exists():
            print(f"error: grid file not found: {cfg.grid_file}", file=sys.stderr)
            return 2
        run_simulation(cfg, out_dir=args.out)
    except (CurbsimError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _sweep_cell(payload):
    cfg, out_dir = payload
    if cfg.strategy is StrategyKind.CORD_APPROX and not cfg.history_file:
        raise ConfigError("predictor requires history")
    report, _ = run_simulation(cfg, out_dir=out_dir)
    return report


def cmd_sweep(args) -> int:
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        strategies = (
            [parse_strategy(s).value for s in args.strategies.split(",")]
            if args.strategies
            else [cfg.strategy.value]
        )
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [cfg.seed]
        scales = [float(s) for s in args.scales.split(",")] if args.scales else [cfg.demand_scale]
        # every cell's config is checked before the first cell runs
        out_root = Path(args.out)
        cells = [
            (replace(cfg, strategy=strategy, seed=seed, demand_scale=scale),
             str(out_root / "cells" / (f"{strategy}_s{seed}" + (f"_x{scale:g}" if len(scales) > 1 else ""))))
            for strategy in strategies for seed in seeds for scale in scales
        ]
    except (CurbsimError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_root.mkdir(parents=True, exist_ok=True)

    results: dict[str, dict | None] = {}
    failures: dict[str, str] = {}
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futs = {pool.submit(_sweep_cell, cell): cell for cell in cells}
            for fut, cell in futs.items():
                key = Path(cell[1]).name
                try:
                    results[key] = fut.result()
                except Exception as exc:
                    failures[key] = str(exc)
    else:
        for cell in cells:
            key = Path(cell[1]).name
            try:
                results[key] = _sweep_cell(cell)
            except Exception as exc:
                failures[key] = str(exc)

    summary = {"cells": sorted(results), "failures": failures, "comparison": []}
    for strategy in strategies:
        row = {"strategy": strategy}
        for group in GROUPS:
            vals = [
                rep["aggregate"]["peak"][group]["success_ratio"]
                for key, rep in results.items()
                if key.startswith(strategy) and rep is not None
                and rep["aggregate"]["peak"][group]["success_ratio"] is not None
            ]
            row[f"{group}_success"] = float(np.mean(vals)) if vals else None
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


def cmd_train(args) -> int:
    try:
        cfg = load_config(args.config)
        grid, _ = load_grid(cfg.grid_file)
        corpus = load_corpus(args.history, grid.n * grid.n, cfg.weekday)
        model = retrain(corpus)
        save_model(args.out, model)
    except (CurbsimError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"model written to {args.out} (lambda={model.lam}, {len(model.coefficients)} coefficients)")
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


def cmd_report(args) -> int:
    log_dir = Path(args.log_dir)
    report_path = log_dir / "report.json"
    if not report_path.exists():
        print(f"error: no report.json in {log_dir}", file=sys.stderr)
        return 2
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        event_files = sorted(log_dir.glob("events*.ndjson"))
        _check_report(report, len(event_files))
        cfg = SimConfig.from_dict(report.get("config"))
        grid, _ = load_grid(cfg.grid_file)
        if event_files:
            # recount hourly series from the raw events as a cross-check
            for i, path in enumerate(event_files):
                outcomes = fold_events(path, cfg.t_max, cfg.horizon)
                recount = hourly_series(outcomes, cfg.horizon)
                stored = report["runs"][i]["hourly"]
                if recount != stored:
                    print(f"error: event log {path.name} disagrees with report.json", file=sys.stderr)
                    return 2
        export_report(report, log_dir, grid)
    except (CurbsimError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"rendered outputs in {log_dir}")
    return 0


def cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
        grid = None
        if cfg.grid_file:
            if not Path(cfg.grid_file).exists():
                print(f"error: grid file not found: {cfg.grid_file}", file=sys.stderr)
                return 2
            grid, _ = load_grid(cfg.grid_file)
        if cfg.arrivals.kind == "file":
            if not Path(cfg.arrivals.path or "").exists():
                print(f"error: arrivals file not found: {cfg.arrivals.path}", file=sys.stderr)
                return 2
            if grid is not None:
                build_arrivals(cfg, grid, cfg.seed)  # parses and range-checks every row
    except (CurbsimError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    sweep.add_argument("--strategy", choices=[k.value for k in StrategyKind])
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--horizon", type=int)
    sweep.add_argument("--runs", type=int)
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    train = sub.add_parser("train", help="fit the availability model from a history file")
    train.add_argument("--config", required=True)
    train.add_argument("--history", required=True)
    train.add_argument("--out", required=True)
    train.set_defaults(func=cmd_train)

    report = sub.add_parser("report", help="re-render outputs from a run directory")
    report.add_argument("log_dir")
    report.set_defaults(func=cmd_report)

    validate = sub.add_parser("validate", help="schema-check a config file")
    validate.add_argument("--config", required=True)
    validate.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
