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
from pathlib import Path

import numpy as np

from .engine import SimConfig, run_simulation
from .errors import CurbsimError, ConfigError
from .grid import load_grid
from .metrics import GROUPS, export_report, fold_events, hourly_series
from .predictor import load_corpus, retrain, save_model
from .strategies import StrategyKind, parse_strategy


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        return SimConfig(**raw)
    except TypeError as exc:
        raise ConfigError(f"unknown config field: {exc}") from None


def _apply_overrides(cfg: SimConfig, args) -> SimConfig:
    if args.strategy:
        cfg.strategy = StrategyKind(args.strategy)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.horizon is not None:
        cfg.horizon = args.horizon
    if args.runs is not None:
        cfg.runs = args.runs
    return cfg


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
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
    cfg_dict, strategy, seed, scale, out_dir = payload
    cfg = SimConfig(**cfg_dict)
    cfg.strategy = StrategyKind(strategy)
    cfg.seed = seed
    cfg.demand_scale = scale
    if cfg.strategy is StrategyKind.CORD_APPROX and not cfg.history_file:
        raise ConfigError("predictor requires history")
    report, _ = run_simulation(cfg, out_dir=out_dir)
    return report


def cmd_sweep(args) -> int:
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        strategies = (
            [parse_strategy(s).value for s in args.strategies.split(",")]
            if args.strategies
            else [cfg.strategy.value]
        )
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [cfg.seed]
        scales = [float(s) for s in args.scales.split(",")] if args.scales else [cfg.demand_scale]
    except (CurbsimError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    cells = []
    for strategy in strategies:
        for seed in seeds:
            for scale in scales:
                name = f"{strategy}_s{seed}" + (f"_x{scale:g}" if len(scales) > 1 else "")
                cells.append((cfg.to_dict(), strategy, seed, scale, str(out_root / "cells" / name)))

    results: dict[str, dict | None] = {}
    failures: dict[str, str] = {}
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futs = {pool.submit(_sweep_cell, cell): cell for cell in cells}
            for fut, cell in futs.items():
                key = Path(cell[4]).name
                try:
                    results[key] = fut.result()
                except Exception as exc:
                    failures[key] = str(exc)
    else:
        for cell in cells:
            key = Path(cell[4]).name
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


def cmd_report(args) -> int:
    log_dir = Path(args.log_dir)
    report_path = log_dir / "report.json"
    if not report_path.exists():
        print(f"error: no report.json in {log_dir}", file=sys.stderr)
        return 2
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        cfg = SimConfig(**report["config"])
        grid, _ = load_grid(cfg.grid_file)
        event_files = sorted(log_dir.glob("events*.ndjson"))
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
        if cfg.grid_file:
            if not Path(cfg.grid_file).exists():
                print(f"error: grid file not found: {cfg.grid_file}", file=sys.stderr)
                return 2
            load_grid(cfg.grid_file)
        if cfg.arrivals.kind == "file" and not Path(cfg.arrivals.path or "").exists():
            print(f"error: arrivals file not found: {cfg.arrivals.path}", file=sys.stderr)
            return 2
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
