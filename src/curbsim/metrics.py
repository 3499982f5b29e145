"""Evaluation metrics and report/export machinery.

Every statistic is read off one summary of a set of agents (`_summary`).
Success ratio = parked within budget / resolved spawns (agents still
searching at horizon end are censored and excluded from both numerator and
denominator). Search time averages successful attempts only. Regime deltas
bin agents by the availability fraction at their spawn tick. Zone reports
restrict to parks inside each zone's cells. Undefined quantities (no
spawns, no successes, empty bin) are None, never 0.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .grid import GridSpec

REGIME_BINS = (
    ("low", 0.00, 0.05),
    ("intermediate", 0.20, 0.25),
    ("high", 0.40, 0.45),
)

# driver groups by code, and agent outcome codes; the engine writes both
GROUPS = ("participant", "competitor")
STATUS_PARKED, STATUS_FAILED, STATUS_CENSORED = 0, 1, 2


@dataclass
class RunOutcomes:
    """Terminal outcome per spawned agent (column arrays): group code, spawn
    tick, status code, terminal tick (-1 when censored) and park cell (-1
    unless parked)."""

    group: np.ndarray
    spawn: np.ndarray
    status: np.ndarray
    terminal: np.ndarray
    park_cell: np.ndarray


def mean_defined(values) -> float | None:
    """Mean of the values that are not None; None when none is."""
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


def _window_mask(outcomes, group_code, window):
    lo, hi = window
    return (
        (outcomes.group == group_code)
        & (outcomes.spawn >= lo)
        & (outcomes.spawn < hi)
    )


def _summary(outcomes, mask) -> dict:
    """Outcome counts of the agents in mask, their success ratio (parked over
    resolved) and their average search time (parked agents only)."""
    rows = mask.nonzero()[0]
    status = outcomes.status.take(rows)
    # one count per status code, in code order (STATUS_* above)
    parked, failed, censored = np.bincount(status, minlength=3).tolist()
    park = rows[status == STATUS_PARKED]
    search = outcomes.terminal.take(park) - outcomes.spawn.take(park)
    return {
        "success_ratio": parked / (parked + failed) if parked + failed else None,
        "avg_search_time": float(np.mean(search)) if parked else None,
        "spawned": len(rows),
        "parked": parked,
        "failed": failed,
        "censored": censored,
    }


def success_ratio(outcomes, group_code: int, window: tuple[int, int]) -> float | None:
    return _summary(outcomes, _window_mask(outcomes, group_code, window))["success_ratio"]


def avg_search_time(outcomes, group_code: int, window: tuple[int, int]) -> float | None:
    return _summary(outcomes, _window_mask(outcomes, group_code, window))["avg_search_time"]


def regime_gap(outcomes, availability: np.ndarray) -> dict[str, float | None]:
    """Participant-minus-competitor success ratio per availability regime.

    Agents are binned by the availability fraction recorded at their spawn
    tick; spawns outside every bin are ignored.
    """
    at_spawn = availability[np.clip(outcomes.spawn, 0, len(availability) - 1)]
    out: dict[str, float | None] = {}
    for label, lo, hi in REGIME_BINS:
        in_bin = (at_spawn >= lo) & (at_spawn < hi)
        p, c = (_summary(outcomes, in_bin & (outcomes.group == code))["success_ratio"] for code in (0, 1))
        out[label] = None if p is None or c is None else p - c
    return out


def zone_report(outcomes, zones: dict[str, list[int]], window: tuple[int, int]) -> dict:
    """Per-zone average search time for each group (parks in the zone only)."""
    windowed = [_window_mask(outcomes, code, window) for code in range(len(GROUPS))]
    out = {}
    for zone_id in sorted(zones):
        in_zone = np.isin(outcomes.park_cell, np.asarray(zones[zone_id], dtype=np.int64))
        out[zone_id] = {
            name: _summary(outcomes, windowed[code] & in_zone)["avg_search_time"]
            for code, name in enumerate(GROUPS)
        }
    return out


def hourly_series(outcomes, horizon: int) -> list[dict]:
    """Per hour of the horizon and group, the outcomes of the agents spawned
    in that hour; a partial last hour is a row of its own."""
    rows = []
    for hour in range(-(-horizon // 60)):
        for code, name in enumerate(GROUPS):
            s = _summary(outcomes, _window_mask(outcomes, code, (hour * 60, (hour + 1) * 60)))
            rows.append({"hour": hour, "group": name, "success_ratio": s["success_ratio"],
                         "avg_search_time": s["avg_search_time"], "n": s["parked"] + s["failed"]})
    return rows


def outcome_blocks(cfg, grid: GridSpec, outcomes) -> dict:
    """The per-run report blocks that depend on the outcomes alone, so that
    `curbsim report` can recount them from an event log: peak, full_day,
    hourly and zones."""
    window = tuple(cfg.peak_window)
    blocks = {
        "peak": {},
        "full_day": {},
        "hourly": hourly_series(outcomes, cfg.horizon),
        "zones": zone_report(outcomes, grid.zones(), window),
    }
    for code, name in enumerate(GROUPS):
        for label, win in (("peak", window), ("full_day", (0, cfg.horizon))):
            blocks[label][name] = _summary(outcomes, _window_mask(outcomes, code, win))
    return blocks


def build_report(cfg, grid: GridSpec, results) -> dict:
    """Assemble the full multi-run report dict (json-serializable)."""
    runs = [
        {
            "seed": res.seed,
            **outcome_blocks(cfg, grid, res.outcomes),
            "regimes": regime_gap(res.outcomes, res.availability),
            "mean_availability": float(res.availability.mean()) if len(res.availability) else None,
        }
        for res in results
    ]

    aggregate = {"peak": {}, "full_day": {}, "regimes": {}}
    for name in GROUPS:
        for label in ("peak", "full_day"):
            aggregate[label][name] = {
                "success_ratio": mean_defined([r[label][name]["success_ratio"] for r in runs]),
                "avg_search_time": mean_defined([r[label][name]["avg_search_time"] for r in runs]),
            }
    for label, _, _ in REGIME_BINS:
        aggregate["regimes"][label] = mean_defined([r["regimes"][label] for r in runs])

    return {
        "config": cfg.to_dict(),
        "strategy": cfg.strategy.value,
        "master_seed": cfg.seed,
        "runs": runs,
        "aggregate": aggregate,
    }


# --- exports ---

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def export_series_csv(report: dict, path):
    """hour, strategy, group, success_ratio, avg_search_time, n; multi-run
    reports append per-run success ratio columns after the means."""
    runs = report["runs"]
    multi = len(runs) > 1
    header = ["hour", "strategy", "group", "success_ratio", "avg_search_time", "n"]
    if multi:
        header += [f"success_ratio_r{i}" for i in range(len(runs))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        if not runs:
            return
        n_rows = len(runs[0]["hourly"])
        for ridx in range(n_rows):
            per_run = [r["hourly"][ridx] for r in runs]
            base = per_run[0]
            ratios = [p["success_ratio"] for p in per_run]
            row = [
                base["hour"],
                report["strategy"],
                base["group"],
                _fmt(mean_defined(ratios)),
                _fmt(mean_defined(p["avg_search_time"] for p in per_run)),
                sum(p["n"] for p in per_run),
            ]
            if multi:
                row += [_fmt(x) for x in ratios]
            w.writerow(row)


def export_regimes_csv(report: dict, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["strategy", "bin", "delta"])
        for label, _, _ in REGIME_BINS:
            w.writerow([report["strategy"], label, _fmt(report["aggregate"]["regimes"][label])])


def export_zones_csv(report: dict, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["zone", "group", "avg_search_time"])
        runs = report["runs"]
        if not runs:
            return
        zone_ids = sorted(runs[0]["zones"])
        for zone_id in zone_ids:
            for name in GROUPS:
                w.writerow([zone_id, name, _fmt(mean_defined(r["zones"][zone_id][name] for r in runs))])


_RAMP = (
    (0.00, "#1b7e7a"),
    (0.20, "#3fae9f"),
    (0.40, "#9cd3b1"),
    (0.60, "#f3b272"),
    (0.80, "#e8704f"),
    (1.00, "#c8254f"),
)


def _ramp_color(x: float) -> str:
    for stop, color in _RAMP:
        if x <= stop + 1e-9:
            return color
    return _RAMP[-1][1]


def export_heatmap_svg(report: dict, grid: GridSpec, path, group: str = "participant"):
    """Zone-grid (or cell-grid) heatmap of average search time with labels."""
    runs = report["runs"]
    zones = grid.zones()
    cell_px = 64
    if zones:
        ids = sorted(zones)
        side = int(np.ceil(np.sqrt(len(ids))))
        items = [(zid, mean_defined(r["zones"][zid][group] for r in runs)) for zid in ids]
    else:
        side = grid.n
        items = [(str(k), None) for k in range(grid.n * grid.n)]
    finite = [v for _, v in items if v is not None]
    vmax = max(finite) if finite else 1.0
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side * cell_px}" height="{side * cell_px + 24}">',
        f'<text x="4" y="16" font-family="monospace" font-size="12">avg search time (min), {group}</text>',
    ]
    for idx, (label, val) in enumerate(items):
        x = (idx % side) * cell_px
        y = (idx // side) * cell_px + 24
        color = "#dddddd" if val is None else _ramp_color(val / vmax if vmax else 0.0)
        lines.append(
            f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" fill="{color}" stroke="#ffffff"/>'
        )
        text = "-" if val is None else f"{val:.1f}"
        lines.append(
            f'<text x="{x + cell_px / 2:.0f}" y="{y + cell_px / 2:.0f}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{label}: {text}</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def export_report(report: dict, out_dir, grid: GridSpec):
    """Write the CSV tables and one heatmap per group."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    export_series_csv(report, out / "series.csv")
    export_regimes_csv(report, out / "regimes.csv")
    export_zones_csv(report, out / "zones.csv")
    for group in GROUPS:
        export_heatmap_svg(report, grid, out / f"heatmap_{group}.svg", group)


# --- event-log folding (report reconstruction from events.ndjson) ---

def _integer(value, name: str) -> int:
    """value when it is a JSON integer; TypeError otherwise (true, 3.5 and
    "3" included, which the int64 outcome columns would read as 1, 3 and 3)."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def fold_events(path, t_max: int):
    """Rebuild outcome arrays from an event log; independent of the engine's
    in-memory bookkeeping, used for recount checks and `report`."""
    # agent id -> (group, spawn tick) while searching; a park or fail moves
    # the agent to resolved, so each terminal event costs one dict lookup
    searching: dict[int, tuple[int, int]] = {}
    resolved: dict[int, tuple[int, int, int, int, int]] = {}
    groups = {name: code for code, name in enumerate(GROUPS)}
    lineno = 0
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                ev = json.loads(line)
                aid = ev["agent_id"]
                kind = ev["event"]
                if kind == "spawn":
                    if _integer(aid, "agent_id") in searching or aid in resolved:
                        raise ValueError(f"second spawn of agent {aid}")
                    searching[aid] = (groups[ev["group"]], _integer(ev["tick"], "tick"))
                elif kind == "park" or kind == "fail":
                    parked = kind == "park"
                    tick = _integer(ev["tick"], "tick")
                    cell = _integer(ev["cell"], "cell") if parked else -1
                    spawn = searching.pop(_integer(aid, "agent_id"), None)
                    if spawn is None:
                        raise ValueError(f"{kind} of agent {aid}, which is not searching")
                    if tick < spawn[1]:
                        raise ValueError(f"{kind} of agent {aid} at tick {tick}, before its spawn at tick {spawn[1]}")
                    resolved[aid] = (*spawn, STATUS_PARKED if parked else STATUS_FAILED, tick, cell)
        except (ValueError, KeyError, TypeError) as exc:
            # a missing key, an unknown group, a non-object line, bad JSON, a
            # non-integer field of a kept event, a second spawn of an agent, or
            # a park or fail of an agent with no spawn, with an earlier park or
            # fail, or at a tick before its spawn
            raise ValidationError(f"{path}: line {lineno}: malformed event ({type(exc).__name__}: {exc})") from None
    for aid, spawn in searching.items():
        resolved[aid] = (*spawn, STATUS_CENSORED, -1, -1)
    out = RunOutcomes(*np.array([resolved[aid] for aid in sorted(resolved)], np.int64).reshape(-1, 5).T)
    search = out.terminal - out.spawn
    bad = ((out.status == STATUS_PARKED) & (search > t_max)).nonzero()[0]
    if len(bad):
        raise ValidationError(f"parked search time {search[bad[0]]} exceeds budget {t_max}")
    return out
