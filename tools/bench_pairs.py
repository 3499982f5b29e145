"""Interleaved before/after benchmark pairs, written as BENCH_<topic>.json.

    python3 tools/bench_pairs.py --parent <dir> --change <dir> --topic <name>
        [--workloads a,b@11,...] [--trace <workload>] [--out <file>]

<dir> is a source checkout holding BENCHMARK.json and perfbench/. Every
workload runs ten pairs at the benchmark's run_seconds. Each pair runs the
benchmark command once on each side, the parent first in even pairs and the
change first in odd ones, so slow drift on a shared host lands on both sides
alike; pair i of every workload runs before pair i + 1 of any. A workload
runs with seed 7, or with the seed given as name@seed. The file records, per
workload and end-to-end metric, each side's values, median and quartiles,
the number of pairs the change won, the relative change of the medians and
whether that change exceeds the parent's interquartile range; plus each
side's source hash and host versions from the benchmark manifest, every
day's outcome digest per side, whether the two sides' digests are identical
and, with --trace, one traced run per side of that workload. It prints every
end-to-end verdict per workload and the traced per-layer deltas: the time
layers largest first, then each other layer that moved.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

DIGEST = re.compile(r"^  (\S+): .*outcome digest (\S+) over", re.M)
MANIFEST = re.compile(r"^manifest (.*)$", re.M)
HOST_KEYS = ("src_sha256", "python", "numpy", "nproc", "affinity_cpus", "blas")
PAIRS = 10
SEED = 7


def run_bench(src: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=src, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    out = proc.stdout.rstrip().splitlines()
    result = json.loads(out[-1])
    if not result["correct"]:
        raise SystemExit(f"{src}: {workload} seed {seed} reported an incorrect run:\n{proc.stdout}")
    manifest = json.loads(MANIFEST.search(proc.stdout).group(1))
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "digests": dict(DIGEST.findall(proc.stdout)),
            "host": {k: manifest.get(k) for k in HOST_KEYS}}


def parse_label(label: str) -> tuple[str, int]:
    name, _, seed = label.partition("@")
    return name, int(seed) if seed else SEED


def quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(spec: dict, parent: list[dict], change: list[dict]) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name] for r in parent]
        b = [r["metrics"][name] for r in change]
        qa, qb = quartiles(a), quartiles(b)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": {"values": a, "median": qa[1], "quartiles": [qa[0], qa[2]]},
            "change": {"values": b, "median": qb[1], "quartiles": [qb[0], qb[2]]},
            "change_wins": wins, "pairs": len(a),
            "median_change": (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0,
            "beyond_parent_iqr": abs(qb[1] - qa[1]) > qa[2] - qa[0],
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    p.add_argument("--topic", required=True)
    p.add_argument("--workloads", help="comma-separated, name or name@seed; default: all")
    p.add_argument("--trace", help="workload, name or name@seed, to run once traced on each side")
    p.add_argument("--out", type=Path, help="default: BENCH_<topic>.json in the change dir")
    args = p.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    labels = {label: parse_label(label) for label in names}
    sides = {"parent": args.parent, "change": args.change}
    runs = {label: {"parent": [], "change": []} for label in labels}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for label, (name, seed) in labels.items():
            for side in order:
                r = run_bench(sides[side], spec["command"], name, seed, seconds, 0)
                runs[label][side].append(r)
                print(f"pair {i} {label} {side}: wall_s {r['metrics']['wall_s']:.4f}", flush=True)

    first = next(iter(runs.values()))
    record = {
        "sides": {side: first[side][0]["host"] for side in sides},
        "pairs": PAIRS, "seconds": seconds, "order": "parent first in even pairs",
        "workloads": {},
    }
    for label, (name, seed) in labels.items():
        sides_runs = runs[label]
        record["workloads"][label] = {
            "workload": name, "seed": seed,
            "metrics": summarize(spec, sides_runs["parent"], sides_runs["change"]),
            "digests": {side: sorted({f"{s} {d}" for r in rs for s, d in r["digests"].items()})
                        for side, rs in sides_runs.items()},
        }
        w = record["workloads"][label]
        w["digests_identical"] = w["digests"]["parent"] == w["digests"]["change"]
    if args.trace:
        name, seed = parse_label(args.trace)
        record["trace"] = {"workload": name, "seed": seed, **{
            side: run_bench(src, spec["command"], name, seed, seconds, 1)["metrics"]
            for side, src in sides.items()}}
    out = args.out or args.change / f"BENCH_{args.topic}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for label, w in record["workloads"].items():
        print(f"{label}: outcome digests {'identical' if w['digests_identical'] else 'DIFFER'}")
        for name, m in w["metrics"].items():
            print(f"  {name:18s} {m['parent']['median']:.6g} -> {m['change']['median']:.6g} {m['unit']} "
                  f"({100 * m['median_change']:+.1f}%, {m['better']} is better), change won "
                  f"{m['change_wins']}/{m['pairs']}, beyond parent IQR: {m['beyond_parent_iqr']}")
    if args.trace:
        t = record["trace"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        delta = {k: t["change"][k] - t["parent"][k] for k in t["parent"]}
        # the time layers largest change first, then every other layer that moved
        ranked = sorted((k for k in delta if units.get(k) == "s"), key=lambda k: -abs(delta[k]))
        ranked += [k for k in delta if units.get(k) != "s" and delta[k]]
        print(f"traced {t['workload']}@{t['seed']}, per-layer change per simulated day:")
        for k in ranked:
            print(f"  {k:34s} {t['parent'][k]:.6g} -> {t['change'][k]:.6g} {units.get(k, '')} ({delta[k]:+.6g})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
