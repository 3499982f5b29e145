"""curbsim's benchmark: simulated-day workloads timed on the host.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload runs as a single-process batch, one simulated day after
another, with BLAS pinned to one thread (cord-approx trajectories depend on
the thread count). The measuring process repeats the workload's round for
about ``--seconds`` and checks every day's outputs. With ``--trace 0`` the
last line of standard output holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, whose spans
wrap each module's public functions from outside ``src/``. The lines
before it are a human-readable table, the simulated statistics (printed,
not gated) and a manifest. Set-up is probed in SETUP_PROBES extra
processes, and the median of those and the measuring process is reported.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata, util
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
BLAS_THREADS = "1"
DEADLINE_S = 170.0


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and the metrics, in order, with units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class BenchError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_worker(mode: str, args, work: Path, deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    result = work / f"{mode}.json"
    t0 = monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed),
           str(args.seconds), str(args.trace), repr(t0), str(work), str(result)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def manifest(args, m: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "curbsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_present": util.find_spec("numba") is not None,
        "blas": m["blas"],
        "blas_threads_pinned": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "config_hash": m["config_hash"],
    }


def wall_per_day(rounds, traced: bool) -> float:
    """Host seconds per simulated day over the run's (un)traced rounds."""
    picked = [r for r in rounds if r["traced"] == traced]
    return sum(r["wall"] for r in picked) / sum(r["days"] for r in picked)


def end_to_end(m: dict, setups: list[float], failed: int) -> dict:
    wall_s = wall_per_day(m["rounds"], traced=False)
    agent_ticks = sum(d.get("agent_ticks", 0) for d in m["days"])
    return {
        "wall_s": wall_s,
        "setup_s": statistics.median(setups),
        "tick_ms.p50": m["tick_ms_p50"],
        "tick_ms.p99": m["tick_ms_p99"],
        "agent_ticks_per_s": agent_ticks / (wall_s * len(m["days"])),
        "peak_rss_mb": m["peak_rss_mb"],
        "ok_day_share": 1.0 - failed / len(m["days"]),
    }


def print_sim_stats(days: list[dict]):
    print("simulated statistics (printed, not gated):")
    seen = {}
    for d in days:
        seen.setdefault(d["strategy"], []).append(d)
    for strategy, group in seen.items():
        ok = [d for d in group if d.get("digest")]
        if not ok:
            print(f"  {strategy}: no completed day")
            continue
        d = ok[0]
        parts = []
        for g, s in d["peak"].items():
            sr, st = s["success_ratio"], s["avg_search_time"]
            parts.append(f"{g} peak success {sr if sr is None else round(sr, 4)}, "
                         f"mean search {st if st is None else round(st, 3)} min")
        digests = sorted({x["digest"] for x in ok})
        print(f"  {strategy}: {'; '.join(parts)}; spawned {d['spawned']}; "
              f"agent-ticks/day {d['agent_ticks']}; outcome digest {','.join(digests)} "
              f"over {len(ok)} day(s)")


def print_layers(per_layer, layers: dict, self_times: dict, rounds):
    traced = wall_per_day(rounds, traced=True)
    print(f"per-layer table, per simulated day (traced wall {traced:.4f} s/day):")
    for name, unit in per_layer:
        v = layers[name]
        share = f"  {100 * v / traced:6.2f}% of wall" if unit == "s" and name != "trace.overhead_s" else ""
        print(f"  {name:34s} {v:16.6f} {unit}{share}")
    ranked = sorted(self_times.items(), key=lambda kv: -kv[1])
    print("self time by span: " + ", ".join(f"{k} {v:.4f} s ({100 * v / traced:.1f}%)"
                                             for k, v in ranked[:6]))
    both = layers["strategies.oracle_matrix_s"] + layers["matching.solve_s"]
    print(f"oracle matrix + assignment: {both:.4f} s/day ({100 * both / traced:.1f}% of wall)")


def main(argv=None) -> int:
    spec = load_spec()
    end_to_end_spec = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not (ROOT / "src" / "curbsim" / "engine.py").is_file():
        print(f"error: no curbsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        run_worker("prepare", args, work, deadline)
        setups = [] if args.trace else [run_worker("setup", args, work, deadline)["setup_s"]
                                        for _ in range(SETUP_PROBES)]
        m = run_worker("measure", args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not all(r["ticks"] for r in m["rounds"]):
        print("error: a round never reached its first tick", file=sys.stderr)
        return 1
    failures = [d for d in m["days"] if d["failure"]]
    for d in failures:
        print(f"FAILED day ({d['strategy']}): {d['failure']}")
    correct = not failures
    print(f"manifest {json.dumps(manifest(args, m), sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(m['rounds'])} round(s), "
          f"{len(m['days'])} simulated day(s), {len(failures)} failed; "
          f"error_rate {len(failures) / len(m['days'])}")
    print_sim_stats(m["days"])
    if args.trace:
        layers = dict(m["layers"])
        layers["trace.overhead_s"] = (wall_per_day(m["rounds"], traced=True)
                                      - wall_per_day(m["rounds"], traced=False))
        print_layers(per_layer, layers, m["self_times"], m["rounds"])
        print(f"tick accounting: |tick - (self + child spans)| / tick = {m['accounting_error']:.3e}")
        if m["accounting_error"] > 1e-6:
            correct = False
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in per_layer}
    else:
        setups.append(m["setup_s"])
        values = end_to_end(m, setups, len(failures))
        print(f"end-to-end over {len(m['rounds'])} round(s) of {m['rounds'][0]['ticks']} ticks "
              f"and {len(setups)} set-ups:")
        for name, unit in end_to_end_spec:
            print(f"  {name:20s} {values[name]:14.6f} {unit}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end_spec}
    print(json.dumps({"correct": correct, "attempted": len(m["days"]), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
