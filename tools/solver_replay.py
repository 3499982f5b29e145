"""Replay one day's assignment solves on two checkouts and time them.

    python3 tools/solver_replay.py --parent <dir> --change <dir>
        [--workloads city22-oracle,city22-approx] [--seed 7] [--reps 15]

<dir> is a source checkout holding src/ and perfbench/. The script first
runs one day of each workload on the parent checkout, through
perfbench/workloads.py and with BLAS pinned to one thread as the benchmark
does, and records the matrix of every `matching._solve` call. Then it
replays the recorded matrices through each checkout's own `_solve` in
--reps pairs of fresh processes, the parent first in even pairs and the
change first in odd ones. It prints, per workload, each side's solve
seconds per day (median and quartiles over the reps), the relative change
of the medians and the pairs the change won. It exits 1 unless both sides
return the same (row, col) pairs on every recorded matrix.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("city22-oracle", "city22-approx")
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _import_checkout(src: Path):
    sys.path[:0] = [str(src / "src"), str(src / "perfbench")]
    from curbsim import matching

    return matching


def record(src: Path, workload: str, seed: int, out: Path):
    """Run one day of the workload on src and save every solve's matrix,
    in call order, as one flat array with the shapes beside it."""
    matching = _import_checkout(src)
    import workloads

    solve, seen = matching._solve, []

    def recorded_solve(entries):
        seen.append(np.array(entries, dtype=np.float64))
        return solve(entries)

    matching._solve = recorded_solve
    day = workloads.make_workload(workload, seed, out.parent).run_round()[0]
    if day["error"]:
        raise SystemExit(f"{src}: {workload} seed {seed} failed: {day['error']}")
    np.savez(out, shapes=np.array([m.shape for m in seen], np.int64).reshape(-1, 2),
             flat=np.concatenate([m.ravel() for m in seen]) if seen else np.zeros(0))


def load(path: Path) -> list[np.ndarray]:
    with np.load(path) as data:
        shapes, flat = data["shapes"], data["flat"]
    ends = np.cumsum(shapes.prod(axis=1))
    return [m.reshape(shape) for m, shape in zip(np.split(flat, ends[:-1]), shapes)]


def replay(src: Path, paths: list[Path]) -> dict:
    """Time src's `_solve` over each recorded file; digest each result."""
    solve = _import_checkout(src)._solve
    out = {}
    for path in paths:
        matrices = load(path)
        results = []
        start = time.perf_counter()
        for m in matrices:
            results.append(solve(m))
        seconds = time.perf_counter() - start
        digests = [hashlib.sha256(np.ascontiguousarray(row, np.int64).tobytes() + b"|"
                                  + np.ascontiguousarray(col, np.int64).tobytes()).hexdigest()[:16]
                   for row, col in results]
        out[path.stem] = {"seconds": seconds, "digests": digests}
    return out


def run_self(*args) -> str:
    proc = subprocess.run([sys.executable, __file__, *map(str, args)], capture_output=True, text=True,
                          env=dict(os.environ, **BLAS_ENV))
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(map(str, args))} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] in (["--record"], ["--replay"]):
        mode, src, *rest = sys.argv[1:]
        if mode == "--record":
            workload, seed, out = rest
            record(Path(src), workload, int(seed), Path(out))
        else:
            print(json.dumps(replay(Path(src), [Path(p) for p in rest])))
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--reps", type=int, default=15)
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    names = args.workloads.split(",")

    with tempfile.TemporaryDirectory(prefix="solver_replay_") as work:
        paths = [Path(work) / f"{name}.npz" for name in names]
        for name, path in zip(names, paths):
            run_self("--record", sides["parent"], name, args.seed, path)
            print(f"recorded {name}@{args.seed}: {len(load(path))} solves", flush=True)
        runs = {side: [] for side in sides}
        for i in range(args.reps):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(json.loads(run_self("--replay", sides[side], *paths)))
            print(f"rep {i}: " + ", ".join(f"{name} {side} {runs[side][-1][name]['seconds']:.4f} s"
                                           for name in names for side in sides), flush=True)

    identical = True
    for name in names:
        a = [r[name]["seconds"] for r in runs["parent"]]
        b = [r[name]["seconds"] for r in runs["change"]]
        qa, qb = quartiles(a), quartiles(b)
        wins = sum(y < x for x, y in zip(a, b))
        differ = [k for k in range(len(runs["parent"][0][name]["digests"]))
                  if any(r[name]["digests"][k] != runs["parent"][0][name]["digests"][k]
                         for side in sides for r in runs[side])]
        identical &= not differ
        print(f"{name}@{args.seed}: solve s/day parent {qa[1]:.4f} [{qa[0]:.4f}, {qa[2]:.4f}], "
              f"change {qb[1]:.4f} [{qb[0]:.4f}, {qb[2]:.4f}] ({100 * (qb[1] - qa[1]) / qa[1]:+.1f}%), "
              f"change won {wins}/{len(a)}; pairs differ on {len(differ)} of "
              f"{len(runs['parent'][0][name]['digests'])} solves")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
