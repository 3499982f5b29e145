"""One benchmark process: prepare inputs, probe set-up, or measure a workload.

    python3 perfbench/worker.py <prepare|setup|measure> <workload> <seed> \
        <seconds> <trace 0|1> <t0> <work dir> <result file>

``t0`` is the CLOCK_MONOTONIC reading the launching process took just
before starting this one, so set-up time counts interpreter start. The
result is written as JSON to the result file.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _FirstTick(BaseException):
    """Ends a set-up probe at its first tick; a BaseException so that the
    sweep's per-cell ``except Exception`` does not swallow it."""


class TickClock:
    """Times every ``Simulation.tick`` call; notes when the first one began."""

    def __init__(self, stop_at_first: bool = False):
        from curbsim.engine import Simulation

        self.first_tick_monotonic = None
        self.round_start = None
        self.durations: list[float] = []
        tick = Simulation.tick
        clock = self

        def timed_tick(sim):
            start = time.perf_counter()
            if clock.first_tick_monotonic is None:
                clock.first_tick_monotonic = monotonic()
                if stop_at_first:
                    raise _FirstTick
            if clock.round_start is None:
                clock.round_start = start
            tick(sim)
            clock.durations.append(time.perf_counter() - start)

        Simulation.tick = timed_tick


def blas_manifest() -> dict:
    """The BLAS numpy was built against and the thread count it runs with."""
    import ctypes
    import glob
    import os

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None  # None: not the scipy-openblas build numpy wheels bundle
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {"library": blas.get("name"), "version": blas.get("version"), "threads": threads}


def setup_probe(workload: str, seed: int, t0: float, work: Path) -> dict:
    clock = TickClock(stop_at_first=True)
    from workloads import make_workload

    try:
        make_workload(workload, seed, work).run_round()
    except _FirstTick:
        return {"setup_s": clock.first_tick_monotonic - t0}
    raise RuntimeError("the workload finished without ticking")


def measure(workload: str, seed: int, seconds: float, trace: bool, t0: float, work: Path) -> dict:
    import numpy as np

    clock = TickClock()
    from workloads import check_day, config_hash, make_workload

    wl = make_workload(workload, seed, work)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    rounds = []
    start = None
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            tracer.install()
        clock.round_start = None
        n_ticks = len(clock.durations)
        begin = time.perf_counter()
        days = wl.run_round()
        end = time.perf_counter()
        if traced:
            tracer.uninstall()
        first = clock.round_start if clock.round_start is not None else begin
        if start is None:
            start = first
        rounds.append({"wall": end - first, "days": days, "traced": traced,
                       "ticks_ms": np.asarray(clock.durations[n_ticks:]) * 1e3})
        # stop before a round that would end past the budget; a traced run
        # needs one traced and one untraced round for the overhead
        if len(rounds) >= (2 if tracer else 1) and end - start + rounds[-1]["wall"] > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = wl.reference()
    first_digest: dict[str, str] = {}
    for r in rounds:
        for day in r["days"]:
            day["failure"] = check_day(day, reference)
            if day["failure"] is None:
                # every round repeats the same (config, seed): outcomes must too
                digest = first_digest.setdefault(day["strategy"], day["digest"])
                if day["digest"] != digest:
                    day["failure"] = f"outcome digest {day['digest']} differs from the first round's {digest}"

    out = {
        "setup_s": clock.first_tick_monotonic - t0,
        "rounds": [{"wall": r["wall"], "traced": r["traced"], "days": len(r["days"]),
                    "ticks": len(r["ticks_ms"])} for r in rounds],
        "days": [d for r in rounds for d in r["days"]],
        "peak_rss_mb": peak_rss_mb,
        "config_hash": config_hash(wl.cfg),
        "blas": blas_manifest(),
    }
    if tracer is None:
        # rounds repeat the same work tick for tick, so each tick position's
        # median over rounds drops host hiccups that hit one round only
        n = min(len(r["ticks_ms"]) for r in rounds)
        if n:
            per_tick = np.median([r["ticks_ms"][:n] for r in rounds], axis=0)
            out["tick_ms_p50"] = float(np.percentile(per_tick, 50))
            out["tick_ms_p99"] = float(np.percentile(per_tick, 99))
    else:
        traced_days = sum(len(r["days"]) for r in rounds if r["traced"])
        layers = tracer.layer_metrics(traced_days)
        layers["engine.agent_ticks"] = sum(
            d.get("agent_ticks", 0) for r in rounds if r["traced"] for d in r["days"]) / traced_days
        out["layers"] = layers
        out["self_times"] = {k: v / traced_days for k, v in tracer.self_time.items()}
        out["accounting_error"] = tracer.accounting_error()
    return out


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, trace, t0, work, result = argv
    seed, seconds, trace, t0, work = int(seed), float(seconds), trace == "1", float(t0), Path(work)
    if mode == "prepare":
        import workloads

        if workload == "desk-sweep":
            workloads.DeskSweepWorkload.prepare(seed, work)
        out = {}
    elif mode == "setup":
        out = setup_probe(workload, seed, t0, work)
    elif mode == "measure":
        out = measure(workload, seed, seconds, trace, t0, work)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
