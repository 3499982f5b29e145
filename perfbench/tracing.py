"""Per-layer tracing from outside the package.

The tracer wraps the public functions each curbsim module calls into another
module, at the name the caller looks up (``curbsim.engine.dispatch``,
``curbsim.strategies.hungarian_assign``, ...), so ``src/`` is not changed.
Spans nest: a span's self time is its duration minus the time its child
spans cover, and the tick span's children are summed separately so the
accounting ``engine.self_s + children == engine.tick_s`` can be checked.
"""
from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import numpy as np

from curbsim import cli, engine, metrics, predictor, strategies

TICK = "engine.tick"

# (owner, attribute, span name): each wrapped at the name its caller uses
SPANS = (
    (engine.Simulation, "tick", TICK),
    (engine, "dispatch", "strategies.dispatch"),
    (strategies, "oracle_cost_matrix", "strategies.oracle_matrix"),
    (strategies, "hungarian_assign", "matching.solve"),
    (engine, "step_competitors_batch", "agents.step_competitors"),
    (engine, "step_toward_batch", "agents.step_toward"),
    (engine, "sample_dwell_batch", "agents.dwell"),
    (engine, "retrain", "predictor.retrain"),
    (engine, "predict_many", "predictor.predict"),
    (predictor.HistoryCorpus, "trend_vector", "predictor.trend"),
    (engine, "update_history", "predictor.update"),
    (engine, "build_arrivals", "demand.build_arrivals"),
    (metrics, "build_report", "metrics.build_report"),
    (metrics, "export_report", "metrics.export"),
    (cli, "export_report", "metrics.export"),
    (cli, "fold_events", "metrics.fold_events"),
)

# every span, the event sink's writes included
SPAN_NAMES = {name for _, _, name in SPANS} | {"engine.event_write"}


class Tracer:
    """Span stack plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.tick_children = 0.0
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # --- spans ---

    def enter(self, name: str):
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        dur = perf_counter() - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            if parent[0] == TICK:
                self.tick_children += dur

    def span(self, name: str, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer.counts, result, *args, **kwargs)
            return result

        return traced

    # --- patching ---

    def install(self):
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self.span(name, getattr(owner, attr), _COUNTERS.get(name)))
        init = engine.Simulation.__init__
        tracer = self

        def traced_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            if sim.sink is not None:
                sim.sink = _TracedSink(sim.sink, tracer)

        self._patch(engine.Simulation, "__init__", traced_init)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # --- results ---

    def layer_metrics(self, days: int) -> dict[str, float]:
        """Per-layer values per simulated day (shares are plain ratios)."""
        c = self.counts
        # "<span>_s" is inclusive of child spans; engine.self_s is not
        out = {f"{span}_s": self.total[span] / days for span in SPAN_NAMES}
        out["engine.self_s"] = self.self_time[TICK] / days
        for name in ("engine.ticks", "engine.events", "engine.event_bytes",
                     "strategies.dispatch_calls", "strategies.oracle_matrix_entries",
                     "matching.solves", "matching.entries", "agents.step_competitors_pairs",
                     "predictor.retrains", "predictor.corpus_records", "demand.arrivals"):
            out[name] = c[name] / days
        out["matching.max_entries"] = c["matching.max_entries"]
        out["strategies.assigned_share"] = _ratio(c["strategies.assigned"], c["strategies.offered"])
        out["matching.infeasible_share"] = _ratio(c["matching.infeasible"], c["matching.entries"])
        return out

    def accounting_error(self) -> float:
        """|tick - (self + children)| relative to tick time."""
        tick = self.total[TICK]
        return abs(tick - self.self_time[TICK] - self.tick_children) / tick if tick else 0.0


class _TracedSink:
    """Event sink wrapper: counts events and bytes, spans each write."""

    def __init__(self, sink, tracer: Tracer):
        self._sink = sink
        self._tracer = tracer

    def write(self, text: str):
        t = self._tracer
        t.enter("engine.event_write")
        try:
            n = self._sink.write(text)
        finally:
            t.exit()
        t.counts["engine.events"] += 1
        t.counts["engine.event_bytes"] += len(text.encode("utf-8"))
        return n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _count_tick(c, _result, sim):
    c["engine.ticks"] += 1


def _count_dispatch(c, targets, _kind, d_pos, *_args, **_kwargs):
    c["strategies.dispatch_calls"] += 1
    c["strategies.offered"] += len(d_pos)
    c["strategies.assigned"] += len(targets)


def _count_oracle(c, _result, d_pos, cells, *_args, **_kwargs):
    c["strategies.oracle_matrix_entries"] += len(d_pos) * len(cells)


def _count_solve(c, _result, m, *_args, **_kwargs):
    size = m.entries.size
    c["matching.solves"] += 1
    c["matching.entries"] += size
    c["matching.max_entries"] = max(c["matching.max_entries"], size)
    c["matching.infeasible"] += int(size - np.isfinite(m.entries).sum())


def _count_step_competitors(c, _result, pos, free_cells, *_args, **_kwargs):
    c["agents.step_competitors_pairs"] += len(pos) * len(free_cells)


def _count_retrain(c, _result, corpus, *_args, **_kwargs):
    c["predictor.retrains"] += 1
    c["predictor.corpus_records"] += len(corpus)


def _count_arrivals(c, series, *_args, **_kwargs):
    c["demand.arrivals"] += series.total("participant") + series.total("competitor")


_COUNTERS = {
    TICK: _count_tick,
    "strategies.dispatch": _count_dispatch,
    "strategies.oracle_matrix": _count_oracle,
    "matching.solve": _count_solve,
    "agents.step_competitors": _count_step_competitors,
    "predictor.retrain": _count_retrain,
    "demand.build_arrivals": _count_arrivals,
}
