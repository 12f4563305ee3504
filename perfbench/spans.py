"""In-memory span tracer wrapped around the entry points the harness calls.

The program under test carries no spans of its own.  For a traced pass
:func:`instrument` swaps each layer's entry point for a wrapper that
records a span (name, start, end, parent) and restores the originals on
exit.  Only a serial pass may be traced: forked pool workers would keep
their spans to themselves.

A span's *self* time is its duration minus the time its direct children
cover.  Self times of all spans under one root therefore partition the
root's wall time exactly, which is what lets the layer table add up.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end}


@dataclass
class Tracer:
    """Spans and counters of one traced pass, held in memory."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[Span] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name,
                  parent.sid if parent is not None else None,
                  time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.duration

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_time(self, *names: str) -> float:
        return sum((s.self_s for s in self.spans if s.name in names), 0.0)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


def _wrap(tracer: Tracer, name: str, fn, after=None):
    """``fn`` inside a span; ``after(args, kwargs, result)`` runs outside
    it, so counter bookkeeping is charged to tracing overhead, not to the
    layer."""
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _patch_points(tracer: Tracer) -> list[tuple[object, str, object]]:
    """``(owner, attribute, wrapper factory)`` for every traced entry
    point.  Owners are the namespaces the callers look names up in, so a
    function imported by name is patched where it is used."""
    from repro.functional.simulator import FunctionalSimulator
    from repro.fuzz import differential, generator, schedule
    from repro.harness import experiments, parallel, runner
    from repro.harness.diskcache import DiskCache
    from repro.harness.journal import RunJournal
    from repro.observe import render
    from repro.pipeline.smt import TimingSimulator
    from repro.pipeline.sweep import BatchedSweepSimulator
    from repro.workloads.base import Workload

    def span(name, after=None):
        return lambda fn: _wrap(tracer, name, fn, after)

    def functional(fn):
        def run(sim, *args, **kwargs):
            before = sim.instret
            with tracer.span("functional"):
                trace = fn(sim, *args, **kwargs)
            tracer.count("functional.instructions", sim.instret - before)
            return trace
        return run

    def pipeline_done(args, kwargs, result):
        stats, fills = result.stats, result.memory["fills"]["pthread"]
        tracer.count("pipeline.runs")
        tracer.count("pipeline.cycles", stats.cycles)
        tracer.count("pipeline.committed", stats.committed)
        tracer.count("memory.main_l1_misses", result.main_l1_misses)
        tracer.count("memory.pthread_fills", fills["fills"])
        tracer.count("memory.pthread_timely", fills["timely"])
        tracer.count("spear.triggers", stats.spear.triggers)
        tracer.count("spear.pthread_instrs", stats.spear.pthread_instrs)
        tracer.count("branch.mispredicts", stats.mispredicts)

    def sweep_done(args, kwargs, results):
        tracer.count("sweep.passes")
        tracer.count("sweep.points", len(results))

    def get_done(args, kwargs, value):
        cache, kind = args[0], args[1]
        if value is None:
            tracer.count("harness.cache_misses")
            return
        key = (args[2] if isinstance(args[2], str)
               else cache.key_for(kind, args[2]))
        tracer.count("harness.cache_hits")
        tracer.count("harness.cache_get_bytes",
                     cache.entry_size(kind, key) or 0)

    def put_done(args, kwargs, _):
        cache, kind, payload = args[0], args[1], args[2]
        tracer.count("harness.cache_put_bytes",
                     cache.entry_size(kind, cache.key_for(kind, payload))
                     or 0)

    def journal_done(args, kwargs, _):
        tracer.count("harness.journal_records")

    def render_done(args, kwargs, text):
        tracer.count("observe.report_bytes", len(text.encode("utf-8")))

    return [
        (parallel, "run_cells", span("harness.run_cells")),
        (schedule, "run_cells", span("harness.run_cells")),
        (parallel, "compute_cell", span("harness.cell")),
        (DiskCache, "get", span("harness.cache_get", get_done)),
        (DiskCache, "get_by_key", span("harness.cache_get", get_done)),
        (DiskCache, "put", span("harness.cache_put", put_done)),
        (RunJournal, "_append", span("harness.journal", journal_done)),
        (Workload, "program", span("compiler.assemble")),
        (runner, "compile_spear", span("compiler")),
        (differential, "compile_spear", span("compiler")),
        (FunctionalSimulator, "run", functional),
        (TimingSimulator, "__init__", span("pipeline")),
        (TimingSimulator, "run", span("pipeline", pipeline_done)),
        (BatchedSweepSimulator, "run", span("sweep", sweep_done)),
        (experiments, "diff_timelines", span("observe.compare")),
        (experiments, "render_suite_report",
         span("observe.render", render_done)),
        (render, "render_suite_svg", span("observe.render", render_done)),
        (generator, "sample_spec", span("fuzz.generate")),
        (generator, "materialize", span("fuzz.generate")),
        (schedule, "mutated_spec", span("fuzz.generate")),
        (differential, "run_oracle", span("fuzz.oracle")),
        (differential, "evaluate_workload", span("fuzz.evaluate")),
        (schedule.ArmScheduler, "plan", span("fuzz.schedule")),
        (schedule.ArmScheduler, "observe", span("fuzz.schedule")),
        (schedule, "vector_of", span("fuzz.coverage")),
        (schedule, "coverage_map", span("fuzz.coverage")),
        (schedule, "triage", span("fuzz.triage")),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every entry point of :func:`_patch_points` through
    ``tracer`` for the duration of the block."""
    saved = []
    try:
        for owner, attr, factory in _patch_points(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
