"""Batched memory-latency sweeps: one functional pass, K latency points.

A figure-9-style sweep replays the *same* trace through the *same*
machine configuration K times, varying only the memory latencies.  Run
independently, each point repays identical fixed costs: the trace-flag
walk (marked/d-load vectors) and the warmup replay through caches and
predictor.  :class:`BatchedSweepSimulator` pays them once — the flags
are computed one time and shared read-only, and the warm memory/predictor
state is built once and cloned per point (warmup is latency-independent:
``MemoryHierarchy.warm`` does no latency bookkeeping, so a clone with
re-pointed latencies is state-identical to a fresh warmup replay).

Each point then runs through a per-cycle timing kernel (fast-forward by
default — the sweep's long-latency points are exactly where it shines),
so results are byte-identical to K independent reference runs; the
equivalence suite asserts it.  Per-config pipeline state is fully
vectorized across the batch in the sense that no state is shared once a
point's run starts: every mutable structure is per-point.
"""

from __future__ import annotations

import pickle

from ..branch.predictors import make_predictor
from ..core.configs import MachineConfig
from ..core.pthread import PThreadTable
from ..functional.trace import Trace
from ..memory.hierarchy import LatencyConfig, MemoryHierarchy
from .kernel import make_simulator
from .smt import trace_flags
from .stats import PipelineResult


class BatchedSweepSimulator:
    """Run one (trace, config) pair across several latency points."""

    backend = "batched"

    def __init__(self, trace: Trace, config: MachineConfig,
                 latencies: list[LatencyConfig],
                 table: PThreadTable | None = None,
                 warmup: Trace | list | None = None,
                 kernel: str = "fast-forward"):
        if not latencies:
            raise ValueError("batched sweep needs at least one latency point")
        self.trace = trace
        self.config = config
        self.latencies = list(latencies)
        self.table = table
        self.warmup = warmup
        #: per-point cycle kernel (any :mod:`repro.pipeline.kernel` name)
        self.kernel = kernel

    def run(self) -> list[PipelineResult]:
        """Simulate every latency point; results in ``latencies`` order,
        each byte-identical to an independent reference run."""
        config = self.config
        # Shared read-only work, paid once for the whole sweep ----------
        table = self.table if (self.table is not None
                               and config.spear_enabled) \
            else PThreadTable.empty()
        flags = trace_flags(self.trace, table)
        proto_mem = MemoryHierarchy(latencies=self.latencies[0])
        predictor = make_predictor(config.predictor,
                                   table_size=config.predictor_table_size)
        if self.warmup is not None:
            for e in self.warmup:
                if e.addr >= 0:
                    proto_mem.warm(e.addr, is_write=e.is_store)
                elif e.is_cond:
                    predictor.predict_and_update(e.pc, e.taken)
            proto_mem.finish_warmup()
            predictor.stats = type(predictor.stats)()
        warm_state = pickle.dumps((proto_mem, predictor),
                                  pickle.HIGHEST_PROTOCOL)

        results = []
        for lat in self.latencies:
            mem, pred = pickle.loads(warm_state)
            # Warmup never reads latencies, so the clone plus this
            # re-point equals a fresh hierarchy warmed under ``lat``.
            mem.latencies = lat
            cfg = config if lat == config.latencies \
                else config.with_latencies(lat)
            sim = make_simulator(self.kernel, self.trace, cfg, self.table,
                                 mem, predictor=pred, flags=flags)
            results.append(sim.run())
        return results
