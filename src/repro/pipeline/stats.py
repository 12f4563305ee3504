"""Counters and results for the timing model."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SpearStats:
    """Pre-execution machinery accounting."""

    triggers: int = 0              # pre-execution modes entered
    triggers_suppressed: int = 0   # d-load seen but occupancy below threshold
    triggers_blocked: int = 0      # d-load seen while already in a mode
    modes_completed: int = 0       # trigger d-load instance retired
    modes_aborted: int = 0         # main thread reached the d-load first
    pthread_instrs: int = 0        # p-thread instructions executed
    pthread_loads: int = 0
    extracted: int = 0             # = pthread_instrs (kept for clarity)
    #: triggers that fired through the dormant-d-load retrigger scan
    #: (chaining hand-offs and post-mode wakeups) rather than straight
    #: from pre-decode — the chaining-depth signal the fuzz coverage
    #: maps band on.  Defaulted, so pre-coverage pickled results still
    #: unpickle (same trick as ``PipelineResult.policy``).
    retriggers: int = 0
    livein_copy_cycles: int = 0
    drain_wait_cycles: int = 0
    extraction_stall_ruu_full: int = 0
    cycles_in_mode: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


@dataclass
class PipelineStats:
    """Whole-run counters."""

    cycles: int = 0
    committed: int = 0
    fetched: int = 0
    decoded: int = 0
    issued: int = 0
    # Stall diagnostics ------------------------------------------------
    decode_stall_ruu_full: int = 0
    decode_stall_empty_ifq: int = 0
    decode_pe_busy: int = 0   # IFQ empty but decode slots went to the PE
    fetch_stall_mispredict: int = 0
    fetch_stall_ifq_full: int = 0
    issue_fu_conflicts: int = 0
    wrong_path_fetched: int = 0
    wrong_path_flushed: int = 0
    # Branching -----------------------------------------------------------
    cond_branches: int = 0
    mispredicts: int = 0
    # Occupancy sampling ----------------------------------------------------
    ifq_occupancy_sum: int = 0
    ruu_occupancy_sum: int = 0
    spear: SpearStats = field(default_factory=SpearStats)

    @property
    def ipc(self) -> float:
        """Main-program-thread IPC — the paper's performance metric."""
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def branch_hit_ratio(self) -> float:
        if not self.cond_branches:
            return 1.0
        return 1.0 - self.mispredicts / self.cond_branches

    @property
    def avg_ifq_occupancy(self) -> float:
        return self.ifq_occupancy_sum / self.cycles if self.cycles else 0.0

    @property
    def avg_ruu_occupancy(self) -> float:
        return self.ruu_occupancy_sum / self.cycles if self.cycles else 0.0

    def snapshot(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if k != "spear"}
        d.update(ipc=self.ipc, branch_hit_ratio=self.branch_hit_ratio,
                 avg_ifq_occupancy=self.avg_ifq_occupancy,
                 avg_ruu_occupancy=self.avg_ruu_occupancy,
                 spear=self.spear.snapshot())
        return d


@dataclass
class PipelineResult:
    """Everything a run produces, as consumed by the harness and tests."""

    config_name: str
    stats: PipelineStats
    memory: dict
    predictor: dict
    workload: str = ""
    prefetcher: dict = field(default_factory=dict)
    #: interval time series (``IntervalSampler.timeline()``) when the run
    #: was sampled; None for plain runs so summaries stay unchanged.
    #: Carries the global ``samples`` list plus a ``per_thread`` view
    #: (one series per hardware thread) — see
    #: :meth:`repro.observe.sampler.IntervalSampler.timeline`.
    timeline: dict | None = None
    #: adaptive trigger-policy summary (the epoch outcome) when the
    #: run executed under a non-fixed policy; None — a class-level default,
    #: so pre-policy pickled results still unpickle — for fixed runs, which
    #: keeps their summaries and serialized forms byte-identical.
    policy: dict | None = None

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def thread_series(self, thread: int) -> list[dict] | None:
        """One hardware thread's interval series (0 = main, 1 = p-thread),
        or None when the run was not sampled per-thread."""
        if not self.timeline:
            return None
        for t in self.timeline.get("per_thread", ()):
            if t["thread"] == thread:
                return t["samples"]
        return None

    @property
    def main_l1_misses(self) -> int:
        return self.memory["threads"][0]["l1_misses"]

    def summary(self) -> dict:
        out = {
            "config": self.config_name,
            "workload": self.workload,
            "cycles": self.stats.cycles,
            "committed": self.stats.committed,
            "ipc": self.ipc,
            "branch_hit_ratio": self.stats.branch_hit_ratio,
            "main_l1_misses": self.main_l1_misses,
            "triggers": self.stats.spear.triggers,
            "pthread_instrs": self.stats.spear.pthread_instrs,
        }
        # Only non-fixed runs grow the extra row: fixed-policy summaries
        # must stay byte-identical to the pre-policy tree's.
        if self.policy is not None:
            out["policy"] = self.policy.get("label", self.policy.get("name"))
        return out
