"""Fault-tolerant parallel experiment engine.

Every figure/table is a (workload × machine-config [× latency]) matrix of
independent cells — the same embarrassing parallelism Prophet exploits for
speculative threads, and the same fault model: a mis-speculated (crashed,
hung, failing) cell is squashed and re-executed alone, never at the cost
of the rest of the run.  This module enumerates those cells as picklable
:class:`Cell` descriptors, computes them on a ``ProcessPoolExecutor`` via
per-future submission, and merges the results back into the parent
:class:`~repro.harness.runner.ExperimentRunner`'s memo **in submission
order**, so figures and tables render byte-identically regardless of job
count.  ``jobs=1`` bypasses the pool entirely and is the exact serial
path (same retry/keep-going semantics, no per-cell timeout preemption).

Fault tolerance, governed by :class:`ExecutionPolicy`:

- a cell attempt that raises is retried with exponential backoff up to
  ``retries`` extra attempts, then recorded as a :class:`CellFailure`;
- a cell attempt running longer than ``cell_timeout`` seconds is
  abandoned (the pool is torn down to reclaim the stuck worker) and
  retried — the clock starts when the attempt is observed executing,
  so time queued behind a full worker fleet never counts against it;
- a dead worker (``BrokenProcessPool``) costs only the in-flight cells:
  the pool is rebuilt and outstanding cells resubmitted, charging the
  rebuild budget rather than any cell's retry budget, and degrading to
  in-process serial execution after ``max_pool_rebuilds`` rebuilds;
- with ``fail_fast`` a terminal failure raises :class:`FatalCellError`;
  otherwise (keep-going, the default) failures are collected on the
  returned :class:`RunReport` and every other cell still completes.

Attach a :class:`~repro.harness.journal.RunJournal` and every attempt is
journaled; pass ``resume=True`` and journaled-ok cells are restored from
the disk cache instead of recomputed.  Deterministic fault injection for
all of these paths lives in :mod:`repro.harness.faults`.

Workers share the parent's :class:`~repro.harness.diskcache.DiskCache`
(when one is attached), and submission is *leader-first*: each pool
generation submits only the first outstanding cell of every workload and
holds that workload's other cells until the leader resolves.  The leader's
worker builds the artifacts and writes them to the shared cache before
its siblings start, so a cold workload is built once across the whole
fleet — and not at all on a warm cache.  A leader that fails still
releases its siblings (they then build for themselves), and a broken
pool leaves held cells outstanding for the next generation to regroup.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, \
    wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from ..compiler.slicer import SlicerConfig
from ..core.configs import (BASELINE, BASELINE_NEXTLINE, BASELINE_STRIDE,
                            PAPER_CONFIGS, SPEAR_128, SPEAR_256, SPEAR_SF_128,
                            SPEAR_SF_256, MachineConfig)
from ..memory.hierarchy import FIG9_LATENCIES, LatencyConfig
from . import faults
from .diskcache import DiskCache
from .journal import RunJournal, cell_key
from .runner import SWEEP_BACKEND, ExperimentRunner, TracedRun, TraceSpec


@dataclass(frozen=True)
class Cell:
    """One picklable unit of work: simulate ``workload`` under ``config``.

    With ``trace`` set the cell is a *traced* run: the worker attaches a
    ring-buffer tracer and interval sampler per the spec, and the result
    is a :class:`~repro.harness.runner.TracedRun` instead of a plain
    ``PipelineResult``.  ``backend`` picks the timing kernel (``None``
    defers to the executing runner's default).

    A *tuple* of latencies makes the cell a batched sweep: the worker
    runs every point through one
    :meth:`~repro.harness.runner.ExperimentRunner.run_sweep` pass and
    the result is the list of per-point ``PipelineResult``s, merged into
    the parent memo one latency at a time.

    With ``fuzz`` set the cell is a differential-fuzzing evaluation: the
    worker rebuilds the generated workload from its ``fuzz:`` name, runs
    :meth:`~repro.harness.runner.ExperimentRunner.run_fuzz` under the
    given check spec, and the result is one small picklable
    :class:`~repro.fuzz.differential.FuzzVerdict` (``config`` is unused
    — the check spec names the configs it compares).
    """

    workload: str
    config: MachineConfig
    latencies: LatencyConfig | tuple[LatencyConfig, ...] | None = None
    trace: TraceSpec | None = None
    backend: str | None = None
    fuzz: object | None = None
    #: trigger policy name (``None`` defers to the executing runner's
    #: default; see :data:`~repro.policy.POLICIES`)
    policy: str | None = None

    @property
    def is_sweep(self) -> bool:
        return isinstance(self.latencies, tuple)


@dataclass(frozen=True)
class PayloadRef:
    """Content-hash reference to a heavy payload spilled to the cache.

    Traced runs are orders of magnitude heavier than ``PipelineResult``s
    (they carry the retained event stream), so workers never ship them
    over the result pipe: the worker writes the payload through its
    cache view and returns this reference; the parent resolves it with
    :meth:`~repro.harness.diskcache.DiskCache.get_by_key`.  ``size`` is
    the on-disk byte count, journaled for observability.
    """

    kind: str
    key: str
    size: int | None = None

    @property
    def address(self) -> str:
        return f"{self.kind}/{self.key}"


class PayloadResolutionError(RuntimeError):
    """A spilled payload reference could not be resolved from the cache
    (evicted or corrupted between the worker's write and the parent's
    read).  Treated as a retryable cell failure — re-running the cell
    rewrites the entry."""


#: Config columns of each experiment's matrix (workload rows come from the
#: experiment's default list or the user's subset).
EXPERIMENT_CONFIGS: dict[str, list[MachineConfig]] = {
    "figure6": [BASELINE, SPEAR_128, SPEAR_256],
    "figure7": [BASELINE, SPEAR_128, SPEAR_256, SPEAR_SF_128, SPEAR_SF_256],
    "figure8": [BASELINE, SPEAR_128, SPEAR_256],
    "figure9": [BASELINE, SPEAR_128, SPEAR_256],
    "table3": [SPEAR_128, SPEAR_256],
    "motivation": [BASELINE, BASELINE_NEXTLINE, BASELINE_STRIDE, SPEAR_128],
    "compare": list(PAPER_CONFIGS.values()),
}


def default_workloads(experiment: str) -> list[str]:
    """The workload rows an experiment uses when none are requested."""
    from .experiments import (EVAL_WORKLOADS, FIG9_WORKLOADS,
                              IRREGULAR_WORKLOADS, REGULAR_WORKLOADS)
    if experiment == "figure9":
        return list(FIG9_WORKLOADS)
    if experiment == "motivation":
        return REGULAR_WORKLOADS + IRREGULAR_WORKLOADS
    return list(EVAL_WORKLOADS)


def cells_for(experiment: str,
              workloads: list[str] | None = None,
              backend: str | None = None,
              policy: str | None = None) -> list[Cell]:
    """Enumerate the cell matrix of one experiment, workload-major.

    The first cell of each workload is the one :func:`run_cells` submits
    as that workload's leader; the rest wait for it, so the workload's
    artifacts are built once and read from the cache by its siblings."""
    configs = EXPERIMENT_CONFIGS[experiment]
    names = workloads or default_workloads(experiment)
    if experiment == "figure9":
        if backend == SWEEP_BACKEND:
            # One batched-sweep cell per matrix row: the worker pays the
            # trace/flag/warmup fixed costs once for all latency points.
            return [Cell(n, c, tuple(FIG9_LATENCIES), backend=backend,
                         policy=policy)
                    for n in names for c in configs]
        return [Cell(n, c, lat, backend=backend, policy=policy)
                for n in names for lat in FIG9_LATENCIES for c in configs]
    return [Cell(n, c, backend=backend, policy=policy)
            for n in names for c in configs]


def report_cells(workloads: list[str], configs: list[MachineConfig],
                 spec: TraceSpec, backend: str | None = None,
                 policy: str | None = None) -> list[Cell]:
    """Enumerate the traced-cell matrix of a (suite) report: every
    workload under every config, all captured under one trace spec."""
    return [Cell(n, c, trace=spec, backend=backend, policy=policy)
            for n in workloads for c in configs]


def default_jobs() -> int:
    """Usable worker count: CPUs this process may actually run on (the
    affinity mask / cgroup quota), not the machine's total core count."""
    count = getattr(os, "process_cpu_count", None)
    if count is not None:             # Python >= 3.13
        return count() or 1
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


# -- policy / outcome types -------------------------------------------------

@dataclass(frozen=True)
class ExecutionPolicy:
    """Knobs governing the fault-tolerant cell executor."""

    #: seconds one attempt may run before being abandoned (pool mode only;
    #: the in-process serial path cannot preempt a running cell)
    cell_timeout: float | None = None
    #: extra attempts after the first, per cell
    retries: int = 2
    #: base of the exponential retry backoff, in seconds
    backoff: float = 0.25
    #: abort the whole run on the first terminal failure
    fail_fast: bool = False
    #: pool rebuilds tolerated before degrading to serial execution
    max_pool_rebuilds: int = 2

    def backoff_for(self, attempt: int) -> float:
        """Sleep before ``attempt`` (attempt 2 = first retry)."""
        if self.backoff <= 0:
            return 0.0
        return self.backoff * (2 ** max(0, attempt - 2))


@dataclass
class CellFailure:
    """Terminal failure of one cell, after its retry budget ran out."""

    cell: Cell
    index: int
    attempts: int
    kind: str        #: ``"exception"`` or ``"timeout"``
    error: str

    def describe(self) -> str:
        if self.cell.is_sweep:
            lat = f" sweep[{len(self.cell.latencies)}]"
        elif self.cell.latencies is not None:
            lat = f" mem={self.cell.latencies.memory}"
        else:
            lat = ""
        return (f"{self.cell.workload}/{self.cell.config.name}{lat}: "
                f"{self.kind} after {self.attempts} attempt(s) — {self.error}")


@dataclass
class RunReport:
    """Outcome summary of one :func:`run_cells` invocation."""

    total: int = 0          #: unique cells not already memoized
    ok: int = 0             #: cells computed successfully this run
    resumed: int = 0        #: cells restored from journal + cache
    retried: int = 0        #: ok cells that needed more than one attempt
    timeouts: int = 0       #: attempts lost to the per-cell timeout
    pool_rebuilds: int = 0
    degraded: bool = False  #: fell back to in-process serial execution
    interrupted: bool = False  #: cut short by SIGINT/SIGTERM (clean exit)
    wall_time: float = 0.0
    failures: list[CellFailure] = field(default_factory=list)
    cache_stats: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def completed(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {"total": self.total, "ok": self.ok, "resumed": self.resumed,
                "retried": self.retried, "timeouts": self.timeouts,
                "failed": self.failed, "pool_rebuilds": self.pool_rebuilds,
                "degraded": self.degraded, "interrupted": self.interrupted,
                "wall_time": round(self.wall_time, 3),
                "failures": [f.describe() for f in self.failures],
                "cache": self.cache_stats}

    def render(self) -> str:
        bits = [f"{self.ok} ok"]
        if self.interrupted:
            bits.append("interrupted")
        if self.resumed:
            bits.append(f"{self.resumed} resumed")
        if self.retried:
            bits.append(f"{self.retried} retried")
        bits.append(f"{self.failed} failed")
        lines = [f"run report: {self.total} cell(s) — " + ", ".join(bits)
                 + f"; wall {self.wall_time:.1f}s"]
        if self.timeouts or self.pool_rebuilds or self.degraded:
            extra = [f"timeouts {self.timeouts}",
                     f"pool rebuilds {self.pool_rebuilds}"]
            if self.degraded:
                extra.append("degraded to serial")
            lines.append("  " + ", ".join(extra))
        for failure in self.failures:
            lines.append(f"  FAILED {failure.describe()}")
        for kind, c in sorted(self.cache_stats.items()):
            lines.append(
                f"  cache[{kind}]: {c['hits']} hits, {c['misses']} misses, "
                f"{c['stores']} stores, {c['errors']} errors, "
                f"{c.get('sweeps', 0)} tmp swept")
        return "\n".join(lines)


class FatalCellError(RuntimeError):
    """Raised under ``fail_fast`` when a cell exhausts its retries."""

    def __init__(self, failure: CellFailure, report: RunReport):
        super().__init__(failure.describe())
        self.failure = failure
        self.report = report


# -- worker side -----------------------------------------------------------

_WORKER_RUNNER: ExperimentRunner | None = None


def _init_worker(slicer_config: SlicerConfig, scale: float,
                 cache_dir: str | None,
                 backend: str | None = None,
                 policy: str | None = None) -> None:
    global _WORKER_RUNNER
    faults.mark_worker()
    # Forked workers inherit the parent's signal wiring.  Under the
    # serve daemon that includes asyncio's wakeup fd — a SIGTERM sent to
    # a worker (e.g. by the executor reaping a broken pool) would be
    # written into the *parent's* self-pipe and read back as a shutdown
    # request.  Detach and restore defaults so signals aimed at a worker
    # stay in the worker.
    signal.set_wakeup_fd(-1)
    for _sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(_sig, signal.SIG_DFL)
    # Die with the parent (Linux).  A crashed daemon must not leave
    # orphan workers holding its listening socket open: connects to the
    # stale socket file would be queued into a backlog nobody accepts,
    # hanging clients instead of failing fast into a retry.
    try:
        import ctypes
        PR_SET_PDEATHSIG = 1
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except Exception:
        pass
    # The parent already swept stale tmp files; workers (respawned on
    # every pool rebuild) skip the cache-tree walk.
    cache = (DiskCache(cache_dir, sweep=False)
             if cache_dir is not None else None)
    _WORKER_RUNNER = ExperimentRunner(slicer_config=slicer_config,
                                      instruction_scale=scale, cache=cache,
                                      backend=backend, policy=policy)


def compute_cell(runner: ExperimentRunner, cell: Cell, *,
                 spill: bool = False):
    """Execute one cell's real work on ``runner`` (no fault injection):
    the single dispatch shared by the pool workers, the in-process
    serial path and the serve fleet.  With ``spill`` (cross-process
    callers) a traced payload is exchanged for its cache
    :class:`PayloadRef` instead of riding the result pipe."""
    if cell.fuzz is not None:
        return runner.run_fuzz(cell.workload, cell.fuzz)
    if cell.is_sweep:
        return runner.run_sweep(cell.workload, cell.config,
                                list(cell.latencies), policy=cell.policy)
    if cell.trace is None:
        return runner.run(cell.workload, cell.config, cell.latencies,
                          backend=cell.backend, policy=cell.policy)
    traced = runner.run_traced(cell.workload, cell.config, cell.latencies,
                               spec=cell.trace, backend=cell.backend,
                               policy=cell.policy)
    return _spill(runner, cell, traced) if spill else traced


def _run_cell(cell: Cell, index: int = 0, attempt: int = 1):
    faults.inject_cell_faults(index, attempt)
    return compute_cell(_WORKER_RUNNER, cell, spill=True)


def _spill(runner: ExperimentRunner, cell: Cell, traced: TracedRun):
    """Exchange a heavy traced payload for its cache reference.

    ``run_traced`` already wrote the payload through the worker's cache
    view (or read it from there), so the entry exists on disk; without a
    cache there is nowhere to spill and the payload ships inline — the
    degraded but correct path.
    """
    if runner.cache is None:
        return traced
    config = runner.normalize_config(cell.config, cell.latencies)
    payload = runner.traced_payload(cell.workload, config, cell.trace,
                                    cell.backend, cell.policy)
    key = runner.cache.key_for("traces", payload)
    return PayloadRef("traces", key, runner.cache.entry_size("traces", key))


def _resolve(runner: ExperimentRunner, value):
    """Parent-side inverse of :func:`_spill`: load the payload a worker
    referenced.  Raises :class:`PayloadResolutionError` (retryable) when
    the entry vanished between the worker's write and this read."""
    if not isinstance(value, PayloadRef):
        return value
    resolved = (runner.cache.get_by_key(value.kind, value.key)
                if runner.cache is not None else None)
    if resolved is None:
        raise PayloadResolutionError(
            f"spilled payload {value.address} missing from cache")
    return resolved


def _build_artifact(name: str):
    return _WORKER_RUNNER.artifacts(name)


# -- parent side -----------------------------------------------------------

def run_cells(runner: ExperimentRunner, cells: list[Cell],
              jobs: int | None = None, *,
              policy: ExecutionPolicy | None = None,
              journal: RunJournal | None = None,
              resume: bool = False) -> RunReport:
    """Compute ``cells`` fault-tolerantly, seeding ``runner``'s memo.

    Deterministic: cells are deduplicated preserving order and results are
    merged in that same order, and each cell's simulation is itself
    deterministic — so downstream rendering is byte-identical for any job
    count, retry history or resume split.  Returns a :class:`RunReport`;
    under ``policy.fail_fast`` a terminal cell failure raises
    :class:`FatalCellError` instead (completed cells are still merged).
    """
    policy = policy or ExecutionPolicy()
    jobs = default_jobs() if jobs is None else jobs
    started = time.monotonic()
    unique = [c for c in dict.fromkeys(cells) if not _memoized(runner, c)]
    report = RunReport(total=len(unique))
    if journal is not None and unique:
        journal.record_start(len(unique))
    if resume and journal is not None and unique:
        unique = _restore_resumed(runner, unique, journal, report)
    indexed = list(enumerate(unique))
    attempts = {i: 0 for i, _ in indexed}
    results: dict[int, object] = {}
    try:
        with _graceful_term():
            if not indexed:
                pass
            elif jobs <= 1 or len(indexed) == 1:
                _execute_serial(runner, indexed, attempts, policy, report,
                                journal, results)
            else:
                _execute_pool(runner, indexed, attempts, policy, report,
                              journal, results, jobs)
    except (KeyboardInterrupt, SystemExit):
        # Ctrl-C / SIGTERM: the pool was already torn down on the way
        # out (every generation's ``finally`` terminates an abandoned
        # pool), completed cells still merge below, and the journal's
        # ``end`` record says the run was interrupted — so ``--resume``
        # picks up exactly where the interrupt landed.
        report.interrupted = True
        raise
    finally:
        # Merge in submission order so rendering is order-independent.
        for i, cell in indexed:
            if i in results:
                if cell.fuzz is not None:
                    runner.seed_fuzz(cell.workload, cell.fuzz, results[i])
                elif cell.trace is not None:
                    runner.seed_traced(cell.workload, cell.config,
                                       cell.latencies, cell.trace, results[i],
                                       cell.backend, cell.policy)
                elif cell.is_sweep:
                    for lat, res in zip(cell.latencies, results[i]):
                        runner.seed_result(cell.workload, cell.config, lat,
                                           res, cell.backend, cell.policy)
                else:
                    runner.seed_result(cell.workload, cell.config,
                                       cell.latencies, results[i],
                                       cell.backend, cell.policy)
        report.wall_time = time.monotonic() - started
        if runner.cache is not None:
            report.cache_stats = runner.cache.stats()
        if journal is not None and report.total:
            journal.record_end(report.summary())
    return report


@contextlib.contextmanager
def _graceful_term():
    """Route SIGTERM through ``KeyboardInterrupt`` for the duration of a
    run, so a polite kill gets the same clean unwind as Ctrl-C: pool
    teardown, result merge, and a journaled ``interrupted`` end record.
    Outside the main thread (the serve fleet, test harnesses) signal
    handlers cannot be installed and the run proceeds unwrapped."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    def _raise(signum, frame):
        raise KeyboardInterrupt
    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except (ValueError, OSError):        # exotic embedding; run unwrapped
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _memoized(runner: ExperimentRunner, cell: Cell) -> bool:
    """Whether the runner's memo already holds this cell's payload."""
    if cell.fuzz is not None:
        return runner.has_fuzz(cell.workload, cell.fuzz)
    if cell.trace is not None:
        return runner.has_traced(cell.workload, cell.config, cell.latencies,
                                 cell.trace, cell.backend, cell.policy)
    if cell.is_sweep:
        return all(runner.has_result(cell.workload, cell.config, lat,
                                     cell.backend, cell.policy)
                   for lat in cell.latencies)
    return runner.has_result(cell.workload, cell.config, cell.latencies,
                             cell.backend, cell.policy)


def _restore_resumed(runner: ExperimentRunner, unique: list[Cell],
                     journal: RunJournal, report: RunReport) -> list[Cell]:
    """Seed journaled-ok cells from the disk cache; return the rest.

    A journaled ``ok`` is only trusted if the cache still holds the
    payload — anything evicted (or run without a cache) is recomputed.
    Traced cells restore from the ``"traces"`` kind under their
    spec-qualified key, plain cells from ``"results"``.
    """
    done = journal.completed_keys()
    if not done:
        return unique
    remaining = []
    for cell in unique:
        restored = None
        if cell_key(runner, cell) in done and runner.cache is not None:
            if cell.fuzz is not None:
                restored = runner.cache.get(
                    "fuzz", runner.fuzz_payload(cell.workload, cell.fuzz))
            elif cell.is_sweep:
                points = [runner.cache.get(
                    "results", runner.result_payload(
                        cell.workload,
                        runner.normalize_config(cell.config, lat),
                        cell.backend, cell.policy))
                    for lat in cell.latencies]
                restored = points if all(p is not None for p in points) \
                    else None   # any evicted point: recompute the sweep
            elif cell.trace is not None:
                config = runner.normalize_config(cell.config, cell.latencies)
                restored = runner.cache.get(
                    "traces",
                    runner.traced_payload(cell.workload, config, cell.trace,
                                          cell.backend, cell.policy))
            else:
                config = runner.normalize_config(cell.config, cell.latencies)
                restored = runner.cache.get(
                    "results", runner.result_payload(cell.workload, config,
                                                     cell.backend,
                                                     cell.policy))
        if restored is not None:
            if cell.fuzz is not None:
                runner.seed_fuzz(cell.workload, cell.fuzz, restored)
            elif cell.trace is not None:
                runner.seed_traced(cell.workload, cell.config, cell.latencies,
                                   cell.trace, restored, cell.backend,
                                   cell.policy)
            elif cell.is_sweep:
                for lat, res in zip(cell.latencies, restored):
                    runner.seed_result(cell.workload, cell.config, lat, res,
                                       cell.backend, cell.policy)
            else:
                runner.seed_result(cell.workload, cell.config, cell.latencies,
                                   restored, cell.backend, cell.policy)
            report.resumed += 1
        else:
            remaining.append(cell)
    return remaining


def _register_ok(runner, cell: Cell, i: int, attempts_used: int,
                 elapsed: float, result, results: dict, report: RunReport,
                 journal: RunJournal | None) -> None:
    results[i] = result
    report.ok += 1
    if attempts_used > 1:
        report.retried += 1
    if journal is not None:
        ref = size = None
        if cell.trace is not None and runner.cache is not None:
            # Journal the spilled payload by reference only — a traced
            # payload never appears inline in the JSONL stream.
            config = runner.normalize_config(cell.config, cell.latencies)
            key = runner.cache.key_for(
                "traces",
                runner.traced_payload(cell.workload, config, cell.trace,
                                      cell.backend, cell.policy))
            ref = f"traces/{key}"
            size = runner.cache.entry_size("traces", key)
        journal.record_cell(index=i, key=cell_key(runner, cell),
                            workload=cell.workload, config=cell.config.name,
                            status="ok", attempts=attempts_used,
                            elapsed=elapsed, ref=ref, payload_bytes=size)


def _register_failure(runner, cell: Cell, i: int, attempts_used: int,
                      kind: str, error, policy: ExecutionPolicy,
                      report: RunReport,
                      journal: RunJournal | None) -> bool:
    """Record one failed attempt.  Returns True if the cell may retry;
    on terminal failure appends a :class:`CellFailure` (and raises under
    ``fail_fast``)."""
    if kind == "timeout":
        report.timeouts += 1
    message = (error if isinstance(error, str)
               else f"{type(error).__name__}: {error}")
    retryable = attempts_used <= policy.retries
    if journal is not None:
        status = ("timed-out" if kind == "timeout" else "retried") \
            if retryable else "failed"
        journal.record_cell(index=i, key=cell_key(runner, cell),
                            workload=cell.workload, config=cell.config.name,
                            status=status, attempts=attempts_used,
                            kind=kind, error=message)
    if retryable:
        return True
    failure = CellFailure(cell, i, attempts_used, kind, message)
    report.failures.append(failure)
    if policy.fail_fast:
        raise FatalCellError(failure, report)
    return False


def _execute_serial(runner: ExperimentRunner, items, attempts: dict,
                    policy: ExecutionPolicy, report: RunReport,
                    journal: RunJournal | None, results: dict) -> None:
    """The in-process path: same retry/keep-going semantics, no pool.
    ``cell_timeout`` cannot preempt in-process work and is not enforced."""
    for i, cell in list(items):
        while True:
            attempts[i] += 1
            t0 = time.monotonic()
            try:
                faults.inject_cell_faults(i, attempts[i])
                result = compute_cell(runner, cell)
            except Exception as exc:
                if _register_failure(runner, cell, i, attempts[i],
                                     "exception", exc, policy, report,
                                     journal):
                    time.sleep(policy.backoff_for(attempts[i] + 1))
                    continue
                break
            _register_ok(runner, cell, i, attempts[i],
                         time.monotonic() - t0, result, results, report,
                         journal)
            break


def _execute_pool(runner: ExperimentRunner, indexed, attempts: dict,
                  policy: ExecutionPolicy, report: RunReport,
                  journal: RunJournal | None, results: dict,
                  jobs: int) -> None:
    """Pool generations: drain, rebuild on breakage/timeout, degrade to
    serial once the rebuild budget is spent."""
    outstanding = dict(indexed)
    # Worker-side attempt numbering: counts every submission (including
    # ones lost to a dead pool), so fault-injection ``times`` matching
    # stays monotonic even though crashes don't charge the retry budget.
    submits = {i: 0 for i in outstanding}
    workers = min(jobs, len(outstanding))
    while outstanding:
        abandoned = _drain_pool(runner, outstanding, attempts, submits,
                                results, workers, policy, report, journal)
        if not outstanding or not abandoned:
            return
        report.pool_rebuilds += 1
        if report.pool_rebuilds > policy.max_pool_rebuilds:
            report.degraded = True
            _execute_serial(runner, sorted(outstanding.items()), attempts,
                            policy, report, journal, results)
            return


@dataclass
class _InFlight:
    """Parent-side bookkeeping for one submitted cell attempt."""

    index: int
    submitted: float
    #: when the future was first observed executing (``fut.running()``).
    #: The ``cell_timeout`` clock starts here — a cell queued behind a
    #: full worker fleet accrues no wait time against its timeout.
    started: float | None = None


def _drain_pool(runner: ExperimentRunner, outstanding: dict, attempts: dict,
                submits: dict, results: dict, workers: int,
                policy: ExecutionPolicy, report: RunReport,
                journal: RunJournal | None) -> bool:
    """Run one pool generation over every outstanding cell.

    Submits each cell as its own future and harvests completions until
    the queue drains, a worker dies (``BrokenProcessPool``) or a cell
    overruns ``cell_timeout``.  Submission is leader-first (see the
    module docstring): a workload's later cells are held until its
    lowest-index outstanding cell resolves — ok, retryable or terminal
    failure.  Retries of plain worker exceptions are resubmitted once
    their backoff deadline passes, without blocking the harvest loop;
    the timeout clock starts when an attempt is first seen executing,
    never while it waits in the submission queue.  Returns True when the
    pool was abandoned and the caller should rebuild;
    completed/terminally-failed cells leave ``outstanding`` either way,
    so a rebuild resubmits — and regroups — only what is left, held
    cells included.
    """
    pool = _pool(runner, min(workers, len(outstanding)))
    pending: dict[Future, _InFlight] = {}
    backoffs: dict[int, float] = {}   # index -> resubmit-not-before deadline
    held: dict[str, list[int]] = {}   # workload -> cells behind its leader
    abandon = True

    def submit(i: int) -> None:
        submits[i] += 1
        fut = pool.submit(_run_cell, outstanding[i], i, submits[i])
        pending[fut] = _InFlight(i, time.monotonic())

    try:
        for i in sorted(outstanding):
            workload = outstanding[i].workload
            if workload in held:
                held[workload].append(i)
            else:
                held[workload] = []
                submit(i)
        broken = False
        while pending or backoffs:
            now = time.monotonic()
            for i in [i for i, ready in backoffs.items() if ready <= now]:
                del backoffs[i]
                try:
                    submit(i)
                except Exception:
                    return True
            if not pending:
                # Every remaining cell is backing off; nothing can
                # complete until the earliest deadline.
                time.sleep(max(0.0, min(backoffs.values())
                               - time.monotonic()))
                continue
            poll = None
            if policy.cell_timeout is not None:
                poll = max(0.01, min(0.25, policy.cell_timeout / 4))
            if backoffs:
                until = max(0.001, min(backoffs.values()) - time.monotonic())
                poll = until if poll is None else min(poll, until)
            done, _ = wait(list(pending), timeout=poll,
                           return_when=FIRST_COMPLETED)
            resolved = []
            for fut in done:
                meta = pending.pop(fut)
                i = meta.index
                cell = outstanding[i]
                try:
                    result = _resolve(runner, fut.result())
                except BrokenProcessPool:
                    # Collateral or culprit — indistinguishable, and
                    # neither finished a real attempt: the crash charges
                    # the rebuild budget, not the cell's retry budget.
                    broken = True
                    continue
                except Exception as exc:
                    attempts[i] += 1
                    if _register_failure(runner, cell, i, attempts[i],
                                         "exception", exc, policy, report,
                                         journal):
                        backoffs[i] = (time.monotonic()
                                       + policy.backoff_for(attempts[i] + 1))
                    else:
                        del outstanding[i]
                else:
                    attempts[i] += 1
                    t0 = (meta.started if meta.started is not None
                          else meta.submitted)
                    _register_ok(runner, cell, i, attempts[i],
                                 time.monotonic() - t0, result,
                                 results, report, journal)
                    del outstanding[i]
                resolved.append(cell.workload)
            if broken:
                return True
            try:
                for workload in resolved:
                    for j in held.pop(workload, ()):
                        submit(j)
            except Exception:
                return True
            if policy.cell_timeout is None:
                continue
            now = time.monotonic()
            expired = []
            for fut, meta in pending.items():
                if meta.started is None:
                    if fut.running():
                        meta.started = now
                elif now - meta.started > policy.cell_timeout:
                    expired.append((fut, meta))
            if not expired:
                continue
            for fut, meta in expired:
                i = meta.index
                pending.pop(fut)
                fut.cancel()
                attempts[i] += 1
                if not _register_failure(runner, outstanding[i], i,
                                         attempts[i], "timeout",
                                         f"exceeded {policy.cell_timeout:g}s",
                                         policy, report, journal):
                    del outstanding[i]
            # A stuck worker can only be reclaimed by pool teardown.
            return True
        abandon = False
        return False
    finally:
        if abandon:
            _terminate(pool)
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True)


def _terminate(pool: ProcessPoolExecutor) -> None:
    """Kill a pool's workers outright (stuck or crashing generations)."""
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except Exception:
            pass


def build_artifacts(runner: ExperimentRunner, names: list[str],
                    jobs: int | None = None) -> ExperimentRunner:
    """Build several workloads' artifacts in parallel (table 1/3 prep)."""
    jobs = default_jobs() if jobs is None else jobs
    missing = [n for n in dict.fromkeys(names) if not runner.has_artifact(n)]
    if not missing:
        return runner
    if jobs <= 1 or len(missing) == 1:
        for name in missing:
            runner.artifacts(name)
        return runner
    with _pool(runner, min(jobs, len(missing))) as pool:
        arts = list(pool.map(_build_artifact, missing))
    for name, art in zip(missing, arts):
        runner.seed_artifact(name, art)
    return runner


def _pool(runner: ExperimentRunner, workers: int) -> ProcessPoolExecutor:
    cache_dir = str(runner.cache.root) if runner.cache is not None else None
    return ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker,
        initargs=(runner.slicer_config, runner.instruction_scale, cache_dir,
                  runner.backend, runner.policy))
