"""The four paper workflows the benchmark drives through the public harness.

Each workload is one closed-loop client: it submits a workflow's whole
cell matrix, waits for it, renders what a user would read, and hands the
outputs back for checking.  :meth:`Workload.run` is one such pass; the
driver in ``run.py`` repeats passes for the measured interval.

Sizes.  The paper matrices run at :data:`PAPER_SCALE` of each kernel's
instruction budget (eval, profile and the 40k-instruction warmup prefix
all scale together) so that one pass takes seconds rather than a minute
and a run holds several passes.  The fuzz campaigns keep scale 1.0:
generated kernels size their own budgets and must run to their halt.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.core.configs import BASELINE, SPEAR_128
from repro.harness import (SWEEP_BACKEND, DiskCache, ExperimentRunner,
                           RunJournal, cells_for, experiments, parallel,
                           report_cells, report_trace_spec)
from repro.observe import render

from spans import Tracer, instrument

#: instruction scale of the paper matrices (fig6, fig9, report)
PAPER_SCALE = 0.1
#: guided campaigns per fuzz pass, programs per campaign, programs per
#: scheduling batch
FUZZ_CAMPAIGNS = 4
FUZZ_PROGRAMS = 50
FUZZ_BATCH = 25


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stats_digest(results) -> str:
    """Digest over every result's full stats snapshot, in cell order."""
    rows = [{"stats": r.stats.snapshot(), "memory": r.memory,
             "predictor": r.predictor} for r in results]
    return sha256(json.dumps(rows, sort_keys=True, default=repr))


def cpu_seconds() -> float:
    """User + system time of this process and every reaped child (the
    pool workers are reaped when ``run_cells`` shuts its pool down)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


@dataclass
class Pass:
    """Outcome of one closed-loop pass of a workflow."""

    wall_s: float
    cpu_s: float
    #: output name -> sha256; checked against the pins and across passes
    digests: dict[str, str]
    #: exact work counters visible without tracing; must repeat exactly
    counters: dict[str, int]
    #: cells submitted (operations attempted) and cells that failed
    cells: int
    failed: int
    #: cell records of the pass's journal(s), for per-cell elapsed
    journal: list[dict] = field(default_factory=list)
    #: ``run_cells`` reports: ok / retried / failed cell counts
    reports: list = field(default_factory=list)
    #: the client runner's builds/simulations (parent-side work only, so
    #: they equal the whole pass's work on a serial pass)
    runner_counts: dict[str, int] = field(default_factory=dict)
    #: simulated speed-ups next to the paper's figures (no gate)
    accuracy: list[str] = field(default_factory=list)
    #: outputs the pass could not check (a failed cell, a divergence)
    problems: list[str] = field(default_factory=list)


class Timer:
    """Wall and CPU time of the block, measured together.  With a
    tracer the block is also the traced region: the entry points are
    instrumented and the block is the root span, ``harness.workflow``."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self._stack = contextlib.ExitStack()

    def __enter__(self):
        if self.tracer is not None:
            self._stack.enter_context(instrument(self.tracer))
            self._stack.enter_context(self.tracer.span("harness.workflow"))
        self.wall0, self.cpu0 = perf_counter(), cpu_seconds()
        return self

    def __exit__(self, *exc):
        self.wall_s = perf_counter() - self.wall0
        self.cpu_s = cpu_seconds() - self.cpu0
        self._stack.close()
        return False


def fresh_dir(work: Path, label: str) -> Path:
    """A new empty directory under ``work`` (the driver removes ``work``
    at the end of the run)."""
    work.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=work))


def journal_cells(root: Path) -> tuple[int, list[dict]]:
    """Every record and the cell records of the journals under ``root``."""
    records, cells = 0, []
    for path in sorted(root.glob("*.jsonl")):
        for rec in RunJournal(path).entries():
            records += 1
            if rec.get("event") == "cell":
                cells.append(rec)
    return records, cells


class Workload:
    """One benchmark workload; subclasses set the matrix and outputs."""

    name = ""
    #: whether the run's input depends on ``--seed``
    seeded = False

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work: Path, jobs: int):
        """Prepare state the timed passes share; returns it."""
        return None

    def run(self, state, work: Path, jobs: int,
            tracer: Tracer | None = None) -> Pass:
        raise NotImplementedError


def matrix_pass(runner: ExperimentRunner, cells, experiment: str,
                journal_root: Path, jobs: int, tracer: Tracer | None,
                render_output, results_of) -> Pass:
    """One pass of a paper matrix: every cell through ``run_cells`` with
    a journal, then the rendered output — the timed part — followed by
    the digests and counters of what it delivered.

    ``render_output(runner)`` returns the output text and its accuracy
    lines; ``results_of(runner, cells)`` the delivered results in cell
    order (memo hits, no work)."""
    journal = RunJournal.for_run(experiment, cells, runner,
                                 root=journal_root)
    with Timer(tracer) as t:
        report = parallel.run_cells(runner, cells, jobs, journal=journal)
        rendered = render_output(runner) if report.completed else None
    out = Pass(t.wall_s, t.cpu_s, {}, {}, len(cells), report.failed,
               reports=[report])
    out.runner_counts = {"builds": runner.builds,
                         "simulations": runner.simulations}
    if rendered is None:
        out.problems.append(f"{experiment} incomplete: " + "; ".join(
            f.describe() for f in report.failures))
    else:
        text, out.accuracy = rendered
        results = results_of(runner, cells)
        out.digests = {"output": sha256(text),
                       "cells": stats_digest(results)}
        out.counters = {
            "committed": sum(r.stats.committed for r in results),
            "cycles": sum(r.stats.cycles for r in results),
            "output_bytes": len(text.encode("utf-8"))}
    out.counters["journal_records"], out.journal = journal_cells(
        journal_root)
    return out


def cache_bytes(cache_dir: Path) -> int:
    return DiskCache(cache_dir, sweep=False).size_stats()["total"]["bytes"]


class Figure6Cold(Workload):
    """The paper's headline run as users pay for it: the figure-6 matrix
    (15 workloads x baseline/SPEAR-128/SPEAR-256) from an empty disk
    cache, so compile, functional trace, simulation and cache writes."""

    name = "fig6-cold"

    def run(self, state, work: Path, jobs: int,
            tracer: Tracer | None = None) -> Pass:
        cache_dir = fresh_dir(work, "fig6")
        runner = ExperimentRunner(instruction_scale=PAPER_SCALE,
                                  cache=DiskCache(cache_dir))
        out = matrix_pass(
            runner, cells_for("figure6"), "figure6", cache_dir / "journal",
            jobs, tracer, self._render,
            lambda r, cells: [r.run(c.workload, c.config) for c in cells])
        out.counters["cache_bytes_written"] = cache_bytes(cache_dir)
        shutil.rmtree(cache_dir)
        return out

    @staticmethod
    def _render(runner):
        fig = experiments.figure6(runner)
        accuracy = [f"figure 6 mean {cfg}: {(mean - 1) * 100:+.1f}% "
                    f"simulated vs +{experiments.PAPER_MEANS[cfg]}% in "
                    f"the paper"
                    for cfg, mean in fig.mean_speedups.items()]
        return fig.table("Figure 6").render(), accuracy


class Figure9Sweep(Workload):
    """The figure-9 latency sweep (6 workloads x 5 latencies x 3 configs)
    on the batched backend: the only workload whose work runs through
    ``pipeline/sweep.py`` and the fast-forward kernel."""

    name = "fig9-sweep"

    def run(self, state, work: Path, jobs: int,
            tracer: Tracer | None = None) -> Pass:
        cache_dir = fresh_dir(work, "fig9")
        runner = ExperimentRunner(instruction_scale=PAPER_SCALE,
                                  cache=DiskCache(cache_dir),
                                  backend=SWEEP_BACKEND)
        out = matrix_pass(
            runner, cells_for("figure9", backend=SWEEP_BACKEND), "figure9",
            cache_dir / "journal", jobs, tracer, self._render,
            lambda r, cells: [res for c in cells for res in r.run_sweep(
                c.workload, c.config, list(c.latencies))])
        out.counters["cache_bytes_written"] = cache_bytes(cache_dir)
        shutil.rmtree(cache_dir)
        return out

    @staticmethod
    def _render(runner):
        fig = experiments.figure9(runner)
        accuracy = [
            f"figure 9 {cfg.name}: loses {fig.degradation(cfg.name):.1f}% "
            f"at the longest latency simulated vs "
            f"{experiments.PAPER_FIG9_DEGRADATION[cfg.name]}% in the paper"
            for cfg in fig.configs]
        return fig.table().render(), accuracy


class ReportWarm(Workload):
    """The suite report (15 workloads x baseline/SPEAR-128, traced) on a
    warm cache: a fresh runner re-resolves every traced payload and the
    markdown and SVG are rendered.  The read side of the harness cache
    and the observe renderers; it simulates nothing."""

    name = "report-warm"

    @staticmethod
    def _cells():
        return report_cells(list(experiments.EVAL_WORKLOADS),
                            [BASELINE, SPEAR_128], report_trace_spec())

    def setup(self, work: Path, jobs: int):
        """Fill a fresh cache with every traced cell of the suite."""
        cache_dir = fresh_dir(work, "report-cache")
        runner = ExperimentRunner(instruction_scale=PAPER_SCALE,
                                  cache=DiskCache(cache_dir))
        report = parallel.run_cells(runner, self._cells(), jobs)
        if not report.completed:
            raise RuntimeError("report-warm set-up failed: "
                               + report.render())
        return cache_dir

    def run(self, cache_dir: Path, work: Path, jobs: int,
            tracer: Tracer | None = None) -> Pass:
        journal_dir = fresh_dir(work, "report-journal")
        runner = ExperimentRunner(instruction_scale=PAPER_SCALE,
                                  cache=DiskCache(cache_dir))
        spec = report_trace_spec()
        out = matrix_pass(
            runner, self._cells(), "report-suite", journal_dir, jobs,
            tracer, self._render,
            lambda r, cells: [r.run_traced(c.workload, c.config,
                                           spec=spec).result
                              for c in cells])
        shutil.rmtree(journal_dir)
        return out

    @staticmethod
    def _render(runner):
        md, suite = experiments.build_suite_report(
            runner, list(experiments.EVAL_WORKLOADS))
        svg = render.render_suite_svg(suite)
        paper = experiments.PAPER_MEANS[SPEAR_128.name]
        accuracy = [f"suite report {SPEAR_128.name}: geomean "
                    f"{(suite.geomean_speedup - 1) * 100:+.1f}% simulated "
                    f"vs +{paper}% mean in the paper"]
        return md + svg, accuracy


class FuzzGuided(Workload):
    """Seeded coverage-guided fuzz campaigns: 200 small cells per pass,
    the workload of per-cell dispatch at scale and the only one of the
    fuzz generator, oracle, scheduler and coverage layers.

    One pass is :data:`FUZZ_CAMPAIGNS` independent campaigns of
    :data:`FUZZ_PROGRAMS` programs each, seeded ``seed * FUZZ_CAMPAIGNS
    + i``.  Past its second batch a campaign's scheduler concentrates on
    whichever arms found new bins, and which arms those are depends on
    the seed: the simulated work of one 200-program campaign varies by
    about a quarter between seeds (quartile spread), that of 50-program
    campaigns by about 6%, and of four of them by about 3%."""

    name = "fuzz-guided"
    seeded = True

    def run(self, state, work: Path, jobs: int,
            tracer: Tracer | None = None) -> Pass:
        from repro.fuzz import CoverageMap, GuidedCampaignSpec, schedule
        cache_dir = fresh_dir(work, "fuzz")
        runner = ExperimentRunner(cache=DiskCache(cache_dir))
        specs = [GuidedCampaignSpec(seed=self.seed * FUZZ_CAMPAIGNS + i,
                                    count=FUZZ_PROGRAMS, batch=FUZZ_BATCH)
                 for i in range(FUZZ_CAMPAIGNS)]
        with Timer(tracer) as t:
            results = [schedule.run_guided_campaign(
                spec, runner, jobs=jobs, journal_root=cache_dir / "journal")
                for spec in specs]
        failed = sum(len(r.failed) for r in results)
        out = Pass(t.wall_s, t.cpu_s, {}, {},
                   FUZZ_CAMPAIGNS * FUZZ_PROGRAMS, failed,
                   reports=[rep for r in results for rep in r.run_reports])
        out.runner_counts = {"builds": runner.builds,
                             "simulations": runner.simulations}
        divergences = sum(r.report.counts["divergence"] for r in results)
        if failed or divergences or not all(r.completed for r in results):
            out.problems.append(
                f"fuzz campaigns: {failed} program(s) without a verdict, "
                f"{divergences} divergence(s)")
        coverage = CoverageMap()
        for r in results:
            coverage.merge(r.coverage)
        cells = [v.to_dict() for r in results for v in r.verdicts]
        out.digests = {
            "triage": sha256("".join(r.report.to_json() for r in results)),
            "coverage": sha256("".join(r.coverage.to_json()
                                       for r in results)),
            "cells": sha256(json.dumps(cells, sort_keys=True))}
        out.counters = {
            "committed": sum(_fuzz_committed(v, spec.check_for(i))
                             for spec, r in zip(specs, results)
                             for i, v in enumerate(r.verdicts)),
            "distinct_bins": coverage.distinct,
            "cache_bytes_written": cache_bytes(cache_dir)}
        counts = {c: sum(r.report.counts[c] for r in results)
                  for c in ("speedup", "neutral", "regression")}
        out.accuracy.append(
            f"fuzz triage: {counts['speedup']} speedup / "
            f"{counts['neutral']} neutral / {counts['regression']} "
            f"regression on generated kernels (no paper counterpart)")
        out.counters["journal_records"], out.journal = journal_cells(
            cache_dir / "journal")
        shutil.rmtree(cache_dir)
        return out


def _fuzz_committed(verdict, check) -> int:
    """Committed instructions one evaluation simulated: every timing run
    commits the whole trace — configs x backends, plus a batched and an
    independent run per sampled sweep point."""
    runs = len(check.configs) * len(check.backends)
    if "sweep" in verdict.checks:
        runs += 2 * check.sweep_points
    return verdict.trace_len * runs


WORKLOADS = {w.name: w for w in (Figure6Cold, Figure9Sweep, ReportWarm,
                                 FuzzGuided)}
