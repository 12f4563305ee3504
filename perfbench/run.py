"""Repository benchmark: the paper workflows, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

One process is one closed-loop client driving the public harness with at
most ``min(nproc, 2)`` pool workers.  ``--trace 0`` sets the workload up
several times (reporting the median set-up time), then repeats untraced
passes of the workflow for ``--seconds`` and reports the end-to-end
metrics as medians over those passes.  ``--trace 1`` reports the
per-layer metrics instead: one untraced pass at full parallelism (pool
utilisation, per-cell times), then alternating serial untraced and
serial traced passes, whose difference is the tracing overhead.

Every pass's outputs are checked against the digests pinned in
``pins.json`` and against every other pass of the run (outputs are
byte-identical at any job count).  The last line of stdout is one JSON
object: ``correct``, ``attempted`` (cells submitted), ``failed`` (failed
cells plus output-check mismatches) and ``metrics``.  Everything else —
accuracy lines, exact work counters, the conditions — goes to stderr.

The checkout is the only place the benchmark reads or writes: scratch
caches live under ``.perfbench/`` and are removed when the run ends; the
spans of a traced run are written there as ``spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "pins.json"

#: set-ups per ``--trace 0`` run; the median is reported as ``setup_s``
SETUPS = 3
#: pool workers: one per CPU, at most two (the shared box's memory)
MAX_JOBS = 2
#: what a fresh interpreter imports before it can submit a cell
IMPORT_PROBE = "import repro.harness, repro.fuzz, repro.observe"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "sim_kinstr_per_s": "kinstr/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "compiler.self_s": "s",
    "compiler.calls": "count",
    "functional.self_s": "s",
    "functional.instructions": "count",
    "functional.kinstr_per_s": "kinstr/s",
    "pipeline.self_s": "s",
    "pipeline.runs": "count",
    "pipeline.cycles": "count",
    "pipeline.committed": "count",
    "pipeline.kcycles_per_s": "kcycles/s",
    "sweep.self_s": "s",
    "sweep.points_per_pass": "count",
    "harness.self_s": "s",
    "harness.cache_put_s": "s",
    "harness.cache_put_bytes": "bytes",
    "harness.cache_get_s": "s",
    "harness.cache_get_bytes": "bytes",
    "harness.cache_hits": "count",
    "harness.cache_misses": "count",
    "harness.journal_s": "s",
    "harness.journal_records": "count",
    "harness.builds": "count",
    "harness.simulations": "count",
    "harness.pool_utilisation": "fraction",
    "harness.cells_ok": "count",
    "harness.cells_retried": "count",
    "harness.cells_failed": "count",
    "harness.cell_p50_s": "s",
    "harness.cell_tail_s": "s",
    "observe.render_s": "s",
    "observe.compare_s": "s",
    "observe.report_bytes": "bytes",
    "fuzz.generate_s": "s",
    "fuzz.oracle_s": "s",
    "fuzz.evaluate_s": "s",
    "fuzz.schedule_s": "s",
    "fuzz.coverage_s": "s",
    "fuzz.triage_s": "s",
    "fuzz.programs": "count",
    "fuzz.distinct_bins": "count",
    "memory.main_l1_misses": "count",
    "memory.pthread_fills": "count",
    "memory.fill_timely_frac": "fraction",
    "spear.triggers": "count",
    "spear.pthread_instrs": "count",
    "branch.mispredicts": "count",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
}

#: span names per layer; ``harness.self_s`` is the dispatch the harness
#: does itself (the workflow root, run_cells and per-cell dispatch)
LAYER_SPANS = {
    "compiler.self_s": ("compiler", "compiler.assemble"),
    "functional.self_s": ("functional",),
    "pipeline.self_s": ("pipeline",),
    "sweep.self_s": ("sweep",),
    "harness.self_s": ("harness.workflow", "harness.run_cells",
                       "harness.cell"),
    "harness.cache_put_s": ("harness.cache_put",),
    "harness.cache_get_s": ("harness.cache_get",),
    "harness.journal_s": ("harness.journal",),
    "observe.render_s": ("observe.render",),
    "observe.compare_s": ("observe.compare",),
    "fuzz.generate_s": ("fuzz.generate",),
    "fuzz.oracle_s": ("fuzz.oracle",),
    "fuzz.evaluate_s": ("fuzz.evaluate",),
    "fuzz.schedule_s": ("fuzz.schedule",),
    "fuzz.coverage_s": ("fuzz.coverage",),
    "fuzz.triage_s": ("fuzz.triage",),
}

#: counters of a traced pass reported as they are
LAYER_COUNTS = ("functional.instructions", "pipeline.runs",
                "pipeline.cycles", "pipeline.committed",
                "harness.cache_put_bytes",
                "harness.cache_get_bytes", "harness.cache_hits",
                "harness.cache_misses", "harness.journal_records",
                "observe.report_bytes", "memory.main_l1_misses",
                "memory.pthread_fills", "spear.triggers",
                "spear.pthread_instrs", "branch.mispredicts")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def log(*parts) -> None:
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def jobs_for_box() -> int:
    from repro.harness import default_jobs
    return max(1, min(MAX_JOBS, default_jobs()))


def set_up(wl, work: Path, jobs: int, times: int):
    """Set the workload up ``times`` times: a fresh interpreter importing
    the package, then the workload's own preparation.  Returns the
    median duration and the last set-up's state."""
    durations, state = [], None
    for _ in range(times):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                       cwd=ROOT)
        state = wl.setup(work, jobs)
        durations.append(perf_counter() - t0)
    return statistics.median(durations), state


def repeat(seconds: float, once) -> list:
    """Call ``once`` while another call would end nearer to ``seconds``
    than stopping now; at least one call."""
    out, deadline = [], perf_counter() + seconds
    while True:
        t0 = perf_counter()
        out.append(once())
        now = perf_counter()
        if now + (now - t0) / 2 >= deadline:
            return out


def check(wl, passes) -> list[str]:
    """Output-check mismatches over every pass of the run."""
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pinned = pins.get(wl.name, {})
    if wl.seeded:
        pinned = pinned.get(str(wl.seed), {})
    first = passes[0]
    bad = []
    for i, p in enumerate(passes):
        bad.extend(f"pass {i}: {msg}" for msg in p.problems)
        for name, digest in p.digests.items():
            want = pinned.get(name)
            if want is not None and digest != want:
                bad.append(f"pass {i}: {name} digest {digest[:12]} != "
                           f"pinned {want[:12]}")
            elif digest != first.digests.get(name):
                bad.append(f"pass {i}: {name} digest differs from pass 0")
        if p.counters != first.counters:
            bad.append(f"pass {i}: exact counters {p.counters} differ from "
                       f"pass 0 {first.counters}")
    if not pinned:
        log(f"no pinned digests for {wl.name} seed {wl.seed}: outputs "
            f"checked for identity across passes and job counts only")
    return bad


def outcome(passes, mismatches, metrics) -> dict:
    failed_cells = sum(p.failed for p in passes)
    attempted = sum(p.cells for p in passes)
    failed = failed_cells + len(mismatches)
    for msg in mismatches:
        log("CHECK FAILED", msg)
    log(f"ops_failed_frac {failed / attempted:.6f} "
        f"({failed_cells} failed cell(s), {len(mismatches)} output "
        f"mismatch(es), {attempted} cell(s) attempted)")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def report_pass_facts(wl, passes) -> None:
    p = passes[0]
    for line in p.accuracy:
        log("accuracy:", line, "(reported, not gated; the model is "
            "otherwise unvalidated)")
    log("exact counters:", json.dumps(p.counters, sort_keys=True))
    log("digests:", json.dumps(p.digests, sort_keys=True))


def measure(wl, work: Path, seconds: float, jobs: int) -> dict:
    setup_s, state = set_up(wl, work, jobs, SETUPS)
    passes = repeat(seconds, lambda: wl.run(state, work, jobs))
    walls = [p.wall_s for p in passes]
    log(f"{wl.name}: {len(passes)} pass(es) at jobs={jobs}, wall "
        + spread(walls) + f"; set-up {setup_s:.3f}s")
    report_pass_facts(wl, passes)
    wall = statistics.median(walls)
    committed = passes[0].counters.get("committed", 0)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "sim_kinstr_per_s": committed / 1000.0 / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    return outcome(passes, check(wl, passes),
                   {k: (v, END_TO_END[k]) for k, v in metrics.items()})


def spread(values: list[float]) -> str:
    """Median and quartiles, or every value when there are few."""
    if len(values) < 8:
        return " ".join(f"{v:.3f}" for v in values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.3f} (quartiles {q1:.3f}-{q3:.3f})"


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_pct(n: int) -> float:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples
    beyond it (p50 when there are fewer than twenty)."""
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50


def layer_metrics(par, pairs, jobs: int) -> dict:
    """Per-layer metrics: dispatch facts from the parallel pass, layer
    self times (medians) and exact counts from the traced passes."""
    tracers = [t for _, _, t in pairs]
    traced = [p for _, p, _ in pairs]

    def med(fn):
        return statistics.median(fn(t) for t in tracers)

    m = {name: med(lambda t, s=spans: t.self_time(*s))
         for name, spans in LAYER_SPANS.items()}
    last = tracers[-1]
    for name in LAYER_COUNTS:
        m[name] = last.counts.get(name, 0)
    m["compiler.calls"] = last.calls("compiler")
    m["fuzz.programs"] = last.calls("fuzz.evaluate")
    m["fuzz.distinct_bins"] = traced[-1].counters.get("distinct_bins", 0)
    m["harness.builds"] = traced[-1].runner_counts["builds"]
    m["harness.simulations"] = traced[-1].runner_counts["simulations"]
    m["functional.kinstr_per_s"] = (
        m["functional.instructions"] / 1000.0 / m["functional.self_s"]
        if m["functional.self_s"] > 0 else 0.0)
    m["pipeline.kcycles_per_s"] = (
        m["pipeline.cycles"] / 1000.0 / m["pipeline.self_s"]
        if m["pipeline.self_s"] > 0 else 0.0)
    sweeps = last.counts.get("sweep.passes", 0)
    m["sweep.points_per_pass"] = (last.counts.get("sweep.points", 0)
                                  / sweeps if sweeps else 0.0)
    fills = m["memory.pthread_fills"]
    m["memory.fill_timely_frac"] = (
        last.counts.get("memory.pthread_timely", 0) / fills if fills
        else 0.0)

    m["harness.pool_utilisation"] = par.cpu_s / (jobs * par.wall_s)
    m["harness.cells_ok"] = sum(r.ok for r in par.reports)
    m["harness.cells_retried"] = sum(r.retried for r in par.reports)
    m["harness.cells_failed"] = sum(r.failed for r in par.reports)
    # Per-cell service time: the journal's ``elapsed`` of the first
    # serial pass (in a pool pass it would also hold the queue wait).
    elapsed = [rec["elapsed"] for rec in pairs[0][0].journal
               if rec.get("status") == "ok"]
    tail = tail_pct(len(elapsed))
    m["harness.cell_p50_s"] = percentile(elapsed, 50)
    m["harness.cell_tail_s"] = percentile(elapsed, tail)
    log(f"cell service times: {len(elapsed)} cells, p50 "
        f"{m['harness.cell_p50_s']:.4f}s, p{tail} "
        f"{m['harness.cell_tail_s']:.4f}s")

    untraced = statistics.median(p.wall_s for p, _, _ in pairs)
    traced_wall = statistics.median(p.wall_s for p in traced)
    m["trace.untraced_wall_s"] = untraced
    m["trace.traced_wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced
    m["trace.overhead_frac"] = (traced_wall - untraced) / untraced
    return m


def trace(wl, work: Path, seconds: float, jobs: int, spans_path: Path
          ) -> dict:
    _, state = set_up(wl, work, jobs, 1)
    par = wl.run(state, work, jobs)

    def pair():
        plain = wl.run(state, work, 1)
        tracer = Tracer()
        return plain, wl.run(state, work, 1, tracer), tracer

    pairs = repeat(seconds, pair)
    log(f"{wl.name}: parallel pass {par.wall_s:.3f}s at jobs={jobs}; "
        f"{len(pairs)} serial pair(s), untraced "
        + spread([p.wall_s for p, _, _ in pairs]) + ", traced "
        + spread([q.wall_s for _, q, _ in pairs]))
    passes = [par] + [p for pr in pairs for p in pr[:2]]
    report_pass_facts(wl, passes)
    metrics = layer_metrics(par, pairs, jobs)
    spans_path.write_text(json.dumps(
        [[s.to_dict() for s in t.spans] for _, _, t in pairs]))
    log(f"spans written to {spans_path.relative_to(ROOT)}")
    return outcome(passes, check(wl, passes),
                   {k: (metrics[k], u) for k, u in PER_LAYER.items()})


def use_checkout_program(work: Path) -> bool:
    """Put the checkout's ``src`` first on the import path for this
    process and its children, with no injected faults and a default
    cache inside ``work``.  False when the checkout has no program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        log(f"no program to measure: {src / 'repro'} is missing")
        return False
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src)
    os.environ.pop("REPRO_FAULTS", None)
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-cache")
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = ROOT / ".perfbench"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    if not use_checkout_program(work):
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of "
            + ", ".join(WORKLOADS))
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    jobs = jobs_for_box()
    try:
        if args.trace:
            result = trace(wl, work, args.seconds, jobs,
                           scratch / f"spans-{wl.name}-{args.seed}.json")
        else:
            result = measure(wl, work, args.seconds, jobs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
