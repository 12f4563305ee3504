"""Leader-first pool submission: one artifact build per workload.

Each pool generation submits the first outstanding cell of every
workload and holds the rest until it resolves, so the leader's worker
builds and caches the artifacts its siblings then read.  These tests
count builds and artifact writes across forked workers through hooks on
``ExperimentRunner._build`` and ``DiskCache.put`` that append to a file,
and check that held cells survive a leader that fails or crashes.
"""

import pytest

from repro.harness import (DiskCache, ExecutionPolicy, ExperimentRunner,
                           RunJournal, cells_for, run_cells)

SCALE = 0.05
WORKLOADS = ["pointer", "mcf", "gzip"]


@pytest.fixture
def work_log(tmp_path, monkeypatch):
    """Record every artifact build and artifact cache write, in this
    process or a forked worker (workers fork after the patch and inherit
    it).  Returns a reader: ``(built, written)`` workload name lists."""
    log = tmp_path / "work.log"
    log.touch()
    build, put = ExperimentRunner._build, DiskCache.put

    def note(line):
        with open(log, "a") as fh:
            fh.write(line + "\n")

    def logged_build(self, name):
        note(f"build {name}")
        return build(self, name)

    def logged_put(self, kind, payload, value):
        if kind == "artifacts":
            note(f"put {payload['workload']}")
        return put(self, kind, payload, value)

    monkeypatch.setattr(ExperimentRunner, "_build", logged_build)
    monkeypatch.setattr(DiskCache, "put", logged_put)

    def read():
        lines = [ln.split() for ln in log.read_text().splitlines()]
        return ([n for op, n in lines if op == "build"],
                [n for op, n in lines if op == "put"])
    return read


def _results(runner, cells) -> list[str]:
    """Every cell's full outcome, rendered: equal strings mean
    byte-identical stats, memory and predictor reports."""
    outcomes = []
    for c in cells:
        r = runner.run(c.workload, c.config)
        outcomes.append(repr((r.stats.snapshot(), r.memory, r.predictor)))
    return outcomes


def _serial_results(cells) -> list[str]:
    runner = ExperimentRunner(instruction_scale=SCALE)
    run_cells(runner, cells, jobs=1)
    return _results(runner, cells)


def test_each_workload_built_once_across_the_fleet(tmp_path, work_log):
    cells = cells_for("figure6", WORKLOADS)
    runner = ExperimentRunner(instruction_scale=SCALE,
                              cache=DiskCache(tmp_path / "cache"))
    report = run_cells(runner, cells, jobs=2)
    assert report.completed and report.ok == len(cells)
    built, written = work_log()
    assert sorted(built) == sorted(WORKLOADS)
    assert sorted(written) == sorted(WORKLOADS)
    assert _results(runner, cells) == _serial_results(cells)


@pytest.mark.parametrize("fault", ["fail:cell=3:times=0", "crash:cell=3"])
def test_siblings_survive_a_failing_leader(tmp_path, monkeypatch, fault):
    # Cell 3 leads mcf's row (cells 4 and 5 are held behind it).  A leader
    # that fails terminally still releases them; a crashed leader's
    # broken pool leaves them outstanding for the next generation.
    cells = cells_for("figure6", WORKLOADS)
    assert [c.workload for c in cells[3:6]] == ["mcf"] * 3
    monkeypatch.setenv("REPRO_FAULTS", fault)
    runner = ExperimentRunner(instruction_scale=SCALE,
                              cache=DiskCache(tmp_path / "cache"))
    journal = RunJournal(tmp_path / "run.jsonl", "figure6")
    report = run_cells(runner, cells, jobs=2, journal=journal,
                       policy=ExecutionPolicy(retries=1, backoff=0))
    bad = {r["index"] for r in journal.entries()
           if r["event"] == "cell" and r["status"] != "ok"}
    if fault.startswith("fail"):
        assert [f.index for f in report.failures] == [3]
        assert report.ok == len(cells) - 1 and report.pool_rebuilds == 0
        assert bad == {3}
    else:
        assert report.completed and report.ok == len(cells)
        assert report.pool_rebuilds == 1 and report.retried == 0
        assert bad == set()
    monkeypatch.delenv("REPRO_FAULTS")
    done = [c for i, c in enumerate(cells) if i not in
            {f.index for f in report.failures}]
    assert _results(runner, done) == _serial_results(done)
