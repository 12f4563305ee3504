"""Tests of the benchmark itself.

Run from the root of a checkout (a few minutes: every workload is run
twice with tracing)::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, seed: int, trace: int, cwd: Path = run.ROOT,
         seconds: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _exact(proc: subprocess.CompletedProcess) -> dict:
    """The exact counters a traced run reports: its count metrics and
    the stderr counter line of its passes."""
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    counts = {k: m["value"] for k, m in result["metrics"].items()
              if m["unit"] in ("count", "bytes")}
    line = next(ln for ln in proc.stderr.splitlines()
                if ln.startswith("perfbench: exact counters:"))
    counts["passes"] = json.loads(line.split(":", 2)[2])
    return counts


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.PER_LAYER
    from workloads import WORKLOADS as defined
    assert WORKLOADS == list(defined)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_repeat_across_runs(workload):
    first = _exact(_run(workload, seed=3, trace=1))
    assert first == _exact(_run(workload, seed=3, trace=1))


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], seed=0, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
