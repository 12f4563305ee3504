"""Integration tests: the policy layer through the harness and pipeline.

Everything runs on a down-scaled runner (5% instruction budget) so the
whole module stays fast; the full-scale byte-identity pins live in
``tests/properties/test_policy.py``.
"""

import json

import pytest

from repro.core.configs import BASELINE, SPEAR_128
from repro.harness import ExperimentRunner, ablate_policy_cells
from repro.harness.journal import cell_key
from repro.memory.hierarchy import FIG9_LATENCIES
from repro.pipeline import KERNEL_BACKENDS


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(instruction_scale=0.05)


def _digest(res):
    blob = json.dumps({"summary": res.summary(), "memory": res.memory,
                       "predictor": res.predictor,
                       "timeline": res.timeline},
                      sort_keys=True, default=repr)
    return blob


# ---------------------------------------------------------------------------
# Effective policy and memo-key separation
# ---------------------------------------------------------------------------

def test_effective_policy_resolution(runner):
    assert runner.effective_policy(None, SPEAR_128) == "fixed"
    assert runner.effective_policy("fixed", SPEAR_128) == "fixed"
    assert runner.effective_policy("adaptive-epoch",
                                   SPEAR_128) == "adaptive-epoch"
    # baselines have no trigger to steer: always fixed
    assert runner.effective_policy("adaptive-epoch", BASELINE) == "fixed"
    with pytest.raises(ValueError):
        runner.effective_policy("bogus", SPEAR_128)
    with pytest.raises(ValueError,
                       match="'adaptive-phase'; known: fixed, adaptive-epoch"):
        ExperimentRunner(policy="adaptive-phase")


def test_policy_memo_keys_are_separate(runner):
    runner.run("ll4", SPEAR_128)
    assert runner.has_result("ll4", SPEAR_128)
    assert runner.has_result("ll4", SPEAR_128, policy="fixed")
    assert not runner.has_result("ll4", SPEAR_128, policy="adaptive-epoch")

    runner.run("ll4", SPEAR_128, policy="adaptive-epoch")
    assert runner.has_result("ll4", SPEAR_128, policy="adaptive-epoch")
    # the fixed entry is untouched
    assert runner.has_result("ll4", SPEAR_128, policy="fixed")


def test_baseline_adaptive_request_shares_the_fixed_memo(runner):
    a = runner.run("ll4", BASELINE)
    b = runner.run("ll4", BASELINE, policy="adaptive-epoch")
    assert a is b                       # same memo entry, same object


def test_fixed_run_carries_no_policy_summary(runner):
    res = runner.run("ll4", SPEAR_128)
    assert res.policy is None
    assert "policy" not in res.summary()


# ---------------------------------------------------------------------------
# adaptive-epoch through the runner
# ---------------------------------------------------------------------------

def test_epoch_run_attaches_summary_and_never_loses_to_fixed(runner):
    fixed = runner.run("mcf", SPEAR_128)
    res = runner.run("mcf", SPEAR_128, policy="adaptive-epoch")
    pol = res.policy
    assert pol["name"] == "adaptive-epoch"
    assert pol["baseline_ipc"] == fixed.ipc
    assert res.ipc >= fixed.ipc         # the no-regression guarantee
    assert pol["trajectory"].startswith("L")
    assert res.summary()["policy"] == pol["label"]


def test_epoch_run_backends_byte_identical(runner):
    """Every epoch is a plain run, so the fast-forward kernel must
    reproduce the reference epoch trajectory and result exactly."""
    for name in ("ll4", "mcf", "pointer"):
        ref = runner.run(name, SPEAR_128, backend="reference",
                         policy="adaptive-epoch")
        ff = runner.run(name, SPEAR_128, backend="fast-forward",
                        policy="adaptive-epoch")
        assert _digest(ref) == _digest(ff), name
        assert ref.policy == ff.policy, name


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_traced_epoch_run_matches_plain_run(runner, backend):
    """A traced adaptive-epoch run traces the converged operating point:
    same stats and the same policy summary as the plain epoch result.
    ``pointer`` converges off the paper's rung, so the traced run must
    really use the converged point, not the configured one."""
    res = runner.run("pointer", SPEAR_128, backend=backend,
                     policy="adaptive-epoch")
    assert "->" in res.policy["trajectory"]
    tr = runner.run_traced("pointer", SPEAR_128, backend=backend,
                           policy="adaptive-epoch")
    assert tr.result.stats == res.stats
    assert tr.result.memory == res.memory
    assert tr.result.policy == res.policy
    assert tr.result.summary() == res.summary()


def test_traced_fixed_run_carries_no_policy(runner):
    tr = runner.run_traced("ll4", SPEAR_128, capacity=None)
    assert tr.result.policy is None
    assert "policy" not in tr.result.timeline


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_under_adaptive_policy_matches_per_point_runs(runner):
    lats = FIG9_LATENCIES[:2]
    swept = runner.run_sweep("ll4", SPEAR_128, lats,
                             policy="adaptive-epoch")
    assert len(swept) == len(lats)
    for lat, res in zip(lats, swept):
        solo = runner.run("ll4", SPEAR_128, lat, policy="adaptive-epoch")
        assert _digest(res) == _digest(solo)


# ---------------------------------------------------------------------------
# Journal keys
# ---------------------------------------------------------------------------

def test_cell_keys_separate_policies_and_keep_fixed_stable(runner):
    cells = ablate_policy_cells(["ll4"])
    keys = [cell_key(runner, c) for c in cells]
    assert len(set(keys)) == len(keys)  # every cell journals distinctly

    fixed = next(c for c in cells if c.policy == "fixed")
    unpolicied = type(fixed)(workload=fixed.workload, config=fixed.config)
    # `--policy fixed` journals under the pre-policy key
    assert cell_key(runner, fixed) == cell_key(runner, unpolicied)
