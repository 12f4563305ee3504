"""Unit tests for the trigger-policy layer (`repro.policy`).

The ladder, the control law and the epoch loop are deterministic, so
every test here is exact — no tolerances.  The end-to-end properties
(byte-identity of ``--policy fixed``, adaptive determinism across job
counts and crash/resume) live in ``tests/properties/test_policy.py``.
"""

import dataclasses

import pytest

from repro.core.configs import SPEAR_128
from repro.policy import (DEFAULT_POLICY, LEVELS, MIN_FILLS, POLICIES,
                          PolicySignals, converge, propose, resolve_policy,
                          start_level)


# ---------------------------------------------------------------------------
# Names and registry
# ---------------------------------------------------------------------------

def test_policy_registry():
    assert DEFAULT_POLICY == "fixed"
    assert POLICIES == ("fixed", "adaptive-epoch")
    assert resolve_policy(None) == "fixed"
    for name in POLICIES:
        assert resolve_policy(name) == name


def test_resolve_policy_rejects_unknown():
    with pytest.raises(ValueError, match="unknown policy 'nope'"):
        resolve_policy("nope")
    with pytest.raises(ValueError):
        resolve_policy("adaptive")  # prefix alone is not a name
    # a retired policy name is rejected like any other unknown one
    with pytest.raises(ValueError,
                       match="known: fixed, adaptive-epoch$"):
        resolve_policy("adaptive-phase")


# ---------------------------------------------------------------------------
# The ladder and start_level
# ---------------------------------------------------------------------------

def test_ladder_is_ordered_by_aggressiveness():
    # Fractions non-increasing, chaining never turns back off.
    fracs = [f for f, _ in LEVELS]
    assert fracs == sorted(fracs, reverse=True)
    chains = [c for _, c in LEVELS]
    assert chains == sorted(chains)  # False* then True*


def test_start_level_exact_match():
    assert start_level(SPEAR_128) == 1  # the paper's point is L1
    for i, (frac, chain) in enumerate(LEVELS):
        cfg = dataclasses.replace(SPEAR_128, trigger_occupancy_fraction=frac,
                                  chaining=chain)
        assert start_level(cfg) == i


def test_start_level_nearest_same_chaining():
    cfg = dataclasses.replace(SPEAR_128, trigger_occupancy_fraction=0.6)
    assert start_level(cfg) == 1  # |0.5-0.6| beats |0.75-0.6|
    cfg = dataclasses.replace(SPEAR_128, trigger_occupancy_fraction=0.1,
                              chaining=True)
    assert start_level(cfg) == 4  # nearest chaining rung


def test_start_level_tie_resolves_low():
    # 0.375 is equidistant from L1 (0.5) and L2 (0.25): lower rung wins.
    cfg = dataclasses.replace(SPEAR_128, trigger_occupancy_fraction=0.375)
    assert start_level(cfg) == 1


# ---------------------------------------------------------------------------
# Signals and the control law
# ---------------------------------------------------------------------------

def test_propose_holds_on_insufficient_signal():
    thin = PolicySignals(fills=MIN_FILLS - 1, late=MIN_FILLS - 1)
    assert propose(1, thin) == (1, "hold:insufficient-signal")


def test_propose_de_escalates_on_unused_heavy():
    sig = PolicySignals(fills=20, timely=3, late=2, unused=6)
    assert propose(2, sig) == (1, "de-escalate:unused-heavy")
    # clamped at the bottom rung
    assert propose(0, sig) == (0, "de-escalate:unused-heavy")


def test_propose_escalates_on_late_heavy():
    sig = PolicySignals(fills=20, timely=2, late=10, unused=0)
    assert propose(1, sig) == (2, "escalate:late-heavy")
    # clamped at the top rung
    top = len(LEVELS) - 1
    assert propose(top, sig) == (top, "escalate:late-heavy")


def test_propose_unused_heavy_outranks_late_heavy():
    # Both conditions true: waste wins (de-escalate checked first).
    sig = PolicySignals(fills=30, timely=1, late=5, unused=10)
    assert propose(2, sig) == (1, "de-escalate:unused-heavy")


def test_propose_holds_when_balanced():
    sig = PolicySignals(fills=20, timely=10, late=5, unused=5)
    assert propose(3, sig) == (3, "hold:balanced")


# ---------------------------------------------------------------------------
# converge (driven with stub results)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _Result:
    """Enough of a PipelineResult for converge(): a dataclass, because
    the adopted epoch is tagged via dataclasses.replace."""
    ipc: float
    memory: dict
    policy: dict | None = None


def _stub_result(ipc, fills):
    return _Result(
        ipc=ipc,
        memory={"fills": {"pthread": dict(
            fills=fills.fills, timely=fills.timely, late=fills.late,
            unused=fills.unused, redundant=fills.redundant)}})


def test_epoch_converge_holds_on_balanced_counters():
    balanced = PolicySignals(fills=50, timely=30, late=10, unused=5)
    runs = []

    def run_fn(cfg):
        runs.append(cfg)
        return _stub_result(1.0, balanced)

    result, summary = converge(run_fn, SPEAR_128)
    assert len(runs) == 1                        # epoch 0 only
    assert summary["epochs"] == 1
    assert summary["trajectory"] == "L1"
    assert summary["stop_reason"] == "hold:balanced"
    assert summary["final_level"] == 1
    assert result.policy == summary


def test_epoch_converge_adopts_on_ipc_gain():
    late_heavy = PolicySignals(fills=50, timely=5, late=40)
    balanced = PolicySignals(fills=50, timely=40, late=5)
    by_frac = {0.5: _stub_result(1.0, late_heavy),
               0.25: _stub_result(1.1, balanced)}

    def run_fn(cfg):
        return by_frac[cfg.trigger_occupancy_fraction]

    result, summary = converge(run_fn, SPEAR_128)
    assert summary["epochs"] == 2
    assert summary["trajectory"] == "L1->L2"
    assert summary["final_level"] == 2
    assert summary["final_fraction"] == 0.25
    assert summary["baseline_ipc"] == 1.0
    assert summary["final_ipc"] == 1.1
    assert result.ipc == 1.1


def test_epoch_converge_rejects_ipc_drop():
    late_heavy = PolicySignals(fills=50, timely=5, late=40)
    by_frac = {0.5: _stub_result(1.0, late_heavy),
               0.25: _stub_result(0.9, late_heavy)}

    def run_fn(cfg):
        return by_frac[cfg.trigger_occupancy_fraction]

    result, summary = converge(run_fn, SPEAR_128)
    assert summary["stop_reason"] == "rejected:ipc-drop"
    assert summary["final_level"] == 1           # incumbent kept
    assert summary["final_ipc"] == 1.0
    assert result.ipc == 1.0                     # never worse than fixed
    assert summary["label"].startswith("adaptive-epoch level=L1")


def test_epoch_converge_respects_epoch_budget():
    # Forever-late counters with ever-improving IPC: walk stops at the
    # top of the ladder (hold there would need one more proposal) or at
    # the budget, whichever first.  From L1 the walk L2, L3, L4 is three
    # adopted epochs; at L4 escalation clamps and the proposal repeats
    # the level, stopping the loop.
    late_heavy = PolicySignals(fills=50, timely=5, late=40)
    ipc = iter([1.0, 1.1, 1.2, 1.3, 1.4, 1.5])

    def run_fn(cfg):
        return _stub_result(next(ipc), late_heavy)

    result, summary = converge(run_fn, SPEAR_128)
    assert summary["epochs"] == 4                # L1 + three moves
    assert summary["trajectory"] == "L1->L2->L3->L4"
    assert summary["final_level"] == len(LEVELS) - 1
    assert summary["stop_reason"] == "escalate:late-heavy"  # clamped repeat
