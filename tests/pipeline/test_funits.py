"""Functional units: the op-class mapping, pool capacities, and the
per-cycle structural hazards the issue stage enforces with them."""

from collections import Counter

from repro.core import BASELINE, FUConfig
from repro.functional import Trace, TraceEntry
from repro.isa import OpClass
from repro.observe import RingBufferSink
from repro.observe.events import ISSUE
from repro.pipeline import FU_OF_CLASS, FUKind, FUPool, simulate
from repro.pipeline.funits import FU_KIND_OF_CLASS


class TestPool:
    def test_paper_capacities(self):
        cap = FUPool(FUConfig()).capacity
        assert cap[FUKind.INT_ALU] == 4
        assert cap[FUKind.INT_MULDIV] == 1
        assert cap[FUKind.FP_ALU] == 4
        assert cap[FUKind.FP_MULDIV] == 1

    def test_mem_ports(self):
        assert FUPool(FUConfig()).capacity[FUKind.MEM_PORT] == 2

    def test_fp_and_int_independent(self):
        pool = FUPool(FUConfig(int_alu=1, fp_alu=1))
        assert pool.capacity[FUKind.INT_ALU] == 1
        assert pool.capacity[FUKind.FP_ALU] == 1
        assert FU_OF_CLASS[int(OpClass.INT_ALU)] != \
            FU_OF_CLASS[int(OpClass.FP_ALU)]


class TestMapping:
    def test_every_class_mapped(self):
        for cls in OpClass:
            assert int(cls) in FU_OF_CLASS

    def test_memory_classes_use_ports(self):
        assert FU_OF_CLASS[int(OpClass.LOAD)] == FUKind.MEM_PORT
        assert FU_OF_CLASS[int(OpClass.STORE)] == FUKind.MEM_PORT

    def test_div_shares_the_muldiv_unit(self):
        assert FU_OF_CLASS[int(OpClass.INT_DIV)] == \
            FU_OF_CLASS[int(OpClass.INT_MUL)] == FUKind.INT_MULDIV
        assert FU_OF_CLASS[int(OpClass.FP_DIV)] == \
            FU_OF_CLASS[int(OpClass.FP_MUL)] == FUKind.FP_MULDIV

    def test_branches_use_int_alus(self):
        assert FU_OF_CLASS[int(OpClass.BRANCH)] == FUKind.INT_ALU
        assert FU_OF_CLASS[int(OpClass.MISC)] == FUKind.INT_ALU

    def test_kind_list_matches_mapping(self):
        assert FU_KIND_OF_CLASS == [FU_OF_CLASS[int(c)] for c in OpClass]


def _entry(op_class, pc, addr=-1):
    cls = int(op_class)
    is_load = cls == int(OpClass.LOAD)
    is_store = cls == int(OpClass.STORE)
    is_branch = cls == int(OpClass.BRANCH)
    return TraceEntry(pc, cls, (), -1, addr, False, is_load, is_store,
                      is_branch, is_branch)


class TestStructuralHazards:
    def test_issue_respects_every_unit_budget(self):
        """Independent work oversubscribing every unit kind: no cycle issues
        more than a kind's units or the issue width, each unit is free
        again the next cycle, and the turned-away claims are counted."""
        body = ([OpClass.INT_MUL, OpClass.INT_DIV, OpClass.LOAD,
                 OpClass.STORE, OpClass.LOAD, OpClass.BRANCH]
                + [OpClass.INT_ALU] * 4 + [OpClass.MISC])
        entries = [_entry(body[i % len(body)], pc=i % 64, addr=(i % 16) * 8)
                   for i in range(600)]
        sink = RingBufferSink(capacity=None, kinds=[ISSUE])
        res = simulate(Trace(entries, program_name="hazards"), BASELINE,
                       tracer=sink)
        assert res.stats.committed == len(entries)

        per_cycle: dict[int, Counter] = {}
        for ev in sink.events():
            kind = FU_OF_CLASS[entries[ev.trace_idx].op_class]
            per_cycle.setdefault(ev.cycle, Counter())[kind] += 1
        cap = FUPool(BASELINE.fu).capacity
        for counts in per_cycle.values():
            assert sum(counts.values()) <= BASELINE.issue_width
            for kind, n in counts.items():
                assert n <= cap[kind]
        # The MUL/DIV unit is pipelined: one new operation every cycle,
        # so every MUL and DIV issues in a cycle of its own.
        muldiv = sum(1 for e in entries
                     if FU_OF_CLASS[e.op_class] == FUKind.INT_MULDIV)
        assert sum(1 for c in per_cycle.values()
                   if c[FUKind.INT_MULDIV]) == muldiv
        assert max(c[FUKind.MEM_PORT] for c in per_cycle.values()) == \
            cap[FUKind.MEM_PORT]
        assert res.stats.issue_fu_conflicts > 0
