"""Committed-trace contents, summary statistics and pickling."""

import pickle

from repro.functional import FunctionalSimulator, Trace, TraceEntry, run_program
from repro.isa import OpClass, assemble


def trace_of(text, limit=10_000):
    return run_program(assemble(text + "\nhalt"), max_instructions=limit)


class TestEntries:
    def test_load_entry(self):
        tr = trace_of("li r1, 0x100\nlw r2, 8(r1)")
        e = tr[1]
        assert e.is_load and not e.is_store
        assert e.addr == 0x108
        assert e.dst == 2
        assert e.srcs == (1,)
        assert e.op_class == int(OpClass.LOAD)

    def test_store_entry(self):
        tr = trace_of("li r1, 0x100\nli r2, 9\nsw r2, 0(r1)")
        e = tr[2]
        assert e.is_store and e.addr == 0x100
        assert e.dst == -1
        assert set(e.srcs) == {1, 2}

    def test_branch_entry_taken(self):
        tr = trace_of("li r1, 1\nbgtz r1, skip\nnop\nskip:\nnop")
        e = tr[1]
        assert e.is_branch and e.is_cond and e.taken

    def test_branch_entry_not_taken(self):
        tr = trace_of("li r1, 0\nbgtz r1, skip\nnop\nskip:\nnop")
        assert not tr[1].taken

    def test_uncond_jump_flagged(self):
        tr = trace_of("j next\nnext:\nnop")
        assert tr[0].is_branch and not tr[0].is_cond and tr[0].taken

    def test_alu_entry(self):
        tr = trace_of("li r1, 1\naddi r2, r1, 2")
        e = tr[1]
        assert e.addr == -1 and not (e.is_load or e.is_store or e.is_branch)

    def test_trace_is_committed_path_only(self):
        tr = trace_of("li r1, 0\nbeq r1, r0, skip\nli r2, 1\nskip:\nnop")
        pcs = [e.pc for e in tr]
        assert 2 not in pcs  # the skipped instruction never appears


class TestStatistics:
    def test_counts(self, gather_trace):
        assert gather_trace.count_loads() == 1600
        assert gather_trace.count_stores() == 0
        assert gather_trace.count_branches() == 800

    def test_ipb(self, gather_trace):
        ipb = gather_trace.instructions_per_branch()
        assert 9 < ipb < 12

    def test_load_fraction(self, gather_trace):
        assert 0.15 < gather_trace.load_fraction() < 0.25

    def test_empty_trace(self):
        tr = Trace([])
        assert tr.load_fraction() == 0.0
        assert tr.instructions_per_branch() == float("inf")

    def test_len_iter_getitem(self, gather_trace):
        assert len(gather_trace) == gather_trace.instret
        assert isinstance(gather_trace[0], TraceEntry)
        assert sum(1 for _ in gather_trace) == len(gather_trace)

    def test_halted_flag(self, gather_program):
        full = FunctionalSimulator(gather_program).run(1_000_000, trace=True)
        assert full.halted


def _fields(entry):
    return tuple(getattr(entry, slot) for slot in TraceEntry.__slots__)


def _assert_same_trace(a, b):
    assert [_fields(e) for e in a] == [_fields(e) for e in b]
    assert (a.program_name, a.halted, a.instret) == \
        (b.program_name, b.halted, b.instret)


class TestPickle:
    """The columnar pickle: per-pc statics plus pc/addr/taken columns."""

    def test_round_trip_keeps_every_field(self, gather_trace):
        back = pickle.loads(pickle.dumps(gather_trace))
        _assert_same_trace(back, gather_trace)
        assert any(e.is_load for e in back) and any(e.taken for e in back)

    def test_empty_trace(self):
        back = pickle.loads(pickle.dumps(Trace([], program_name="e",
                                               halted=False)))
        _assert_same_trace(back, Trace([], program_name="e", halted=False))

    def test_branches_both_ways_and_extreme_addresses(self):
        tr = trace_of("li r1, 2\nloop:\naddi r1, r1, -1\n"
                      "bgtz r1, loop\nli r2, 0x100\nlw r3, 0(r2)")
        assert {e.taken for e in tr if e.is_cond} == {True, False}
        load = tr.entries[-1]
        assert load.is_load
        for addr in (-8, -(1 << 63), 1 << 40, (1 << 63) - 8):
            odd = TraceEntry(load.pc, load.op_class, load.srcs, load.dst,
                             addr, False, True, False, False, False)
            entries = tr.entries + [odd]
            mixed = Trace(entries, program_name="x", halted=False)
            _assert_same_trace(pickle.loads(pickle.dumps(mixed)), mixed)

    def test_non_memory_entries_are_shared(self, gather_trace):
        back = pickle.loads(pickle.dumps(gather_trace))
        alu = [e for e in back if e.addr == -1]
        assert len({id(e) for e in alu}) == \
            len({(e.pc, e.taken) for e in alu})
        loads = [e for e in back if e.is_load]
        assert len({id(e) for e in loads}) == len(loads)

    def test_pre_columnar_pickle_still_loads(self, gather_trace,
                                             monkeypatch):
        monkeypatch.delattr(Trace, "__reduce__")
        old = pickle.dumps(gather_trace, pickle.HIGHEST_PROTOCOL)
        monkeypatch.undo()
        assert old != pickle.dumps(gather_trace, pickle.HIGHEST_PROTOCOL)
        _assert_same_trace(pickle.loads(old), gather_trace)

    def test_unpickled_artifacts_simulate_identically(self):
        from repro.core import SPEAR_128
        from repro.harness import ExperimentRunner
        from repro.memory import MemoryHierarchy
        from repro.pipeline.kernel import make_simulator

        art = ExperimentRunner(instruction_scale=0.05).artifacts("pointer")
        back = pickle.loads(pickle.dumps(art, pickle.HIGHEST_PROTOCOL))
        assert isinstance(back.warmup_trace, Trace)
        assert len(back.warmup_trace) > 0

        def simulate(a):
            return make_simulator(
                "reference", a.eval_trace, SPEAR_128, a.binary.table,
                MemoryHierarchy(latencies=SPEAR_128.latencies),
                warmup=a.warmup_trace).run()

        want, got = simulate(art), simulate(back)
        assert got.stats.snapshot() == want.stats.snapshot()
        assert got.memory == want.memory
        assert got.predictor == want.predictor
