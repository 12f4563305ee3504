"""Timing model fundamentals on hand-built synthetic traces."""

import pytest

from repro.core import BASELINE, MachineConfig
from repro.functional import Trace, TraceEntry
from repro.isa import OpClass
from repro.memory import LatencyConfig, MemoryHierarchy
from repro.pipeline import (KERNEL_BACKENDS, TimingSimulator, make_simulator,
                            simulate)

INT_ALU = int(OpClass.INT_ALU)
LOAD = int(OpClass.LOAD)
STORE = int(OpClass.STORE)
BRANCH = int(OpClass.BRANCH)
FP_MUL = int(OpClass.FP_MUL)


def alu(pc=0, srcs=(), dst=-1):
    return TraceEntry(pc, INT_ALU, tuple(srcs), dst, -1, False,
                      False, False, False, False)


def fmul(pc=0, srcs=(), dst=-1):
    return TraceEntry(pc, FP_MUL, tuple(srcs), dst, -1, False,
                      False, False, False, False)


def load(pc=0, addr=0, dst=1, srcs=()):
    return TraceEntry(pc, LOAD, tuple(srcs), dst, addr, False,
                      True, False, False, False)


def store(pc=0, addr=0, srcs=()):
    return TraceEntry(pc, STORE, tuple(srcs), -1, addr, False,
                      False, True, False, False)


def branch(pc=0, taken=False, srcs=()):
    return TraceEntry(pc, BRANCH, tuple(srcs), -1, -1, taken,
                      False, False, True, True)


def run(entries, config=BASELINE, **kw):
    return simulate(Trace(list(entries), program_name="synth"), config, **kw)


class TestThroughput:
    def test_independent_alus_reach_width(self):
        res = run([alu(pc=i % 7) for i in range(800)])
        # 8-wide machine, independent single-cycle ops: IPC near width,
        # bounded by the 4 integer ALUs.
        assert res.ipc > 3.5

    def test_serial_chain_is_one_per_cycle(self):
        entries = [alu(pc=0, dst=1)]
        entries += [alu(pc=1 + (i % 5), srcs=(1,), dst=1) for i in range(500)]
        res = run(entries)
        assert 0.8 < res.ipc <= 1.05

    def test_commit_in_order(self):
        res = run([alu(pc=i % 3, dst=-1) for i in range(100)])
        assert res.stats.committed == 100

    def test_empty_trace(self):
        res = run([])
        assert res.stats.cycles == 0 and res.ipc == 0.0

    def test_narrow_machine_limits(self):
        narrow = MachineConfig(name="narrow", fetch_width=2, decode_width=2,
                               issue_width=2, commit_width=2, extract_width=1)
        res = run([alu(pc=i % 7) for i in range(400)], narrow)
        assert res.ipc <= 2.01


class TestMemoryTiming:
    def test_load_miss_stalls_dependent(self):
        # load (cold DRAM miss, 120) -> dependent chain of 10
        entries = [load(pc=0, addr=0x1000, dst=1)]
        entries += [alu(pc=1, srcs=(1,), dst=1) for _ in range(10)]
        res = run(entries)
        assert res.stats.cycles > 120

    def test_warm_cache_is_fast(self):
        entries = [load(pc=0, addr=0x1000, dst=1)]
        entries += [alu(pc=1, srcs=(1,), dst=1) for _ in range(10)]
        mem = MemoryHierarchy(latencies=LatencyConfig())
        mem.warm(0x1000)
        mem.finish_warmup()
        res = TimingSimulator(Trace(entries), BASELINE, memory=mem).run()
        assert res.stats.cycles < 40

    def test_independent_misses_overlap(self):
        # 8 independent loads to distinct blocks: MLP -> ~1 miss latency
        entries = [load(pc=i, addr=0x1000 + 4096 * i, dst=i + 1)
                   for i in range(8)]
        res = run(entries)
        assert res.stats.cycles < 2 * 120

    def test_store_to_load_forwarding_dependence(self):
        # store to X, then load from X: load waits for the store
        entries = [alu(pc=0, dst=1),
                   store(pc=1, addr=0x100, srcs=(1,)),
                   load(pc=2, addr=0x100, dst=2),
                   alu(pc=3, srcs=(2,))]
        res = run(entries)
        assert res.stats.committed == 4

    def test_port_limit_bounds_load_rate(self):
        mem = MemoryHierarchy()
        for i in range(64):
            mem.warm(0x1000 + 32 * i)
        mem.finish_warmup()
        entries = [load(pc=i % 16, addr=0x1000 + 32 * (i % 64), dst=1)
                   for i in range(400)]
        res = TimingSimulator(Trace(entries), BASELINE, memory=mem).run()
        # 2 memory ports -> at most 2 loads per cycle
        assert res.ipc <= 2.05


class TestBranching:
    def test_predictable_loop_branch(self):
        entries = []
        for _ in range(200):
            entries.append(alu(pc=0))
            entries.append(branch(pc=1, taken=True))
        res = run(entries)
        assert res.stats.branch_hit_ratio > 0.95

    def test_random_branches_mispredict(self):
        import random
        rng = random.Random(3)
        entries = []
        for _ in range(400):
            entries.append(alu(pc=0, dst=1))
            entries.append(branch(pc=1, taken=rng.random() < 0.5, srcs=(1,)))
        res = run(entries)
        assert res.stats.mispredicts > 50
        assert res.stats.fetch_stall_mispredict > 0

    def test_mispredicts_cost_cycles(self):
        biased = []
        import random
        rng = random.Random(3)
        for _ in range(300):
            biased.append(alu(pc=0, dst=1))
            biased.append(branch(pc=1, taken=True, srcs=(1,)))
        noisy = []
        for _ in range(300):
            noisy.append(alu(pc=0, dst=1))
            noisy.append(branch(pc=1, taken=rng.random() < 0.5, srcs=(1,)))
        assert run(noisy).stats.cycles > run(biased).stats.cycles

    def test_wrong_path_modes_agree_on_commits(self):
        import random
        rng = random.Random(5)
        entries = []
        for _ in range(300):
            entries.append(alu(pc=0, dst=1))
            entries.append(branch(pc=1, taken=rng.random() < 0.7, srcs=(1,)))
        for mode in ("reconverge", "bubbles", "stall"):
            cfg = MachineConfig(name=mode, wrong_path=mode)
            res = run(entries, cfg)
            assert res.stats.committed == len(entries)


class TestLatencies:
    def test_fp_mul_longer_than_alu(self):
        chain_alu = [alu(pc=0, dst=1)] + \
            [alu(pc=1, srcs=(1,), dst=1) for _ in range(100)]
        chain_fp = [fmul(pc=0, dst=33)] + \
            [fmul(pc=1, srcs=(33,), dst=33) for _ in range(100)]
        assert run(chain_fp).stats.cycles > 3 * run(chain_alu).stats.cycles

    def test_latency_config_propagates(self):
        entries = [load(pc=i, addr=0x1000 + 4096 * i, dst=i + 1, srcs=())
                   for i in range(4)]
        entries += [alu(pc=10, srcs=(1, 2), dst=5),
                    alu(pc=11, srcs=(3, 4), dst=6)]
        slow = BASELINE.with_latencies(LatencyConfig(1, 20, 200))
        fast = BASELINE.with_latencies(LatencyConfig(1, 4, 40))
        assert run(entries, slow).stats.cycles > run(entries, fast).stats.cycles


class TestGuards:
    def test_max_cycles_raises(self):
        cfg = MachineConfig(name="tiny-budget", max_cycles=5)
        with pytest.raises(RuntimeError, match="max_cycles"):
            run([load(pc=0, addr=0x1000, dst=1)], cfg)

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_max_cycles_raises_at_bound(self, backend):
        # The load's DRAM fill completes far past the budget, so the
        # fast-forward kernel's horizon lands on max_cycles itself: it
        # must stop and raise there, never skip past the bound.
        cfg = MachineConfig(name="tiny-budget", max_cycles=5)
        sim = make_simulator(backend,
                             Trace([load(pc=0, addr=0x1000, dst=1)],
                                   program_name="synth"), cfg)
        with pytest.raises(RuntimeError, match="max_cycles"):
            sim.run()
        assert sim._cycle == cfg.max_cycles
        if backend == "fast-forward":
            assert sim.ff_jumps > 0    # it reached the bound by a jump

    def test_result_summary(self, gather_trace):
        res = simulate(gather_trace, BASELINE)
        s = res.summary()
        assert s["config"] == "baseline"
        assert s["committed"] == len(gather_trace)
        assert s["ipc"] == pytest.approx(res.ipc)
