"""The timing-kernel registry and the fast-forward diagnostics.

Backend *equivalence* (byte-identical results vs reference) lives in
``tests/properties/test_backends.py``; this module covers the registry
lookups and what the fast-forward kernel keeps out of its results.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import PThread, PThreadTable
from repro.core.configs import BASELINE, SPEAR_128
from repro.functional import run_program
from repro.memory import MemoryHierarchy
from repro.pipeline import (DEFAULT_BACKEND, FastForwardSimulator,
                            KERNEL_BACKENDS, KERNELS, TimingSimulator,
                            make_simulator, resolve_kernel)

from ..conftest import build_gather_program, gather_load_pcs


def gather_cell(iters=150):
    prog = build_gather_program(seed=3, iters=iters, n=1 << 12)
    idx_pc, gather_pc = gather_load_pcs(prog)
    table = PThreadTable()
    table.add(PThread(dload_pc=gather_pc,
                      slice_pcs=frozenset(range(idx_pc, gather_pc + 1)),
                      live_ins=(1, 2)))
    return run_program(prog, max_instructions=30_000), table


def build(backend, trace, config, table=None):
    return make_simulator(backend, trace, config, table,
                          MemoryHierarchy(latencies=config.latencies))


class TestRegistry:
    def test_known_backends(self):
        assert KERNELS["reference"] is TimingSimulator
        assert KERNELS["fast-forward"] is FastForwardSimulator
        assert set(KERNEL_BACKENDS) == set(KERNELS)
        assert DEFAULT_BACKEND == "reference"

    def test_resolve_default(self):
        assert resolve_kernel(None) is TimingSimulator
        assert resolve_kernel("fast-forward") is FastForwardSimulator

    def test_unknown_backend_is_an_error(self):
        with pytest.raises(ValueError, match="unknown timing-kernel"):
            resolve_kernel("warp-drive")
        with pytest.raises(ValueError, match="warp-drive"):
            make_simulator("warp-drive", None, BASELINE)


class TestFastForward:
    def test_fast_forward_diagnostics_stay_out_of_results(self):
        """The jump counters are observability only: the result object
        must not carry them (byte identity with reference)."""
        trace, table = gather_cell()
        sim = build("fast-forward", trace, SPEAR_128, table)
        result = sim.run()
        assert sim.ff_jumps > 0 and sim.ff_cycles_skipped > 0
        assert "ff_jumps" not in result.stats.snapshot()
        blob = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        assert b"ff_jumps" not in blob and b"ff_cycles_skipped" not in blob
