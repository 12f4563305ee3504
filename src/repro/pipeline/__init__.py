"""Cycle-level SMT timing model with SPEAR pre-execution hardware."""

from .dyninst import DynInstr, MAIN_THREAD, P_THREAD
from .fastforward import FastForwardSimulator
from .funits import FU_OF_CLASS, FUKind, FUPool
from .ifq import IFQSlot, InstructionFetchQueue
from .kernel import (DEFAULT_BACKEND, KERNEL_BACKENDS, KERNELS,
                     make_simulator, resolve_kernel)
from .smt import TimingSimulator, simulate, trace_flags
from .stats import PipelineResult, PipelineStats, SpearStats
from .sweep import BatchedSweepSimulator

__all__ = ["DynInstr", "MAIN_THREAD", "P_THREAD", "FU_OF_CLASS", "FUKind",
           "FUPool", "IFQSlot", "InstructionFetchQueue", "TimingSimulator",
           "FastForwardSimulator", "BatchedSweepSimulator",
           "KERNELS", "KERNEL_BACKENDS", "DEFAULT_BACKEND", "resolve_kernel",
           "make_simulator", "simulate", "trace_flags", "PipelineResult",
           "PipelineStats", "SpearStats"]
