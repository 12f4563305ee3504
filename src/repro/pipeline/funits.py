"""Functional-unit pools: the per-cycle issue budget per unit kind.

The paper's Table 2 machine has 4 integer ALUs + 1 integer MUL/DIV unit,
4 FP ALUs + 1 FP MUL/DIV unit, and 2 memory ports.  In the dedicated-
resource (`sf`) models of Figure 7 the p-thread gets its own identical
pool, "very similar to the Chip Multiprocessor architecture model".

All units are pipelined: a unit accepts one new operation per cycle
regardless of operation latency, so the pool is simply a per-cycle issue
budget per unit kind.
"""

from __future__ import annotations

from ..core.configs import FUConfig
from ..isa.opcodes import OpClass


class FUKind:
    """Indices into the per-cycle availability vector."""

    INT_ALU = 0
    INT_MULDIV = 1
    FP_ALU = 2
    FP_MULDIV = 3
    MEM_PORT = 4
    N_KINDS = 5


#: Operational class -> functional-unit kind.
FU_OF_CLASS: dict[int, int] = {
    int(OpClass.INT_ALU): FUKind.INT_ALU,
    int(OpClass.INT_MUL): FUKind.INT_MULDIV,
    int(OpClass.INT_DIV): FUKind.INT_MULDIV,
    int(OpClass.FP_ALU): FUKind.FP_ALU,
    int(OpClass.FP_MUL): FUKind.FP_MULDIV,
    int(OpClass.FP_DIV): FUKind.FP_MULDIV,
    int(OpClass.LOAD): FUKind.MEM_PORT,
    int(OpClass.STORE): FUKind.MEM_PORT,
    int(OpClass.BRANCH): FUKind.INT_ALU,
    int(OpClass.MISC): FUKind.INT_ALU,
}


#: :data:`FU_OF_CLASS` as a list indexed by op class (the issue stage's
#: per-instruction lookup).
FU_KIND_OF_CLASS: list[int] = [FU_OF_CLASS[c] for c in range(len(FU_OF_CLASS))]


class FUPool:
    """One thread-visible set of functional units.

    ``avail`` is this cycle's remaining issue budget per :class:`FUKind`;
    the issue stage refills it from ``capacity`` at the start of every
    issue cycle and claims a unit by decrementing its entry.
    """

    __slots__ = ("capacity", "avail")

    def __init__(self, config: FUConfig):
        self.capacity = (config.int_alu, config.int_muldiv, config.fp_alu,
                         config.fp_muldiv, config.mem_ports)
        self.avail = list(self.capacity)
