"""Architectural (functional) simulator for SPISA programs.

Executes a :class:`~repro.isa.Program` instruction-by-instruction with full
architectural semantics: 32 int + 32 fp registers, byte-addressed memory
with 8-byte words, two's-complement 64-bit integer arithmetic.

The simulator is the repository's ground truth: the SPEAR compiler profiles
with it and the timing model replays traces produced by it.  Each program
is decoded once, when the simulator is built, into a per-pc table of flat
``(opcode, rd, rs1, rs2, imm)`` int tuples; the interpreter loop
dispatches on those ints with one comparison chain ordered by how often
the evaluated workloads execute each opcode, and reads memory through
typed ``memoryview`` casts of the data buffer.  Trace entries come from
the program's :class:`~repro.functional.trace.EntryTable`: non-memory
instances share one immutable entry per ``(pc, taken)``, so only memory
instructions allocate per step.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from ..isa.opcodes import FP_BASE, Op, ZERO_REG
from ..isa.program import Program, WORD_SIZE
from .trace import EntryTable, Trace

_I64_MASK = (1 << 64) - 1
_I64_SIGN = 1 << 63
_I64_MAX = (1 << 63) - 1
_I64_MIN = -(1 << 63)
#: 2^63 as a float — the smallest magnitude at which CVTFI saturates.
_F_2P63 = float(1 << 63)
_NAN = float("nan")
_INF = float("inf")

#: Every opcode's value as a plain int, in :class:`Op` definition order;
#: :meth:`FunctionalSimulator.run` unpacks it into one local per opcode.
_OPCODES = tuple(int(op) for op in Op)
#: Shift-immediate opcodes: only the low six bits of ``imm`` matter.
_SHIFT_IMM_OPS = frozenset((int(Op.SLLI), int(Op.SRLI), int(Op.SRAI)))


def _wrap64(v: int) -> int:
    """Wrap a Python int to signed 64-bit two's complement."""
    v &= _I64_MASK
    return v - (1 << 64) if v & _I64_SIGN else v


class SimulationError(RuntimeError):
    """Raised on architectural faults (bad PC, unaligned/OOB access...)."""

    def __init__(self, message: str, pc: int = -1):
        super().__init__(f"pc={pc}: {message}" if pc >= 0 else message)
        self.pc = pc


def _decode(ins) -> tuple[int, int, int, int, int]:
    """One instruction's ``(opcode, rd, rs1, rs2, imm)`` decode tuple.

    Floating-point operands are rebased to ``fregs`` indices, shift
    amounts masked and ``li`` immediates wrapped.
    """
    op = int(ins.op)
    info = ins.info
    rd, rs1, rs2, imm = ins.rd, ins.rs1, ins.rs2, ins.imm
    if info.fp_dest or (info.is_store and info.fp_src):
        rd -= FP_BASE
    if info.fp_src and not info.is_mem:
        rs1 -= FP_BASE
        rs2 -= FP_BASE
    if op in _SHIFT_IMM_OPS:
        imm &= 63
    elif op == Op.LI:
        imm = _wrap64(imm)
    return op, rd, rs1, rs2, imm


class FunctionalSimulator:
    """Interprets SPISA programs and optionally records committed traces."""

    def __init__(self, program: Program):
        self.program = program
        self.instructions = instrs = program.instructions
        self._decoded = [_decode(ins) for ins in instrs]
        self._entries = EntryTable({
            pc: (int(ins.op_class), ins.srcs, ins.dst, ins.is_load,
                 ins.is_store, ins.is_branch, ins.is_conditional)
            for pc, ins in enumerate(instrs)})
        self.reset()

    def reset(self) -> None:
        """Reinitialize architectural state and reload data segments."""
        self.iregs: list[int] = [0] * 32
        self.fregs: list[float] = [0.0] * 32
        self.mem = self.program.build_memory()
        self.mem_words = self.mem.view(np.int64)
        self.mem_fwords = self.mem.view(np.float64)
        self.pc = 0
        self.halted = False
        self.instret = 0

    # -- architectural accessors (used by tests and tools) ---------------------

    def read_ireg(self, r: int) -> int:
        return self.iregs[r]

    def write_ireg(self, r: int, v: int) -> None:
        if r != ZERO_REG:
            self.iregs[r] = _wrap64(v)

    def read_freg(self, f: int) -> float:
        return self.fregs[f]

    def write_freg(self, f: int, v: float) -> None:
        self.fregs[f] = float(v)

    def read_word(self, addr: int) -> int:
        self._check_word(addr)
        return int(self.mem_words[addr >> 3])

    def read_fword(self, addr: int) -> float:
        self._check_word(addr)
        return float(self.mem_fwords[addr >> 3])

    def write_word(self, addr: int, value: int) -> None:
        self._check_word(addr)
        self.mem_words[addr >> 3] = _wrap64(value)

    def write_fword(self, addr: int, value: float) -> None:
        self._check_word(addr)
        self.mem_fwords[addr >> 3] = value

    def _check_word(self, addr: int) -> None:
        if addr % WORD_SIZE != 0:
            raise SimulationError(f"unaligned word access at {addr:#x}", self.pc)
        if not 0 <= addr < len(self.mem):
            raise SimulationError(f"out-of-bounds access at {addr:#x}", self.pc)

    # -- execution ---------------------------------------------------------------

    def run(self, max_instructions: int = 10_000_000, *,
            trace: bool = False) -> Trace:
        """Run until ``halt`` or the instruction limit.

        Returns the committed-path :class:`Trace` (empty entries list when
        ``trace=False``).
        """
        (ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,
         ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI, LI, MOV,
         MUL, DIV, REM, LW, SW, LB, SB, FLW, FSW,
         FADD, FSUB, FMUL, FDIV, FSQRT, FNEG, FABS, FMIN, FMAX,
         FLT, FLE, FEQ, CVTIF, CVTFI, FMOV,
         BEQ, BNE, BLT, BGE, BLTZ, BGEZ, BGTZ, BLEZ, J, JAL, JR, JALR,
         NOP, HALT) = _OPCODES
        I64_MIN = _I64_MIN
        I64_MAX = _I64_MAX
        I64_MASK = _I64_MASK
        wrap64 = _wrap64

        entries: list = []
        # Untraced runs still build memory entries; a zero-length deque
        # drops them as they come.
        append = entries.append if trace else deque(maxlen=0).append
        table = self._entries
        fallthrough = table.fallthrough
        taken_entry = table.taken
        memory_entry = table.memory
        decoded = self._decoded
        text_size = len(decoded)
        iregs = self.iregs
        fregs = self.fregs
        mem_bytes = memoryview(self.mem)
        mem_words = mem_bytes.cast("q")
        mem_fwords = mem_bytes.cast("d")
        mem_len = len(mem_bytes)
        pc = self.pc
        executed = 0

        while executed < max_instructions:
            if not 0 <= pc < text_size:
                raise SimulationError("pc outside text segment", pc)
            op, rd, rs1, rs2, imm = decoded[pc]
            executed += 1
            # The zero register is architecturally immutable: whatever
            # the previous instruction wrote to it is discarded here (and
            # once more after the loop).
            iregs[0] = 0

            if op == ADD:
                v = iregs[rs1] + iregs[rs2]
                iregs[rd] = v if I64_MIN <= v <= I64_MAX else wrap64(v)
            elif op == LW:
                addr = iregs[rs1] + imm
                if addr & 7 or not 0 <= addr < mem_len:
                    raise SimulationError(f"bad load address {addr:#x}", pc)
                iregs[rd] = mem_words[addr >> 3]
                append(memory_entry[pc](addr))
                pc += 1
                continue
            elif op == ADDI:
                v = iregs[rs1] + imm
                iregs[rd] = v if I64_MIN <= v <= I64_MAX else wrap64(v)
            elif op == SLLI:
                v = iregs[rs1] << imm
                iregs[rd] = v if I64_MIN <= v <= I64_MAX else wrap64(v)
            elif op == ANDI:
                iregs[rd] = iregs[rs1] & imm
            elif op == FLW:
                addr = iregs[rs1] + imm
                if addr & 7 or not 0 <= addr < mem_len:
                    raise SimulationError(f"bad load address {addr:#x}", pc)
                fregs[rd] = mem_fwords[addr >> 3]
                append(memory_entry[pc](addr))
                pc += 1
                continue
            elif op == BGTZ:
                if iregs[rs1] > 0:
                    append(taken_entry[pc])
                    pc = imm
                    continue
            elif op == FMUL:
                fregs[rd] = fregs[rs1] * fregs[rs2]
            elif op == SRAI:
                iregs[rd] = iregs[rs1] >> imm
            elif op == FADD:
                fregs[rd] = fregs[rs1] + fregs[rs2]
            elif op == XOR:
                iregs[rd] = iregs[rs1] ^ iregs[rs2]
            elif op == AND:
                iregs[rd] = iregs[rs1] & iregs[rs2]
            elif op == BLT:
                if iregs[rs1] < iregs[rs2]:
                    append(taken_entry[pc])
                    pc = imm
                    continue
            elif op == SUB:
                v = iregs[rs1] - iregs[rs2]
                iregs[rd] = v if I64_MIN <= v <= I64_MAX else wrap64(v)
            elif op == MUL:
                v = iregs[rs1] * iregs[rs2]
                iregs[rd] = v if I64_MIN <= v <= I64_MAX else wrap64(v)
            elif op == BNE:
                if iregs[rs1] != iregs[rs2]:
                    append(taken_entry[pc])
                    pc = imm
                    continue
            elif op == SW:
                addr = iregs[rs1] + imm
                if addr & 7 or not 0 <= addr < mem_len:
                    raise SimulationError(f"bad store address {addr:#x}", pc)
                mem_words[addr >> 3] = iregs[rd]
                append(memory_entry[pc](addr))
                pc += 1
                continue
            elif op == BEQ:
                if iregs[rs1] == iregs[rs2]:
                    append(taken_entry[pc])
                    pc = imm
                    continue
            elif op == LI:
                iregs[rd] = imm
            elif op == MOV:
                iregs[rd] = iregs[rs1]
            elif op == FSUB:
                fregs[rd] = fregs[rs1] - fregs[rs2]
            elif op == BGE:
                if iregs[rs1] >= iregs[rs2]:
                    append(taken_entry[pc])
                    pc = imm
                    continue
            elif op == SRLI:
                # Logical shifts must land back in canonical signed form:
                # a zero-distance shift of a negative value would otherwise
                # leave an unsigned >= 2^63 in the register file, corrupting
                # every later signed comparison (and overflowing SW).
                v = (iregs[rs1] & I64_MASK) >> imm
                iregs[rd] = v if v <= I64_MAX else wrap64(v)
            elif op == FSW:
                addr = iregs[rs1] + imm
                if addr & 7 or not 0 <= addr < mem_len:
                    raise SimulationError(f"bad store address {addr:#x}", pc)
                mem_fwords[addr >> 3] = fregs[rd]
                append(memory_entry[pc](addr))
                pc += 1
                continue
            elif op == OR:
                iregs[rd] = iregs[rs1] | iregs[rs2]
            elif op == REM:
                # RISC-V M semantics: sign follows the dividend, x%0 == x
                # and INT64_MIN % -1 == 0.
                a = iregs[rs1]
                d = iregs[rs2]
                if d == 0:
                    iregs[rd] = a
                else:
                    q = abs(a) // abs(d)
                    if (a < 0) != (d < 0):
                        q = -q
                    iregs[rd] = wrap64(a - q * d)
            elif op == DIV:
                # RISC-V M semantics: truncated division, x/0 == -1 and
                # INT64_MIN / -1 wraps to INT64_MIN (no trap, no float
                # round-trip — exact for full-width operands).
                a = iregs[rs1]
                d = iregs[rs2]
                if d == 0:
                    iregs[rd] = -1
                else:
                    q = abs(a) // abs(d)
                    iregs[rd] = wrap64(-q if (a < 0) != (d < 0) else q)
            elif op == CVTIF:
                fregs[rd] = float(iregs[rs1])
            elif op == CVTFI:
                # RISC-V FCVT.L.D: truncate toward zero, saturate out-of-
                # range values, NaN -> INT64_MAX (never raises).
                v = fregs[rs1]
                if v != v:
                    iregs[rd] = I64_MAX
                elif v >= _F_2P63:
                    iregs[rd] = I64_MAX
                elif v <= -_F_2P63:
                    iregs[rd] = I64_MIN
                else:
                    iregs[rd] = int(v)
            elif op == J:
                append(taken_entry[pc])
                pc = imm
                continue
            elif op == BGEZ:
                if iregs[rs1] >= 0:
                    append(taken_entry[pc])
                    pc = imm
                    continue
            elif op == BLTZ:
                if iregs[rs1] < 0:
                    append(taken_entry[pc])
                    pc = imm
                    continue
            elif op == BLEZ:
                if iregs[rs1] <= 0:
                    append(taken_entry[pc])
                    pc = imm
                    continue
            elif op == XORI:
                v = iregs[rs1] ^ imm
                iregs[rd] = v if I64_MIN <= v <= I64_MAX else wrap64(v)
            elif op == ORI:
                v = iregs[rs1] | imm
                iregs[rd] = v if I64_MIN <= v <= I64_MAX else wrap64(v)
            elif op == SLTI:
                iregs[rd] = 1 if iregs[rs1] < imm else 0
            elif op == SLT:
                iregs[rd] = 1 if iregs[rs1] < iregs[rs2] else 0
            elif op == SLTU:
                iregs[rd] = 1 if (iregs[rs1] & I64_MASK) < (iregs[rs2] & I64_MASK) else 0
            elif op == SLL:
                v = iregs[rs1] << (iregs[rs2] & 63)
                iregs[rd] = v if I64_MIN <= v <= I64_MAX else wrap64(v)
            elif op == SRL:
                v = (iregs[rs1] & I64_MASK) >> (iregs[rs2] & 63)
                iregs[rd] = v if v <= I64_MAX else wrap64(v)
            elif op == SRA:
                iregs[rd] = iregs[rs1] >> (iregs[rs2] & 63)
            elif op == LB:
                addr = iregs[rs1] + imm
                if not 0 <= addr < mem_len:
                    raise SimulationError(f"bad load address {addr:#x}", pc)
                b = mem_bytes[addr]
                iregs[rd] = b - 256 if b >= 128 else b
                append(memory_entry[pc](addr))
                pc += 1
                continue
            elif op == SB:
                addr = iregs[rs1] + imm
                if not 0 <= addr < mem_len:
                    raise SimulationError(f"bad store address {addr:#x}", pc)
                mem_bytes[addr] = iregs[rd] & 0xFF
                append(memory_entry[pc](addr))
                pc += 1
                continue
            elif op == FMOV:
                fregs[rd] = fregs[rs1]
            elif op == FDIV:
                # IEEE 754 default (non-trapping) semantics: x/±0 -> ±inf,
                # ±0/±0 and NaN operands -> NaN.
                a = fregs[rs1]
                d = fregs[rs2]
                if d == 0.0:
                    if a == 0.0 or a != a:
                        fregs[rd] = _NAN
                    else:
                        fregs[rd] = (math.copysign(_INF, a)
                                     * math.copysign(1.0, d))
                else:
                    fregs[rd] = a / d
            elif op == FSQRT:
                # IEEE 754: sqrt of a negative value is NaN, not a trap.
                v = fregs[rs1]
                fregs[rd] = _NAN if v < 0.0 else v ** 0.5
            elif op == FNEG:
                fregs[rd] = -fregs[rs1]
            elif op == FABS:
                fregs[rd] = abs(fregs[rs1])
            elif op == FMIN:
                fregs[rd] = min(fregs[rs1], fregs[rs2])
            elif op == FMAX:
                fregs[rd] = max(fregs[rs1], fregs[rs2])
            elif op == FLT:
                iregs[rd] = 1 if fregs[rs1] < fregs[rs2] else 0
            elif op == FLE:
                iregs[rd] = 1 if fregs[rs1] <= fregs[rs2] else 0
            elif op == FEQ:
                iregs[rd] = 1 if fregs[rs1] == fregs[rs2] else 0
            elif op == JAL:
                iregs[rd] = pc + 1
                append(taken_entry[pc])
                pc = imm
                continue
            elif op == JR:
                append(taken_entry[pc])
                pc = iregs[rs1]
                continue
            elif op == JALR:
                append(taken_entry[pc])
                next_pc = iregs[rs1]
                iregs[rd] = pc + 1
                pc = next_pc
                continue
            elif op == NOP:
                pass
            elif op == HALT:
                self.halted = True
                break
            else:  # pragma: no cover - every opcode is handled above
                raise SimulationError(f"unimplemented opcode {Op(op).name}", pc)

            append(fallthrough[pc])
            pc += 1

        iregs[0] = 0
        self.pc = pc
        self.instret += executed
        return Trace(entries, program_name=self.program.name,
                     halted=self.halted)


def run_program(program: Program, max_instructions: int = 10_000_000,
                *, trace: bool = True) -> Trace:
    """Convenience wrapper: execute ``program`` and return its trace."""
    return FunctionalSimulator(program).run(max_instructions, trace=trace)
