"""Committed-path execution traces.

The functional simulator emits one :class:`TraceEntry` per architecturally
executed instruction.  Traces are the interchange format between the
functional layer and both consumers:

* the **profiler** (`repro.compiler.profiler`) replays a trace against a
  cache model to find delinquent loads and dynamic dependence edges;
* the **timing model** (`repro.pipeline`) replays a trace through the
  cycle-level SMT pipeline — the oracle-trace substitution documented in
  DESIGN.md §2.

Traces pickle columnar (:meth:`Trace.__reduce__`): one static record per
pc plus flat ``pc``/``addr``/``taken`` columns, instead of one pickled
object per dynamic instruction.  This is the bulk of every cached
workload artifact, so it sets the cost of writing and reading one.
"""

from __future__ import annotations

from array import array

from ..isa.opcodes import OpClass


class TraceEntry:
    """One dynamic instruction on the committed path.

    Attributes are deliberately flat scalars/tuples — this object is
    allocated once per simulated instruction and read many times in the
    timing model's inner loop.  Entries are never mutated after
    construction and never compared by identity: unpickled traces share
    them (see :class:`Trace`).
    """

    __slots__ = ("pc", "op_class", "srcs", "dst", "addr", "taken",
                 "is_load", "is_store", "is_branch", "is_cond")

    def __init__(self, pc: int, op_class: int, srcs: tuple, dst: int,
                 addr: int, taken: bool, is_load: bool, is_store: bool,
                 is_branch: bool, is_cond: bool):
        self.pc = pc
        self.op_class = op_class
        self.srcs = srcs
        self.dst = dst
        #: Byte address touched, or -1 for non-memory instructions.
        self.addr = addr
        self.taken = taken
        self.is_load = is_load
        self.is_store = is_store
        self.is_branch = is_branch
        self.is_cond = is_cond

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = ("L" if self.is_load else "S" if self.is_store else
                "B" if self.is_branch else ".")
        return f"<T pc={self.pc} {OpClass(self.op_class).name} {kind} addr={self.addr}>"


class Trace:
    """A complete committed-path trace plus summary statistics.

    Every entry at one pc carries that instruction's static fields
    (``op_class``, ``srcs``, ``dst`` and the kind flags); only ``addr``
    and ``taken`` vary between its dynamic instances.  The columnar
    pickle relies on it, and an unpickled trace shares one
    :class:`TraceEntry` object among the instances of a non-memory
    instruction with the same branch outcome — safe because entries are
    immutable.
    """

    __slots__ = ("entries", "program_name", "halted", "instret")

    def __init__(self, entries: list[TraceEntry], *, program_name: str = "",
                 halted: bool = True):
        self.entries = entries
        self.program_name = program_name
        #: True when execution reached ``halt`` (vs. hitting the run limit).
        self.halted = halted
        self.instret = len(entries)

    def __reduce__(self):
        entries = self.entries
        statics = {}
        for e in entries:
            if e.pc not in statics:
                statics[e.pc] = (e.op_class, e.srcs, e.dst, e.is_load,
                                 e.is_store, e.is_branch, e.is_cond)
        return (_load_trace,
                (self.program_name, self.halted, statics,
                 array("q", [e.pc for e in entries]),
                 array("q", [e.addr for e in entries]),
                 bytes([e.taken for e in entries])))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    # -- summary statistics --------------------------------------------------

    def count_loads(self) -> int:
        return sum(1 for e in self.entries if e.is_load)

    def count_stores(self) -> int:
        return sum(1 for e in self.entries if e.is_store)

    def count_branches(self, conditional_only: bool = False) -> int:
        if conditional_only:
            return sum(1 for e in self.entries if e.is_cond)
        return sum(1 for e in self.entries if e.is_branch)

    def instructions_per_branch(self) -> float:
        """IPB as reported in the paper's Table 3."""
        nb = self.count_branches(conditional_only=True)
        return len(self.entries) / nb if nb else float("inf")

    def load_fraction(self) -> float:
        return self.count_loads() / len(self.entries) if self.entries else 0.0


def _load_trace(program_name: str, halted: bool, statics: dict,
                pcs: array, addrs: array, taken: bytes) -> Trace:
    """Rebuild a :class:`Trace` from its columnar pickle.

    A non-memory entry (``addr == -1``) is fully determined by its pc and
    branch outcome, so each such ``(pc, taken)`` pair gets one shared
    :class:`TraceEntry`; memory entries are rebuilt one per instance.
    """
    shared: dict = {}
    entries = []
    append = entries.append
    for pc, addr, tk in zip(pcs, addrs, taken):
        tk = bool(tk)
        if addr == -1:
            entry = shared.get((pc, tk))
            if entry is None:
                op, srcs, dst, ld, st, br, cond = statics[pc]
                entry = shared[pc, tk] = TraceEntry(
                    pc, op, srcs, dst, -1, tk, ld, st, br, cond)
        else:
            op, srcs, dst, ld, st, br, cond = statics[pc]
            entry = TraceEntry(pc, op, srcs, dst, addr, tk, ld, st, br, cond)
        append(entry)
    return Trace(entries, program_name=program_name, halted=halted)
