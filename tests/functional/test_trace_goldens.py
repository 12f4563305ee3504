"""Golden digests of the functional simulator's traces and final state.

Each digest is one sha256 over a run's trace columns (pc, addr, taken),
the static record of every pc the trace touches, ``halted``, the final
integer and floating-point registers (as raw bit patterns, so NaNs
compare) and the memory bytes.  The digests were captured with the
interpreter that predates the pre-decoded dispatch table, so any change
to an opcode's semantics, a fault path or the way trace entries are
built fails here by workload name.
"""

from __future__ import annotations

import hashlib
import pickle
from array import array

import pytest

from repro.core.configs import SPEAR_128
from repro.functional import FunctionalSimulator
from repro.fuzz.generator import FuzzWorkload
from repro.harness.experiments import EVAL_WORKLOADS
from repro.harness.runner import ExperimentRunner
from repro.isa import Op, assemble
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.kernel import make_simulator
from repro.workloads.base import get_workload

SCALE = 0.1


def run_digest(sim: FunctionalSimulator, trace) -> str:
    """sha256 over a finished run's trace and architectural state."""
    entries = trace.entries
    statics = {}
    for e in entries:
        if e.pc not in statics:
            statics[e.pc] = (e.op_class, e.srcs, e.dst, e.is_load,
                             e.is_store, e.is_branch, e.is_cond)
    h = hashlib.sha256()
    h.update(array("q", [e.pc for e in entries]).tobytes())
    h.update(array("q", [e.addr for e in entries]).tobytes())
    h.update(bytes([e.taken for e in entries]))
    h.update(repr(sorted(statics.items())).encode())
    h.update(b"halted" if trace.halted else b"limit")
    h.update(array("q", sim.iregs).tobytes())
    h.update(array("d", sim.fregs).tobytes())
    h.update(sim.mem.tobytes())
    return h.hexdigest()


def profile_digest(name: str, scale: float) -> str:
    """Digest of the compiler's profiling run of one workload."""
    w = get_workload(name)
    sim = FunctionalSimulator(w.program("train"))
    trace = sim.run(int(w.profile_instructions * scale), trace=True)
    return run_digest(sim, trace)


def eval_digest(name: str, scale: float) -> str:
    """Digest of the runner's warmup+eval trace of one workload."""
    w = get_workload(name)
    sim = FunctionalSimulator(w.program("eval"))
    trace = sim.run(int(w.warmup_instructions * scale)
                    + int(w.eval_instructions * scale), trace=True)
    return run_digest(sim, trace)


def fuzz_digest(seed: int, index: int) -> str:
    w = FuzzWorkload(seed, index)
    sim = FunctionalSimulator(w.program("eval"))
    return run_digest(sim, sim.run(w.eval_instructions, trace=True))


#: Executes every opcode exactly once (checked below) and halts.
EVERY_OP = """
.data 0x100
.word 11 6 -22 0 0 0
.data 0x200
.float 2.5 0.0
li r1, 0x100
lw r2, 0(r1)
lb r4, 8(r1)
add r5, r2, r4
sub r6, r4, r2
and r7, r5, r6
or r8, r5, r6
xor r9, r5, r6
mov r10, r4
sll r11, r6, r10
srl r12, r6, r10
sra r13, r6, r10
slt r14, r6, r5
sltu r15, r6, r5
andi r16, r6, 255
ori r17, r6, 16
xori r18, r6, -1
slli r19, r6, 62
srli r20, r6, 1
srai r21, r6, 1
slti r22, r6, 0
mul r23, r5, r6
div r24, r5, r6
rem r25, r5, r6
sw r25, 24(r1)
sb r6, 32(r1)
cvtif f1, r6
flw f2, 256(r1)
fadd f4, f2, f1
fsub f5, f2, f1
fmul f6, f2, f1
fdiv f7, f2, f1
fsqrt f8, f2
fneg f9, f2
fabs f10, f1
fmin f11, f2, f1
fmax f12, f2, f1
fmov f13, f7
fsw f13, 264(r1)
flt r26, f2, f1
fle r27, f1, f2
feq r28, f2, f2
cvtfi r3, f6
beq r2, r2, l1
li r30, 1
l1:
bne r2, r2, l2
l2:
blt r6, r5, l3
li r30, 5
l3:
nop
bge r6, r5, l4
l4:
bltz r6, l5
li r30, 2
l5:
bgez r6, l6
l6:
bgtz r5, l7
li r30, 3
l7:
blez r5, l8
l8:
jal sub
j after
sub:
jr r31
after:
addi r29, r31, 5
jalr r29
li r30, 4
halt
"""

GOLDEN_WORKLOADS = {
    # name: (profile digest, eval+warmup digest), scale 0.1
    "pointer": (
        "4b69c903ac6b7e8b14ba19b745fd81ef2c126bd3664d76dfac2e50fdd73591d4",
        "54aa0e34ff737c3503a69b50d3fea7e9856a9523f7da2c2a047f6aee86f20e9c"),
    "update": (
        "9d8f4e76f91547d92c6da6c988bdfd1968d86d6b5332e6c3f6a431284f1202dc",
        "ceb2370911f3f89258ad0fa3f2bde5b7a87012adb60df5ca714fff2e0d853144"),
    "nbh": (
        "64e8ab041d245c9097367cb15ee9d9d488640f90e03d3121c392ae6124327282",
        "238ec2e330ded55fd4918c80bc6bd66f965b12b4b21ae922e550916d10842e6d"),
    "tr": (
        "e6d444d151c8d7bc9e1150ce577e8ec094afbc2b3a53bd45a43b7d53e127890b",
        "00b4f9a2f5d475f63c64d21215ac59925a167d5a10ddf94acd2ae758cd483ab0"),
    "matrix": (
        "2468040f412e4dcb7f04ba62325f846975e0e832c1558304775da7d688b2d647",
        "97b304cc7c5586b3b0fe7802be93f6bc6caab524581f703ef392c7aca49e95f0"),
    "field": (
        "2af74fd80fc1ec082840ee4147a3330d2908e0f9a728b551ec13ab095c52dc51",
        "447094b05b42c09cc5d16bde26de4adc32ba988cc7b6eec7d021df1901bf4538"),
    "dm": (
        "b3bbf9eb074e0b7e4dff1521ebdd55e35a5d015cae9917505f63671940feb468",
        "c470b5cbbf76b2a406b0f17859dbdc8fa01c858476bb483038042d6ec63b71ee"),
    "ray": (
        "08b1dc77dbc35070965caade4ead1a4542d66bb9d5b030d9bda156df3964b894",
        "ea27f83af07e97fc317e08c149bb87a469674c0b34a471dae53861e019695a8f"),
    "fft": (
        "a9146332a68301d46d490a37d08faeac8b84fa1da3c053074f91f267bdb5287c",
        "6e9632e0e837f8398117b4309f101311c838a42be59bd92ec99ee63a75c7c86a"),
    "gzip": (
        "aefa4f810631ab0cccf621d8da78b77cbf7ba0a245c29564003f4d1016c66f58",
        "f4384c5d792a82a0158fe4d03fa6516f1740d39e01b26b6ec4bc50cfce6bd21b"),
    "mcf": (
        "37d99a952ee7bf9c2dd13b6113b0728cf22a61f794ec9fa3bb787e77ea0ea003",
        "5b50c2f2a9382e654e33b0f74dec60ce26519ca5f2bc94e4a2e8ae4eb83984ac"),
    "vpr": (
        "16a52db69b56d8ac9021f72a35c1b515ac85301f41ed527a396a7c2361e508a4",
        "5cda7426908df16d36d7ca2aa6d33f58bb1c230de1a1487b837a10b92f815107"),
    "bzip2": (
        "e5b8ff0b4fa5adbdb95b8919fcf0e71fe25b9ab27d1363fa51d2b993b8be5f35",
        "df27789038d0eee6d0176b8b357519c81f6423f9188dbbee890915e27b55e380"),
    "equake": (
        "07ea5f5f827bbe757f82ea5e5c07900de3a46244db135709a4c1731fb979f7c8",
        "613337bbca0101f3ba0f09e087f0b4179ae0d82507c9e3dabe85343964aef847"),
    "art": (
        "3a00c5f8e75e1abb32a300b9bcbfd0ba000a63af04069ac536d15694b051bcc9",
        "a113999a3125636a8434bea3f53dbb4dc94dcebebc2f165185efabd1154c93d1"),
}

#: Eval+warmup digests at scale 1.0; CI checks them (too slow for tier-1).
GOLDEN_EVAL_SCALE_1 = {
    "pointer":
        "4173e9d6086197f8df3352849ffedde284f18dd5617e5613aa5ea6a0d8904cad",
    "update":
        "241d076bef6e9517ba0c5b69ae072d4d248c62d952696e32dc62b94a7beb4289",
    "nbh":
        "05ef487ca2636d2441907d4aa09dcd9ab04b7c9e98b43d04698247446b4385cd",
    "tr":
        "bfb32dd9dfdb021afef58d417c681aa5b071a597c276eab86b1a05aeb7a7ab2d",
    "matrix":
        "fd1dfd3ff66f35cb942e77589d5549d3ca1c19f1968ebdd636231d7941d800b7",
    "field":
        "9645c5e1eae4ad57c6e8a4ffadb30fe1db6348dc0db24d086ff0524615eb95f4",
    "dm":
        "3aa5816ee309ab5a1c5e01928e6cb11968e49464f71c72dd02ae80345c0eb707",
    "ray":
        "92c78845f1d0bebf61ccda5ad1669f7302f0a8e4afe69a17348c1ba0cd787f44",
    "fft":
        "2a76a7122e975c906ad686f10822773bc5a7d79fd705b38e5d58d5dfa923ff78",
    "gzip":
        "ac57802d5faef17fb9943abc94d9b3dcc7c5c3699edd4bd269963cf8c6fcf06d",
    "mcf":
        "b8a8de85428e61e17427e8f0f83d76c0e48650a3a2c822508204494a0ffefb8a",
    "vpr":
        "ad4c501937dccafb5215f6e036398c2c9b6141312adfc259dbe2bf94a198c4ef",
    "bzip2":
        "63b33f720d6bdab2ca09657e0b88c2ca0797ccd7d13fdad2dcb016ca38a16ac7",
    "equake":
        "2316ac77a4ca17b675ef9296a5ff6d06756e5bbd95c94d1281fea60831db7952",
    "art":
        "d4b8df57b790a7b730fb5086a714d2ce37babb2f43e682c6b2e76d5c8e25e744",
}

GOLDEN_FUZZ = {
    # (campaign seed, index): eval digest
    (1, 0): "d15e4a9dcdabdc8bb0ded6072d333bb5fe4dfabb1cefc3edfb7d203e91dacd86",
    (1, 1): "f4858d8c33f13d418d52897fbab9fabf0b880fab252ef4c9c562c561377473ef",
    (2, 2): "26ae1ab250e0e315403441a339a750975819f154c553a5b9f763db466975d23f",
    (3, 3): "d5175c678c0ac0f38728a5ba5ac35f84dbe36c1526291b8124277a5975cc3c8a",
    (5, 4): "1947a6821431b2014e98af464811fc0432163c47253357ded35bdab0f4acef29",
    (7, 5): "57c49926ccd836b6a56ee80a805b541f64f554f1a9046c450c4ba605ac484394",
    (11, 6): "8d3411019ea13b2d6f5d39913926684de724af9bbabda074a7bd79a7a325e4f0",
    (13, 7): "c0c06ae416bf175589c3a43c3caffbd9dce05e7756b83c70735d3c334e9b2369",
    (17, 8): "065f127a34b671b357b928f2a403ef5d907435b824849f93c35f49bdcc83afb6",
    (19, 9): "42b0e1b135ad3c1666f8f695b8dc1f2dcbef990ee22ac45a1e9671a5be614600",
}

GOLDEN_EVERY_OP = (
    "4ab8e9c664a35aa4b0854e60c28abb5f40d81d7dce387d68a2ec9e83b63cfa34")


@pytest.mark.parametrize("name", EVAL_WORKLOADS)
def test_workload_trace_digests(name):
    assert (profile_digest(name, SCALE),
            eval_digest(name, SCALE)) == GOLDEN_WORKLOADS[name]


@pytest.mark.parametrize("seed,index", sorted(GOLDEN_FUZZ))
def test_fuzz_trace_digests(seed, index):
    assert fuzz_digest(seed, index) == GOLDEN_FUZZ[seed, index]


def test_every_opcode_executes():
    program = assemble(EVERY_OP)
    sim = FunctionalSimulator(program)
    trace = sim.run(1000, trace=True)
    assert sim.halted
    # ``halt`` stops the run without a trace entry of its own.
    executed = [program.instructions[e.pc].op for e in trace] + [Op.HALT]
    assert sorted(executed) == sorted(Op)
    assert run_digest(sim, trace) == GOLDEN_EVERY_OP


def test_pickled_trace_simulates_identically():
    """A trace straight from the interpreter and its columnar pickle
    round trip drive the timing kernel to byte-identical results."""
    art = ExperimentRunner(instruction_scale=0.05).artifacts("mcf")

    def simulate(eval_trace, warmup):
        return make_simulator("reference", eval_trace, SPEAR_128,
                              art.binary.table, MemoryHierarchy(),
                              warmup=warmup).run()

    def round_trip(trace):
        return pickle.loads(pickle.dumps(trace))

    assert art.binary.table
    direct = simulate(art.eval_trace, art.warmup_trace)
    loaded = simulate(round_trip(art.eval_trace),
                      round_trip(art.warmup_trace))
    assert pickle.dumps(direct) == pickle.dumps(loaded)
