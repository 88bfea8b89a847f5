"""Compiled backend: only leaders compile, and constant addresses are
checked at code-generation time.

Every behavioural check runs the same program on the interpreter, the
reference, and asserts the compiled run is indistinguishable from it.
"""

from __future__ import annotations

import pytest

from repro.analysis import cfg
from repro.checkpoint.snapshot import restore
from repro.fuzz.observe import observe
from repro.fuzz.oracles import EagerCompiledCPU
from repro.isa import Instr, Op, Program
from repro.isa.layout import STACK_LIMIT, STACK_TOP
from repro.isa.program import leaders
from repro.isa.registers import SP
from repro.machine import CompiledCPU, Process
from repro.machine.cluster import Cluster
from repro.machine.compiled import _block_image, block_source
from repro.machine.signals import Trap

#: The segment map of a program with no data: the stack alone.
RANGES = ((STACK_LIMIT, STACK_TOP),)


def _program_of(instrs) -> Program:
    return Program(instrs=instrs, functions={"main": 0})


def _source(instrs) -> str:
    return block_source(instrs, 0, len(instrs), RANGES)[0]


def _image(process: Process):
    cpu = process.cpu
    return _block_image(cpu._program, type(cpu), tuple(process.memory._ranges))


def _checked(source: str, pc: int, mode: str = "read") -> bool:
    """Whether the access at *pc* kept the full inline check."""
    lines = source.splitlines()
    trap = f"        raise _mem_trap(RANGES, I, {pc}, a, {mode!r})"
    return any(
        line == trap and lines[i - 1].startswith("    if a & 7 or not (")
        for i, line in enumerate(lines)
    )


def test_leader_rule_has_one_definition():
    assert cfg.leaders is leaders


# -- folding: what the generator emits ----------------------------------------


def test_folded_in_range_access_emits_no_check():
    source = _source([
        Instr(Op.MOVI, rd=1, imm=STACK_TOP - 16),
        Instr(Op.MOV, rd=5, ra=1),
        Instr(Op.LD, rd=2, ra=5, imm=8),
        Instr(Op.FST, rd=0, ra=1),
        Instr(Op.HALT),
    ])
    assert "_mem_trap" not in source
    assert f"a = {STACK_TOP - 8}\n" in source
    assert f"a = {STACK_TOP - 16}\n" in source


def test_folded_indexed_access_checks_only_the_segment():
    ranges = ((0x1_0000, 0x1_0040), (STACK_LIMIT, STACK_TOP))
    source = block_source(
        [
            Instr(Op.MOVI, rd=1, imm=0x1_0000),
            Instr(Op.LDX, rd=2, ra=1, rb=3),
            Instr(Op.HALT),
        ],
        0, 3, ranges,
    )[0]
    # The data segment (the base's) is compared first, alignment never.
    assert (
        f"    if not (65536 <= a < 65600 or {STACK_LIMIT} <= a < {STACK_TOP}):"
        in source
    )
    assert "a & 7" not in source
    assert "a = R[3] * 8 + 65536\n" in source


def test_zero_offsets_add_no_term():
    source = _source([
        Instr(Op.LD, rd=2, ra=1),
        Instr(Op.STX, rd=2, ra=1, rb=3),
        Instr(Op.HALT),
    ])
    assert "a = R[1]\n" in source
    assert "a = R[1] + R[3] * 8\n" in source
    assert "+ 0" not in source


#: name -> instructions between ``MOVI r1 / MOVI sp`` and the access
#: ``LD r2, [base]`` at pc 3, each of which makes the base unknown.
_REDEFINED = {
    "addi": (1, [Instr(Op.ADDI, rd=1, ra=1, imm=8), Instr(Op.NOP)]),
    "ld-into-base": (1, [
        Instr(Op.MOVI, rd=4, imm=STACK_TOP - 8),
        Instr(Op.LD, rd=1, ra=4),
    ]),
    "pop-into-base": (1, [Instr(Op.PUSH, ra=SP), Instr(Op.POP, rd=1)]),
    "pop-moves-sp": (SP, [Instr(Op.NOP), Instr(Op.POP, rd=3)]),
    "push-moves-sp": (SP, [Instr(Op.NOP), Instr(Op.PUSH, ra=3)]),
}


@pytest.mark.parametrize("case", sorted(_REDEFINED))
def test_redefined_base_is_not_folded(case):
    base, between = _REDEFINED[case]
    instrs = [
        Instr(Op.MOVI, rd=base, imm=STACK_TOP - 64),
        *between,
        Instr(Op.LD, rd=2, ra=base),
        Instr(Op.OUT, ra=2),
        Instr(Op.HALT),
    ]
    assert _checked(_source(instrs), 3)
    program = _program_of(instrs)
    process = Process.load(program, backend=EagerCompiledCPU)
    reference = Process.load(program, backend="interpreter")
    process.run(16)
    reference.run(16)
    assert observe(process) == observe(reference)
    assert process.cpu._code[0] is not None


# -- folding: traps decided at code-generation time ---------------------------

#: kind -> (base, offset, index): every access reaches ``base + index * 8
#: + offset`` (a direct one through the offset alone).
_ADDRESSES = {
    "unmapped": (8, 0, 0),
    "misaligned": (STACK_TOP - 64, 4, 1),
    "misaligned-unmapped": (0, 3, 1),
    "index-leaves-segment": (STACK_TOP - 16, 8, 1),
}
_ACCESSES = {
    Op.LD: Instr(Op.LD, rd=2, ra=1),
    Op.ST: Instr(Op.ST, rd=3, ra=1),
    Op.FLD: Instr(Op.FLD, rd=2, ra=1),
    Op.FST: Instr(Op.FST, rd=1, ra=1),
    Op.LDX: Instr(Op.LDX, rd=2, ra=1, rb=3),
    Op.STX: Instr(Op.STX, rd=3, ra=1, rb=3),
}


def _trap_facts(program: Program, backend) -> tuple:
    process = Process.load(program, backend=backend)
    with pytest.raises(Trap) as info:
        process.cpu.run(16)
    trap = info.value
    return (
        (trap.signal, trap.pc, trap.detail, trap.address),
        process.cpu.instret,
        process.cpu.pc,
        observe(process),
    )


@pytest.mark.parametrize("kind", sorted(_ADDRESSES))
@pytest.mark.parametrize("op", sorted(_ACCESSES, key=lambda op: op.name))
def test_folded_trap_matches_interpreter(op, kind):
    base, offset, index = _ADDRESSES[kind]
    access = _ACCESSES[op]
    if op in (Op.LD, Op.ST, Op.FLD, Op.FST):
        offset += index * 8
    program = _program_of([
        Instr(Op.MOVI, rd=1, imm=base),
        Instr(Op.MOVI, rd=3, imm=index),
        Instr(Op.OUT, ra=3),
        Instr(access.op, rd=access.rd, ra=1, rb=access.rb, imm=offset),
        Instr(Op.OUT, ra=1),
        Instr(Op.HALT),
    ])
    got = _trap_facts(program, EagerCompiledCPU)
    want = _trap_facts(program, "interpreter")
    assert got == want
    assert got[0][1] == 3 and got[1] == 3
    assert not _checked(_source(program.instrs), 3, "read")
    assert not _checked(_source(program.instrs), 3, "write")


# -- leaders ------------------------------------------------------------------


def test_restored_mid_block_rung_never_compiles(pennant_app):
    """Restoring a rung whose pc starts no static block, more often than
    the hot threshold, runs that entry on the interpreter every time and
    changes no result."""
    program = pennant_app.program
    lead = set(leaders(program))
    rung = next(
        r for r in reversed(pennant_app.ladder().rungs) if r.pc not in lead
    )
    reference = restore(program, rung, backend="interpreter")
    reference.run(pennant_app.max_steps)
    for _ in range(CompiledCPU.HOT + 2):
        process = restore(program, rung, backend="compiled")
        process.run(pennant_app.max_steps)
        assert observe(process) == observe(reference)
        assert process.cpu._code[rung.pc] is None
    assert _image(process).codes[rung.pc] is False
    assert _image(process).heat[rung.pc] == 0


#: Rank 0 sends 0..9 to rank 1, which prints a running sum.  Both loops
#: start at a network op (a branch target, never compiled); the pc after
#: each network op is a leader.
_PAIR = _program_of([
    Instr(Op.RANK, rd=1),
    Instr(Op.MOVI, rd=5, imm=1),
    Instr(Op.MOVI, rd=3, imm=10),
    Instr(Op.BNEZ, ra=1, imm=9),
    Instr(Op.SEND, ra=5, rb=2),             # 4: rank 0 loop
    Instr(Op.ADDI, rd=2, ra=2, imm=1),      # 5: after SEND
    Instr(Op.SLT, rd=6, ra=2, rb=3),
    Instr(Op.BNEZ, ra=6, imm=4),
    Instr(Op.HALT),
    Instr(Op.RECV, rd=7, ra=8),             # 9: rank 1 loop
    Instr(Op.ADD, rd=9, ra=9, rb=7),        # 10: after RECV
    Instr(Op.OUT, ra=9),
    Instr(Op.ADDI, rd=2, ra=2, imm=1),
    Instr(Op.SLT, rd=6, ra=2, rb=3),
    Instr(Op.BNEZ, ra=6, imm=9),
    Instr(Op.HALT),
])


def _run_pair(backend) -> tuple[list, Cluster]:
    cluster = Cluster(_PAIR, 2)
    for rank in range(2):
        cluster.replace_process(rank, Process.load(_PAIR, backend=backend))
    event = cluster.run(10_000, quantum=7)
    return [event.kind] + [observe(cluster.process(r)) for r in range(2)], cluster


def test_pc_after_a_network_op_compiles():
    got, cluster = _run_pair(CompiledCPU)
    assert got == _run_pair("interpreter")[0]
    assert got[0] == "exited"
    assert cluster.process(0).cpu._code[5] is not None    # after SEND
    assert cluster.process(1).cpu._code[10] is not None   # after RECV
    image = _image(cluster.process(0))
    assert image.codes[4] is False and image.codes[9] is False
