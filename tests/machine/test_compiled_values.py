"""Compiled backend: registers tracked as symbol + offset through a chain.

The generator leaves out the checks, wraps and moves an earlier
instruction of the same chain already decided.  Each behavioural case
sets ``sp``, ``bp`` or a base register to an edge of the segment map
before the chain runs, as a Heuristic II fault would, and asserts the
compiled run (at the default hot threshold and eager) is
indistinguishable from the interpreter's: stop reason, retired
instructions, pc, both register files, every written cell and the output.
"""

from __future__ import annotations

import pytest

from repro.fuzz.observe import observe
from repro.fuzz.oracles import EagerCompiledCPU
from repro.isa import Instr, Op, Program
from repro.isa.layout import DATA_BASE, INT64_MAX, STACK_LIMIT, STACK_TOP
from repro.isa.program import DataSymbol
from repro.isa.registers import BP, SP
from repro.machine import CompiledCPU, Process
from repro.machine.compiled import (
    ChainValues,
    block_source,
    block_spans,
    chain_segments,
    chain_source,
)

COMPILED = pytest.mark.parametrize(
    "cpu_class", [CompiledCPU, EagerCompiledCPU], ids=["default", "eager"]
)

#: Data cells of every program here: ``[DATA_BASE, DATA_BASE + 32)``.
_CELLS = 4
_DATA_END = DATA_BASE + 8 * _CELLS
#: The segment map of those programs, as the generator sees it.
_RANGES = ((DATA_BASE, _DATA_END), (STACK_LIMIT, STACK_TOP))
#: A third segment 16 bytes above the data segment: the map's smallest
#: hole is then 16 bytes wide.
_EXTRA = (_DATA_END + 16, 32)


def _program_of(instrs) -> Program:
    return Program(
        instrs=instrs, functions={"main": 0},
        data_symbols={"g": DataSymbol("g", DATA_BASE, _CELLS)},
    )


def _load(program: Program, backend, regs: dict, extra: bool) -> Process:
    process = Process.load(program, backend=backend)
    if extra:
        process.memory.map_segment("extra", *_EXTRA)
    for reg, value in regs.items():
        process.cpu.iregs[reg] = value
    return process


def _facts(program, backend, regs, extra=False, budget=64) -> tuple:
    process = _load(program, backend, regs, extra)
    result = process.run(budget)
    return (result.reason, result.steps, observe(process)), process


def _assert_like_interpreter(cpu_class, instrs, regs, extra=False) -> tuple:
    """Run *instrs* from *regs* on *cpu_class*, its chain at pc 0
    compiled, and on the interpreter; both must agree.  Returns the
    interpreter's facts."""
    program = _program_of(instrs)
    for _ in range(cpu_class.HOT):  # heat belongs to the program image
        got, process = _facts(program, cpu_class, regs, extra)
    want, _ = _facts(program, "interpreter", regs, extra)
    assert process.cpu._code[0] is not None
    assert got == want
    return want


def _trap_at(facts) -> tuple[int, int]:
    """``(pc, instret)`` of a run that stopped on a trap."""
    obs = facts[2]
    assert obs.trap is not None
    return obs.trap[1], obs.instret


def _source(instrs, ranges=_RANGES) -> str:
    segments = chain_segments(instrs, block_spans(instrs), 0)
    return chain_source(block_source, instrs, segments, ranges)[0]


# -- behaviour at the edges of the segment map ---------------------------------


@COMPILED
def test_sp_in_the_data_segment(cpu_class):
    """Pushes and pops on an ``sp`` that points into the data segment,
    then pushes that walk off its start: SIGSEGV at the exact push."""
    instrs = [
        Instr(Op.PUSH, ra=1),                 # _DATA_END - 8
        Instr(Op.PUSH, ra=2),
        Instr(Op.POP, rd=3),
        Instr(Op.LD, rd=4, ra=SP, imm=-8),
        Instr(Op.FPUSH, ra=0),
        Instr(Op.PUSH, ra=4),
        Instr(Op.PUSH, ra=5),                 # DATA_BASE
        Instr(Op.OUT, ra=3),
        Instr(Op.PUSH, ra=6),                 # DATA_BASE - 8: unmapped
        Instr(Op.HALT),
    ]
    regs = {1: 11, 2: 22, 4: 44, 5: 55, 6: 66, SP: _DATA_END}
    want = _assert_like_interpreter(cpu_class, instrs, regs)
    assert _trap_at(want) == (8, 8)


@COMPILED
@pytest.mark.parametrize("op", [Op.PUSH, Op.FPUSH, Op.CALL])
def test_pushes_walk_below_the_stack(cpu_class, op):
    push = Instr(op, ra=1, imm=5) if op is Op.CALL else Instr(op, ra=1)
    instrs = [
        Instr(Op.PUSH, ra=1),                 # STACK_LIMIT + 8
        Instr(Op.PUSH, ra=2),                 # STACK_LIMIT
        Instr(Op.OUT, ra=1),
        push,                                 # STACK_LIMIT - 8: unmapped
        Instr(Op.HALT),
        Instr(Op.HALT),
    ]
    regs = {1: 1, 2: 2, SP: STACK_LIMIT + 16}
    want = _assert_like_interpreter(cpu_class, instrs, regs)
    assert _trap_at(want) == (3, 3)


@COMPILED
def test_pops_walk_past_the_top_of_the_stack(cpu_class):
    instrs = [
        Instr(Op.PUSH, ra=1),
        Instr(Op.FPUSH, ra=1),
        Instr(Op.FPOP, rd=2),
        Instr(Op.POP, rd=3),
        Instr(Op.POP, rd=4),                  # STACK_TOP: unmapped
        Instr(Op.HALT),
    ]
    want = _assert_like_interpreter(cpu_class, instrs, {1: 5})
    assert _trap_at(want) == (4, 4)


@COMPILED
def test_bp_reads_past_the_top_of_the_stack(cpu_class):
    """``[bp+16]`` above every checked offset, with ``sp`` one cell below
    the top of the stack: the read leaves the segment."""
    instrs = [
        Instr(Op.PUSH, ra=BP),                # STACK_TOP - 16
        Instr(Op.MOV, rd=BP, ra=SP),
        Instr(Op.LD, rd=1, ra=BP, imm=8),     # STACK_TOP - 8
        Instr(Op.FLD, rd=2, ra=BP, imm=0),
        Instr(Op.LD, rd=3, ra=BP, imm=16),    # STACK_TOP: unmapped
        Instr(Op.HALT),
    ]
    want = _assert_like_interpreter(cpu_class, instrs, {SP: STACK_TOP - 8})
    assert _trap_at(want) == (4, 4)


#: case -> (sp, instructions after the first push, faulting pc)
_MISALIGNED = {
    "sp": (STACK_TOP - 20, [], 0),
    "offset": (STACK_TOP, [Instr(Op.ST, rd=1, ra=SP, imm=4)], 1),
    "offset-unmapped": (STACK_TOP, [Instr(Op.LD, rd=1, ra=SP, imm=12)], 1),
    "data-sp": (_DATA_END - 4, [], 0),
}


@COMPILED
@pytest.mark.parametrize("case", sorted(_MISALIGNED))
def test_misaligned_access_through_sp(cpu_class, case):
    sp, after, pc = _MISALIGNED[case]
    instrs = [Instr(Op.PUSH, ra=1), *after, Instr(Op.PUSH, ra=1),
              Instr(Op.HALT)]
    want = _assert_like_interpreter(cpu_class, instrs, {1: 7, SP: sp})
    assert _trap_at(want) == (pc, pc)


#: main: FPUSH, CALL f; f: the callee's prologue and epilogue.
_CALL = [
    Instr(Op.FPUSH, ra=0),
    Instr(Op.CALL, imm=3),
    Instr(Op.HALT),
    Instr(Op.PUSH, ra=BP),                    # 3: f
    Instr(Op.MOV, rd=BP, ra=SP),
    Instr(Op.FLD, rd=1, ra=BP, imm=16),
    Instr(Op.LD, rd=2, ra=BP, imm=8),
    Instr(Op.OUT, ra=2),
    Instr(Op.POP, rd=BP),
    Instr(Op.RET),
]


@COMPILED
@pytest.mark.parametrize(
    "sp, trap",
    [(STACK_TOP, None), (STACK_LIMIT + 16, (3, 2)), (DATA_BASE + 16, (3, 2))],
    ids=["stack", "stack-start", "data"],
)
def test_window_carried_through_a_call(cpu_class, sp, trap):
    """The checked pushes of the caller decide the callee's frame
    accesses; its ``push bp`` past a segment's start still traps."""
    want = _assert_like_interpreter(cpu_class, _CALL, {SP: sp})
    if trap is None:
        assert want[2].output == (("i", 2),)
    else:
        assert _trap_at(want) == trap


@COMPILED
def test_addi_sp_keeps_its_wrap_near_int64_max(cpu_class):
    """No access checked ``sp`` yet, so ``ADDI sp`` may wrap."""
    instrs = [
        Instr(Op.ADDI, rd=SP, ra=SP, imm=16),
        Instr(Op.OUT, ra=SP),
        Instr(Op.PUSH, ra=1),
        Instr(Op.HALT),
    ]
    want = _assert_like_interpreter(cpu_class, instrs, {SP: INT64_MAX - 8})
    assert want[2].output == (("i", INT64_MAX - 8 + 16 - (1 << 64)),)
    assert _trap_at(want) == (2, 2)
    assert f"v = R[{SP}] + 16\n" in _source(instrs)


@COMPILED
def test_addi_on_a_checked_sp_keeps_a_wrap_it_needs(cpu_class):
    """``sp`` is a mapped address, but not far enough from INT64_MAX."""
    instrs = [
        Instr(Op.PUSH, ra=1),
        Instr(Op.ADDI, rd=2, ra=SP, imm=INT64_MAX),
        Instr(Op.SUBI, rd=3, ra=SP, imm=INT64_MAX),
        Instr(Op.OUT, ra=2),
        Instr(Op.OUT, ra=3),
        Instr(Op.HALT),
    ]
    want = _assert_like_interpreter(cpu_class, instrs, {})
    top = STACK_TOP - 8
    assert want[2].output == (
        ("i", top + INT64_MAX - (1 << 64)), ("i", top - INT64_MAX),
    )


def test_addi_on_a_checked_sp_drops_its_wrap():
    source = _source([
        Instr(Op.PUSH, ra=1),
        Instr(Op.ADDI, rd=SP, ra=SP, imm=-16),
        Instr(Op.SUBI, rd=2, ra=SP, imm=8),
        Instr(Op.HALT),
    ])
    assert f"R[{SP}] = R[{SP}] + -16\n" in source
    assert f"R[2] = R[{SP}] - 8\n" in source
    assert "v = " not in source


@COMPILED
def test_elided_moves_before_a_trap(cpu_class):
    """Moves of a value the register already holds emit nothing but
    still retire: the trap after them sees the same registers."""
    instrs = [
        Instr(Op.MOVI, rd=1, imm=5),
        Instr(Op.MOV, rd=2, ra=1),
        Instr(Op.MOVI, rd=1, imm=5),          # elided
        Instr(Op.MOV, rd=2, ra=1),            # elided
        Instr(Op.MOV, rd=3, ra=4),
        Instr(Op.MOV, rd=4, ra=3),            # elided
        Instr(Op.LD, rd=6, ra=3),             # r4 = 8: unmapped
        Instr(Op.HALT),
    ]
    want = _assert_like_interpreter(cpu_class, instrs, {4: 8})
    assert _trap_at(want) == (6, 6)
    source = _source(instrs)
    assert source.count("R[1] = 5\n") == 1
    assert source.count("R[2] = R[1]\n") == 1
    assert "R[4] = R[3]\n" not in source


#: order -> the two checked accesses, either side of a 16-byte hole
_ACROSS_THE_HOLE = {
    "down": [
        Instr(Op.LD, rd=1, ra=5),             # the extra segment's start
        Instr(Op.ST, rd=1, ra=5, imm=-40),    # DATA_BASE + 8
    ],
    "up": [
        Instr(Op.ST, rd=1, ra=5, imm=-40),
        Instr(Op.LD, rd=1, ra=5),
    ],
}


@COMPILED
@pytest.mark.parametrize("order", sorted(_ACROSS_THE_HOLE))
def test_window_stops_at_the_smallest_hole(cpu_class, order):
    """Two checked accesses on either side of a 16-byte hole must not
    make one window: the access into the hole between them is checked."""
    base = _EXTRA[0]
    instrs = [
        *_ACROSS_THE_HOLE[order],
        Instr(Op.LD, rd=2, ra=5, imm=-8),     # the hole
        Instr(Op.HALT),
    ]
    want = _assert_like_interpreter(cpu_class, instrs, {5: base}, extra=True)
    assert _trap_at(want) == (2, 2)
    ranges = (*_RANGES, (base, base + _EXTRA[1]))
    assert ChainValues(ranges).map.hole == 16
    assert "I, 2, a, 'read')" in _source(instrs, ranges)


# -- what the generator emits ---------------------------------------------------


def test_call_chain_checks_once_then_compares_once():
    """``fpush; call; push bp; mov bp, sp; fld [bp+16]``: one full check,
    one comparison for each later push, and no check for ``[bp+16]``."""
    source = _source(_CALL[:6])
    assert source.count("if a & 7 or not (") == 1
    lower = f"    if a < {STACK_LIMIT} and not ({DATA_BASE} <= a < {_DATA_END}):"
    assert source.count(lower) == 2
    assert sum(ln.startswith("    if ") for ln in source.splitlines()) == 3
    assert f"    a = R[{BP}] + 16\n    p = G(a, 0.0)\n" in source
