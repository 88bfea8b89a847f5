"""Compiled chains: blocks joined through their static JMP/CALL successors.

A leader whose block ends in ``JMP`` or ``CALL`` compiles as one function
that runs on into the target's block.  Every behavioural check runs the
same program on the interpreter, the reference, and asserts the compiled
run (at the default hot threshold and eager) is indistinguishable from it.
"""

from __future__ import annotations

import pytest

from repro.fuzz.observe import observe
from repro.fuzz.oracles import EagerCompiledCPU
from repro.isa import Instr, Op, Program
from repro.isa.layout import STACK_TOP
from repro.machine import CompiledCPU, Process
from repro.machine.compiled import (
    MAX_CHAIN,
    _block_image,
    block_spans,
    chain_segments,
)
from repro.machine.debugger import STOP_BREAKPOINT, DebugSession

COMPILED = pytest.mark.parametrize(
    "cpu_class", [CompiledCPU, EagerCompiledCPU], ids=["default", "eager"]
)


def _program_of(instrs) -> Program:
    return Program(instrs=instrs, functions={"main": 0})


def _image(process: Process):
    cpu = process.cpu
    return _block_image(cpu._program, type(cpu), tuple(process.memory._ranges))


def _heat(program: Program, cpu_class, budget: int) -> None:
    """Enter pc 0 ``HOT`` times, in fresh processes (heat belongs to the
    program image), so its chain is compiled."""
    for _ in range(cpu_class.HOT):
        Process.load(program, backend=cpu_class).run(budget)


def _run_facts(process: Process, budget: int) -> tuple:
    result = process.run(budget)
    trap = result.trap
    return (
        result.reason,
        result.steps,
        None if trap is None else trap.instr,
        observe(process),
    )


#: Where :func:`_chain`'s chain starts: after a head of four instructions,
#: three of which run first.
_ENTRY = 4


def _chain(faulters=()) -> tuple[Program, list[tuple[int, int]]]:
    """A chain of three blocks entered at :data:`_ENTRY`: the first ends
    in a JMP, the second in a CALL, the third (the callee) in a RET.
    *faulters* are ``(segment, instr)`` pairs, each put in the middle of
    its block.

    Returns the program and each segment's ``(start, length)``."""
    blocks = [
        [
            Instr(Op.MOVI, rd=3, imm=7),
            Instr(Op.ADDI, rd=3, ra=3, imm=5),
            Instr(Op.OUT, ra=3),
        ],
        [
            Instr(Op.ADDI, rd=3, ra=3, imm=5),
            Instr(Op.PUSH, ra=3),
        ],
        [
            Instr(Op.ADDI, rd=3, ra=3, imm=1),
            Instr(Op.FMOVI, rd=1, imm=-0.0),
            Instr(Op.OUT, ra=3),
        ],
    ]
    for segment, instr in faulters:
        blocks[segment].insert(1, instr)
    # r1 holds the bad address or divisor: set before the chain, so no
    # block folds it into a literal.  A taken BEQZ ends the head's block.
    head = [
        Instr(Op.MOVI, rd=1, imm=0),
        Instr(Op.MOVI, rd=9, imm=0),
        Instr(Op.BEQZ, ra=9, imm=_ENTRY),
        Instr(Op.HALT),
    ]
    starts = [_ENTRY]
    starts.append(starts[0] + len(blocks[0]) + 2)   # after JMP, HALT
    starts.append(starts[1] + len(blocks[1]) + 2)   # after CALL, HALT
    instrs = [
        *head,
        *blocks[0], Instr(Op.JMP, imm=starts[1]), Instr(Op.HALT),
        *blocks[1], Instr(Op.CALL, imm=starts[2]), Instr(Op.HALT),
        *blocks[2], Instr(Op.RET),
    ]
    lengths = [len(blocks[0]) + 1, len(blocks[1]) + 1, len(blocks[2]) + 1]
    return _program_of(instrs), list(zip(starts, lengths))


#: kind -> (r1, faulter)
_FAULTERS = {
    "segv": (8, Instr(Op.LD, rd=6, ra=1)),
    "bus": (STACK_TOP - 12, Instr(Op.ST, rd=3, ra=1)),
    "sigfpe": (0, Instr(Op.DIV, rd=6, ra=3, rb=1)),
}


def _with_r1(program: Program, value: int) -> Program:
    instrs = list(program.instrs)
    instrs[0] = Instr(Op.MOVI, rd=1, imm=value)
    return _program_of(instrs)


def _assert_chain(process: Process, segments) -> None:
    """The image's chain entered at :data:`_ENTRY` has *segments*, and
    *process* bound its function."""
    chain = _image(process).chains[_ENTRY]
    assert [(lo, hi - lo) for lo, hi, _ in chain] == segments
    assert process.cpu._code[_ENTRY] is not None


@COMPILED
@pytest.mark.parametrize("kind", sorted(_FAULTERS))
@pytest.mark.parametrize("segment", [0, 1, 2])
def test_trap_in_each_segment(cpu_class, kind, segment):
    """A trap in the first, second or third block of a chain retires the
    instructions before it in chain order and leaves pc on the faulter."""
    value, faulter = _FAULTERS[kind]
    program, segments = _chain([(segment, faulter)])
    program = _with_r1(program, value)
    _heat(program, cpu_class, 64)
    process = Process.load(program, backend=cpu_class)
    got = _run_facts(process, 64)
    want = _run_facts(Process.load(program, backend="interpreter"), 64)
    assert got == want
    assert got[0] == "terminated"
    assert got[3].trap[1] == segments[segment][0] + 1
    assert got[3].instret == 3 + sum(n for _, n in segments[:segment]) + 1
    _assert_chain(process, segments)


@COMPILED
def test_every_budget_from_the_chain_entry(cpu_class):
    """``run(k)`` from a chain's entry, for every k from 1 to the chain's
    length + 1, then the rest of the run: a chain runs only when all of
    it fits the budget."""
    program, segments = _chain()
    _heat(program, cpu_class, 64)
    length = sum(n for _, n in segments)
    for k in range(1, length + 2):
        process = Process.load(program, backend=cpu_class)
        reference = Process.load(program, backend="interpreter")
        for p in (process, reference):
            p.cpu.run(3)        # to the chain entry
        assert process.cpu.pc == _ENTRY
        got = (process.cpu.run(k), observe(process))
        want = (reference.cpu.run(k), observe(reference))
        assert got == want, f"k={k}"
        got = (process.cpu.run(64), observe(process))
        want = (reference.cpu.run(64), observe(reference))
        assert got == want, f"k={k}, then the rest"
    _assert_chain(process, segments)


@COMPILED
@pytest.mark.parametrize("segment", [1, 2])
def test_breakpoint_on_a_chained_segment(cpu_class, segment):
    """A breakpoint on the first pc of a chain's later block stops there,
    with the interpreter's instret and state, and the run then goes on
    to the same end."""
    program, segments = _chain()
    _heat(program, cpu_class, 64)
    stop_pc = segments[segment][0]
    facts = []
    processes = []
    for backend in (cpu_class, "interpreter"):
        process = Process.load(program, backend=backend)
        processes.append(process)
        session = DebugSession(process)
        session.set_breakpoint(stop_pc)
        event = session.cont(64)
        at_break = (event.kind, event.steps, event.pc, observe(process))
        session.clear_breakpoint(stop_pc)
        event = session.cont(64)
        facts.append((at_break, (event.kind, event.steps, observe(process))))
    assert facts[0] == facts[1]
    assert facts[0][0][:3] == (
        STOP_BREAKPOINT, 3 + sum(n for _, n in segments[:segment]), stop_pc
    )
    _assert_chain(processes[0], segments)


@COMPILED
@pytest.mark.parametrize("budget", [4, 5, 10])
def test_halt_ends_a_chain(cpu_class, budget):
    """A HALT in a chain's last block retires, leaves pc on the HALT, and
    a second run returns STOP_HALT without retiring anything."""
    program = _program_of([
        Instr(Op.MOVI, rd=0, imm=3),
        Instr(Op.JMP, imm=3),
        Instr(Op.NOP),
        Instr(Op.ADDI, rd=2, ra=2, imm=4),
        Instr(Op.OUT, ra=2),
        Instr(Op.HALT),
    ])
    _heat(program, cpu_class, budget)
    facts = []
    for backend in (cpu_class, "interpreter"):
        process = Process.load(program, backend=backend)
        cpu = process.cpu
        first = (cpu.run(budget), cpu.pc, cpu.instret, cpu.exit_code)
        second = (cpu.run(budget), cpu.pc, cpu.instret, cpu.halted)
        state = (tuple(cpu.iregs), tuple(cpu.output))
        facts.append((first, second, state))
        if backend is cpu_class:
            assert cpu._code[0] is not None
            assert _image(process).chains[0] == ((0, 2, 0), (3, 6, 2))
            assert _image(process).lengths[0] == 5
    assert facts[0] == facts[1]
    if budget >= 5:
        assert facts[0][:2] == (("halt", 5, 5, 3), ("halt", 5, 5, True))


# -- where chain building stops ------------------------------------------------

_NOP = Instr(Op.NOP)


def _jmp(target: int) -> Instr:
    return Instr(Op.JMP, imm=target)


#: case -> (program, the segments of the chain entered at pc 0)
_STOPS = {
    "self-jmp": ([_NOP, _jmp(0)], [(0, 2)]),
    "back-into-chain": (
        [_NOP, _jmp(3), Instr(Op.HALT), _NOP, _jmp(1)],
        [(0, 2), (3, 2)],
    ),
    # pc 2's block [2, 4] shares pcs 3 and 4 with the chain's [3, 4].
    "overlapping-target": (
        [_jmp(3), Instr(Op.HALT), _NOP, _NOP, _jmp(2)],
        [(0, 1), (3, 2)],
    ),
    "out-of-image": ([_NOP, _jmp(99)], [(0, 2)]),
    "conditional": (
        [Instr(Op.BNEZ, ra=1, imm=2), _NOP, Instr(Op.HALT)],
        [(0, 1)],
    ),
    "call-then-ret": (
        [Instr(Op.CALL, imm=2), Instr(Op.HALT), _NOP, Instr(Op.RET)],
        [(0, 1), (2, 2)],
    ),
    "network-op-target": (
        [_jmp(2), Instr(Op.HALT), Instr(Op.SEND, ra=0, rb=1), _NOP],
        [(0, 1)],
    ),
    # The target's block runs up to the SEND and ends the chain there.
    "falls-to-network-op": (
        [_jmp(2), Instr(Op.HALT), _NOP, Instr(Op.SEND, ra=0, rb=1)],
        [(0, 1), (2, 1)],
    ),
}


@pytest.mark.parametrize("case", sorted(_STOPS))
def test_chain_stops(case):
    instrs, segments = _STOPS[case]
    assert chain_segments(instrs, block_spans(instrs), 0) == segments


def _ladder(blocks: int, size: int) -> list[Instr]:
    """*blocks* blocks of *size* instructions, each jumping to the next."""
    instrs = []
    for b in range(blocks):
        instrs += [Instr(Op.ADDI, rd=2, ra=2, imm=b)] * (size - 1)
        instrs.append(_jmp((b + 1) * size))
    return instrs + [Instr(Op.OUT, ra=2), Instr(Op.HALT)]


def test_chain_stops_at_the_cap():
    size = 10
    instrs = _ladder(MAX_CHAIN // size + 3, size)
    segments = chain_segments(instrs, block_spans(instrs), 0)
    assert segments == [(b * size, size) for b in range(MAX_CHAIN // size)]
    # A first block longer than the cap runs alone.
    long = [_NOP] * (MAX_CHAIN + 1) + [_jmp(MAX_CHAIN + 2), Instr(Op.HALT)]
    assert chain_segments(long, block_spans(long), 0) == [(0, MAX_CHAIN + 2)]


#: Runnable stop cases: each loops or halts within the budget below.
_RUNNABLE = ("self-jmp", "back-into-chain", "overlapping-target", "call-then-ret")


@COMPILED
@pytest.mark.parametrize("case", _RUNNABLE + ("cap",))
def test_stopped_chains_match_the_interpreter(cpu_class, case):
    """Programs where chain building stops run exactly as on the
    interpreter, paused at every budget up to past the cap, then run on."""
    if case == "cap":
        instrs = _ladder(MAX_CHAIN // 10 + 3, 10)
        segments = chain_segments(instrs, block_spans(instrs), 0)
    else:
        instrs, segments = _STOPS[case]
    program = _program_of(instrs)
    _heat(program, cpu_class, 200)
    for k in range(1, MAX_CHAIN + 8):
        process = Process.load(program, backend=cpu_class)
        reference = Process.load(program, backend="interpreter")
        for budget in (k, 200):
            got = _run_facts(process, budget)
            assert got == _run_facts(reference, budget), f"k={k}"
            if got[0] != "budget":
                break
    chain = _image(process).chains.get(0, ((0, segments[0][1], 0),))
    assert [(lo, hi - lo) for lo, hi, _ in chain] == segments
