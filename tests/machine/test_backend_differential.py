"""Differential suite: interpreter vs compiled backend, bit-identical.

The compiled backend is only admissible if no observable differs from the
reference interpreter: golden-run facts, architectural state at arbitrary
pause points, trap sites and signals, and -- the property campaigns stand
on -- injection outcomes addressed by ``dyn_index``.  Every check here
runs the same workload on both backends and compares exhaustively.
"""

from __future__ import annotations

import random

import pytest

from repro.checkpoint.snapshot import restore_into, snapshot
from repro.core import VARIANTS
from repro.faultinject.fault_model import seeded_plans
from repro.faultinject.injector import run_injection
from repro.fuzz.observe import observe
from repro.fuzz.oracles import EagerCompiledCPU
from repro.isa import Instr, Op, Program
from repro.isa.layout import STACK_TOP
from repro.isa.registers import BP
from repro.machine import CPU, CompiledCPU, Process, Signal
from repro.machine.cluster import Cluster
from repro.machine.signals import Trap

APP_NAMES = ("lulesh", "clamr", "hpl", "comd", "snap", "pennant")

BACKENDS = ("interpreter", "compiled")


def _fresh(program: Program, backend: str) -> Process:
    return Process.load(program, backend=backend)


# -- unit-level: trap sites and budget accounting ---------------------------


def test_backend_classes_differ():
    p_i = Process.load(
        Program(instrs=[Instr(Op.HALT)], functions={"main": 0}),
        backend="interpreter",
    )
    p_c = Process.load(
        Program(instrs=[Instr(Op.HALT)], functions={"main": 0}),
        backend="compiled",
    )
    assert type(p_i.cpu) is CPU
    assert isinstance(p_c.cpu, CompiledCPU)
    assert p_i.backend == "interpreter"
    assert p_c.backend == "compiled"


def test_unknown_backend_rejected():
    program = Program(instrs=[Instr(Op.HALT)], functions={"main": 0})
    with pytest.raises(ValueError):
        Process.load(program, backend="jit")


def test_budget_stop_at_wild_pc_matches_interpreter():
    """Budget expiring right after an out-of-image jump must stop with the
    wild pc and *no* trap (the fault belongs to the next fetch)."""
    program = Program(
        instrs=[
            Instr(Op.MOVI, rd=1, imm=99999),
            Instr(Op.PUSH, ra=1),
            Instr(Op.RET),
        ],
        functions={"main": 0},
    )
    states = []
    for backend in BACKENDS:
        process = _fresh(program, backend)
        cpu = process.cpu
        stop = cpu.run(3)          # exactly consumes the budget on the RET
        assert stop == "steps"
        assert cpu.pc == 99999     # wild pc exposed, not trapped
        assert cpu.instret == 3
        with pytest.raises(Trap) as info:
            cpu.run(1)             # the next fetch faults
        assert info.value.signal is Signal.SIGSEGV
        assert info.value.pc == 99999
        assert info.value.instr is None
        states.append((cpu.pc, cpu.instret, str(info.value)))
    assert states[0] == states[1]


def test_trapped_instruction_not_retired_both_backends():
    program = Program(
        instrs=[Instr(Op.NOP), Instr(Op.ABORT), Instr(Op.HALT)],
        functions={"main": 0},
    )
    for backend in BACKENDS:
        cpu = _fresh(program, backend).cpu
        with pytest.raises(Trap) as info:
            cpu.run(10)
        assert cpu.instret == 1, backend
        assert cpu.pc == 1, backend
        assert info.value.pc == 1


def test_step_budget_splits_compare_and_branch():
    """A budget landing between a compare and the branch it feeds must
    stop between them, with the flag written and the branch not taken."""
    program = Program(
        instrs=[
            Instr(Op.MOVI, rd=1, imm=0),
            Instr(Op.MOVI, rd=2, imm=1),
            Instr(Op.SLT, rd=3, ra=1, rb=2),   # feeds the BNEZ below
            Instr(Op.BNEZ, ra=3, imm=5),
            Instr(Op.HALT),
            Instr(Op.HALT),
        ],
        functions={"main": 0},
    )
    for budget in range(1, 6):
        pcs = []
        for backend in BACKENDS:
            cpu = _fresh(program, backend).cpu
            stop = cpu.run(budget)
            pcs.append((stop, cpu.pc, cpu.instret, cpu.iregs[3]))
        assert pcs[0] == pcs[1], f"budget={budget}"


def test_lockstep_random_budgets_demo(demo_program):
    """Pause both backends at random points; every pause must agree on the
    complete architectural state."""
    rng = random.Random(20260806)
    a = _fresh(demo_program, "interpreter").cpu
    b = _fresh(demo_program, "compiled").cpu
    while not a.halted:
        k = rng.choice([1, 1, 2, 3, 5, 8, 13, 50])
        ra, rb = a.run(k), b.run(k)
        assert ra == rb
        assert (a.pc, a.instret) == (b.pc, b.instret)
        assert a.iregs == b.iregs
        assert a.fregs == b.fregs
    assert a.output == b.output
    assert a.exit_code == b.exit_code
    assert a.memory.written_cells() == b.memory.written_cells()


# -- block boundaries ----------------------------------------------------------
#
# Each check runs with the compiled backend at its default hot threshold
# and with the eager twin that compiles every block on first entry, and
# asserts that the block under test really ran as generated code: inside
# a compiled chain (one block, or several joined through JMP and CALL)
# that the process entered.

COMPILED = pytest.mark.parametrize(
    "cpu_class", [CompiledCPU, EagerCompiledCPU], ids=["default", "eager"]
)


def _program_of(instrs) -> Program:
    return Program(instrs=instrs, functions={"main": 0})


def _ran_compiled(process: Process, pc: int) -> bool:
    """Whether a compiled chain the process entered covers *pc*."""
    cpu = process.cpu
    image = cpu._image
    for entry, fn in enumerate(cpu._code):
        if fn is None:
            continue
        single = ((entry, entry + image.spans[entry], 0),)
        chain = image.chains.get(entry, single)
        if any(lo <= pc < hi for lo, hi, _ in chain):
            return True
    return False


def _heat(program: Program, cpu_class, budget: int) -> None:
    """Enter every block of *program* ``HOT`` times, in fresh processes
    (heat belongs to the program image)."""
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


#: kind -> (r1, faulter); r3 holds 7 and r1 the bad address or divisor.
_FAULTERS = {
    "segv": (8, Instr(Op.LD, rd=6, ra=1)),                 # unmapped
    "bus": (STACK_TOP - 12, Instr(Op.ST, rd=3, ra=1)),     # misaligned
    "sigfpe": (0, Instr(Op.DIV, rd=6, ra=3, rb=1)),
    "abort": (0, Instr(Op.ABORT)),
}
#: Work before and after the faulter: registers, a stack cell, a float
#: register (-0.0 is a bound constant, never source text) and output.
_FILLER = [
    Instr(Op.ADDI, rd=3, ra=3, imm=5),
    Instr(Op.PUSH, ra=3),
    Instr(Op.FMOVI, rd=1, imm=-0.0),
    Instr(Op.OUT, ra=3),
]
_POSITIONS = {"first": 0, "middle": 2, "last": len(_FILLER)}


@COMPILED
@pytest.mark.parametrize(
    "kind,position",
    [
        (kind, position)
        for kind in sorted(_FAULTERS)
        for position in sorted(_POSITIONS)
        # ABORT ends its block, so it is never in the middle of one.
        if (kind, position) != ("abort", "middle")
    ],
)
def test_trap_at_block_position(cpu_class, kind, position):
    """A trap at the first, a middle or the last instruction of a hot
    block retires exactly the instructions before it, leaves pc on the
    faulter and reports the interpreter's signal, pc and detail."""
    value, faulter = _FAULTERS[kind]
    body = list(_FILLER)
    body.insert(_POSITIONS[position], faulter)
    entry = 3
    program = _program_of(
        [
            Instr(Op.MOVI, rd=1, imm=value),
            Instr(Op.MOVI, rd=3, imm=7),
            Instr(Op.JMP, imm=entry),
            *body,
            # A network op ends the block, so the faulter at "last" is the
            # block's last instruction; it is never reached.
            Instr(Op.SEND, ra=0, rb=3),
        ]
    )
    _heat(program, cpu_class, 64)
    process = Process.load(program, backend=cpu_class)
    got = _run_facts(process, 64)
    want = _run_facts(Process.load(program, backend="interpreter"), 64)
    assert got == want
    assert got[0] == "terminated"
    faulter = entry + _POSITIONS[position]
    assert got[3].trap[1] == faulter
    assert _ran_compiled(process, faulter)


#: A counted loop whose body is one 8-instruction block at pc 2: int and
#: float stores and loads through bp, float arithmetic, output, branch.
_LOOP = _program_of(
    [
        Instr(Op.MOVI, rd=1, imm=0),
        Instr(Op.MOVI, rd=2, imm=50),
        Instr(Op.ADDI, rd=1, ra=1, imm=1),
        Instr(Op.ST, rd=1, ra=BP, imm=-8),
        Instr(Op.FLD, rd=2, ra=BP, imm=-8),
        Instr(Op.FADD, rd=3, ra=3, rb=2),
        Instr(Op.FST, rd=3, ra=BP, imm=-16),
        Instr(Op.OUT, ra=1),
        Instr(Op.SLT, rd=4, ra=1, rb=2),
        Instr(Op.BNEZ, ra=4, imm=2),
        Instr(Op.HALT),
    ]
)
_LOOP_ENTRY, _LOOP_BLOCK = 2, 8


@COMPILED
def test_every_budget_across_a_hot_block(cpu_class):
    """``run(k)`` from a hot block's entry, for every k from 1 to the
    block length + 1: a block runs only when it fits the budget."""
    process = Process.load(_LOOP, backend=cpu_class)
    process.cpu.run(_LOOP_ENTRY + _LOOP_BLOCK * 12)  # 12 entries: hot
    assert process.cpu.pc == _LOOP_ENTRY
    snap = snapshot(process)
    reference = Process.load(_LOOP, backend="interpreter")
    for k in range(1, _LOOP_BLOCK + 2):
        restore_into(process, snap)
        restore_into(reference, snap)
        got = (process.cpu.run(k), observe(process))
        want = (reference.cpu.run(k), observe(reference))
        assert got == want, f"k={k}"
    assert _ran_compiled(process, _LOOP_ENTRY)


@COMPILED
@pytest.mark.parametrize("target", [99999, -3])
@pytest.mark.parametrize("jump", ["jmp", "ret"])
def test_wild_jump_at_block_end_then_budget_expires(cpu_class, jump, target):
    """A hot block ending in a wild JMP/RET whose budget ends right after
    it stops with the wild pc and no trap; the next fetch faults."""
    end = (
        Instr(Op.JMP, imm=target) if jump == "jmp" else Instr(Op.RET)
    )
    program = _program_of(
        [
            Instr(Op.MOVI, rd=1, imm=target),
            Instr(Op.PUSH, ra=1),
            Instr(Op.OUT, ra=1),
            end,
        ]
    )
    _heat(program, cpu_class, 4)
    facts = []
    for backend in (cpu_class, "interpreter"):
        cpu = Process.load(program, backend=backend).cpu
        stop = cpu.run(4)
        state = (stop, cpu.pc, cpu.instret, tuple(cpu.iregs), tuple(cpu.output))
        with pytest.raises(Trap) as info:
            cpu.run(1)
        trap = info.value
        facts.append((state, trap.signal, trap.pc, trap.detail, cpu.instret))
        if backend is cpu_class:
            assert cpu._code[0] is not None
    assert facts[0] == facts[1]
    assert facts[0][0][:3] == ("steps", target, 4)


#: Rank 0 sends 3*i for i in 1..20 to rank 1, idling in a delay loop
#: after the 10th message; rank 1 receives between two blocks ([18, 19]
#: and [21, 23]), hot by then, and prints a running sum.
_SPMD = _program_of(
    [
        Instr(Op.RANK, rd=1),
        Instr(Op.MOVI, rd=3, imm=20),
        Instr(Op.MOVI, rd=5, imm=1),
        Instr(Op.MOVI, rd=14, imm=60),
        Instr(Op.BNEZ, ra=1, imm=18),
        Instr(Op.ADDI, rd=2, ra=2, imm=1),      # rank 0
        Instr(Op.MULI, rd=4, ra=2, imm=3),
        Instr(Op.SEND, ra=5, rb=4),
        Instr(Op.MOVI, rd=10, imm=10),
        Instr(Op.SNE, rd=11, ra=2, rb=10),
        Instr(Op.BNEZ, ra=11, imm=14),
        Instr(Op.ADDI, rd=12, ra=12, imm=1),    # the delay loop
        Instr(Op.SLT, rd=13, ra=12, rb=14),
        Instr(Op.BNEZ, ra=13, imm=11),
        Instr(Op.SLT, rd=6, ra=2, rb=3),
        Instr(Op.BNEZ, ra=6, imm=5),
        Instr(Op.MOVI, rd=0, imm=0),
        Instr(Op.HALT),
        Instr(Op.ADDI, rd=2, ra=2, imm=1),      # rank 1
        Instr(Op.SLT, rd=6, ra=2, rb=3),
        Instr(Op.RECV, rd=7, ra=8),
        Instr(Op.ADD, rd=9, ra=9, rb=7),
        Instr(Op.OUT, ra=9),
        Instr(Op.BNEZ, ra=6, imm=18),
        Instr(Op.MOVI, rd=0, imm=0),
        Instr(Op.HALT),
    ]
)


def _cluster_trace(backend, quantum: int) -> tuple[list, Cluster]:
    cluster = Cluster(_SPMD, 2)
    for rank in range(2):
        cluster.replace_process(rank, Process.load(_SPMD, backend=backend))
    trace = []
    for _ in range(200):
        event = cluster.run(2 * quantum + 5, quantum=quantum)
        trace.append((
            event.kind,
            event.steps,
            [observe(cluster.process(r)) for r in range(2)],
            [r.blocked_on for r in cluster.ranks],
        ))
        if event.kind != "budget":
            break
    return trace, cluster


@COMPILED
@pytest.mark.parametrize("quantum", [3, 50])
def test_recv_blocks_between_compiled_blocks(cpu_class, quantum):
    """In an SPMD run, a RECV that blocks between two compiled blocks
    leaves the same pc, instret and queues as on the interpreter."""
    got, cluster = _cluster_trace(cpu_class, quantum)
    assert got == _cluster_trace("interpreter", quantum)[0]
    assert got[-1][0] == "exited"
    assert any(blocked[1] is not None for *_, blocked in got)
    assert _ran_compiled(cluster.process(1), 18)
    assert _ran_compiled(cluster.process(1), 21)


@COMPILED
@pytest.mark.parametrize("budget", [4, 10])
def test_halt_at_block_end(cpu_class, budget):
    """A compiled HALT retires, leaves pc on the HALT, and a second run
    returns STOP_HALT without retiring anything."""
    program = _program_of(
        [
            Instr(Op.MOVI, rd=0, imm=3),
            Instr(Op.ADDI, rd=2, ra=2, imm=4),
            Instr(Op.OUT, ra=2),
            Instr(Op.HALT),
        ]
    )
    _heat(program, cpu_class, budget)
    facts = []
    for backend in (cpu_class, "interpreter"):
        cpu = Process.load(program, backend=backend).cpu
        first = (cpu.run(budget), cpu.pc, cpu.instret, cpu.exit_code)
        second = (cpu.run(budget), cpu.pc, cpu.instret, cpu.halted)
        facts.append((first, second))
        if backend is cpu_class:
            assert cpu._code[0] is not None
    assert facts[0] == facts[1]
    assert facts[0] == (("halt", 3, 4, 3), ("halt", 3, 4, True))


def test_load_cells_with_the_live_dict():
    memory = Process.load(_LOOP).memory
    memory.write_pattern(STACK_TOP - 8, 42)
    live = memory._cells  # what compiled blocks bind
    memory.load_cells(live)
    assert memory.written_cells() == {STACK_TOP - 8: 42}
    memory.load_cells({STACK_TOP - 16: 7})
    assert memory._cells is live
    assert memory.written_cells() == {STACK_TOP - 16: 7}


@COMPILED
def test_restore_into_a_process_with_bound_blocks(cpu_class):
    """Rewinding a process whose blocks are bound must refill the very
    register lists and cell dict those blocks write."""
    process = Process.load(_LOOP, backend=cpu_class)
    process.run(_LOOP_ENTRY + _LOOP_BLOCK * 20 + 3)
    snap = snapshot(process)
    cells = process.memory._cells
    process.run(10_000)                 # finish: the state moves on
    assert process.cpu.halted and _ran_compiled(process, _LOOP_ENTRY)
    restore_into(process, snap)
    assert process.memory._cells is cells
    process.run(10_000)
    reference = Process.load(_LOOP, backend="interpreter")
    reference.run(10_000)
    assert observe(process) == observe(reference)


# -- app-level: golden runs --------------------------------------------------


@pytest.mark.parametrize("name", APP_NAMES)
def test_golden_run_bit_identical(suite, name):
    app = suite[name]
    facts = []
    for backend in BACKENDS:
        process = app.load(backend)
        result = process.run(app.max_steps)
        facts.append(
            (
                result.reason,
                process.cpu.instret,
                process.cpu.pc,
                process.exit_code,
                tuple(process.output),
            )
        )
    assert facts[0] == facts[1]
    # and both agree with the cached golden facts
    assert facts[0][1] == app.golden.instret
    assert facts[0][4] == app.golden.output


# -- app-level: seeded injection sample --------------------------------------

#: Injections per (app, config) pair.  Small but seeded: dyn_index spreads
#: across the run, bit positions across the word, so crash/benign/SDC and
#: repair paths all appear across the suite.
N_PLANS = 5


def _result_facts(result):
    return (
        result.outcome,
        result.target_pc,
        result.target_reg,
        result.first_signal,
        result.interventions,
        result.steps,
    )


@pytest.mark.parametrize("name", APP_NAMES)
@pytest.mark.parametrize("config_name", [None, "LetGo-E"])
def test_injection_outcomes_bit_identical(suite, name, config_name):
    app = suite[name]
    config = VARIANTS[config_name] if config_name else None
    plans = seeded_plans(app.golden.instret, N_PLANS, 0xD1FF + len(name))
    for plan in plans:
        facts = [
            _result_facts(run_injection(app, plan, config, backend=backend))
            for backend in BACKENDS
        ]
        assert facts[0] == facts[1], (name, config_name, plan)
