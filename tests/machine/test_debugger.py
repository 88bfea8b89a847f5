"""DebugSession: the gdb-substitute control surface."""

import pytest

from repro.isa import Instr, Op, Program
from repro.machine import (
    STOP_BREAKPOINT,
    STOP_BUDGET,
    STOP_EXITED,
    STOP_STEPS_DONE,
    STOP_TRAP,
    DebugSession,
    Process,
    ProcessStatus,
    Signal,
)


def make_session(instrs):
    program = Program(instrs=list(instrs), functions={"main": 0})
    return DebugSession(Process.load(program))


COUNTER_LOOP = [
    Instr(Op.MOVI, rd=1, imm=0),          # 0
    Instr(Op.ADDI, rd=1, ra=1, imm=1),    # 1
    Instr(Op.MOVI, rd=2, imm=10),         # 2
    Instr(Op.SLT, rd=3, ra=1, rb=2),      # 3
    Instr(Op.BNEZ, ra=3, imm=1),          # 4
    Instr(Op.HALT),                       # 5
]


def test_cont_to_exit():
    s = make_session(COUNTER_LOOP)
    event = s.cont(10**6)
    assert event.kind == STOP_EXITED
    assert s.process.status is ProcessStatus.EXITED
    assert s.read_reg("r1") == 10


def test_cont_budget():
    s = make_session([Instr(Op.JMP, imm=0)])
    event = s.cont(50)
    assert event.kind == STOP_BUDGET
    assert event.steps == 50


def test_run_steps_exact():
    s = make_session(COUNTER_LOOP)
    event = s.run_steps(3)
    assert event.kind == STOP_STEPS_DONE
    assert event.steps == 3
    assert s.process.cpu.instret == 3


def test_trap_stops_without_killing():
    s = make_session([Instr(Op.MOVI, rd=1, imm=0), Instr(Op.LD, rd=2, ra=1)])
    event = s.cont(100)
    assert event.kind == STOP_TRAP
    assert event.trap.signal is Signal.SIGSEGV
    # unlike Process.run, the process is still RUNNING (gdb-style stop)
    assert s.process.status is ProcessStatus.RUNNING


def test_deliver_default_kills():
    s = make_session([Instr(Op.ABORT)])
    event = s.cont(100)
    s.deliver_default(event.trap)
    assert s.process.status is ProcessStatus.TERMINATED
    assert s.process.term_signal is Signal.SIGABRT


def test_resume_after_trap_with_pc_advance():
    s = make_session(
        [
            Instr(Op.MOVI, rd=1, imm=0),
            Instr(Op.LD, rd=2, ra=1),  # faults
            Instr(Op.MOVI, rd=3, imm=42),
            Instr(Op.HALT),
        ]
    )
    event = s.cont(100)
    assert event.kind == STOP_TRAP
    s.set_pc(event.pc + 1)  # the LetGo move
    event = s.cont(100)
    assert event.kind == STOP_EXITED
    assert s.read_reg("r3") == 42


def test_breakpoint():
    s = make_session(COUNTER_LOOP)
    s.set_breakpoint(5)
    event = s.cont(10**6)
    assert event.kind == STOP_BREAKPOINT
    assert event.pc == 5
    assert s.read_reg("r1") == 10


def test_breakpoint_hit_repeatedly():
    s = make_session(COUNTER_LOOP)
    s.set_breakpoint(1)
    hits = 0
    while True:
        event = s.cont(10**6)
        if event.kind != STOP_BREAKPOINT:
            break
        hits += 1
    assert hits == 10
    assert event.kind == STOP_EXITED


def test_clear_breakpoint():
    s = make_session(COUNTER_LOOP)
    s.set_breakpoint(1)
    s.clear_breakpoint(1)
    assert s.cont(10**6).kind == STOP_EXITED


def test_read_write_regs():
    s = make_session(COUNTER_LOOP)
    s.write_reg("r7", -5)
    assert s.read_reg("r7") == -5
    s.write_reg("f3", 2.5)
    assert s.read_reg("f3") == 2.5
    s.write_reg("pc", 5)
    assert s.read_reg("pc") == 5
    with pytest.raises(KeyError):
        s.read_reg("nope")
    with pytest.raises(KeyError):
        s.write_reg("nope", 0)


def test_write_reg_wraps_ints_to_64_bits():
    s = make_session(COUNTER_LOOP)
    s.write_reg("r7", (1 << 64) - 1)
    assert s.read_reg("r7") == -1
    s.write_reg("r7", 1 << 63)
    assert s.read_reg("r7") == -(1 << 63)


def test_read_write_mem(demo_program):
    s = DebugSession(Process.load(demo_program))
    addr = demo_program.data_symbols["cnt"].addr
    assert s.read_mem(addr) == 5
    s.write_mem(addr, 2)
    s.cont(10**6)
    assert s.process.output == [("f", 1.0), ("i", 2)]  # 0^2 + 1^2


def test_last_stop_recorded():
    s = make_session(COUNTER_LOOP)
    event = s.cont(10**6)
    assert s.last_stop is event
    assert "exited" in str(event)
