"""LetGo session: end-to-end crash elision on small programs."""

import pytest

from repro.analysis import FunctionTable
from repro.core import (
    COMPLETED,
    HUNG,
    LETGO_B,
    LETGO_E,
    TERMINATED,
    LetGoConfig,
    LetGoSession,
)
from repro.isa import assemble
from repro.isa.registers import SP
from repro.lang import compile_source
from repro.machine import Process, Signal
from repro.machine.debugger import DebugSession
from repro.telemetry import Tracer

#: A program whose single crash site is skippable: after the bad load the
#: program carries on and prints a value.
SKIPPABLE = """
.text
.entry main
.func main
main:
    push bp
    mov bp, sp
    subi sp, sp, #16
    movi r1, #0
    ld r2, [r1 + 0]      ; segfault (null load)
    movi r3, #77
    out r3
    movi r0, #0
    addi sp, sp, #16
    pop bp
    halt                 ; entry function: exit instead of ret
"""


def _run(asm_or_prog, config, max_steps=10**6):
    program = assemble(asm_or_prog) if isinstance(asm_or_prog, str) else asm_or_prog
    process = Process.load(program)
    report = LetGoSession(config, FunctionTable(program)).run(process, max_steps)
    return report, process


def test_clean_program_untouched(demo_program):
    process = Process.load(demo_program)
    report = LetGoSession(LETGO_E, FunctionTable(demo_program)).run(
        process, 10**6
    )
    assert report.status == COMPLETED
    assert not report.intervened
    assert report.output == [("f", 30.0), ("i", 5)]
    assert report.exit_code == 0


def test_elides_single_segfault():
    report, _ = _run(SKIPPABLE, LETGO_E)
    assert report.status == COMPLETED
    assert len(report.interventions) == 1
    record = report.interventions[0]
    assert record.signal is Signal.SIGSEGV
    assert "ld" in record.instr_text
    assert report.output == [("i", 77)]


def test_letgo_b_advances_pc_only():
    report, process = _run(SKIPPABLE, LETGO_B)
    assert report.status == COMPLETED
    record = report.interventions[0]
    assert not record.h1_fired and not record.h2_fired
    # destination keeps its stale value under LetGo-B
    assert not any(a.kind == "fill-load" for a in record.actions)


def test_letgo_e_fills_destination():
    report, process = _run(SKIPPABLE, LETGO_E)
    record = report.interventions[0]
    assert record.h1_fired
    assert process.cpu.iregs[2] == 0


def test_second_crash_gives_up():
    asm = """
.text
.entry main
.func main
main:
    push bp
    mov bp, sp
    subi sp, sp, #0
    movi r1, #0
    ld r2, [r1 + 0]
    ld r3, [r1 + 8]      ; crashes again
    halt
"""
    report, _ = _run(asm, LETGO_E)
    assert report.status == TERMINATED
    assert report.gave_up
    assert len(report.interventions) == 1
    assert report.final_signal is Signal.SIGSEGV


def test_max_interventions_configurable():
    asm = """
.text
.entry main
.func main
main:
    push bp
    mov bp, sp
    subi sp, sp, #0
    movi r1, #0
    ld r2, [r1 + 0]
    ld r3, [r1 + 8]
    movi r0, #0
    halt
"""
    generous = LetGoConfig(name="x", max_interventions=5)
    program = assemble(asm)
    process = Process.load(program)
    report = LetGoSession(generous, FunctionTable(program)).run(process, 10**6)
    assert report.status == COMPLETED
    assert len(report.interventions) == 2


def test_unhandled_signal_terminates_without_intervention():
    asm = """
.text
.entry main
.func main
main:
    push bp
    mov bp, sp
    subi sp, sp, #0
    movi r1, #0
    movi r2, #5
    div r3, r2, r1       ; SIGFPE: not in Table 1
    halt
"""
    report, _ = _run(asm, LETGO_E)
    assert report.status == TERMINATED
    assert not report.intervened
    assert not report.gave_up
    assert report.final_signal is Signal.SIGFPE


def test_sigabrt_elided():
    source = """
    func main() -> int {
        assert(1 == 2);       // fails -> SIGABRT
        out(5);
        return 0;
    }
    """
    program = compile_source(source)
    process = Process.load(program)
    report = LetGoSession(LETGO_E, FunctionTable(program)).run(process, 10**6)
    assert report.status == COMPLETED
    assert report.interventions[0].signal is Signal.SIGABRT
    assert report.output == [("i", 5)]


def test_hang_reported():
    asm = """
.text
.entry main
.func main
main:
    jmp main
"""
    report, _ = _run(asm, LETGO_E, max_steps=5000)
    assert report.status == HUNG
    assert report.steps == 5000


def test_heuristic2_recovers_corrupt_sp(demo_program):
    process = Process.load(demo_program)
    process.cpu.run(12)  # inside main's loop
    process.cpu.iregs[SP] ^= 1 << 45
    report = LetGoSession(LETGO_E, FunctionTable(demo_program)).run(
        process, 10**6
    )
    assert report.intervened
    assert any(
        action.kind in ("fix-sp", "fix-bp")
        for record in report.interventions
        for action in record.actions
    )


def test_repair_seconds_measured():
    report, _ = _run(SKIPPABLE, LETGO_E)
    assert report.repair_seconds() > 0.0
    assert report.repair_seconds() < 1.0


def test_intervention_summary():
    report, _ = _run(SKIPPABLE, LETGO_E)
    text = report.interventions[0].summary()
    assert "SIGSEGV" in text and "H1" in text


def test_intervene_is_the_one_decision():
    """Repair only an intercepted signal, with budget left, that the
    caller's rule accepts; count the signal's disposition either way."""
    program = assemble(SKIPPABLE)
    letgo = LetGoSession(LETGO_E, FunctionTable(program))

    def trapped():
        session = DebugSession(Process.load(program))
        event = session.cont(10**6)
        assert event.trap is not None and event.trap.signal is Signal.SIGSEGV
        return session, event.trap

    tracer = Tracer()
    for left, elidable in ((0, None), (1, lambda trap: False)):
        session, trap = trapped()
        assert letgo.intervene(
            session, trap, left, tracer=tracer, elidable=elidable
        ) is None
        assert session.process.cpu.pc == trap.pc  # untouched
    assert tracer.counters == {"signal:SIGSEGV:intercept": 2}

    session, trap = trapped()
    record = letgo.intervene(
        session, trap, 1, tracer=tracer, elidable=lambda t: t is trap
    )
    assert record is not None and record.pc == trap.pc
    assert session.process.cpu.pc == trap.pc + 1
    assert tracer.counters["intervention"] == 1
    assert tracer.counters["signal:SIGSEGV:intercept"] == 3
