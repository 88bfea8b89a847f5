"""Sliced budgets: a run cut into buckets equals one run, on both backends.

Post-fault runs are driven in slices -- the wall-clock watchdog checks
its deadline between them and the ladder stops at every rung -- so
``CPU.run`` must honour exact budgets: a run cut into *interval*-sized
buckets, with a probe reading ``instret`` between them, must leave trap
sites, retirement counts and stop reasons bit-identical to one ``run``
call, on the interpreter and the compiled backend alike.
"""

from __future__ import annotations

import pytest

from repro.isa import assemble
from repro.machine.cpu import STOP_HALT, STOP_STEPS
from repro.machine.process import Process
from repro.machine.signals import Trap

BACKENDS = ("interpreter", "compiled")

FAULTY_ASM = """
.text
.entry main
.func main
main:
    movi r1, #0
    movi r2, #50
loop:
    addi r1, r1, #1
    slt r3, r1, r2
    bnez r3, loop
    movi r4, #1
    ld r5, [r4 + 0]
    halt
"""


def _run_probed(cpu, max_steps: int, probe, interval: int) -> str:
    """``cpu.run(max_steps)`` in *interval*-sized buckets, calling
    ``probe(instret)`` after each bucket that completes."""
    remaining = max_steps
    stop = STOP_HALT if cpu.halted else STOP_STEPS
    while remaining > 0:
        before = cpu.instret
        stop = cpu.run(min(interval, remaining))
        remaining -= cpu.instret - before
        probe(cpu.instret)
        if stop == STOP_HALT:
            break
    return stop


def _state(process):
    cpu = process.cpu
    return (cpu.pc, cpu.instret, cpu.halted, list(cpu.iregs), list(cpu.fregs))


@pytest.fixture(scope="module")
def demo(demo_program):
    return demo_program


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("interval", [1, 7, 64, 10_000])
def test_probed_run_matches_plain_run(demo, backend, interval):
    plain = Process.load(demo, backend=backend)
    stop_plain = plain.cpu.run(10_000)

    probed = Process.load(demo, backend=backend)
    seen: list[int] = []
    stop_probed = _run_probed(probed.cpu, 10_000, seen.append, interval)

    assert stop_probed == stop_plain == STOP_HALT
    assert _state(probed) == _state(plain)
    assert probed.output == plain.output
    # Monotone probe trail ending at the final retirement count.
    assert seen == sorted(seen)
    assert seen[-1] == probed.cpu.instret


@pytest.mark.parametrize("backend", BACKENDS)
def test_probed_budget_exhaustion_is_exact(demo, backend):
    budget = 37
    plain = Process.load(demo, backend=backend)
    assert plain.cpu.run(budget) == STOP_STEPS

    probed = Process.load(demo, backend=backend)
    seen: list[int] = []
    assert _run_probed(probed.cpu, budget, seen.append, 10) == STOP_STEPS
    assert _state(probed) == _state(plain)
    assert probed.cpu.instret == budget
    assert seen == [10, 20, 30, 37]


@pytest.mark.parametrize("backend", BACKENDS)
def test_probed_trap_propagates_at_same_site(backend):
    program = assemble(FAULTY_ASM, "probe-faulty")
    plain = Process.load(program, backend=backend)
    with pytest.raises(Trap) as plain_trap:
        plain.cpu.run(10_000)

    probed = Process.load(program, backend=backend)
    seen: list[int] = []
    with pytest.raises(Trap) as probed_trap:
        _run_probed(probed.cpu, 10_000, seen.append, 16)

    assert probed_trap.value.signal == plain_trap.value.signal
    assert _state(probed) == _state(plain)
    # The bucket the trap interrupted never completed, so no trailing probe.
    assert all(i <= probed.cpu.instret for i in seen)
