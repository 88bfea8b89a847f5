"""Golden-state convergence: the rung comparison and the post-fault cut,
including runs that LetGo repaired, which match a rung behind it.

:meth:`Snapshot.matches` decides whether a post-fault run may stop at a
ladder rung and be finished as the golden run.  A false match would
change outcomes, so every field that can differ while ``==`` says equal
(signed zeros, NaN payloads, zero-valued cells, int/float tags) has a
negative case here, on both execution backends.
"""

from dataclasses import replace

import pytest

from repro.checkpoint import build_ladder, restore
from repro.core import LETGO_E
from repro.core.session import STOP_CONVERGED, cont_sliced
from repro.faultinject import run_injection
from repro.faultinject.fault_model import InjectionPlan
from repro.faultinject.outcomes import Outcome
from repro.fuzz.app import LangApp
from repro.isa import assemble
from repro.isa.registers import SP
from repro.lang import compile_source
from repro.machine.debugger import (
    STOP_BUDGET,
    STOP_EXITED,
    STOP_TRAP,
    DebugSession,
)
from repro.machine.memory import pattern_to_float
from repro.telemetry import Tracer

BACKENDS = ("interpreter", "compiled")


@pytest.fixture(scope="module")
def program():
    return compile_source(
        """
        global float data[8];
        func main() -> int {
            var int i;
            var float s = 0.0;
            for (i = 0; i < 120; i = i + 1) {
                data[i - (i / 8) * 8] = float(i);
                s = s + float(i);
                if (i - (i / 40) * 40 == 0) { out(s); out(i); }
            }
            out(s);
            return 0;
        }
        """,
        "convergence-test",
    )


@pytest.fixture(scope="module")
def rung(program):
    ladder = build_ladder(program, interval=500)
    rung = ladder.rungs[len(ladder) // 2]
    assert rung.output, "pick a rung after the first output"
    return rung


def _at(program, snap, backend):
    return restore(program, snap, backend=backend)


def _stack(process):
    return next(seg for seg in process.memory.segments if seg.name == "stack")


@pytest.mark.parametrize("backend", BACKENDS)
def test_identical_process_matches(program, rung, backend):
    assert rung.matches(_at(program, rung, backend))


@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_run_matches_every_rung_it_reaches(program, backend):
    ladder = build_ladder(program, interval=97)
    session = DebugSession(_at(program, ladder.rungs[0], backend))
    for rung in ladder.rungs[1:]:
        session.cont(rung.instret - session.process.cpu.instret)
        assert rung.matches(session.process)


@pytest.mark.parametrize("backend", BACKENDS)
def test_off_by_one_instret_does_not_match(program, rung, backend):
    process = _at(program, rung, backend)
    process.cpu.instret += 1
    assert not rung.matches(process)


@pytest.mark.parametrize("backend", BACKENDS)
def test_lagged_match_needs_the_exact_lag(program, rung, backend):
    process = _at(program, rung, backend)
    assert not rung.matches(process, lag=1)
    process.cpu.instret -= 1  # one skipped, unretired instruction
    assert rung.matches(process, lag=1)
    assert not rung.matches(process)
    assert not rung.matches(process, lag=2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_integer_register_difference(program, rung, backend):
    process = _at(program, rung, backend)
    process.cpu.iregs[5] ^= 1 << 62
    assert not rung.matches(process)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "golden, live",
    [
        (0.0, -0.0),
        (-0.0, 0.0),
        (pattern_to_float(0x7FF8000000000001), pattern_to_float(0x7FF8000000000002)),
        (pattern_to_float(0x7FF8000000000000), pattern_to_float(0xFFF8000000000000)),
    ],
    ids=["+0-vs-0", "-0-vs+0", "nan-payload", "nan-sign"],
)
def test_float_register_compares_by_bit_pattern(program, rung, backend, golden, live):
    snap = replace(rung, fregs=(golden,) + rung.fregs[1:])
    process = _at(program, snap, backend)
    assert snap.matches(process)  # NaN != NaN, but the bits are the same
    process.cpu.fregs[0] = live
    assert not snap.matches(process)


@pytest.mark.parametrize("backend", BACKENDS)
def test_extra_cell_written_with_zero(program, rung, backend):
    process = _at(program, rung, backend)
    stack = _stack(process)
    address = next(
        a for a in range(stack.start, stack.end, 8) if a not in rung.cells
    )
    assert process.memory.read_pattern(address) == 0
    process.memory.write_pattern(address, 0)
    assert not rung.matches(process)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "golden, live",
    [
        (("f", 0.0), ("f", -0.0)),
        (("f", pattern_to_float(0x7FF8000000000001)),
         ("f", pattern_to_float(0x7FF8000000000003))),
        (("i", 3), ("f", 3.0)),
        (("f", 3.0), ("i", 3)),
        (("i", 3), ("f", 3)),
    ],
    ids=["signed-zero", "nan-payload", "i-to-f", "f-to-i", "tag-only"],
)
def test_output_stream_compares_tags_and_bits(program, rung, backend, golden, live):
    snap = replace(rung, output=rung.output[:-1] + (golden,))
    process = _at(program, snap, backend)
    assert snap.matches(process)
    process.cpu.output[-1] = live
    assert not snap.matches(process)


@pytest.mark.parametrize("backend", BACKENDS)
def test_halted_cpu_does_not_match(program, rung, backend):
    process = _at(program, rung, backend)
    process.cpu.halted = True
    assert not rung.matches(process)


WILD_RET = """
.text
.entry _start
.func _start
_start:
    call f
    halt
.func f
f:
    ret
"""


@pytest.mark.parametrize("backend", BACKENDS)
def test_out_of_image_pc_does_not_match(backend):
    # A corrupted return address: the RET retires, and a budget that
    # ends right there leaves the wild pc in place with no trap yet (on
    # the compiled backend: its parked wild-jump protocol).
    program = assemble(WILD_RET)
    ladder = build_ladder(program, interval=1)
    before, after = ladder.rungs[0], ladder.rungs[1]
    process = restore(program, before, backend=backend)
    sp = process.cpu.iregs[SP]
    ret_slot = next(a for a in before.cells if a >= sp)
    process.memory.write_pattern(ret_slot, 999)
    session = DebugSession(process)
    session.run_steps(1)
    assert process.cpu.pc == 999
    assert process.cpu.instret == after.instret
    process.memory.write_pattern(ret_slot, after.cells[ret_slot])
    assert not after.matches(process)
    process.cpu.pc = after.pc
    assert after.matches(process)  # the pc was the only difference


@pytest.mark.parametrize("backend", BACKENDS)
def test_cont_sliced_stops_only_on_a_match(program, backend):
    ladder = build_ladder(program, interval=97)
    # Golden continuation from rung 2 converges at the very next rung.
    session = DebugSession(_at(program, ladder.rungs[2], backend))
    event, timed_out = cont_sliced(session, 10**6, ladder=ladder)
    assert (event.kind, timed_out) == (STOP_CONVERGED, False)
    assert session.process.cpu.instret == ladder.rungs[3].instret
    assert event.steps == 97
    # A dead-store difference (an extra zero cell) never converges: the
    # run goes on to HALT with exactly the golden retirement count.
    process = _at(program, ladder.rungs[2], backend)
    process.memory.write_pattern(_stack(process).start, 0)
    event, _ = cont_sliced(DebugSession(process), 10**6, ladder=ladder)
    assert event.kind == STOP_EXITED
    assert process.cpu.instret == ladder.total


@pytest.mark.parametrize("backend", BACKENDS)
def test_cont_sliced_needs_budget_for_the_golden_remainder(program, backend):
    ladder = build_ladder(program, interval=97)
    start, rung = ladder.rungs[2], ladder.rungs[3]
    # Enough budget to reach the rung but not to finish the golden run:
    # the full-length run would hang, so converging would be wrong.
    short = (rung.instret - start.instret) + (ladder.total - rung.instret) - 1
    session = DebugSession(_at(program, start, backend))
    event, _ = cont_sliced(session, short, ladder=ladder)
    assert event.kind == STOP_BUDGET
    assert event.steps == short
    session = DebugSession(_at(program, start, backend))
    event, _ = cont_sliced(session, short + 1, ladder=ladder)
    assert event.kind == STOP_CONVERGED


@pytest.mark.parametrize("backend", BACKENDS)
def test_cont_sliced_converges_a_lagging_run_short_of_the_rung(program, backend):
    ladder = build_ladder(program, interval=97)
    start, rung = ladder.rungs[2], ladder.rungs[3]
    process = _at(program, start, backend)
    process.cpu.instret -= 2  # the golden state, two retirements behind
    event, _ = cont_sliced(DebugSession(process), 10**6, ladder=ladder, lag=2)
    assert event.kind == STOP_CONVERGED
    assert event.steps == 97
    assert process.cpu.instret == rung.instret - 2
    # The same run at the wrong lag never matches and goes on to HALT.
    process = _at(program, start, backend)
    process.cpu.instret -= 2
    event, _ = cont_sliced(DebugSession(process), 10**6, ladder=ladder, lag=1)
    assert event.kind == STOP_EXITED
    assert process.cpu.instret == ladder.total - 2
    # A lagging run needs budget for the golden remainder as well.
    short = 97 + (ladder.total - rung.instret) - 1
    process = _at(program, start, backend)
    process.cpu.instret -= 2
    event, _ = cont_sliced(DebugSession(process), short, ladder=ladder, lag=2)
    assert (event.kind, event.steps) == (STOP_BUDGET, short)


@pytest.mark.parametrize("backend", BACKENDS)
def test_cont_sliced_wild_pc_traps_instead_of_converging(backend):
    program = assemble(WILD_RET)
    ladder = build_ladder(program, interval=1)
    process = restore(program, ladder.rungs[0], backend=backend)
    sp = process.cpu.iregs[SP]
    ret_slot = next(a for a in ladder.rungs[0].cells if a >= sp)
    process.memory.write_pattern(ret_slot, 999)
    event, _ = cont_sliced(DebugSession(process), 100, ladder=ladder)
    assert event.kind == STOP_TRAP


# -- whole injection runs ---------------------------------------------------------

#: A pennant fault that is masked early: the run reaches the golden state
#: at a rung long before HALT.
MASKED_PLAN = InjectionPlan(
    dyn_index=6975, bit=62, reg_choice=0.6221792294411627
)


@pytest.mark.parametrize("config", [None, LETGO_E], ids=["baseline", "LetGo-E"])
def test_converged_run_is_identical_to_the_cold_run(pennant_app, config):
    cold = run_injection(pennant_app, MASKED_PLAN, config)
    tracer = Tracer()
    session = DebugSession(pennant_app.load())
    laddered = run_injection(
        pennant_app, MASKED_PLAN, config,
        session=session, tracer=tracer, ladder=pennant_app.ladder(),
    )
    assert laddered == cold
    assert laddered.steps == pennant_app.golden.instret
    assert tracer.counters["converged"] == 1
    cpu = session.process.cpu
    assert not cpu.halted  # stopped on a rung, not at HALT
    assert tracer.counters["converged-skipped-instr"] == (
        pennant_app.golden.instret - cpu.instret
    ) > 0
    assert tracer.counters["outcome:benign"] == 1


# -- LetGo runs behind the rung grid ---------------------------------------------

#: A pennant fault LetGo-E repairs once and the run completes benign: the
#: repair skips the faulting instruction without retiring it, so from then
#: on the run is one retirement behind its golden position.
OFF_GRID_PLAN = InjectionPlan(
    dyn_index=22537, bit=40, reg_choice=0.6605000674278948
)


def test_repaired_run_converges_one_retirement_behind(pennant_app):
    cold = run_injection(pennant_app, OFF_GRID_PLAN, LETGO_E)
    assert cold.interventions == 1
    assert cold.outcome is Outcome.C_BENIGN
    assert cold.steps == pennant_app.golden.instret - 1

    tracer = Tracer()
    session = DebugSession(pennant_app.load())
    laddered = run_injection(
        pennant_app, OFF_GRID_PLAN, LETGO_E,
        session=session, tracer=tracer, ladder=pennant_app.ladder(),
    )
    assert laddered == cold
    assert laddered.steps == pennant_app.golden.instret - 1
    cpu = session.process.cpu
    assert not cpu.halted  # stopped on a rung, not at HALT
    assert tracer.counters["converged"] == 1
    assert tracer.counters["converged-lagged"] == 1
    assert tracer.counters["converged-skipped-instr"] == (
        pennant_app.golden.instret - 1 - cpu.instret
    ) > 0


def _with_budget(app, max_steps):
    """*app* with its per-run instruction budget set to *max_steps*."""
    budgeted = type(f"Budgeted{type(app).__name__}", (type(app),), {
        "max_steps": property(lambda self: max_steps),
    })
    return budgeted()


@pytest.mark.parametrize("short", [1, 0], ids=["budget-short", "budget-exact"])
def test_repaired_run_needs_budget_for_the_golden_remainder(pennant_app, short):
    # The repaired run retires golden.instret - 1 instructions in all; one
    # fewer in the budget makes the full-length run a hang, so the
    # laddered run must not converge either.
    app = _with_budget(pennant_app, pennant_app.golden.instret - 1 - short)
    cold = run_injection(app, OFF_GRID_PLAN, LETGO_E)
    tracer = Tracer()
    laddered = run_injection(
        app, OFF_GRID_PLAN, LETGO_E, tracer=tracer, ladder=app.ladder(),
    )
    assert laddered == cold
    assert cold.interventions == 1
    if short:
        assert cold.outcome is Outcome.C_HANG
        assert "converged" not in tracer.counters
    else:
        assert cold.outcome is Outcome.C_BENIGN
        assert tracer.counters["converged-lagged"] == 1


#: Two dead loads through one index: a high bit flipped into ``j`` makes
#: both fault, and the next statements overwrite everything they touched.
TWO_REPAIRS_SOURCE = """
global float data[8];
func main() -> int {
    var int i;
    var int j;
    var float a;
    var float b;
    var float s = 0.0;
    for (i = 0; i < 40; i = i + 1) {
        j = i - (i / 8) * 8;
        a = data[j];
        b = data[j];
        a = 0.0;
        b = 0.0;
        j = 0;
        data[i - (i / 8) * 8] = float(i);
        s = s + float(i);
    }
    out(s);
    return 0;
}
"""

#: Flips the stored index ``j`` in the first loop iteration.
TWO_REPAIRS_PLAN = InjectionPlan(dyn_index=22, bit=62, reg_choice=0.5)


@pytest.mark.parametrize("interval", [None, 7], ids=["default", "tiny"])
def test_two_repairs_converge_two_retirements_behind(interval):
    app = LangApp(TWO_REPAIRS_SOURCE, "two-repairs")
    config = replace(LETGO_E, max_interventions=2)
    cold = run_injection(app, TWO_REPAIRS_PLAN, config)
    assert cold.interventions == 2
    assert cold.outcome is Outcome.C_BENIGN
    assert cold.steps == app.golden.instret - 2
    tracer = Tracer()
    laddered = run_injection(
        app, TWO_REPAIRS_PLAN, config, tracer=tracer,
        ladder=app.ladder(interval),
    )
    assert laddered == cold
    assert tracer.counters["converged-lagged"] == 1
