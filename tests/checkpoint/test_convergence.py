"""Golden-state convergence: the rung comparison and the post-fault cut,
including runs that LetGo repaired, which match a rung behind it, and
the doubling schedule of the rungs a post-fault run is compared at.

:meth:`Snapshot.matches` decides whether a post-fault run may stop at a
ladder rung and be finished as the golden run.  A false match would
change outcomes, so every field that can differ while ``==`` says equal
(signed zeros, NaN payloads, zero-valued cells, int/float tags) has a
negative case here, on both execution backends.
"""

from bisect import bisect_right
from dataclasses import replace

import pytest

import repro.core.session as session_module
from repro.analysis.functions import FunctionTable
from repro.checkpoint import build_ladder, restore
from repro.checkpoint.snapshot import Snapshot
from repro.core import LETGO_E, LetGoSession
from repro.core.session import (
    CONVERGED,
    MAX_RUNG_STRIDE,
    STOP_CONVERGED,
    cont_sliced,
)
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
from repro.machine.process import Process
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
    event = cont_sliced(session, 10**6, ladder=ladder)
    assert event.kind == STOP_CONVERGED
    assert session.process.cpu.instret == ladder.rungs[3].instret
    assert event.steps == 97
    # A dead-store difference (an extra zero cell) never converges: the
    # run goes on to HALT with exactly the golden retirement count.
    process = _at(program, ladder.rungs[2], backend)
    process.memory.write_pattern(_stack(process).start, 0)
    event = cont_sliced(DebugSession(process), 10**6, ladder=ladder)
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
    event = cont_sliced(session, short, ladder=ladder)
    assert event.kind == STOP_BUDGET
    assert event.steps == short
    session = DebugSession(_at(program, start, backend))
    event = cont_sliced(session, short + 1, ladder=ladder)
    assert event.kind == STOP_CONVERGED


@pytest.mark.parametrize("backend", BACKENDS)
def test_cont_sliced_converges_a_lagging_run_short_of_the_rung(program, backend):
    ladder = build_ladder(program, interval=97)
    start, rung = ladder.rungs[2], ladder.rungs[3]
    process = _at(program, start, backend)
    process.cpu.instret -= 2  # the golden state, two retirements behind
    event = cont_sliced(DebugSession(process), 10**6, ladder=ladder, lag=2)
    assert event.kind == STOP_CONVERGED
    assert event.steps == 97
    assert process.cpu.instret == rung.instret - 2
    # The same run at the wrong lag never matches and goes on to HALT.
    process = _at(program, start, backend)
    process.cpu.instret -= 2
    event = cont_sliced(DebugSession(process), 10**6, ladder=ladder, lag=1)
    assert event.kind == STOP_EXITED
    assert process.cpu.instret == ladder.total - 2
    # A lagging run needs budget for the golden remainder as well.
    short = 97 + (ladder.total - rung.instret) - 1
    process = _at(program, start, backend)
    process.cpu.instret -= 2
    event = cont_sliced(DebugSession(process), short, ladder=ladder, lag=2)
    assert (event.kind, event.steps) == (STOP_BUDGET, short)


@pytest.mark.parametrize("backend", BACKENDS)
def test_cont_sliced_wild_pc_traps_instead_of_converging(backend):
    program = assemble(WILD_RET)
    ladder = build_ladder(program, interval=1)
    process = restore(program, ladder.rungs[0], backend=backend)
    sp = process.cpu.iregs[SP]
    ret_slot = next(a for a in ladder.rungs[0].cells if a >= sp)
    process.memory.write_pattern(ret_slot, 999)
    event = cont_sliced(DebugSession(process), 100, ladder=ladder)
    assert event.kind == STOP_TRAP


# -- the comparison schedule ------------------------------------------------------


def _compared_rungs(ladder, instret):
    """Retirement counts of the rungs :func:`cont_sliced` compares a run
    with, for a run starting at *instret* (lag included) that never
    converges: the rung just above it, then strides 2, 4, 8 and 16, 16,
    ... rungs further on, the last rung when a stride runs past it."""
    pos, last = bisect_right(ladder.instrets, instret), len(ladder) - 1
    stride, compared = 1, []
    while pos <= last:
        compared.append(ladder.instrets[pos])
        if pos == last:
            break
        stride = min(2 * stride, MAX_RUNG_STRIDE)
        pos = min(pos + stride, last)
    return compared


@pytest.fixture
def compared(monkeypatch):
    """``(rung instret, lag)`` of every :meth:`Snapshot.matches` call."""
    calls = []
    matches = Snapshot.matches

    def spy(self, process, lag=0):
        calls.append((self.instret, lag))
        return matches(self, process, lag)

    monkeypatch.setattr(Snapshot, "matches", spy)
    return calls


@pytest.fixture
def slice_starts(monkeypatch):
    """Golden position (``instret + lag``) of the run at every
    :func:`cont_sliced` call that :meth:`LetGoSession.run` makes."""
    starts = []

    def spy(session, budget, **kwargs):
        starts.append(session.process.cpu.instret + kwargs["lag"])
        return cont_sliced(session, budget, **kwargs)

    monkeypatch.setattr(session_module, "cont_sliced", spy)
    return starts


def _with_dead_cell(program, start, backend):
    """A run from rung *start* whose ``data[7]`` holds a value the golden
    run never has; the loop overwrites it within eight iterations."""
    process = _at(program, start, backend)
    data = next(seg for seg in process.memory.segments if seg.name == "data")
    process.memory.write_float(data.start + 7 * 8, -1.5)
    return process


def _first_matching_rung(process, ladder):
    """The first rung at which *process*, run forward, equals the golden
    state (each rung compared, as a stride of one would)."""
    session = DebugSession(process)
    for rung in ladder.rungs:
        if rung.instret <= process.cpu.instret:
            continue
        session.cont(rung.instret - process.cpu.instret)
        if rung.matches(process):
            return rung
    raise AssertionError("the run never rejoins the golden state")


@pytest.mark.parametrize("backend", BACKENDS)
def test_cont_sliced_stops_at_the_first_compared_rung_after_rejoining(
    program, backend, compared
):
    ladder = build_ladder(program, interval=13)
    start = ladder.rungs[0]
    first = _first_matching_rung(_with_dead_cell(program, start, backend), ladder)
    stop = next(
        r for r in _compared_rungs(ladder, start.instret) if r >= first.instret
    )
    assert stop > first.instret  # the schedule skips the first equal rung
    compared.clear()
    process = _with_dead_cell(program, start, backend)
    event = cont_sliced(DebugSession(process), 10**6, ladder=ladder)
    assert event.kind == STOP_CONVERGED
    assert process.cpu.instret == stop
    assert event.steps == stop - start.instret
    assert [r for r, _ in compared] == [
        r for r in _compared_rungs(ladder, start.instret) if r <= stop
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_cont_sliced_backs_off_a_run_that_never_converges(
    program, backend, compared
):
    ladder = build_ladder(program, interval=7)
    start = ladder.rungs[0]
    process = _at(program, start, backend)
    process.memory.write_pattern(_stack(process).start, 0)  # a dead extra cell
    event = cont_sliced(DebugSession(process), 10**6, ladder=ladder)
    assert event.kind == STOP_EXITED
    assert process.cpu.instret == ladder.total
    rungs_above = len(ladder) - 1
    assert rungs_above > 200
    assert [r for r, _ in compared] == _compared_rungs(ladder, start.instret)
    # Four doublings to the cap of 16, then one comparison per 16 rungs.
    assert len(compared) <= 5 + rungs_above // 16 + 1


#: A load through ``idx[0]`` late in the run: with a high bit set in that
#: cell the load faults, LetGo skips it, and the next statements restore
#: everything the fault touched.
LATE_REPAIR_SOURCE = """
global int idx[1];
global float data[8];
func main() -> int {
    var int i;
    var float a;
    var float s = 0.0;
    for (i = 0; i < 200; i = i + 1) {
        if (i == 120) { a = data[idx[0]]; idx[0] = 0; a = 0.0; }
        s = s + float(i);
    }
    out(s);
    return 0;
}
"""


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_repair_restarts_the_schedule_at_the_next_rung(
    backend, compared, slice_starts
):
    program = compile_source(LATE_REPAIR_SOURCE, "late-repair")
    ladder = build_ladder(program, interval=16)
    process = Process.load(program, backend=backend)
    data = next(seg for seg in process.memory.segments if seg.name == "data")
    process.memory.write_int(data.start, 1 << 40)  # idx[0]
    report = LetGoSession(LETGO_E, FunctionTable(program)).run(
        process, 10**6, ladder=ladder
    )
    assert (report.status, len(report.interventions)) == (CONVERGED, 1)
    assert len(slice_starts) == 2  # the flip point, then the repair
    before = [r for r, lag in compared if lag == 0]
    after = [r for r, lag in compared if lag == 1]
    # Before the repair the run diverged long enough to reach the cap.
    assert before == _compared_rungs(ladder, 0)[:len(before)]
    assert before[-1] - before[-2] == MAX_RUNG_STRIDE * ladder.interval
    # After it, the rung just above the repaired run is compared (and
    # matches), where the old stride would have aimed 16 rungs on.
    assert after == [ladder.next_rung(slice_starts[1]).instret]
    assert after[0] < before[-1] + MAX_RUNG_STRIDE * ladder.interval
    assert process.cpu.instret + 1 == after[0]


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


#: Pennant faults whose runs rejoin the golden state a few rungs after
#: the flip (the second one after one LetGo-E repair), between two rungs
#: the schedule compares.
LATE_MASKED_PLAN = InjectionPlan(
    dyn_index=42668, bit=12, reg_choice=0.05139881989008033
)
LATE_REPAIRED_PLAN = InjectionPlan(
    dyn_index=46380, bit=16, reg_choice=0.22932760200855773
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "plan, config, lag",
    [(LATE_MASKED_PLAN, None, 0), (LATE_REPAIRED_PLAN, LETGO_E, 1)],
    ids=["masked-baseline", "repaired-LetGo-E"],
)
def test_schedule_moves_only_the_stop_and_the_skipped_count(
    pennant_app, backend, plan, config, lag, slice_starts, monkeypatch
):
    ladder = pennant_app.ladder()
    runs = {}
    # A stride capped at 1 compares every rung: the run stops at the
    # first rung where it equals the golden state.
    for cap in (1, MAX_RUNG_STRIDE):
        monkeypatch.setattr(session_module, "MAX_RUNG_STRIDE", cap)
        tracer = Tracer()
        session = DebugSession(pennant_app.load(backend))
        result = run_injection(
            pennant_app, plan, config,
            session=session, tracer=tracer, ladder=ladder,
        )
        at = session.process.cpu.instret + lag  # the rung it stopped on
        assert tracer.counters["converged-skipped-instr"] == (
            pennant_app.golden.instret - at
        )
        runs[cap] = (result, at, slice_starts[-1])
    (every, first, _), (scheduled, stop, start) = runs[1], runs[MAX_RUNG_STRIDE]
    assert scheduled == every
    assert scheduled.interventions == lag
    assert stop == next(r for r in _compared_rungs(ladder, start) if r >= first)
    assert stop > first  # the first equal rung was not compared


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
