"""Single-fault injection runs (paper section 5.4, phase 2).

A run advances a fresh process to the planned dynamic instruction, flips
the planned bit in the register that instruction produced, and then either
lets the default OS behaviour apply (baseline: any trap kills the process)
or hands supervision to LetGo.  The resulting :class:`InjectionResult`
carries the Figure-4 leaf plus enough detail for per-site analysis.

Runs accept an optional **wall-clock watchdog** (``wall_clock_limit``
seconds): the instruction budget already converts infinite loops into
``HANG``, but a pathological repaired run can be *slow* rather than
unbounded -- e.g. a corrupted trip count that still fits the budget yet
takes minutes of interpreter time.  The watchdog caps real time per run so
one bad injection cannot stall a campaign worker forever.  Expired runs
classify as ``HANG`` (with ``timed_out=True`` for observability); the
default of ``None`` keeps runs bit-for-bit deterministic.

Runs accept an optional golden **snapshot ladder** (``ladder``): the
post-fault run is then compared with the golden state at every rung it
reaches, and a run that matches one stops there.  A LetGo run is
matched at ``instret + repairs``: each repair skips the faulting
instruction without retiring it.  The machine is deterministic and the
golden path trap-free, so the rest of such a run *is* the golden run: it
is finished from the golden facts (output, retirement count less the
repairs) through the same classification code, and the
:class:`InjectionResult` is identical to the full-length run's.

Runs accept an optional **trap-free memo** (``memo``, see
:class:`~repro.apps.base.TrapFreeMemo`): a post-fault run that raises no
crash signal ends the same under every LetGo configuration, so its
result is stored, and a later run of the same plan under any
configuration still advances and flips but skips the post-fault run.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.apps.base import MemoEntry, MiniApp, TrapFreeMemo
from repro.checkpoint.snapshot import SnapshotLadder
from repro.core.config import LetGoConfig
from repro.core.session import (
    COMPLETED,
    CONVERGED,
    HUNG,
    STOP_CONVERGED,
    LetGoSession,
    cont_sliced,
)
from repro.errors import InjectionError
from repro.faultinject.fault_model import InjectionPlan, flip_bit, select_target
from repro.faultinject.outcomes import Outcome, classify_finished
from repro.machine.debugger import (
    STOP_EXITED,
    STOP_STEPS_DONE,
    STOP_TRAP,
    DebugSession,
)
from repro.machine.signals import Signal
from repro.telemetry.tracer import NULL_TRACER


@dataclass
class InjectionResult:
    """One fault-injection run, fully described."""

    outcome: Outcome
    plan: InjectionPlan
    target_pc: int | None = None        # static site of the corrupted instr
    target_reg: tuple[str, int] | None = None
    first_signal: Signal | None = None  # first crash signal, if any
    interventions: int = 0              # LetGo repairs performed
    steps: int = 0                      # total retired instructions
    timed_out: bool = False             # wall-clock watchdog expired


def _advance_and_flip(
    session: DebugSession, plan: InjectionPlan
) -> tuple[int, tuple[str, int]] | None:
    """Run to the injection point and apply the flip.

    Returns (target_pc, target_reg), or None if the program halted before
    an eligible instruction appeared.  The pre-injection path is the golden
    path, so traps are impossible here by construction.

    The session may already be part-way down the golden path (restored
    from a snapshot-ladder rung); only the remaining prefix is replayed.
    """
    cpu = session.process.cpu
    remaining = plan.dyn_index - 1 - cpu.instret
    if remaining < 0:
        raise InjectionError(
            f"session already past the injection point "
            f"(instret={cpu.instret}, dyn_index={plan.dyn_index})"
        )
    if remaining > 0:
        event = session.run_steps(remaining)
        if event.kind == STOP_EXITED:
            return None
        if event.kind != STOP_STEPS_DONE:
            raise InjectionError(
                f"unexpected stop {event.kind!r} on the golden prefix"
            )
    instrs = session.process.program.instrs
    while True:
        pc = cpu.pc
        if not 0 <= pc < len(instrs):
            # A malformed image can step to a pc outside it without
            # trapping until the next fetch; surface that as a golden-path
            # failure instead of an IndexError (or a bogus negative-index
            # fetch) on the line below.
            raise InjectionError(
                f"golden prefix walked off the image (pc={pc})"
            )
        instr = instrs[pc]
        event = session.run_steps(1)
        if event.kind == STOP_TRAP:  # pragma: no cover - golden path
            raise InjectionError(f"golden prefix trapped: {event.trap}")
        target = select_target(instr, plan.reg_choice)
        if target is not None:
            for bit in plan.bits:
                flip_bit(cpu, target[0], target[1], bit)
            return pc, target
        if event.kind == STOP_EXITED:
            return None


def run_injection(
    app: MiniApp,
    plan: InjectionPlan,
    config: LetGoConfig | None = None,
    *,
    session: DebugSession | None = None,
    wall_clock_limit: float | None = None,
    backend: str | None = None,
    tracer=None,
    ladder: SnapshotLadder | None = None,
    memo: TrapFreeMemo | None = None,
) -> InjectionResult:
    """Execute one injection run; ``config=None`` is the no-LetGo baseline.

    ``session`` optionally supplies a pre-positioned golden-path session
    (e.g. restored from a snapshot-ladder rung at or before the plan's
    injection point); by default a fresh process is loaded and the whole
    prefix replayed.  Results are identical either way.

    ``wall_clock_limit`` caps the post-injection continuation in real
    seconds (the golden prefix is bounded by construction); expiry
    classifies as ``HANG`` with ``timed_out=True``.

    ``backend`` picks the execution engine for the freshly loaded process
    (ignored when *session* is supplied); outcomes are backend-invariant.

    ``tracer`` (a :class:`repro.telemetry.Tracer`) times the run's phases
    (``advance-to-site``, ``post-fault``, ``repair``, ``acceptance-check``)
    and tallies outcome / first-signal counters; the default null tracer
    costs nothing and never alters the result.

    ``ladder`` (the app's golden :class:`SnapshotLadder`) stops the
    post-fault run at the first rung where its state equals the golden
    state and finishes it as the golden run.  A LetGo run that was
    repaired is compared with the rung one retirement ahead per repair
    and finishes that many retirements short of the golden count.
    ``converged``, ``converged-lagged`` (converged runs with at least
    one repair) and ``converged-skipped-instr`` (golden instructions not
    executed) are counted on the tracer.  The result is identical to the
    run without a ladder, which stays the full-length reference.

    ``memo`` (a :class:`~repro.apps.base.TrapFreeMemo`) stores the
    result of a post-fault run that raised no signal, and serves a later
    run of the same plan under any config: it still advances and flips,
    checks that the flip hit the stored target, and re-emits the spans
    and counters the post-fault run would have, plus ``memo-hit``.
    Without a memo the run is cold and stores nothing.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    deadline = (
        perf_counter() + wall_clock_limit
        if wall_clock_limit is not None
        else None
    )
    if session is None:
        session = DebugSession(app.load(backend))
    process = session.process
    with tracer.span("advance-to-site"):
        placed = _advance_and_flip(session, plan)
    if placed is None:
        result = InjectionResult(
            outcome=Outcome.NOT_INJECTED,
            plan=plan,
            steps=process.cpu.instret,
        )
    else:
        target_pc, target_reg = placed
        tracer.instant("flip", pc=target_pc, reg=target_reg[0])
        key = memo.key(app, plan, ladder) if memo is not None else None
        entry = memo.get(key) if memo is not None else None
        if entry is not None:
            result = _replay(plan, target_pc, target_reg, entry, tracer)
        else:
            budget = max(app.max_steps - process.cpu.instret, 1)
            if config is None:
                result, skipped = _finish_baseline(
                    app, session, plan, target_pc, target_reg, budget,
                    deadline, tracer, ladder,
                )
            else:
                result, skipped = _finish_letgo(
                    app, session, plan, target_pc, target_reg, budget,
                    config, deadline, tracer, ladder,
                )
            if memo is not None and memo.admits(result):
                memo.put(key, MemoEntry(
                    result.outcome, target_pc, target_reg, result.steps,
                    skipped,
                ))
    tracer.count(f"outcome:{result.outcome.value}")
    if result.timed_out:
        tracer.count("timeout")
    if result.first_signal is not None:
        tracer.count(f"first-signal:{result.first_signal.name}")
    return result


def _replay(
    plan: InjectionPlan,
    target_pc: int,
    target_reg: tuple[str, int],
    entry: MemoEntry,
    tracer,
) -> InjectionResult:
    """The memoized result of a trap-free post-fault run, not re-run.

    Emits the spans and counters the run would have: one ``post-fault``
    span, and for a run that finished (every trap-free outcome but a
    hang) the converged counters and one ``acceptance-check`` span.  A
    trap-free run was never repaired, so it never converged lagged.
    """
    if (target_pc, target_reg) != (entry.target_pc, entry.target_reg):
        raise InjectionError(
            f"memoized run of {plan} flipped {entry.target_reg} at pc "
            f"{entry.target_pc}; this run flipped {target_reg} at pc "
            f"{target_pc}"
        )
    tracer.count("memo-hit")
    with tracer.span("post-fault"):
        pass
    if entry.outcome is not Outcome.HANG:
        _count_converged(entry.skipped, tracer)
        with tracer.span("acceptance-check"):
            pass
    return InjectionResult(
        outcome=entry.outcome,
        plan=plan,
        target_pc=target_pc,
        target_reg=target_reg,
        steps=entry.steps,
    )


def _count_converged(skipped: int | None, tracer, lag: int = 0) -> None:
    if skipped is not None:
        tracer.count("converged")
        if lag:
            tracer.count("converged-lagged")
        tracer.count("converged-skipped-instr", skipped)


def _classify_finished(
    app: MiniApp, process, converged: bool, continued: bool, tracer,
    lag: int = 0,
) -> tuple[Outcome, int, int | None]:
    """(outcome, steps, skipped) of a run that halted or converged to the
    golden run.

    A converged run stopped on a ladder rung in the golden state, *lag*
    retirements behind it (its repair count); its remainder is the
    golden run, so it finishes with the golden output and the golden
    retirement count less *lag* through the same classification.
    *skipped* counts the golden instructions it did not execute (None:
    it halted).
    """
    finish = app.golden.instret - lag
    skipped = finish - process.cpu.instret if converged else None
    _count_converged(skipped, tracer, lag)
    with tracer.span("acceptance-check"):
        output = list(app.golden.output if converged else process.output)
        outcome = classify_finished(
            passed_check=app.acceptance_check(output),
            matches_golden=app.matches_golden(output),
            continued=continued,
        )
    steps = finish if converged else process.cpu.instret
    return outcome, steps, skipped


def _finish_baseline(
    app: MiniApp,
    session: DebugSession,
    plan: InjectionPlan,
    target_pc: int,
    target_reg: tuple[str, int],
    budget: int,
    deadline: float | None = None,
    tracer=NULL_TRACER,
    ladder: SnapshotLadder | None = None,
) -> tuple[InjectionResult, int | None]:
    process = session.process
    with tracer.span("post-fault"):
        event, timed_out = cont_sliced(
            session, budget, deadline=deadline, ladder=ladder
        )
    steps = process.cpu.instret
    signal: Signal | None = None
    skipped: int | None = None
    if event.kind == STOP_TRAP:
        assert event.trap is not None
        session.deliver_default(event.trap)
        outcome: Outcome = Outcome.CRASH
        signal = event.trap.signal
    elif event.kind in (STOP_EXITED, STOP_CONVERGED):
        outcome, steps, skipped = _classify_finished(
            app, process, event.kind == STOP_CONVERGED, False, tracer
        )
    else:
        outcome = Outcome.HANG
    return InjectionResult(
        outcome=outcome,
        plan=plan,
        target_pc=target_pc,
        target_reg=target_reg,
        first_signal=signal,
        steps=steps,
        timed_out=timed_out,
    ), skipped


def _finish_letgo(
    app: MiniApp,
    session: DebugSession,
    plan: InjectionPlan,
    target_pc: int,
    target_reg: tuple[str, int],
    budget: int,
    config: LetGoConfig,
    deadline: float | None = None,
    tracer=NULL_TRACER,
    ladder: SnapshotLadder | None = None,
) -> tuple[InjectionResult, int | None]:
    process = session.process
    with tracer.span("post-fault"):
        report = LetGoSession(config, app.functions).run(
            process, budget, deadline=deadline, tracer=tracer, ladder=ladder
        )
    steps = process.cpu.instret
    skipped: int | None = None
    if report.status in (COMPLETED, CONVERGED):
        outcome, steps, skipped = _classify_finished(
            app, process, report.status == CONVERGED, report.intervened,
            tracer, len(report.interventions),
        )
    elif report.status == HUNG:
        outcome = Outcome.C_HANG if report.intervened else Outcome.HANG
    elif report.intervened:
        outcome = Outcome.DOUBLE_CRASH
    else:
        # first signal was outside LetGo's table (e.g. SIGFPE)
        outcome = Outcome.CRASH_UNHANDLED
    first_signal = (
        report.interventions[0].signal
        if report.intervened
        else report.final_signal
    )
    return InjectionResult(
        outcome=outcome,
        plan=plan,
        target_pc=target_pc,
        target_reg=target_reg,
        first_signal=first_signal,
        interventions=len(report.interventions),
        steps=steps,
        timed_out=report.timed_out,
    ), skipped


__all__ = ["InjectionResult", "run_injection"]
