"""LetGo session: run a process to completion under LetGo supervision.

This is the public entry point of the core package.  It wires together the
monitor (signal interception) and the modifier (state repair) around a
debug session, implementing the full Figure-3 interaction loop:

1. attach, configure signal handling;
2. run; on an intercepted signal, stop;
3. repair state, advance the PC;
4. resume; a *second* crash (or an unhandled signal) terminates the run.

Steps 2-3 on one trap are :meth:`LetGoSession.intervene`, the one place
LetGo decides to repair; the in-vivo C/R driver
(:mod:`repro.parallel.driver`) and the debugger REPL call it too.

:meth:`LetGoSession.run` is the one post-fault loop: the fault injector
runs its no-LetGo baseline through it too, with a configuration that
intercepts no signal.  It continues through :func:`cont_sliced`, which
owns the one slicing rule: stop at the budget or at the next compared
golden snapshot-ladder rung, whichever comes first; it compares rungs
ever further apart while the run keeps diverging
(:data:`MAX_RUNG_STRIDE`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from repro.analysis.functions import FunctionTable
from repro.core.config import LetGoConfig
from repro.core.modifier import InterventionRecord, Modifier
from repro.core.monitor import Monitor
from repro.machine.debugger import (
    STOP_BUDGET,
    STOP_EXITED,
    STOP_TRAP,
    DebugSession,
    StopEvent,
)
from repro.machine.process import Process
from repro.machine.signals import Signal, Trap
from repro.telemetry.tracer import NULL_TRACER

if TYPE_CHECKING:
    from repro.checkpoint.snapshot import SnapshotLadder

#: Final status values of a LetGo-supervised run.
COMPLETED = "completed"      # program halted cleanly
TERMINATED = "terminated"    # killed by a signal LetGo did not (re)handle
HUNG = "hung"                # instruction budget exhausted
CONVERGED = "converged"      # reached a golden ladder rung in the golden state

#: Stop kind of :func:`cont_sliced`: the run sits on a snapshot-ladder rung
#: in exactly that rung's state, so the rest of it *is* the golden run.
STOP_CONVERGED = "converged"

#: Widest gap, in rungs, between two ladder comparisons of one
#: :func:`cont_sliced` call.  A comparison costs little; the stop before
#: it costs more, since it ends compiled execution mid-chain.
MAX_RUNG_STRIDE = 16


def cont_sliced(
    session: DebugSession,
    budget: int,
    *,
    ladder: "SnapshotLadder | None" = None,
    lag: int = 0,
) -> StopEvent:
    """``session.cont(budget)``, sliced at ladder-rung stops.

    Each slice runs to the nearer of the end of the budget and the next
    compared rung of *ladder*, the golden run's snapshot ladder.
    At that rung the process is compared with the golden state there
    (:meth:`~repro.checkpoint.snapshot.Snapshot.matches`); on a match,
    with budget left for the golden remainder, it stops with
    :data:`STOP_CONVERGED`.  *lag* is how many retirements the run is
    behind its golden position (one per LetGo repair, which skips the
    faulting instruction without retiring it): the run is compared with
    the rung at ``instret + lag``, so its slice ends *lag* instructions
    before that rung's retirement count.

    Rungs are compared on a capped doubling schedule: first the rung just
    above the run, then, after each comparison that does not converge, a
    stride twice the last one further on, up to :data:`MAX_RUNG_STRIDE`
    rungs (1, 3, 7, 15, 31, 47, ... rungs above the start; the last rung
    when the stride runs past it).  Convergence is permanent (a run
    in the golden state at one rung is in it at every later one, and the
    budget guard that fails at one rung fails at every later one), so the
    schedule changes only *where* a run stops, never whether it does.

    Returns the stop; ``event.steps`` counts every slice.  Without a
    ladder this is one ``cont`` call.
    """
    cpu = session.process.cpu
    remaining = budget
    steps = 0
    stride = 1
    rung = ladder.next_rung(cpu.instret + lag) if ladder is not None else None
    while True:
        chunk = remaining
        if rung is not None:
            chunk = min(chunk, rung.instret - lag - cpu.instret)
        event = session.cont(chunk)
        steps += event.steps
        remaining -= event.steps
        if event.kind != STOP_BUDGET or remaining <= 0 or rung is None:
            return replace(event, steps=steps)
        # The golden remainder must fit in the budget left, or the
        # full-length run would stop as a hang rather than halt.
        if (
            remaining >= ladder.total - rung.instret
            and rung.matches(session.process, lag)
        ):
            return StopEvent(STOP_CONVERGED, steps, pc=cpu.pc)
        stride = min(2 * stride, MAX_RUNG_STRIDE)
        rung = ladder.next_rung(rung.instret, stride - 1)


@dataclass
class LetGoRunReport:
    """Everything observable about one supervised run."""

    status: str
    steps: int
    interventions: list[InterventionRecord] = field(default_factory=list)
    final_signal: Signal | None = None
    exit_code: int | None = None
    output: list[tuple[str, int | float]] = field(default_factory=list)

    @property
    def intervened(self) -> bool:
        """True if LetGo elided at least one crash."""
        return bool(self.interventions)

    @property
    def gave_up(self) -> bool:
        """True if LetGo intervened but the program still died (double crash)."""
        return self.status == TERMINATED and self.intervened

    def repair_seconds(self) -> float:
        """Total wall-clock time spent inside the modifier."""
        return sum(r.repair_seconds for r in self.interventions)


class LetGoSession:
    """Supervise processes of one program image under a LetGo config.

    The function table is computed once (the paper's one-time PIN pass)
    and shared across runs.  :meth:`run` drives a whole post-fault run;
    :meth:`intervene` decides one trap for a caller that drives its own.
    """

    def __init__(self, config: LetGoConfig, functions: FunctionTable):
        self.config = config
        self.monitor = Monitor(config)
        self.modifier = Modifier(config, functions)

    def run(
        self,
        process: Process,
        max_steps: int,
        *,
        tracer=None,
        ladder: "SnapshotLadder | None" = None,
    ) -> LetGoRunReport:
        """Run *process* under LetGo until exit, death or budget.

        ``max_steps`` is the only hang bound: a run that outruns it
        reports ``HUNG``, so the report is a pure function of the
        process state, the config and the ladder.

        ``ladder`` (the golden run's
        :class:`~repro.checkpoint.snapshot.SnapshotLadder`) lets the run
        stop at a rung where its state equals the golden state.  Rungs
        are compared on :func:`cont_sliced`'s doubling schedule, which
        starts again at the rung just above the run after every repair,
        so the run stops at the first *compared* rung at or after the one
        where it rejoined the golden path.  Each repair leaves the run one
        retirement behind its golden position, so the rung is matched at
        ``instret + len(interventions)``.  The run then reports
        ``CONVERGED``: the remainder is the trap-free golden run and is
        not executed, so ``output`` holds only the prefix so far.  Run to
        the end, the same run would report ``COMPLETED`` with the golden
        output and the golden retirement count less one per repair.

        ``tracer`` (a :class:`repro.telemetry.Tracer`) records per-repair
        spans plus signal-disposition and heuristic-firing counters; the
        default null tracer costs nothing and never alters control flow.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        session = self.monitor.attach(process)
        interventions: list[InterventionRecord] = []
        remaining = max_steps
        total_steps = 0
        while True:
            event = cont_sliced(
                session, remaining, ladder=ladder, lag=len(interventions)
            )
            total_steps += event.steps
            remaining -= event.steps
            if event.kind == STOP_EXITED:
                return LetGoRunReport(
                    status=COMPLETED,
                    steps=total_steps,
                    interventions=interventions,
                    exit_code=process.exit_code,
                    output=list(process.output),
                )
            if event.kind == STOP_CONVERGED:
                return LetGoRunReport(
                    status=CONVERGED,
                    steps=total_steps,
                    interventions=interventions,
                    output=list(process.output),
                )
            if event.kind == STOP_BUDGET:
                return LetGoRunReport(
                    status=HUNG,
                    steps=total_steps,
                    interventions=interventions,
                    output=list(process.output),
                )
            assert event.kind == STOP_TRAP and event.trap is not None
            trap = event.trap
            # A repair is worth making only with budget left to resume.
            left = self.config.max_interventions - len(interventions)
            record = self.intervene(
                session, trap, left if remaining > 0 else 0, tracer=tracer
            )
            if record is None:
                session.deliver_default(trap)
                return LetGoRunReport(
                    status=TERMINATED,
                    steps=total_steps,
                    interventions=interventions,
                    final_signal=trap.signal,
                    output=list(process.output),
                )
            interventions.append(record)

    def intervene(
        self,
        session: DebugSession,
        trap: Trap,
        repairs_left: int,
        *,
        tracer=NULL_TRACER,
        elidable: Callable[[Trap], bool] | None = None,
    ) -> InterventionRecord | None:
        """LetGo's decision on one trap (Figure 3): repair it, or let it kill.

        The trap is repaired when the monitor intercepts its signal,
        *repairs_left* is positive and *elidable* (a caller's extra rule,
        such as the cluster's comm-safe one) accepts it.  Returns the
        repair's record with the process ready to resume, or ``None``: the
        caller then delivers the default action, or rolls back under C/R.
        """
        intercepted = self.monitor.intercepts(trap.signal)
        tracer.count(
            f"signal:{trap.signal.name}:"
            + ("intercept" if intercepted else "default")
        )
        if not (
            intercepted
            and repairs_left > 0
            and (elidable is None or elidable(trap))
        ):
            return None
        with tracer.span("repair"):
            record = self.modifier.repair(session, trap)
        tracer.count("intervention")
        if record.h1_fired:
            tracer.count("heuristic:H1")
        if record.h2_fired:
            tracer.count("heuristic:H2")
        return record


__all__ = [
    "LetGoSession",
    "LetGoRunReport",
    "COMPLETED",
    "TERMINATED",
    "HUNG",
    "CONVERGED",
    "STOP_CONVERGED",
    "MAX_RUNG_STRIDE",
    "cont_sliced",
]
