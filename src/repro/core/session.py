"""LetGo session: run a process to completion under LetGo supervision.

This is the public entry point of the core package.  It wires together the
monitor (signal interception) and the modifier (state repair) around a
debug session, implementing the full Figure-3 interaction loop:

1. attach, configure signal handling;
2. run; on an intercepted signal, stop;
3. repair state, advance the PC;
4. resume; a *second* crash (or an unhandled signal) terminates the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.analysis.functions import FunctionTable
from repro.core.config import LetGoConfig
from repro.core.modifier import InterventionRecord, Modifier
from repro.core.monitor import Monitor
from repro.machine.debugger import STOP_BUDGET, STOP_EXITED, STOP_TRAP
from repro.machine.process import Process
from repro.machine.signals import Signal
from repro.telemetry.tracer import NULL_TRACER

#: Final status values of a LetGo-supervised run.
COMPLETED = "completed"      # program halted cleanly
TERMINATED = "terminated"    # killed by a signal LetGo did not (re)handle
HUNG = "hung"                # instruction budget (or wall-clock deadline) exhausted

#: Instructions run between wall-clock deadline checks (~tens of ms of
#: interpreted execution); only used when a deadline is supplied, so
#: deadline-free runs stay bit-for-bit deterministic.
WATCHDOG_SLICE = 1 << 18


@dataclass
class LetGoRunReport:
    """Everything observable about one supervised run."""

    status: str
    steps: int
    interventions: list[InterventionRecord] = field(default_factory=list)
    final_signal: Signal | None = None
    exit_code: int | None = None
    output: list[tuple[str, int | float]] = field(default_factory=list)
    timed_out: bool = False      # HUNG because the wall-clock deadline passed

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
    and shared across runs.
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
        deadline: float | None = None,
        tracer=None,
    ) -> LetGoRunReport:
        """Run *process* under LetGo until exit, death, budget, or deadline.

        ``deadline`` is an absolute :func:`~time.perf_counter` instant: a
        wall-clock watchdog complementing the instruction budget, so a
        pathological repaired run (e.g. a corrupted loop bound far beyond
        the budget's intent) cannot stall its host forever.  When set, the
        budget is consumed in :data:`WATCHDOG_SLICE` chunks and the clock
        is checked between chunks; expiry reports ``HUNG`` with
        ``timed_out=True``.  ``None`` (the default) keeps runs fully
        deterministic.

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
            if deadline is not None and perf_counter() >= deadline:
                return LetGoRunReport(
                    status=HUNG,
                    steps=total_steps,
                    interventions=interventions,
                    output=list(process.output),
                    timed_out=True,
                )
            chunk = (
                remaining
                if deadline is None
                else min(remaining, WATCHDOG_SLICE)
            )
            event = session.cont(chunk)
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
            if event.kind == STOP_BUDGET:
                if remaining > 0:
                    continue  # artificial watchdog-slice boundary, not a hang
                return LetGoRunReport(
                    status=HUNG,
                    steps=total_steps,
                    interventions=interventions,
                    output=list(process.output),
                )
            assert event.kind == STOP_TRAP and event.trap is not None
            trap = event.trap
            intercepted = self.monitor.intercepts(trap.signal)
            tracer.count(
                f"signal:{trap.signal.name}:"
                + ("intercept" if intercepted else "default")
            )
            can_repair = (
                intercepted
                and len(interventions) < self.config.max_interventions
                and remaining > 0
            )
            if not can_repair:
                session.deliver_default(trap)
                return LetGoRunReport(
                    status=TERMINATED,
                    steps=total_steps,
                    interventions=interventions,
                    final_signal=trap.signal,
                    output=list(process.output),
                )
            with tracer.span("repair"):
                record = self.modifier.repair(session, trap)
            interventions.append(record)
            tracer.count("intervention")
            if record.h1_fired:
                tracer.count("heuristic:H1")
            if record.h2_fired:
                tracer.count("heuristic:H2")


__all__ = [
    "LetGoSession",
    "LetGoRunReport",
    "COMPLETED",
    "TERMINATED",
    "HUNG",
    "WATCHDOG_SLICE",
]
