"""Dynamic-instruction profiling (the per-pc view of the paper's PIN pass).

The paper runs each application once under PIN to (a) count total dynamic
instructions -- the population faults are drawn from -- and (b) record how
often each static instruction executes, so a fault can be placed at "the
k-th dynamic instance of instruction s".  :func:`profile_program` produces
both, plus the golden output.  Campaigns need only (a) and the output,
which the app's snapshot-ladder run already records
(:func:`~repro.checkpoint.snapshot.build_ladder`); the profiler serves
reports and analysis, and is the independent reference the tests check
those golden facts against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AnalysisError
from repro.isa.program import Program
from repro.machine.cpu import STOP_HALT
from repro.machine.process import Process
from repro.machine.signals import Trap


@dataclass
class Profile:
    """Result of a golden profiling run.

    ``counts[pc]`` is the execution count of static instruction *pc*;
    ``total`` their sum (total retired dynamic instructions);
    ``output`` the golden OUT/FOUT stream; ``exit_code`` the clean exit
    status.  Profiles exist only for programs that halt cleanly.
    """

    program: Program
    counts: list[int]
    total: int
    output: list[tuple[str, int | float]]
    exit_code: int
    _hot_cache: list[tuple[int, int]] | None = field(default=None, repr=False)

    def executed_pcs(self) -> list[int]:
        """Static PCs that executed at least once."""
        return [pc for pc, c in enumerate(self.counts) if c > 0]

    def coverage(self) -> float:
        """Fraction of static instructions that executed."""
        if not self.counts:
            return 0.0
        return sum(1 for c in self.counts if c > 0) / len(self.counts)

    def hottest(self, n: int = 10) -> list[tuple[int, int]]:
        """(pc, count) pairs for the n most-executed instructions."""
        if self._hot_cache is None:
            self._hot_cache = sorted(
                ((pc, c) for pc, c in enumerate(self.counts) if c > 0),
                key=lambda t: -t[1],
            )
        return self._hot_cache[:n]

    def static_site_of(self, dyn_index: int) -> int:
        """Static PC of the *dyn_index*-th (1-based) retired instruction.

        Requires re-running the program; use sparingly (tests, reports).
        """
        if not 1 <= dyn_index <= self.total:
            raise AnalysisError(
                f"dynamic index {dyn_index} outside [1, {self.total}]"
            )
        process = Process.load(self.program)
        process.cpu.run(dyn_index - 1)
        return process.cpu.pc


def profile_program(program: Program, max_steps: int = 500_000_000) -> Profile:
    """Run *program* to completion, recording per-PC execution counts.

    Raises :class:`AnalysisError` if the golden run traps or exceeds
    *max_steps* -- a program that cannot complete cleanly cannot serve as a
    fault-injection target.
    """
    process = Process.load(program)
    counts = [0] * len(program.instrs)
    try:
        stop = process.cpu.run_profiled(counts, max_steps)
    except Trap as trap:
        raise AnalysisError(f"golden run trapped: {trap}") from trap
    if stop != STOP_HALT:
        raise AnalysisError(
            f"golden run did not halt within {max_steps} instructions"
        )
    return Profile(
        program=program,
        counts=counts,
        total=process.cpu.instret,
        output=list(process.cpu.output),
        exit_code=process.cpu.exit_code,
    )


__all__ = ["Profile", "profile_program"]
