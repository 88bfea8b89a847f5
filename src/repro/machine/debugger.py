"""A gdb-like debug session over a :class:`~repro.machine.process.Process`.

This is the control surface the original LetGo scripts through
gdb + pexpect: attach, configure which signals *stop* the program instead of
killing it, run / step / continue, read and write registers, and resume
after editing state.  Both the LetGo monitor and the fault injector are
built on this class, mirroring the paper's implementation strategy.

The session is backend-agnostic: it drives the process through the public
``cpu.run(n)`` contract (budgeted execution, precise traps, ``instret``
accounting), which both the reference interpreter and the compiled backend
honour bit-for-bit.  Attaching to a compiled process costs nothing extra --
single-stepping simply runs with a budget of one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.registers import (
    fp_reg_index,
    int_reg_index,
    is_fp_reg,
    is_int_reg,
)
from repro.machine.cpu import STOP_HALT
from repro.machine.memory import pattern_to_int
from repro.machine.process import Process, ProcessStatus
from repro.machine.signals import Trap

#: Stop kinds reported by :class:`StopEvent`.
STOP_EXITED = "exited"
STOP_TRAP = "trap"
STOP_BREAKPOINT = "breakpoint"
STOP_BUDGET = "budget"
STOP_STEPS_DONE = "steps"


@dataclass
class StopEvent:
    """Why the debuggee stopped."""

    kind: str
    steps: int
    pc: int
    trap: Trap | None = None

    def __str__(self) -> str:
        base = f"stop[{self.kind}] pc={self.pc} steps={self.steps}"
        return f"{base} ({self.trap})" if self.trap else base


class DebugSession:
    """Attach-and-control wrapper.

    Unlike :meth:`Process.run`, traps do NOT terminate the process here --
    they stop it and are reported in the :class:`StopEvent`, exactly like
    gdb with ``handle SIG stop nopass``.  The controller decides whether to
    repair and continue (LetGo) or deliver the default action (kill).
    """

    def __init__(self, process: Process):
        self.process = process
        self.breakpoints: set[int] = set()
        self.last_stop: StopEvent | None = None

    # -- execution ---------------------------------------------------------

    def cont(self, max_steps: int) -> StopEvent:
        """Continue until halt, trap, breakpoint, or *max_steps*."""
        cpu = self.process.cpu
        before = cpu.instret
        if self.breakpoints:
            event = self._run_with_breakpoints(max_steps)
        else:
            try:
                stop = cpu.run(max_steps)
            except Trap as trap:
                event = StopEvent(
                    STOP_TRAP, cpu.instret - before, pc=cpu.pc, trap=trap
                )
            else:
                kind = STOP_EXITED if stop == STOP_HALT else STOP_BUDGET
                event = StopEvent(kind, cpu.instret - before, pc=cpu.pc)
        if event.kind == STOP_EXITED:
            self.process.status = ProcessStatus.EXITED
        self.last_stop = event
        return event

    def run_steps(self, n: int) -> StopEvent:
        """Execute exactly *n* instructions (early stop on halt/trap)."""
        cpu = self.process.cpu
        before = cpu.instret
        try:
            stop = cpu.run(n)
        except Trap as trap:
            event = StopEvent(STOP_TRAP, cpu.instret - before, pc=cpu.pc, trap=trap)
        else:
            if stop == STOP_HALT:
                self.process.status = ProcessStatus.EXITED
                event = StopEvent(STOP_EXITED, cpu.instret - before, pc=cpu.pc)
            else:
                event = StopEvent(STOP_STEPS_DONE, cpu.instret - before, pc=cpu.pc)
        self.last_stop = event
        return event

    def _run_with_breakpoints(self, max_steps: int) -> StopEvent:
        cpu = self.process.cpu
        before = cpu.instret
        bps = self.breakpoints
        for _ in range(max_steps):
            if cpu.halted:
                return StopEvent(STOP_EXITED, cpu.instret - before, pc=cpu.pc)
            try:
                cpu.run(1)
            except Trap as trap:
                return StopEvent(
                    STOP_TRAP, cpu.instret - before, pc=cpu.pc, trap=trap
                )
            if cpu.pc in bps:
                return StopEvent(
                    STOP_BREAKPOINT, cpu.instret - before, pc=cpu.pc
                )
        if cpu.halted:
            return StopEvent(STOP_EXITED, cpu.instret - before, pc=cpu.pc)
        return StopEvent(STOP_BUDGET, cpu.instret - before, pc=cpu.pc)

    # -- signal delivery -------------------------------------------------------

    def deliver_default(self, trap: Trap) -> None:
        """Let the default disposition apply: terminate the process."""
        self.process.last_trap = trap
        self.process.term_signal = trap.signal
        self.process.status = ProcessStatus.TERMINATED

    # -- state access (gdb "print" / "set") ----------------------------------

    def read_reg(self, name: str) -> int | float:
        """Read a register by name (``pc`` included)."""
        if name == "pc":
            return self.process.cpu.pc
        if is_int_reg(name):
            return self.process.cpu.iregs[int_reg_index(name)]
        if is_fp_reg(name):
            return self.process.cpu.fregs[fp_reg_index(name)]
        raise KeyError(name)

    def write_reg(self, name: str, value: int | float) -> None:
        """Write a register by name (``pc`` included); an int register
        takes *value* wrapped to signed 64 bits."""
        if name == "pc":
            self.process.cpu.pc = int(value)
        elif is_int_reg(name):
            self.process.cpu.iregs[int_reg_index(name)] = pattern_to_int(int(value))
        elif is_fp_reg(name):
            self.process.cpu.fregs[fp_reg_index(name)] = float(value)
        else:
            raise KeyError(name)

    def set_pc(self, pc: int) -> None:
        """Move the program counter (LetGo's "advance PC" primitive)."""
        self.process.cpu.pc = pc

    def read_mem(self, address: int) -> int:
        """Raw 64-bit pattern at *address* (checked like a load)."""
        return self.process.memory.read_pattern(address)

    def write_mem(self, address: int, pattern: int) -> None:
        """Write a raw pattern (checked like a store)."""
        self.process.memory.write_pattern(address, pattern)

    # -- breakpoints ----------------------------------------------------------

    def set_breakpoint(self, pc: int) -> None:
        """Stop whenever execution reaches *pc*."""
        self.breakpoints.add(pc)

    def clear_breakpoint(self, pc: int) -> None:
        """Remove a breakpoint if present."""
        self.breakpoints.discard(pc)


__all__ = [
    "DebugSession",
    "StopEvent",
    "STOP_EXITED",
    "STOP_TRAP",
    "STOP_BREAKPOINT",
    "STOP_BUDGET",
    "STOP_STEPS_DONE",
]
