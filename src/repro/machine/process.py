"""Process model: program image + memory map + CPU + signal dispositions.

A :class:`Process` is the unit everything else operates on: the loader
builds one from a :class:`~repro.isa.program.Program`, the default OS
behaviour terminates it on any trap (that is the behaviour LetGo
re-purposes), and :class:`~repro.machine.debugger.DebugSession` attaches to
one to intercept traps before the default disposition applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import LoaderError
from repro.isa.layout import CELL, DATA_BASE, STACK_LIMIT, STACK_SIZE, STACK_TOP
from repro.isa.program import Program
from repro.isa.registers import BP, SP
from repro.machine.cpu import CPU, STOP_HALT
from repro.machine.memory import Memory
from repro.machine.signals import Signal, Trap


class ProcessStatus(Enum):
    """Lifecycle of a process."""

    RUNNING = "running"
    EXITED = "exited"        # HALT reached; exit_code valid
    TERMINATED = "terminated"  # killed by a signal; term_signal valid


@dataclass
class RunResult:
    """Outcome of a :meth:`Process.run` call.

    ``reason`` is ``exited`` / ``terminated`` / ``budget``.
    """

    reason: str
    steps: int
    signal: Signal | None = None
    trap: Trap | None = None


class Process:
    """A loaded program with live architectural state."""

    def __init__(self, program: Program, cpu: CPU, memory: Memory):
        self.program = program
        self.cpu = cpu
        self.memory = memory
        self.status = ProcessStatus.RUNNING
        self.term_signal: Signal | None = None
        self.last_trap: Trap | None = None

    # -- loader ------------------------------------------------------------

    @classmethod
    def load(cls, program: Program, backend: str | None = None) -> "Process":
        """Build a fresh process image (the ``exec`` analogue).

        Maps the data segment (globals, zero-initialised except for
        ``data_init`` patterns), the stack, sets ``sp = bp = STACK_TOP``
        and the PC to the entry function.  *backend* picks the execution
        engine ("interpreter" or "compiled"); ``None`` uses the package
        default, :data:`repro.machine.compiled.DEFAULT_BACKEND`.
        """
        from repro.machine.compiled import cpu_class

        if not program.instrs:
            raise LoaderError("cannot load an empty program")
        memory = Memory()
        data_cells = program.data_cells
        if data_cells:
            memory.map_segment("data", DATA_BASE, data_cells * CELL)
            for addr, pattern in program.data_init.items():
                memory.write_pattern(addr, pattern)
        memory.map_segment("stack", STACK_LIMIT, STACK_SIZE)
        cpu = cpu_class(backend)(program, memory)
        cpu.iregs[SP] = STACK_TOP
        cpu.iregs[BP] = STACK_TOP
        cpu.pc = program.entry_pc
        return cls(program, cpu, memory)

    @property
    def backend(self) -> str:
        """Name of the execution backend this process runs on."""
        from repro.machine.compiled import CompiledCPU

        return "compiled" if isinstance(self.cpu, CompiledCPU) else "interpreter"

    # -- execution with default signal handling -----------------------------

    def run(self, max_steps: int) -> RunResult:
        """Run with *default* dispositions: any trap terminates the process.

        This is the no-LetGo baseline: the OS delivers the signal, the
        application dies, work is lost.
        """
        if self.status is not ProcessStatus.RUNNING:
            raise LoaderError(f"process is {self.status.value}, cannot run")
        before = self.cpu.instret
        try:
            stop = self.cpu.run(max_steps)
        except Trap as trap:
            self.last_trap = trap
            self.term_signal = trap.signal
            self.status = ProcessStatus.TERMINATED
            return RunResult(
                reason="terminated",
                steps=self.cpu.instret - before,
                signal=trap.signal,
                trap=trap,
            )
        steps = self.cpu.instret - before
        if stop == STOP_HALT:
            self.status = ProcessStatus.EXITED
            return RunResult(reason="exited", steps=steps)
        return RunResult(reason="budget", steps=steps)

    # -- introspection ---------------------------------------------------------

    @property
    def exit_code(self) -> int:
        """Exit code (valid when EXITED)."""
        return self.cpu.exit_code

    @property
    def output(self) -> list[tuple[str, int | float]]:
        """The OUT/FOUT stream emitted so far."""
        return self.cpu.output

    def output_values(self) -> list[int | float]:
        """Output stream without the kind tags."""
        return [v for _, v in self.cpu.output]

    def snapshot_registers(self) -> dict[str, int | float]:
        """Named register dump (debugging / tests)."""
        from repro.isa.registers import FP_REG_NAMES, INT_REG_NAMES

        regs: dict[str, int | float] = {
            name: self.cpu.iregs[i] for i, name in enumerate(INT_REG_NAMES)
        }
        regs.update(
            {name: self.cpu.fregs[i] for i, name in enumerate(FP_REG_NAMES)}
        )
        regs["pc"] = self.cpu.pc
        return regs


__all__ = ["Process", "ProcessStatus", "RunResult"]
