"""Process snapshots: the checkpoint/restore primitive.

A snapshot captures the complete architectural state of a process --
registers, PC, memory contents, output stream, retirement counter -- and
can be restored onto a fresh process of the same program image.  This is
the in-vivo equivalent of writing a checkpoint to stable storage; the
*cost* of doing so is accounted separately by the driver (a platform
parameter), because on this substrate the copy itself is nearly free.

On top of the single-snapshot primitive this module builds the
:class:`SnapshotLadder`: one golden run captured at a fixed retirement
interval.  Replaying a prefix of the golden path to dynamic instruction D
then costs one restore plus at most ``interval`` interpreted steps instead
of D steps -- the amortization the fault-injection campaign engine is
built on.  The ladder run is also the app's only golden run: it records
the golden output, exit code and retirement count the outcome classifier
compares against.

The rungs also cut the *post*-fault run short: :meth:`Snapshot.matches`
decides whether a live process is in exactly a rung's architectural
state, possibly some retirements behind it (a LetGo repair skips an
instruction without retiring it).  The machine is deterministic and the
golden path trap-free, so a run that matches a rung will finish exactly
as the golden run does, that many retirements short.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.isa.program import Program
from repro.machine.cpu import STOP_HALT
from repro.machine.process import Process, ProcessStatus
from repro.machine.signals import Trap

#: First rung spacing of a ladder built without an explicit interval.
FIRST_INTERVAL = 256
#: A ladder built without an explicit interval halves itself when it
#: reaches this many rungs, so it ends with MAX_RUNGS/2 to MAX_RUNGS-1.
MAX_RUNGS = 128


@dataclass(frozen=True)
class Snapshot:
    """Immutable architectural state of one process at one instant."""

    checksum: str                   # program identity guard
    iregs: tuple[int, ...]
    fregs: tuple[float, ...]
    pc: int
    instret: int
    cells: dict[int, int | float] = field(hash=False)  # Memory.raw_cells()
    output: tuple[tuple[str, int | float], ...] = ()

    @property
    def size_cells(self) -> int:
        """Number of written memory cells captured (checkpoint 'size')."""
        return len(self.cells)

    def matches(self, process: Process, lag: int = 0) -> bool:
        """True if *process* is in exactly this snapshot's state, *lag*
        retirements behind it.

        *lag* counts instructions the live run skipped without retiring
        them (one per LetGo repair); every other field must be equal.
        Cheap fields first: retirement count, pc and halt flag, integer
        registers, then float registers by IEEE bit pattern (``-0.0 ==
        0.0`` and ``NaN != NaN`` make ``==`` wrong both ways), the output
        stream (kind tags exact, floats by bit pattern), and last the
        written memory cells by pattern
        (:meth:`~repro.machine.memory.Memory.cells_equal`).  A cell
        written with 0 is state the snapshot does not hold, so it does
        not match.  Anything else
        the snapshot does not capture counts as a mismatch too: a pc
        outside the image (the compiled backend's parked wild jump) can
        never equal the in-image pc of a golden snapshot.
        """
        cpu = process.cpu
        return (
            cpu.instret + lag == self.instret
            and cpu.pc == self.pc
            and not cpu.halted
            and process.status is ProcessStatus.RUNNING
            and process.program.checksum() == self.checksum
            and tuple(cpu.iregs) == self.iregs
            and _float_bits(cpu.fregs) == _float_bits(self.fregs)
            and _same_output(cpu.output, self.output)
            and process.memory.cells_equal(self.cells)
        )


def _float_bits(values) -> bytes:
    """The IEEE-754 bit patterns of *values*, concatenated."""
    return struct.pack(f"<{len(values)}d", *values)


def _same_output(live, golden) -> bool:
    """Output streams equal by kind tag and, for floats, by bit pattern."""
    if len(live) != len(golden):
        return False
    for (kind, value), (golden_kind, golden_value) in zip(live, golden):
        if kind != golden_kind or type(value) is not type(golden_value):
            return False
        if isinstance(value, float):
            if _float_bits((value,)) != _float_bits((golden_value,)):
                return False
        elif value != golden_value:
            return False
    return True


def snapshot(process: Process) -> Snapshot:
    """Capture *process* (must be running)."""
    if process.status is not ProcessStatus.RUNNING or process.cpu.halted:
        raise SimulationError("cannot checkpoint a finished or dead process")
    cpu = process.cpu
    return Snapshot(
        checksum=process.program.checksum(),
        iregs=tuple(cpu.iregs),
        fregs=tuple(cpu.fregs),
        pc=cpu.pc,
        instret=cpu.instret,
        cells=process.memory.raw_cells(),
        output=tuple(cpu.output),
    )


def restore_into(process: Process, snap: Snapshot) -> Process:
    """Reset *process* (same program image) to the snapshot's state.

    The process may be mid-flight or finished; everything architectural is
    overwritten and its status returns to RUNNING.  This is the in-place
    fast path :func:`restore` is built on.
    """
    if process.program.checksum() != snap.checksum:
        raise SimulationError("snapshot belongs to a different program image")
    cpu = process.cpu
    cpu.iregs[:] = snap.iregs
    cpu.fregs[:] = snap.fregs
    cpu.pc = snap.pc
    cpu.instret = snap.instret
    cpu.output[:] = snap.output
    cpu.halted = False
    process.memory.load_cells(snap.cells)
    process.status = ProcessStatus.RUNNING
    process.term_signal = None
    process.last_trap = None
    return process


def restore(program: Program, snap: Snapshot, backend: str | None = None) -> Process:
    """Materialise a fresh process at the snapshot's state.

    The program image must be the one the snapshot was taken from.
    Snapshots are backend-agnostic; *backend* picks the execution engine
    of the restored process.
    """
    if program.checksum() != snap.checksum:
        raise SimulationError("snapshot belongs to a different program image")
    return restore_into(Process.load(program, backend=backend), snap)


@dataclass(frozen=True)
class SnapshotLadder:
    """Golden-run checkpoints at a fixed retirement interval.

    Rung *i* holds the process state after ``(i + 1) * interval`` retired
    instructions of the fault-free run (the state at instret 0 is a plain
    ``Process.load``, so it needs no rung).  ``total`` is the golden
    retirement count; rungs stop strictly before it.  ``output`` and
    ``exit_code`` are the golden run's output stream and exit status.
    """

    checksum: str
    interval: int
    rungs: tuple[Snapshot, ...]
    total: int
    output: tuple[tuple[str, int | float], ...]
    exit_code: int
    instrets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        instrets = tuple(r.instret for r in self.rungs)
        if list(instrets) != sorted(set(instrets)):
            raise SimulationError("ladder rungs must be strictly ascending")
        object.__setattr__(self, "instrets", instrets)

    def __len__(self) -> int:
        return len(self.rungs)

    def nearest(self, instret: int) -> Snapshot | None:
        """Highest rung with ``rung.instret <= instret`` (None: start cold).

        The returned snapshot is the cheapest launch point for reaching
        retirement count *instret* on the golden path.
        """
        pos = bisect_right(self.instrets, instret)
        return self.rungs[pos - 1] if pos else None

    def next_rung(self, instret: int) -> Snapshot | None:
        """Lowest rung with ``rung.instret > instret`` (None: past the last).

        The next point at which a run now at retirement count *instret*
        can be compared with the golden run (see :meth:`Snapshot.matches`).
        """
        pos = bisect_right(self.instrets, instret)
        return self.rungs[pos] if pos < len(self.rungs) else None


def build_ladder(
    program: Program, interval: int | None = None, max_steps: int = 500_000_000
) -> SnapshotLadder:
    """One golden run of *program*, snapshotted every *interval* retirements.

    Without *interval* the spacing adapts to the run length, which is not
    known in advance: it starts at :data:`FIRST_INTERVAL`, and each time
    the ladder reaches :data:`MAX_RUNGS` rungs it drops every other rung
    and doubles.  Rungs stay on exact multiples of the final interval; a
    run longer than ``MAX_RUNGS * FIRST_INTERVAL`` instructions ends with
    ``MAX_RUNGS/2`` to ``MAX_RUNGS - 1`` of them.

    ``max_steps`` bounds the run (a safety net: golden runs of well-formed
    apps halt long before).  The golden path must halt cleanly: a trap or
    a run past the budget raises :class:`SimulationError`.
    """
    if interval is not None and interval < 1:
        raise ValueError("ladder interval must be >= 1")
    adaptive = interval is None
    step = FIRST_INTERVAL if adaptive else interval
    process = Process.load(program)
    cpu = process.cpu
    rungs: list[Snapshot] = []
    while True:
        try:
            stop = cpu.run(min(step, max_steps - cpu.instret))
        except Trap as trap:
            raise SimulationError(f"golden run trapped: {trap}") from trap
        if stop == STOP_HALT:
            break
        if cpu.instret >= max_steps:
            raise SimulationError(
                f"golden run exceeded {max_steps} instructions while "
                "building ladder"
            )
        rungs.append(snapshot(process))
        if adaptive and len(rungs) == MAX_RUNGS:
            del rungs[::2]  # keep the rungs on multiples of 2 * step
            step *= 2
    return SnapshotLadder(
        checksum=program.checksum(),
        interval=step,
        rungs=tuple(rungs),
        total=cpu.instret,
        output=tuple(cpu.output),
        exit_code=cpu.exit_code,
    )


__all__ = [
    "Snapshot",
    "snapshot",
    "restore",
    "restore_into",
    "SnapshotLadder",
    "build_ladder",
]
