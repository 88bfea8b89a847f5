"""Architectural observations: what the differential oracles compare.

An :class:`Observation` is a frozen digest of everything two executions
of the same program must agree on at a pause point: lifecycle status,
program counter, retirement count, both register files, a memory digest,
the OUT/FOUT stream, trap classification, and (only once halted) the
exit code.

Floats are compared by IEEE-754 bit pattern, not ``==`` -- that is the
only comparison that catches ``-0.0`` vs ``0.0`` and NaN-payload drift
while still treating ``nan == nan`` at the same pattern as equal.

The exit code is deliberately *excluded* until the process halts:
``Snapshot`` does not capture it (it is only architecturally meaningful
at EXITED), so a restored process legitimately carries a stale value
mid-flight.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from repro.machine.memory import Memory, float_to_pattern
from repro.machine.process import Process
from repro.machine.signals import Trap


def memory_digest(memory: Memory) -> str:
    """Order-independent sha256 over the written cells of *memory*.

    Any int address hashes, so a faulty backend's write outside every
    segment (even at a negative address) shows as a divergence.
    """
    h = hashlib.sha256()
    for addr, pattern in sorted(memory.written_cells().items()):
        h.update(b"%d:%d;" % (addr, pattern))
    return h.hexdigest()


def _pattern_output(
    output: list[tuple[str, int | float]]
) -> tuple[tuple[str, int], ...]:
    """OUT/FOUT stream with float values replaced by their bit patterns."""
    return tuple(
        (kind, float_to_pattern(v) if kind == "f" else int(v))
        for kind, v in output
    )


def _trap_key(trap: Trap | None) -> tuple[str, int, str, int | None] | None:
    if trap is None:
        return None
    return (trap.signal.name, trap.pc, trap.detail, trap.address)


@dataclass(frozen=True)
class Observation:
    """One execution's architectural state at a pause point."""

    status: str                                  # running|exited|terminated
    pc: int
    instret: int
    iregs: tuple[int, ...]
    fregs: tuple[int, ...]                       # IEEE-754 bit patterns
    memory: str                                  # sha256 of written cells
    output: tuple[tuple[str, int], ...]          # floats as bit patterns
    trap: tuple[str, int, str, int | None] | None
    exit_code: int | None                        # None unless exited

    def diff(self, other: "Observation") -> str | None:
        """First field on which the two observations disagree, or None."""
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if a != b:
                return f"{f.name}: {a!r} != {b!r}"
        return None


def observe(process: Process) -> Observation:
    """Digest the current architectural state of *process*."""
    cpu = process.cpu
    exited = process.status.value == "exited"
    return Observation(
        status=process.status.value,
        pc=cpu.pc,
        instret=cpu.instret,
        iregs=tuple(cpu.iregs),
        fregs=tuple(float_to_pattern(v) for v in cpu.fregs),
        memory=memory_digest(process.memory),
        output=_pattern_output(cpu.output),
        trap=_trap_key(process.last_trap),
        exit_code=process.exit_code if exited else None,
    )


__all__ = ["Observation", "observe", "memory_digest"]
