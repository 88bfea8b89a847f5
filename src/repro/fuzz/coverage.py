"""Coverage accounting for fuzz runs, with a checked-in floor.

A fuzzer that silently stops exercising half the ISA still reports
"zero findings" -- the floor turns that regression into a test failure.
:class:`FuzzCoverage` tallies, per run:

* ``opcodes``   -- dynamically retired opcodes (profiled interpreter run);
* ``stops``     -- terminal classification of each differential case
  (``halt`` / ``budget`` / signal name);
* ``outcomes``  -- campaign outcome classes hit by the metamorphic
  oracles (:class:`~repro.faultinject.outcomes.Outcome` values);
* ``heuristics``-- LetGo heuristic firings observed via telemetry;
* ``oracles``   -- cases checked per oracle;
* ``convergence`` -- ladder-cut runs the ``converge`` oracle checked
  (``converged``, and ``converged-lagged``: those LetGo had repaired).

Counters merge additively and export to a stable sorted-JSON form;
``tests/fuzz/coverage_floor.json`` pins the floor a fixed-seed run must
stay above (compared on *presence and minimum count* per key).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.isa.program import Program
from repro.machine.process import Process
from repro.machine.signals import Trap

_SECTIONS = (
    "opcodes", "stops", "outcomes", "heuristics", "oracles", "convergence"
)


@dataclass
class FuzzCoverage:
    """Additive coverage counters for one (or many merged) fuzz runs."""

    opcodes: Counter = field(default_factory=Counter)
    stops: Counter = field(default_factory=Counter)
    outcomes: Counter = field(default_factory=Counter)
    heuristics: Counter = field(default_factory=Counter)
    oracles: Counter = field(default_factory=Counter)
    convergence: Counter = field(default_factory=Counter)

    def merge(self, other: "FuzzCoverage") -> None:
        for section in _SECTIONS:
            getattr(self, section).update(getattr(other, section))

    def record_program(self, program: Program, budget: int) -> str:
        """Profile *program* on the interpreter; tally opcodes and stop.

        Returns the stop classification that was tallied into ``stops``
        (``halt`` / ``budget`` / the trap's signal name).
        """
        process = Process.load(program, backend="interpreter")
        counts = [0] * len(program.instrs)
        stop = "budget"
        try:
            if process.cpu.run_profiled(counts, budget) == "halt":
                stop = "halt"
        except Trap as trap:
            stop = trap.signal.name
        for pc, count in enumerate(counts):
            if count:
                self.opcodes[program.instrs[pc].op.name] += count
        self.stops[stop] += 1
        return stop

    def to_dict(self) -> dict:
        return {
            section: dict(sorted(getattr(self, section).items()))
            for section in _SECTIONS
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    def deficits(self, floor: dict) -> list[str]:
        """Floor keys this coverage misses or under-counts (empty: ok)."""
        out: list[str] = []
        for section in _SECTIONS:
            have = getattr(self, section)
            for key, minimum in floor.get(section, {}).items():
                if have.get(key, 0) < minimum:
                    out.append(
                        f"{section}:{key} = {have.get(key, 0)} < {minimum}"
                    )
        return out


__all__ = ["FuzzCoverage"]
