"""Mini-application framework.

Each app mirrors one of the paper's DOE proxy applications (Table 2): it
carries MiniC source, a *result acceptance check* written against the
app's own verification specification (energy conservation, residual norm,
symmetry...), and a definition of which output data is compared bitwise
against the golden run to call an undetected-wrong result an SDC.

The acceptance checks deliberately receive only the program output -- they
model the checks application developers ship, which cannot consult a
golden run.  Any reference constants they use (expected iteration counts,
analytic energies) are hard-coded per app, exactly like the "Final Origin
Energy" check in real LULESH.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from repro.analysis.functions import FunctionTable
from repro.isa.program import Program
from repro.lang.compiler import CompiledUnit, compile_unit
from repro.machine.process import Process

if TYPE_CHECKING:  # annotations only: repro.faultinject imports apps.base
    from repro.checkpoint.snapshot import SnapshotLadder
    from repro.faultinject.fault_model import InjectionPlan
    from repro.faultinject.injector import InjectionResult
    from repro.faultinject.outcomes import Outcome

Output = list[tuple[str, int | float]]

# Compilation and golden-run snapshot ladders are deterministic functions
# of the source text (plus the ladder interval; None is the default
# ladder); share them across app instances (tests, CLI, benches all
# instantiate apps freely, and campaign workers re-derive apps from their
# spec).
_UNIT_CACHE: dict[str, CompiledUnit] = {}
_LADDER_CACHE: dict[tuple[str, int | None], "SnapshotLadder"] = {}

#: Most post-fault results the process-wide :data:`TRAP_FREE_MEMO` keeps.
MEMO_CAPACITY = 32_768

#: Multiple of the golden instruction count after which a run is a hang.
HANG_FACTOR = 10.0


def hang_budget(golden_steps: int) -> int:
    """Per-run instruction budget of an app whose golden run retires
    *golden_steps* instructions; a run that outlasts it is a hang.  Both
    :class:`MiniApp` and :class:`~repro.parallel.app.ParallelApp` use it.
    """
    return int(golden_steps * HANG_FACTOR) + 10_000


@dataclass(frozen=True)
class GoldenRun:
    """Reference run facts: output stream, dynamic instructions, exit code."""

    output: tuple[tuple[str, int | float], ...]
    instret: int
    exit_code: int


def pack_output(values: tuple | list, digits: int | None = None) -> bytes:
    """Bitwise-stable serialization of an output slice (SDC comparison).

    Floats compare by IEEE bit pattern (so ``-0.0 != 0.0`` and NaN compares
    equal to itself), ints by two's-complement value -- the paper's
    "bit-wise comparison" of application data.

    ``digits`` models the *printed-output* granularity the original diffed:
    real applications emit their result data with finite precision, so a
    perturbation below the last printed digit is invisible.  When set,
    floats are rounded to that many significant decimal digits before
    packing (NaNs canonicalised); ``None`` compares raw 64-bit patterns.
    """
    parts: list[bytes] = []
    for value in values:
        if isinstance(value, float):
            if digits is not None:
                try:
                    value = float(f"{value:.{digits}g}")
                except (ValueError, OverflowError):  # pragma: no cover
                    pass
            parts.append(b"f" + struct.pack("<d", value))
        else:
            # Mask to the two's-complement pattern first, then pack unsigned:
            # "<q" would reject the masked form of any negative value.
            parts.append(b"i" + struct.pack("<Q", value & ((1 << 64) - 1)))
    return b"".join(parts)


class MiniApp(ABC):
    """One benchmark application.

    Subclasses provide the MiniC source and the Table-2 semantics; this
    base class owns compilation, the golden run (one snapshot-ladder pass)
    and analysis caching.
    """

    #: Short identifier, e.g. ``"lulesh"``.
    name: str = ""
    #: Application domain, straight from Table 2.
    domain: str = ""
    #: True for convergence-based iterative apps; False for direct methods
    #: (HPL).  Table 3 aggregates only the iterative set.
    iterative: bool = True
    #: Significant decimal digits the app "prints" its SDC data with; the
    #: golden comparison happens at this granularity (see pack_output).
    sdc_digits: int = 9

    # -- source & build ---------------------------------------------------------

    @property
    @abstractmethod
    def source(self) -> str:
        """MiniC source text."""

    @cached_property
    def unit(self) -> CompiledUnit:
        """Compiled unit (cached across instances by source text)."""
        source = self.source
        unit = _UNIT_CACHE.get(source)
        if unit is None:
            unit = compile_unit(source, name=self.name)
            _UNIT_CACHE[source] = unit
        return unit

    @property
    def program(self) -> Program:
        """The linked image."""
        return self.unit.program

    def load(self, backend: str | None = None) -> Process:
        """A fresh process for one run (*backend* picks the engine)."""
        return Process.load(self.program, backend=backend)

    # -- golden facts ----------------------------------------------------------

    @cached_property
    def golden(self) -> GoldenRun:
        """Reference output/instruction count, from the default ladder's
        run: the app's one golden pass (the paper's one-time PIN pass)."""
        ladder = self.ladder()
        return GoldenRun(
            output=ladder.output,
            instret=ladder.total,
            exit_code=ladder.exit_code,
        )

    @cached_property
    def functions(self) -> FunctionTable:
        """Static function/frame analysis shared by LetGo runs."""
        return FunctionTable(self.program)

    @property
    def max_steps(self) -> int:
        """Per-run instruction budget (beyond it: hang)."""
        return hang_budget(self.golden.instret)

    # -- snapshot ladder -----------------------------------------------------

    @property
    def default_ladder_interval(self) -> int:
        """Rung spacing of the default ladder.

        64 to 127 rungs across the golden run (see
        :func:`~repro.checkpoint.snapshot.build_ladder`): the mean
        fast-forward after a restore is interval/2 (< 1% of the run),
        while the ladder itself stays under 128 small snapshots.
        """
        return self.ladder().interval

    def ladder(self, interval: int | None = None) -> "SnapshotLadder":
        """Golden-run snapshot ladder (cached by source text + interval).

        The default ladder (*interval* None, or equal to its own interval)
        is the app's golden run, which also supplies :attr:`golden`.  Any
        other *interval* costs one more fault-free run, captured every
        *interval* retired instructions.  Injection runs restore the
        nearest rung at or below their target instead of replaying the
        prefix from zero.
        """
        from repro.checkpoint.snapshot import build_ladder

        default_key = (self.source, None)
        if default_key not in _LADDER_CACHE:
            _LADDER_CACHE[default_key] = build_ladder(self.program)
        ladder = _LADDER_CACHE[default_key]
        if interval is None or interval == ladder.interval:
            return ladder
        key = (self.source, interval)
        if key not in _LADDER_CACHE:
            _LADDER_CACHE[key] = build_ladder(self.program, interval)
        return _LADDER_CACHE[key]

    # -- Table 2 semantics ---------------------------------------------------

    @abstractmethod
    def acceptance_check(self, output: Output) -> bool:
        """The application's own result-acceptance check.

        Must be robust to malformed output (wrong arity or types count as
        *detected*, i.e. return False).
        """

    @abstractmethod
    def sdc_slice(self, output: Output) -> tuple:
        """The output subset compared bitwise against golden (Table 2 col 4).

        May assume :meth:`acceptance_check` already passed.
        """

    # -- derived classification helpers --------------------------------------

    @cached_property
    def golden_sdc(self) -> bytes:
        """The golden run's SDC data, packed as :meth:`matches_golden`
        compares it."""
        return pack_output(
            self.sdc_slice(list(self.golden.output)), self.sdc_digits
        )

    def matches_golden(self, output: Output) -> bool:
        """Bitwise comparison of the SDC data against the golden run."""
        try:
            candidate = self.sdc_slice(output)
        except (IndexError, TypeError, ValueError):
            return False
        return pack_output(candidate, self.sdc_digits) == self.golden_sdc

    # -- misc ------------------------------------------------------------

    def describe(self) -> str:
        """Short multi-line description (used by the Table-2 bench)."""
        return (
            f"{self.name}: {self.domain}; golden {self.golden.instret} dynamic "
            f"instructions; {len(self.program.instrs)} static instructions"
        )


# -- trap-free memo ------------------------------------------------------------


class MemoEntry(NamedTuple):
    """What one trap-free post-fault run produced."""

    outcome: "Outcome"
    target_pc: int
    target_reg: tuple[str, int]
    steps: int
    #: ``converged-skipped-instr`` of a run that converged on a ladder
    #: rung; None when it ran to its end.
    skipped: int | None


class TrapFreeMemo:
    """Bounded LRU of post-fault results that raised no crash signal.

    LetGo acts only on a crash signal (paper Table 1, Figure 4), so a
    post-fault run that raises none ends identically under the baseline
    and under every LetGo configuration.  A campaign family that runs the
    same plans under several configurations executes such a run once;
    every later configuration is served from here.

    Keys (:meth:`key`) hold the app class (its acceptance check and SDC
    slice decide the outcome), the program checksum, the instruction
    budget, the ladder interval (it decides the converged counters) and
    the plan: instances of one class with one source must classify
    alike, the contract the engine's worker specs already rely on.  Only
    results :meth:`admits` are stored: no signal, no repair.  A hang
    qualifies too: the instruction budget, part of the key, is the one
    hang bound.

    A pool worker's memo is a function of the parent's: the parent ships
    the entries it holds for a shard's plans (:meth:`subset`), and the
    worker resets its memo to exactly those (:meth:`reset`) before
    running the shard.  ``added`` (None until the first :meth:`reset`)
    then collects every entry put since, which the worker ships back
    with the shard (:meth:`take_added`).
    """

    def __init__(self, capacity: int = MEMO_CAPACITY):
        self.capacity = capacity
        self._entries: OrderedDict[tuple, MemoEntry] = OrderedDict()
        self.added: list[tuple[tuple, MemoEntry]] | None = None

    @staticmethod
    def key(
        app: "MiniApp",
        plan: "InjectionPlan",
        ladder: "SnapshotLadder | None",
    ) -> tuple:
        interval = ladder.interval if ladder is not None else 0
        return (
            type(app), app.program.checksum(), app.max_steps, interval, plan
        )

    @staticmethod
    def admits(result: "InjectionResult") -> bool:
        """True if *result* is configuration-independent: trap-free."""
        return result.first_signal is None and result.interventions == 0

    def get(self, key: tuple) -> MemoEntry | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple, entry: MemoEntry) -> None:
        entries = self._entries
        entries[key] = entry
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
        if self.added is not None:
            self.added.append((key, entry))

    def subset(self, keys) -> list[tuple[tuple, MemoEntry]]:
        """The held entries among *keys*, without touching LRU order."""
        entries = self._entries
        return [(key, entries[key]) for key in keys if key in entries]

    def reset(self, entries: list[tuple[tuple, MemoEntry]]) -> None:
        """Hold exactly *entries*, and track every entry put from now on."""
        self._entries = OrderedDict(entries)
        self.added = []

    def take_added(self) -> list[tuple[tuple, MemoEntry]]:
        """The entries put since the last :meth:`reset` or call."""
        added, self.added = self.added or [], []
        return added

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide memo every engine shard reads and fills.  Cold
#: :func:`~repro.faultinject.injector.run_injection` calls (no ``memo=``)
#: never touch it.
TRAP_FREE_MEMO = TrapFreeMemo()


__all__ = [
    "MiniApp",
    "GoldenRun",
    "Output",
    "pack_output",
    "MEMO_CAPACITY",
    "HANG_FACTOR",
    "hang_budget",
    "MemoEntry",
    "TrapFreeMemo",
    "TRAP_FREE_MEMO",
]
