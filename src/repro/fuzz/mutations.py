"""Scratch backend mutants: known-bad CPUs the fuzzer must catch.

Each class is a copy of a backend with ONE semantic fault planted --
deliberately re-creating the bug classes fixed by hand in the substrate
(NaN min/max, HALT-pc advance, map-before-alignment), a sign-extension
fault, an imprecise trap in a compiled basic block, a compiled access
that skips the trap its constant address calls for, a compiled
cross-type load that converts the value instead of the bits, an access
below its base's window of checked offsets that skips its check, and two
faults of compiled chains of blocks (a trap's retirement count and the
budget test).  They are strictly test scaffolding: running the fuzzer
with ``--mutation NAME`` swaps such a backend mutant in as the
"compiled" side of every differential oracle, which must then (a) flag
a divergence and (b) shrink it to a tiny reproducer.  A fuzzer that
cannot kill these mutants would not have caught the real bugs either
(the mutation-adequacy methodology of the repair-assessment line of
work).

The interpreter builds its dispatch table per-instance with
``getattr(self, "_op_...")``, so overriding a handler in a subclass is
all a mutant needs.  The block-level mutants instead override the
compiled backend's code generator on the eager compiled CPU, and the
chain mutants its chain bookkeeping.

Two campaign mutants plant a fault outside the CPU instead: a trap-free
memo that also stores crashing runs (:func:`planted_memo` swaps it in
for the process-wide memo; the ``paired`` oracle must catch it), and an
injector finisher that drops a repaired run's lag
(:func:`planted_convergence`; the ``converge`` oracle must catch it).

:data:`MUTATIONS` lists all of them, each with the oracle that must
kill it.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass
from functools import partial
from math import isnan

from repro.apps.base import TRAP_FREE_MEMO, TrapFreeMemo
from repro.faultinject import injector
from repro.fuzz.oracles import (
    Divergence,
    EagerCompiledCPU,
    check_converge,
    check_paired,
)
from repro.isa.instructions import Instr
from repro.machine.compiled import block_source
from repro.machine.cpu import CPU
from repro.machine.signals import Signal, Trap


class FminNanPropagates(CPU):
    """FMIN propagates NaN instead of IEEE minNum (PR-3 bug class)."""

    def _op_fmin(self, ins: Instr) -> None:
        f = self.fregs
        a, b = f[ins.ra], f[ins.rb]
        if isnan(a) or isnan(b):
            f[ins.rd] = float("nan")
        else:
            f[ins.rd] = a if a < b else b
        self.pc += 1


class HaltAdvancesPc(CPU):
    """HALT retires with pc past the halt site (PR-3 bug class)."""

    def _op_halt(self, ins: Instr) -> None:
        self.halted = True
        self.exit_code = self.iregs[0]
        self.pc += 1


class ShriLogical(CPU):
    """SHRI shifts the unsigned 64-bit pattern (drops sign extension)."""

    def _op_shri(self, ins: Instr) -> None:
        pattern = self.iregs[ins.ra] & ((1 << 64) - 1)
        self.iregs[ins.rd] = pattern >> (ins.imm & 63)
        self.pc += 1


class AlignmentBeforeMap(CPU):
    """LD checks alignment before the segment map (PR-3 bug class).

    An unaligned access to *unmapped* memory then reports SIGBUS where
    the fixed substrate reports SIGSEGV.
    """

    def _op_ld(self, ins: Instr) -> None:
        addr = self.iregs[ins.ra] + ins.imm
        if addr % 8 and not self.memory.is_mapped(addr):
            raise Trap(
                Signal.SIGBUS,
                pc=self.pc,
                instr=ins,
                detail=f"bus on read at 0x{addr & ((1 << 64) - 1):x}",
                address=addr,
            )
        super()._op_ld(ins)


class BlockTrapAtEnd(EagerCompiledCPU):
    """A trap inside a compiled block is reported at the block's last
    instruction, so it retires the whole block but that instruction
    (imprecise exceptions, the classic block-compiler bug)."""

    @staticmethod
    def block_source(instrs, entry, length, ranges, values=None):
        source, consts = block_source(instrs, entry, length, ranges, values)
        end = entry + length - 1
        source = re.sub(
            r"trap\((RANGES, )?I, \d+", rf"trap(\g<1>I, {end}", source
        )
        return source, consts


class FoldUnchecked(EagerCompiledCPU):
    """A compiled access whose constant address is unmapped or misaligned
    reads or writes the cell instead of trapping: the code generator
    drops the trap it decided on at code-generation time."""

    @staticmethod
    def block_source(instrs, entry, length, ranges, values=None):
        source, consts = block_source(instrs, entry, length, ranges, values)
        # Only the decided traps are unconditional (at body indentation).
        source = re.sub(r"(?m)^    raise _mem_trap\(.*\n", "", source)
        return source, consts


class TypedLoadNumeric(EagerCompiledCPU):
    """A compiled cross-type load converts the cell's *value* (``float(p)``
    of an int cell, ``int(v)`` of a float cell, NaN and infinities to 0)
    instead of reinterpreting its bit pattern."""

    @staticmethod
    def block_source(instrs, entry, length, ranges, values=None):
        source, consts = block_source(instrs, entry, length, ranges, values)
        source = source.replace("_float_cell(C, a, p)", "float(p)")
        source = source.replace(
            "_int_cell(C, a, p)", "(int(p) if p - p == 0 else 0)"
        )
        return source, consts


class WindowUnchecked(EagerCompiledCPU):
    """A compiled access below its base's window of checked offsets runs
    unchecked, as if it lay inside the window: a push past the start of
    the segment ``sp`` points into writes an unmapped cell instead of
    trapping."""

    @staticmethod
    def block_source(instrs, entry, length, ranges, values=None):
        source, consts = block_source(instrs, entry, length, ranges, values)
        source = re.sub(
            r"(?m)^    if a < \d+( and not \(.*\))?:\n.*\n", "", source
        )
        return source, consts


class ChainOffset(EagerCompiledCPU):
    """A trap in a later segment of a compiled chain retires
    ``trap.pc - entry`` instructions, as if the chain's blocks were
    contiguous in the image."""

    def _retired_before(self, start: int, pc: int) -> int:
        return pc - start


class ChainBudget(EagerCompiledCPU):
    """A chain entry keeps its first block's length in the budget table:
    the chain runs when only that block fits the budget, and retires
    only that block's instructions."""

    def _compile(self, pc: int):
        entry = super()._compile(pc)
        image = self._image
        image.lengths[pc] = image.spans[pc]
        return entry


class MemoStoresTraps(TrapFreeMemo):
    """Stores every run, crashing ones too: a later LetGo config is then
    served the baseline's crash instead of its own repair."""

    @staticmethod
    def admits(result) -> bool:
        return True


@contextmanager
def planted_memo(cls: type[TrapFreeMemo]) -> Iterator[TrapFreeMemo]:
    """Run the process-wide trap-free memo as *cls* (emptied on entry
    and exit).  The engine holds the memo object itself, so the mutant
    is planted by swapping that object's class."""
    memo = TRAP_FREE_MEMO
    saved = type(memo)
    memo.clear()
    memo.__class__ = cls
    try:
        yield memo
    finally:
        memo.__class__ = saved
        memo.clear()


_FINISH = injector._classify_finished


def _finish_dropping_the_lag(
    app, process, converged, continued, tracer, lag=0
):
    """Finishes a run that converged behind the rung grid at the golden
    retirement count, as if its repairs had retired: a repaired run's
    ``steps`` come out one too high per repair."""
    return _FINISH(app, process, converged, continued, tracer)


@contextmanager
def planted_convergence(finish: Callable) -> Iterator[None]:
    """Finish halted and converged runs with *finish* instead of the
    injector's own classifier (restored on exit)."""
    injector._classify_finished = finish
    try:
        yield
    finally:
        injector._classify_finished = _FINISH


@dataclass(frozen=True)
class Mutant:
    """One planted fault and the oracle that must kill it.

    A ``backend`` mutant is a CPU class (:attr:`cpu`) that every
    differential oracle runs as its compiled side.  A campaign mutant is
    planted for the duration of ``with plant():``, and :attr:`check`, the
    campaign oracle named :attr:`oracle` run on an explicit plan list,
    must catch it.
    """

    oracle: str
    cpu: type[CPU] | None = None
    plant: Callable[[], AbstractContextManager] | None = None
    check: Callable[..., list[Divergence]] | None = None


#: Every mutant by name, in ``--selftest`` order: the ``--mutation``
#: choices.  Campaign mutants run only under the self-test.
MUTATIONS: dict[str, Mutant] = {
    "block-trap-pc": Mutant("backend", BlockTrapAtEnd),
    "chain-budget": Mutant("backend", ChainBudget),
    "chain-offset": Mutant("backend", ChainOffset),
    "fmin-nan": Mutant("backend", FminNanPropagates),
    "fold-unchecked": Mutant("backend", FoldUnchecked),
    "halt-pc": Mutant("backend", HaltAdvancesPc),
    "segv-order": Mutant("backend", AlignmentBeforeMap),
    "shri-logical": Mutant("backend", ShriLogical),
    "typed-load": Mutant("backend", TypedLoadNumeric),
    "window-unchecked": Mutant("backend", WindowUnchecked),
    "memo-traps": Mutant(
        "paired",
        plant=partial(planted_memo, MemoStoresTraps),
        check=check_paired,
    ),
    "converge-lag": Mutant(
        "converge",
        plant=partial(planted_convergence, _finish_dropping_the_lag),
        check=check_converge,
    ),
}


__all__ = [
    "Mutant",
    "MUTATIONS",
    "planted_memo",
    "planted_convergence",
    "MemoStoresTraps",
] + [m.cpu.__name__ for m in MUTATIONS.values() if m.cpu is not None]
