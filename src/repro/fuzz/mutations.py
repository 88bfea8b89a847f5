"""Scratch backend mutants: known-bad CPUs the fuzzer must catch.

Each class is a copy of a backend with ONE semantic fault planted --
deliberately re-creating the bug classes fixed by hand in the substrate
(NaN min/max, HALT-pc advance, map-before-alignment), a sign-extension
fault, and an imprecise trap in a compiled basic block.  They are
strictly test scaffolding: running the fuzzer with ``--mutation NAME``
swaps the mutant in as the "compiled" side of every differential
oracle, which must then (a) flag a divergence and (b) shrink it to a
tiny reproducer.  A fuzzer that cannot kill these mutants would not
have caught the real bugs either (the mutation-adequacy methodology of
the repair-assessment line of work).

The interpreter builds its dispatch table per-instance with
``getattr(self, "_op_...")``, so overriding a handler in a subclass is
all a mutant needs.  The block-level mutant instead overrides the
compiled backend's code generator on the eager compiled CPU.

:data:`MEMO_MUTATIONS` are trap-free memo mutants instead: each one
widens what :class:`~repro.apps.base.TrapFreeMemo` stores, and
:func:`planted_memo` swaps it in for the process-wide memo.  The
``paired`` campaign oracle must catch them.

:data:`CONVERGE_MUTATIONS` are ladder-convergence mutants: each one
replaces how the injector finishes a run that halted or converged on a
rung, and :func:`planted_convergence` swaps it in.  The ``converge``
campaign oracle must catch them.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from math import isnan

from repro.apps.base import TRAP_FREE_MEMO, TrapFreeMemo
from repro.faultinject import injector
from repro.fuzz.oracles import EagerCompiledCPU
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
    def block_source(instrs, entry, length, ranges):
        source, consts = block_source(instrs, entry, length, ranges)
        end = entry + length - 1
        source = re.sub(
            r"trap\((RANGES, )?I, \d+", rf"trap(\g<1>I, {end}", source
        )
        return source, consts


#: name -> mutant class, the ``--mutation`` CLI choices.
MUTATIONS: dict[str, type[CPU]] = {
    "fmin-nan": FminNanPropagates,
    "halt-pc": HaltAdvancesPc,
    "shri-logical": ShriLogical,
    "segv-order": AlignmentBeforeMap,
    "block-trap-pc": BlockTrapAtEnd,
}


class MemoStoresTraps(TrapFreeMemo):
    """Stores every run the watchdog did not stop, crashing ones too: a
    later LetGo config is then served the baseline's crash instead of
    its own repair."""

    @staticmethod
    def admits(result) -> bool:
        return not result.timed_out


#: name -> trap-free memo mutant, checked by the ``paired`` oracle.
MEMO_MUTATIONS: dict[str, type[TrapFreeMemo]] = {
    "memo-traps": MemoStoresTraps,
}


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


#: name -> replacement finisher, checked by the ``converge`` oracle.
CONVERGE_MUTATIONS: dict[str, Callable] = {
    "converge-lag": _finish_dropping_the_lag,
}


@contextmanager
def planted_convergence(finish: Callable) -> Iterator[None]:
    """Finish halted and converged runs with *finish* instead of the
    injector's own classifier (restored on exit)."""
    injector._classify_finished = finish
    try:
        yield
    finally:
        injector._classify_finished = _FINISH


__all__ = [
    "MUTATIONS",
    "MEMO_MUTATIONS",
    "CONVERGE_MUTATIONS",
    "planted_memo",
    "planted_convergence",
] + [
    cls.__name__
    for cls in (*MUTATIONS.values(), *MEMO_MUTATIONS.values())
]
