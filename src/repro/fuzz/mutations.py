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
"""

from __future__ import annotations

import re
from math import isnan

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


__all__ = ["MUTATIONS"] + [cls.__name__ for cls in MUTATIONS.values()]
