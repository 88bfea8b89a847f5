"""Fault model: single bit flips in the destination register (paper 5.1/5.4).

* Soft errors in computational units (ALUs, pipeline latches, register
  file); caches/DRAM assumed ECC-protected and out of scope.
* Single bit flip, at most one fault per run.
* Every dynamic instruction is equally likely to be hit; the flip lands in
  the register *written* by the selected instruction, **after** it
  completes.  Instructions that write no register (stores, branches) flip
  one of their source registers instead -- corrupting the produced
  value/address the same way a latch fault would; ineligible instructions
  (no register operands at all) defer to the next eligible one.

Plans are fully deterministic: the random register choice for multi-source
instructions is pre-drawn into the plan, so the same plan replayed under
different LetGo configurations experiences the identical fault (paired
comparisons for Figure 5).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.isa.instructions import Instr
from repro.isa.layout import MASK64
from repro.machine.cpu import CPU

_PACK_D = struct.Struct("<d")
_PACK_Q = struct.Struct("<Q")


@dataclass(frozen=True)
class InjectionPlan:
    """One planned fault.

    ``dyn_index`` is the 1-based ordinal of the dynamic instruction whose
    result is corrupted; ``bit`` the flipped bit (0..63); ``reg_choice`` a
    pre-drawn uniform value used to pick among source registers when the
    instruction writes none.  ``extra_bits`` extends the model to
    multi-bit upsets (the paper's Section-8 discussion notes ~30% of
    uncorrectable memory errors are multi-bit); all bits land in the same
    register on the same instruction.
    """

    dyn_index: int
    bit: int
    reg_choice: float
    extra_bits: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.dyn_index < 1:
            raise ValueError("dyn_index is 1-based")
        if not 0 <= self.bit < 64:
            raise ValueError("bit must be in [0, 64)")
        if not 0.0 <= self.reg_choice < 1.0:
            raise ValueError("reg_choice must be in [0, 1)")
        if any(not 0 <= b < 64 for b in self.extra_bits):
            raise ValueError("extra bits must be in [0, 64)")
        all_bits = (self.bit, *self.extra_bits)
        if len(set(all_bits)) != len(all_bits):
            raise ValueError("flip bits must be distinct")

    @property
    def bits(self) -> tuple[int, ...]:
        """All bits this fault flips."""
        return (self.bit, *self.extra_bits)


def seeded_plans(
    total_instret: int, n: int, seed: int, n_bits: int = 1
) -> list[InjectionPlan]:
    """The *n* plans a campaign with *seed* draws over a run of
    *total_instret* instructions, from a fresh
    ``numpy.random.default_rng(seed)``.

    ``n_bits`` > 1 draws multi-bit upsets: that many distinct bits of the
    same target register flip together.  numpy is imported here, not at
    module level, so a campaign that is handed explicit plans never
    loads it.
    """
    if total_instret < 1:
        raise ValueError("profiled run has no instructions")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 1 <= n_bits <= 64:
        raise ValueError("n_bits must be in [1, 64]")
    import numpy as np

    rng = np.random.default_rng(seed)
    indices = rng.integers(1, total_instret + 1, size=n)
    choices = rng.random(size=n)
    plans = []
    for i, c in zip(indices, choices):
        bits = rng.choice(64, size=n_bits, replace=False)
        plans.append(
            InjectionPlan(
                dyn_index=int(i),
                bit=int(bits[0]),
                reg_choice=float(c),
                extra_bits=tuple(int(b) for b in bits[1:]),
            )
        )
    return plans


def select_target(instr: Instr, reg_choice: float) -> tuple[str, int] | None:
    """The (bank, index) register the fault lands in for *instr*.

    Written register if any; otherwise one of the read registers picked by
    ``reg_choice``; ``None`` if the instruction touches no registers.
    """
    written = instr.written_reg()
    if written is not None:
        return written
    reads = instr.read_regs()
    if not reads:
        return None
    return reads[min(int(reg_choice * len(reads)), len(reads) - 1)]


def flip_bit(cpu: CPU, bank: str, index: int, bit: int) -> None:
    """Flip one bit of a live register, bit-exactly.

    Integer registers flip in two's-complement representation; fp
    registers flip in their IEEE-754 binary64 pattern (so exponent/sign
    bits can produce huge values, NaNs, or denormals, as in hardware).
    """
    if bank == "f":
        pattern = _PACK_Q.unpack(_PACK_D.pack(cpu.fregs[index]))[0]
        pattern ^= 1 << bit
        cpu.fregs[index] = _PACK_D.unpack(_PACK_Q.pack(pattern))[0]
    else:
        pattern = cpu.iregs[index] & MASK64
        pattern ^= 1 << bit
        cpu.iregs[index] = pattern - (1 << 64) if pattern >= (1 << 63) else pattern


__all__ = [
    "InjectionPlan",
    "seeded_plans",
    "select_target",
    "flip_bit",
]
