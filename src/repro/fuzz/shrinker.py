"""Delta-debugging shrinker: divergent program -> minimal reproducer.

Classic ddmin adapted to branchy machine code: removing an instruction
shifts every later pc, so each candidate rewrite remaps in-image branch
targets (targets inside the removed span collapse onto its start;
targets past it slide down; wild targets stay wild).  The *predicate* --
"the oracle still diverges on this program" -- is re-evaluated on every
candidate, so even a rewrite that changes behaviour is acceptable as
long as it keeps reproducing.

Passes, to fixpoint:

1. chunk deletion, halving chunk sizes (ddmin proper);
2. per-instruction simplification (zero the immediate, zero the
   registers, replace with NOP);
3. data-initialiser pruning.

The runner stores the survivor as a corpus case
(:func:`repro.fuzz.corpus.case_to_dict`), which replays the exact oracle
schedule through :func:`repro.fuzz.corpus.check_case`.
"""

from __future__ import annotations

from typing import Callable

from repro.isa.instructions import BRANCH_OPS, FLOAT_IMM_OPS, Instr, Op
from repro.isa.program import Program

Predicate = Callable[[Program], bool]


def _rebuild(program: Program, instrs: list[Instr],
             data_init: dict[int, int] | None = None) -> Program:
    return Program(
        instrs=instrs,
        functions={"main": 0},
        data_symbols=dict(program.data_symbols),
        data_init=dict(program.data_init if data_init is None else data_init),
        source_name=program.source_name,
    )


def _remove_span(program: Program, start: int, stop: int) -> Program | None:
    """*program* without instructions ``[start, stop)``, branches remapped."""
    old_n = len(program.instrs)
    removed = stop - start
    kept: list[Instr] = []
    for pc, ins in enumerate(program.instrs):
        if start <= pc < stop:
            continue
        if ins.op in BRANCH_OPS and 0 <= ins.imm <= old_n:
            target = ins.imm
            if target >= stop:
                target -= removed
            elif target > start:
                target = start
            if target != ins.imm:
                ins = Instr(ins.op, rd=ins.rd, ra=ins.ra, rb=ins.rb,
                            imm=target)
        kept.append(ins)
    if not kept:
        return None
    return _rebuild(program, kept)


def _simplified_variants(ins: Instr) -> list[Instr]:
    """Cheaper stand-ins to try for one instruction, most aggressive first."""
    variants = [Instr(Op.NOP)]
    zero_imm: int | float = 0.0 if ins.op in FLOAT_IMM_OPS else 0
    if ins.imm != zero_imm:
        variants.append(
            Instr(ins.op, rd=ins.rd, ra=ins.ra, rb=ins.rb, imm=zero_imm)
        )
    if ins.rd or ins.ra or ins.rb:
        variants.append(Instr(ins.op, imm=ins.imm))
    return variants


def shrink(
    program: Program,
    predicate: Predicate,
    *,
    max_rounds: int = 10,
) -> Program:
    """Smallest program (by ddmin passes) still satisfying *predicate*.

    *predicate* must already hold for *program*; the result is 1-minimal
    with respect to the pass vocabulary (no single chunk deletion,
    instruction simplification or data pruning keeps it diverging).
    """
    current = program
    for _ in range(max_rounds):
        changed = False

        # Pass 1: ddmin chunk deletion.
        size = max(1, len(current.instrs) // 2)
        while size >= 1:
            pc = 0
            while pc < len(current.instrs):
                candidate = _remove_span(
                    current, pc, min(pc + size, len(current.instrs))
                )
                if candidate is not None and predicate(candidate):
                    current = candidate
                    changed = True
                else:
                    pc += size
            size //= 2

        # Pass 2: per-instruction simplification.
        pc = 0
        while pc < len(current.instrs):
            for variant in _simplified_variants(current.instrs[pc]):
                if variant == current.instrs[pc]:
                    continue
                instrs = list(current.instrs)
                instrs[pc] = variant
                candidate = _rebuild(current, instrs)
                if predicate(candidate):
                    current = candidate
                    changed = True
                    break
            pc += 1

        # Pass 3: data-initialiser pruning.
        for addr in sorted(current.data_init):
            pruned = dict(current.data_init)
            del pruned[addr]
            candidate = _rebuild(current, list(current.instrs), pruned)
            if predicate(candidate):
                current = candidate
                changed = True

        if not changed:
            break
    return current


def shrink_list(items: list, predicate: Callable[[list], bool]) -> list:
    """Smallest sub-list (by ddmin chunk deletion) still satisfying
    *predicate*, which must already hold for *items*.

    Used on a campaign's plan list: a memo divergence reproduces on the
    one or two plans that trigger it.
    """
    current = list(items)
    size = max(1, len(current) // 2)
    while size >= 1:
        start = 0
        while start < len(current) and len(current) > 1:
            candidate = current[:start] + current[start + size:]
            if candidate and predicate(candidate):
                current = candidate
            else:
                start += size
        size //= 2
    return current


__all__ = ["shrink", "shrink_list"]
