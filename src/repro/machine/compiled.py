"""Closure-compiled execution backend: the interpreter's fast twin.

:class:`CompiledCPU` translates every static instruction into an
operand-specialized closure at first run: register indices, immediates,
branch targets and bound memory methods are baked into the closure's cells,
so the hot loop is ``pc = code[pc]()`` -- no per-step ``Instr`` attribute
loads, no handler-table indexing, no ``self.*`` lookups.  Two hot pairs are
fused into superinstructions (compare+branch and addi+load); the second
member of a pair keeps its own closure slot, so branches into the middle of
a pair still work.

The backend preserves the interpreter's contract exactly:

* **Precise exceptions.**  A :class:`~repro.machine.signals.Trap` carries
  the pc of the faulter, the faulting instruction does not retire, and
  ``cpu.pc`` is left at the fault site -- bit-identical trap sites, signals
  and detail strings.
* **Exact ``instret`` accounting.**  Fused pairs execute inside bounded
  chunks sized so a pair can never overrun the step budget, and the final
  budgeted step always runs unfused; ``run(n)`` retires exactly what the
  interpreter would.  This is what keeps ``dyn_index``-addressed fault
  injection deterministic across backends.
* **Live state.**  Closures bind the *identities* of the register files,
  memory and output stream -- exactly the objects
  :func:`~repro.checkpoint.snapshot.restore_into` refills in place -- so
  snapshot/restore, debugger register writes and ``set_pc`` all work
  unchanged.
* **Out-of-image control flow.**  A computed or encoded jump target outside
  the image retires the jump, parks the wild pc, and faults on the *next*
  fetch, exactly like the interpreter (a run whose budget expires right
  after such a jump stops with the wild pc and no trap).

``run_profiled`` is inherited from the interpreter: profiling is a
one-time golden pass and the per-pc counts must stay reference-exact.

Fusion plans are cached per program image (the per-program code cache);
closure tables themselves bind per-process state, so each process builds
its own lazily on first run.  Campaign workers amortize that by reusing
one host process per shard (see ``repro.faultinject.engine``).
"""

from __future__ import annotations

import os
from math import copysign, inf, isinf, isnan, nan, sqrt
from operator import eq, le, lt, ne

from repro.isa.instructions import Instr, Op
from repro.isa.layout import INT64_MAX, INT64_MIN, MASK64
from repro.isa.registers import SP
from repro.machine.cpu import CPU, STOP_HALT, STOP_STEPS
from repro.machine.memory import (
    AccessError,
    float_to_pattern,
    pattern_to_float,
)
from repro.machine.signals import Blocked, Signal, Trap

_SIGN = 1 << 63
_WRAP = 1 << 64


class _HaltSignal(Exception):
    """Internal: unwinds a fused chunk when HALT retires.  Never escapes."""


_HALT = _HaltSignal()

# -- fusion planning ---------------------------------------------------------

#: No fusion at this pc.
FUSE_NONE = 0
#: compare (SEQ/SNE/SLT/SLE/FEQ/FNE/FLT/FLE) + BEQZ/BNEZ on the flag reg.
FUSE_CMP_BRANCH = 1
#: ADDI + LD/FLD (address bump feeding a load is the classic hot pair).
FUSE_ADDI_LOAD = 2

_CMP_TO_OPERATOR = {
    Op.SEQ: eq, Op.SNE: ne, Op.SLT: lt, Op.SLE: le,
    Op.FEQ: eq, Op.FNE: ne, Op.FLT: lt, Op.FLE: le,
}
_FCMP_OPS = frozenset((Op.FEQ, Op.FNE, Op.FLT, Op.FLE))
_BRANCH_OPS = (Op.BEQZ, Op.BNEZ)


def fusion_plan(instrs: list[Instr]) -> tuple[int, ...]:
    """Per-pc fusion decisions for one instruction list."""
    n = len(instrs)
    plan = [FUSE_NONE] * n
    for pc in range(n - 1):
        ins = instrs[pc]
        tail = instrs[pc + 1]
        if (
            ins.op in _CMP_TO_OPERATOR
            and tail.op in _BRANCH_OPS
            and tail.ra == ins.rd
            and 0 <= tail.imm <= n  # wild branch targets stay unfused
        ):
            plan[pc] = FUSE_CMP_BRANCH
        elif ins.op is Op.ADDI and tail.op in (Op.LD, Op.FLD):
            plan[pc] = FUSE_ADDI_LOAD
    return tuple(plan)


# The per-program code cache: fusion plans keyed by instruction-list
# identity (programs are interned per source by the app layer, so this
# stays a handful of entries; the instrs reference both keeps the id
# stable and guards against id reuse).
_PLAN_CACHE: dict[int, tuple[list[Instr], tuple[int, ...]]] = {}


def _plan_for(instrs: list[Instr]) -> tuple[int, ...]:
    key = id(instrs)
    hit = _PLAN_CACHE.get(key)
    if hit is not None and hit[0] is instrs:
        return hit[1]
    plan = fusion_plan(instrs)
    _PLAN_CACHE[key] = (instrs, plan)
    return plan


def _mem_trap(exc: AccessError, pc: int, ins: Instr | None) -> Trap:
    return Trap(
        Signal.SIGSEGV if exc.kind == "segv" else Signal.SIGBUS,
        pc=pc,
        instr=ins,
        detail=str(exc),
        address=exc.address,
    )


def _fetch_trap(pc: int) -> Trap:
    return Trap(
        Signal.SIGSEGV,
        pc=pc,
        instr=None,
        detail=f"instruction fetch out of image (pc={pc})",
    )


def _build_tables(cpu: "CompiledCPU"):
    """Compile *cpu*'s program into (chunk table, safe table).

    Both tables have ``n + 1`` slots; slot ``n`` is the fetch-fault pad so
    natural fall-through past the image (and parked wild jump targets)
    fault exactly like the interpreter's bounds check.  The *safe* table is
    fully unfused and never raises on HALT (used for the final budgeted
    step); the *chunk* table fuses hot pairs and unwinds HALT with an
    internal exception so a fused chunk can stop mid-flight.
    """
    instrs = cpu.instrs
    n = len(instrs)
    plan = _plan_for(instrs)

    # State identities -- shared with restore_into / debugger mutation.
    iregs = cpu.iregs
    fregs = cpu.fregs
    memory = cpu.memory
    read_pattern = memory.read_pattern
    write_pattern = memory.write_pattern
    read_float = memory.read_float
    write_float = memory.write_float
    out_append = cpu.output.append
    extra = cpu._extra
    wild = cpu._wild

    M = MASK64
    S = _SIGN
    W = _WRAP
    I64MIN = INT64_MIN
    I64MAX = INT64_MAX
    SP_ = SP
    isnan_ = isnan
    isinf_ = isinf
    sqrt_ = sqrt
    nan_ = nan
    inf_ = inf
    copysign_ = copysign
    p2f = pattern_to_float
    f2p = float_to_pattern

    def make(pc: int, ins: Instr):
        """Operand-specialized closure for one instruction.

        Every closure returns the next pc (always within ``[0, n]``); a
        computed target outside that range is parked in ``wild`` and the
        pad slot is returned instead, deferring the fetch fault by exactly
        one dispatch, as the interpreter does.
        """
        op = ins.op
        rd, ra, rb, imm = ins.rd, ins.ra, ins.rb, ins.imm
        nxt = pc + 1

        # -- data movement --------------------------------------------------
        if op is Op.NOP:
            def cl():
                return nxt
        elif op is Op.MOV:
            def cl():
                iregs[rd] = iregs[ra]
                return nxt
        elif op is Op.MOVI:
            def cl():
                iregs[rd] = imm
                return nxt
        elif op is Op.FMOV:
            def cl():
                fregs[rd] = fregs[ra]
                return nxt
        elif op is Op.FMOVI:
            def cl():
                fregs[rd] = imm
                return nxt

        # -- memory ---------------------------------------------------------
        elif op is Op.LD:
            def cl():
                try:
                    p = read_pattern(iregs[ra] + imm)
                except AccessError as exc:
                    raise _mem_trap(exc, pc, ins) from None
                iregs[rd] = p - W if p >= S else p
                return nxt
        elif op is Op.ST:
            def cl():
                try:
                    write_pattern(iregs[ra] + imm, iregs[rd] & M)
                except AccessError as exc:
                    raise _mem_trap(exc, pc, ins) from None
                return nxt
        elif op is Op.LDX:
            def cl():
                try:
                    p = read_pattern(iregs[ra] + iregs[rb] * 8 + imm)
                except AccessError as exc:
                    raise _mem_trap(exc, pc, ins) from None
                iregs[rd] = p - W if p >= S else p
                return nxt
        elif op is Op.STX:
            def cl():
                try:
                    write_pattern(iregs[ra] + iregs[rb] * 8 + imm, iregs[rd] & M)
                except AccessError as exc:
                    raise _mem_trap(exc, pc, ins) from None
                return nxt
        elif op is Op.FLD:
            def cl():
                try:
                    value = read_float(iregs[ra] + imm)
                except AccessError as exc:
                    raise _mem_trap(exc, pc, ins) from None
                fregs[rd] = value
                return nxt
        elif op is Op.FST:
            def cl():
                try:
                    write_float(iregs[ra] + imm, fregs[rd])
                except AccessError as exc:
                    raise _mem_trap(exc, pc, ins) from None
                return nxt
        elif op is Op.FLDX:
            def cl():
                try:
                    value = read_float(iregs[ra] + iregs[rb] * 8 + imm)
                except AccessError as exc:
                    raise _mem_trap(exc, pc, ins) from None
                fregs[rd] = value
                return nxt
        elif op is Op.FSTX:
            def cl():
                try:
                    write_float(iregs[ra] + iregs[rb] * 8 + imm, fregs[rd])
                except AccessError as exc:
                    raise _mem_trap(exc, pc, ins) from None
                return nxt
        elif op is Op.PUSH:
            def cl():
                sp = iregs[SP_] - 8
                try:
                    write_pattern(sp, iregs[ra] & M)
                except AccessError as exc:
                    raise _mem_trap(exc, pc, ins) from None
                iregs[SP_] = sp
                return nxt
        elif op is Op.POP:
            def cl():
                sp = iregs[SP_]
                try:
                    p = read_pattern(sp)
                except AccessError as exc:
                    raise _mem_trap(exc, pc, ins) from None
                # sp first, value second: "pop sp" ends with the loaded value.
                iregs[SP_] = sp + 8
                iregs[rd] = p - W if p >= S else p
                return nxt
        elif op is Op.FPUSH:
            def cl():
                sp = iregs[SP_] - 8
                try:
                    write_float(sp, fregs[ra])
                except AccessError as exc:
                    raise _mem_trap(exc, pc, ins) from None
                iregs[SP_] = sp
                return nxt
        elif op is Op.FPOP:
            def cl():
                sp = iregs[SP_]
                try:
                    value = read_float(sp)
                except AccessError as exc:
                    raise _mem_trap(exc, pc, ins) from None
                fregs[rd] = value
                iregs[SP_] = sp + 8
                return nxt

        # -- integer ALU ------------------------------------------------------
        elif op is Op.ADD:
            def cl():
                v = (iregs[ra] + iregs[rb]) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.SUB:
            def cl():
                v = (iregs[ra] - iregs[rb]) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.MUL:
            def cl():
                v = (iregs[ra] * iregs[rb]) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.DIV:
            def cl():
                b = iregs[rb]
                if b == 0:
                    raise Trap(
                        Signal.SIGFPE, pc=pc, instr=ins,
                        detail="integer divide by zero",
                    )
                a = iregs[ra]
                q = abs(a) // abs(b)
                v = (-q if (a < 0) != (b < 0) else q) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.MOD:
            def cl():
                b = iregs[rb]
                if b == 0:
                    raise Trap(
                        Signal.SIGFPE, pc=pc, instr=ins,
                        detail="integer remainder by zero",
                    )
                a = iregs[ra]
                q = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    q = -q
                v = (a - q * b) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.AND:
            def cl():
                v = (iregs[ra] & iregs[rb]) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.OR:
            def cl():
                v = (iregs[ra] | iregs[rb]) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.XOR:
            def cl():
                v = (iregs[ra] ^ iregs[rb]) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.SHL:
            def cl():
                v = (iregs[ra] << (iregs[rb] & 63)) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.SHR:
            def cl():
                iregs[rd] = iregs[ra] >> (iregs[rb] & 63)
                return nxt
        elif op is Op.NEG:
            def cl():
                v = (-iregs[ra]) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.NOT:
            def cl():
                v = (~iregs[ra]) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.ADDI:
            def cl():
                v = (iregs[ra] + imm) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.SUBI:
            def cl():
                v = (iregs[ra] - imm) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.MULI:
            def cl():
                v = (iregs[ra] * imm) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.ANDI:
            def cl():
                v = (iregs[ra] & imm) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.ORI:
            def cl():
                v = (iregs[ra] | imm) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.XORI:
            def cl():
                v = (iregs[ra] ^ imm) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.SHLI:
            shift = imm & 63
            def cl():
                v = (iregs[ra] << shift) & M
                iregs[rd] = v - W if v >= S else v
                return nxt
        elif op is Op.SHRI:
            shift = imm & 63
            def cl():
                iregs[rd] = iregs[ra] >> shift
                return nxt

        # -- comparisons ------------------------------------------------------
        elif op is Op.SEQ:
            def cl():
                iregs[rd] = 1 if iregs[ra] == iregs[rb] else 0
                return nxt
        elif op is Op.SNE:
            def cl():
                iregs[rd] = 1 if iregs[ra] != iregs[rb] else 0
                return nxt
        elif op is Op.SLT:
            def cl():
                iregs[rd] = 1 if iregs[ra] < iregs[rb] else 0
                return nxt
        elif op is Op.SLE:
            def cl():
                iregs[rd] = 1 if iregs[ra] <= iregs[rb] else 0
                return nxt
        elif op is Op.FEQ:
            def cl():
                iregs[rd] = 1 if fregs[ra] == fregs[rb] else 0
                return nxt
        elif op is Op.FNE:
            def cl():
                iregs[rd] = 1 if fregs[ra] != fregs[rb] else 0
                return nxt
        elif op is Op.FLT:
            def cl():
                iregs[rd] = 1 if fregs[ra] < fregs[rb] else 0
                return nxt
        elif op is Op.FLE:
            def cl():
                iregs[rd] = 1 if fregs[ra] <= fregs[rb] else 0
                return nxt

        # -- floating point ---------------------------------------------------
        elif op is Op.FADD:
            def cl():
                fregs[rd] = fregs[ra] + fregs[rb]
                return nxt
        elif op is Op.FSUB:
            def cl():
                fregs[rd] = fregs[ra] - fregs[rb]
                return nxt
        elif op is Op.FMUL:
            def cl():
                fregs[rd] = fregs[ra] * fregs[rb]
                return nxt
        elif op is Op.FDIV:
            def cl():
                a = fregs[ra]
                b = fregs[rb]
                if b == 0.0:
                    # IEEE-754: x/0 -> signed inf; 0/0 and nan/0 -> nan.
                    if a == 0.0 or isnan_(a):
                        fregs[rd] = nan_
                    else:
                        fregs[rd] = copysign_(inf_, a) * copysign_(1.0, b)
                else:
                    fregs[rd] = a / b
                return nxt
        elif op is Op.FNEG:
            def cl():
                fregs[rd] = -fregs[ra]
                return nxt
        elif op is Op.FSQRT:
            def cl():
                a = fregs[ra]
                fregs[rd] = nan_ if a < 0.0 else (a if isnan_(a) else sqrt_(a))
                return nxt
        elif op is Op.FABS:
            def cl():
                fregs[rd] = abs(fregs[ra])
                return nxt
        elif op is Op.FMIN:
            def cl():
                a = fregs[ra]
                b = fregs[rb]
                if isnan_(a):
                    fregs[rd] = b
                elif isnan_(b):
                    fregs[rd] = a
                else:
                    fregs[rd] = a if a < b else b
                return nxt
        elif op is Op.FMAX:
            def cl():
                a = fregs[ra]
                b = fregs[rb]
                if isnan_(a):
                    fregs[rd] = b
                elif isnan_(b):
                    fregs[rd] = a
                else:
                    fregs[rd] = a if a > b else b
                return nxt

        # -- conversions ------------------------------------------------------
        elif op is Op.ITOF:
            def cl():
                fregs[rd] = float(iregs[ra])
                return nxt
        elif op is Op.FTOI:
            def cl():
                a = fregs[ra]
                if isnan_(a) or isinf_(a):
                    value = I64MIN  # x86 cvttsd2si "integer indefinite"
                else:
                    value = int(a)
                    if value < I64MIN or value > I64MAX:
                        value = I64MIN
                iregs[rd] = value
                return nxt

        # -- control flow -----------------------------------------------------
        elif op is Op.JMP:
            target = imm
            if 0 <= target <= n:
                def cl():
                    return target
            else:
                def cl():
                    wild[0] = target
                    return n
        elif op is Op.BEQZ:
            target = imm
            if 0 <= target <= n:
                def cl():
                    return target if iregs[ra] == 0 else nxt
            else:
                def cl():
                    if iregs[ra] == 0:
                        wild[0] = target
                        return n
                    return nxt
        elif op is Op.BNEZ:
            target = imm
            if 0 <= target <= n:
                def cl():
                    return target if iregs[ra] != 0 else nxt
            else:
                def cl():
                    if iregs[ra] != 0:
                        wild[0] = target
                        return n
                    return nxt
        elif op is Op.CALL:
            target = imm
            ret_addr = (pc + 1) & M
            if 0 <= target <= n:
                def cl():
                    sp = iregs[SP_] - 8
                    try:
                        write_pattern(sp, ret_addr)
                    except AccessError as exc:
                        raise _mem_trap(exc, pc, ins) from None
                    iregs[SP_] = sp
                    return target
            else:
                def cl():
                    sp = iregs[SP_] - 8
                    try:
                        write_pattern(sp, ret_addr)
                    except AccessError as exc:
                        raise _mem_trap(exc, pc, ins) from None
                    iregs[SP_] = sp
                    wild[0] = target
                    return n
        elif op is Op.RET:
            def cl():
                sp = iregs[SP_]
                try:
                    p = read_pattern(sp)
                except AccessError as exc:
                    raise _mem_trap(exc, pc, ins) from None
                iregs[SP_] = sp + 8
                target = p - W if p >= S else p
                if 0 <= target <= n:
                    return target
                wild[0] = target
                return n

        # -- system -----------------------------------------------------------
        elif op is Op.HALT:
            # Safe-table variant: retire, stay on the HALT site, let the run
            # loop observe ``halted``.  The chunk table swaps in a raising
            # variant (see below).
            def cl():
                cpu.halted = True
                cpu.exit_code = iregs[0]
                return pc
        elif op is Op.OUT:
            def cl():
                out_append(("i", iregs[ra]))
                return nxt
        elif op is Op.FOUT:
            def cl():
                out_append(("f", fregs[ra]))
                return nxt
        elif op is Op.ABORT:
            def cl():
                raise Trap(
                    Signal.SIGABRT, pc=pc, instr=ins,
                    detail="application abort",
                )

        # -- inter-rank communication ----------------------------------------
        elif op is Op.RANK:
            def cl():
                iregs[rd] = cpu.rank
                return nxt
        elif op is Op.NRANKS:
            def cl():
                net = cpu.network
                iregs[rd] = net.size if net is not None else 1
                return nxt
        elif op is Op.SEND:
            def cl():
                net = cpu.network
                if net is None:
                    raise Trap(
                        Signal.SIGBUS, pc=pc, instr=ins,
                        detail="send outside a cluster",
                    )
                dst = iregs[ra]
                if not net.valid_rank(dst):
                    raise Trap(
                        Signal.SIGBUS, pc=pc, instr=ins,
                        detail=f"send to invalid rank {dst}",
                    )
                net.send(cpu.rank, dst, iregs[rb] & M)
                return nxt
        elif op is Op.FSEND:
            def cl():
                net = cpu.network
                if net is None:
                    raise Trap(
                        Signal.SIGBUS, pc=pc, instr=ins,
                        detail="fsend outside a cluster",
                    )
                dst = iregs[ra]
                if not net.valid_rank(dst):
                    raise Trap(
                        Signal.SIGBUS, pc=pc, instr=ins,
                        detail=f"fsend to invalid rank {dst}",
                    )
                net.send(cpu.rank, dst, f2p(fregs[rb]))
                return nxt
        elif op is Op.RECV:
            def cl():
                net = cpu.network
                if net is None:
                    raise Trap(
                        Signal.SIGBUS, pc=pc, instr=ins,
                        detail="recv outside a cluster",
                    )
                src = iregs[ra]
                if not net.valid_rank(src):
                    raise Trap(
                        Signal.SIGBUS, pc=pc, instr=ins,
                        detail=f"recv from invalid rank {src}",
                    )
                p = net.recv(cpu.rank, src)
                if p is None:
                    raise Blocked(pc=pc, rank=cpu.rank, src=src)
                p &= M
                iregs[rd] = p - W if p >= S else p
                return nxt
        elif op is Op.FRECV:
            def cl():
                net = cpu.network
                if net is None:
                    raise Trap(
                        Signal.SIGBUS, pc=pc, instr=ins,
                        detail="frecv outside a cluster",
                    )
                src = iregs[ra]
                if not net.valid_rank(src):
                    raise Trap(
                        Signal.SIGBUS, pc=pc, instr=ins,
                        detail=f"frecv from invalid rank {src}",
                    )
                p = net.recv(cpu.rank, src)
                if p is None:
                    raise Blocked(pc=pc, rank=cpu.rank, src=src)
                fregs[rd] = p2f(p)
                return nxt
        else:  # pragma: no cover - new opcode without a compiled template
            raise NotImplementedError(f"no compiled template for {op!r}")
        return cl

    def make_pad():
        """Slot ``n``: fetch past the image (or a parked wild target)."""
        def pad():
            t = wild[0]
            if t is None:
                t = n
            else:
                wild[0] = None
            raise _fetch_trap(t)
        return pad

    def make_halt_raising(pc: int):
        def halt():
            cpu.halted = True
            cpu.exit_code = iregs[0]
            extra[0] += 1  # HALT retires, then the chunk unwinds
            raise _HALT
        return halt

    def make_fused_cmp_branch(pc: int, ins: Instr, tail: Instr):
        cmp = _CMP_TO_OPERATOR[ins.op]
        bank = fregs if ins.op in _FCMP_OPS else iregs
        rd1, a1, b1 = ins.rd, ins.ra, ins.rb
        target = tail.imm
        nxt2 = pc + 2
        if tail.op is Op.BNEZ:
            def cl():
                if cmp(bank[a1], bank[b1]):
                    iregs[rd1] = 1
                    extra[0] += 1
                    return target
                iregs[rd1] = 0
                extra[0] += 1
                return nxt2
        else:  # BEQZ: taken when the comparison is false
            def cl():
                if cmp(bank[a1], bank[b1]):
                    iregs[rd1] = 1
                    extra[0] += 1
                    return nxt2
                iregs[rd1] = 0
                extra[0] += 1
                return target
        return cl

    def make_fused_addi_load(pc: int, ins: Instr, tail: Instr):
        d1, a1, i1 = ins.rd, ins.ra, ins.imm
        d2, a2, i2 = tail.rd, tail.ra, tail.imm
        load_pc = pc + 1
        nxt2 = pc + 2
        if tail.op is Op.LD:
            def cl():
                v = (iregs[a1] + i1) & M
                iregs[d1] = v - W if v >= S else v
                extra[0] += 1  # the ADDI is committed even if the load traps
                try:
                    p = read_pattern(iregs[a2] + i2)
                except AccessError as exc:
                    raise _mem_trap(exc, load_pc, tail) from None
                iregs[d2] = p - W if p >= S else p
                return nxt2
        else:  # FLD
            def cl():
                v = (iregs[a1] + i1) & M
                iregs[d1] = v - W if v >= S else v
                extra[0] += 1
                try:
                    value = read_float(iregs[a2] + i2)
                except AccessError as exc:
                    raise _mem_trap(exc, load_pc, tail) from None
                fregs[d2] = value
                return nxt2
        return cl

    safe = [make(pc, ins) for pc, ins in enumerate(instrs)]
    safe.append(make_pad())
    code = list(safe)
    for pc, ins in enumerate(instrs):
        if ins.op is Op.HALT:
            code[pc] = make_halt_raising(pc)
        elif plan[pc] == FUSE_CMP_BRANCH:
            code[pc] = make_fused_cmp_branch(pc, ins, instrs[pc + 1])
        elif plan[pc] == FUSE_ADDI_LOAD:
            code[pc] = make_fused_addi_load(pc, ins, instrs[pc + 1])
    return code, safe


class CompiledCPU(CPU):
    """Drop-in :class:`CPU` whose run loop dispatches compiled closures.

    Compilation is lazy (first :meth:`run`), so processes that are only
    snapshotted or inspected never pay for it; the closure tables bind the
    live register files / memory / output objects, which
    ``restore_into`` refills in place, so one compiled process can host
    any number of restored runs.

    ``run_probed`` (instret-bucketed telemetry progress probes) is
    inherited from :class:`CPU` unchanged: it slices the budget through
    the public ``run`` contract, and this backend's exact-budget chunking
    guarantees the probe sequence and final state are bit-identical to
    the interpreter's.
    """

    __slots__ = ("_code", "_safe", "_extra", "_wild")

    def __init__(self, program, memory):
        super().__init__(program, memory)
        self._code = None
        self._safe = None
        self._extra = [0]   # retirements a chunk iteration count misses
        self._wild = [None]  # out-of-image jump target awaiting its fetch fault

    def run(self, max_steps: int) -> str:
        """Exactly :meth:`CPU.run`, at compiled speed."""
        code = self._code
        if code is None:
            code, self._safe = _build_tables(self)
            self._code = code
        safe = self._safe
        extra = self._extra
        wild = self._wild
        n = self._n_instrs
        if self.halted:
            return STOP_HALT
        pc = self.pc
        retired = 0
        try:
            while True:
                remaining = max_steps - retired
                if remaining <= 0:
                    return STOP_HALT if self.halted else STOP_STEPS
                if pc < 0 or pc > n:
                    raise _fetch_trap(pc)
                if remaining == 1:
                    # The last budgeted step must not over-retire: run it
                    # unfused.
                    pc = safe[pc]()
                    retired += 1
                    continue
                # A fused pair retires two instructions, so a chunk of k
                # dispatches retires at most 2k <= remaining.
                k = remaining >> 1
                i = 0
                extra[0] = 0
                try:
                    while i < k:
                        pc = code[pc]()
                        i += 1
                finally:
                    retired += i + extra[0]
        except _HaltSignal:
            # _HALT is one shared instance: every raise chains this run's
            # frames onto its traceback, which would pin the CPU, memory
            # and closure tables of every halted run.
            _HALT.__traceback__ = None
            return STOP_HALT
        except Trap as trap:
            pc = trap.pc
            raise
        finally:
            if wild[0] is not None:
                # Budget expired right after an out-of-image jump: expose
                # the wild pc (the fault belongs to the *next* fetch).
                pc = wild[0]
                wild[0] = None
            self.pc = pc
            self.instret += retired


# -- backend selection -------------------------------------------------------

#: Known execution backends, name -> CPU class.
BACKENDS: dict[str, type[CPU]] = {
    "interpreter": CPU,
    "compiled": CompiledCPU,
}

#: Package default; override per call with ``backend=`` or process-wide
#: with the ``REPRO_BACKEND`` environment variable.
DEFAULT_BACKEND = "compiled"


def default_backend() -> str:
    """The backend used when no ``backend=`` is given."""
    return os.environ.get("REPRO_BACKEND", DEFAULT_BACKEND)


def cpu_class(backend: "str | type[CPU] | None") -> type[CPU]:
    """Resolve a backend name (``None`` = :func:`default_backend`).

    A :class:`CPU` subclass passes through unchanged, so callers (the
    fuzz harness's scratch mutants, experiments) can plug a custom
    engine into ``Process.load`` without registering it in
    :data:`BACKENDS`.
    """
    if isinstance(backend, type) and issubclass(backend, CPU):
        return backend
    name = default_backend() if backend is None else backend
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r} "
            f"(choose from {sorted(BACKENDS)})"
        ) from None


__all__ = [
    "CompiledCPU",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "default_backend",
    "cpu_class",
    "fusion_plan",
    "FUSE_NONE",
    "FUSE_CMP_BRANCH",
    "FUSE_ADDI_LOAD",
]
