"""The CPU: a precise-exception interpreter for the repro ISA.

Performance notes (single-core budget; see the optimization guide): the
interpreter pre-builds a handler table indexed by opcode, keeps the hot
loop free of per-step allocations and hooks, and exposes dedicated loop
variants (plain / profiled) so the common path pays nothing for
instrumentation.  Registers live in plain Python lists -- faster than NumPy
for scalar element access.

Exception model: every fault is *precise*.  When a handler raises
:class:`~repro.machine.signals.Trap`, no architectural state has been
committed for the faulting instruction and ``cpu.pc`` still points at it.
This is what lets LetGo advance the PC and resume.
"""

from __future__ import annotations

from math import copysign, inf, isinf, isnan, nan, sqrt

from repro.isa.instructions import Instr, Op
from repro.isa.layout import INT64_MAX, INT64_MIN, MASK64
from repro.isa.program import Program
from repro.isa.registers import NUM_FP_REGS, NUM_INT_REGS, SP
from repro.machine.memory import (
    AccessError,
    Memory,
    float_to_pattern,
    int_to_pattern,
    pattern_to_float,
    pattern_to_int,
)
from repro.machine.signals import Blocked, Signal, Trap

_SIGN_BIT = 1 << 63
_WRAP = 1 << 64

#: Reasons a run loop can stop (traps propagate as exceptions instead).
STOP_HALT = "halt"
STOP_STEPS = "steps"


def _wrap64(value: int) -> int:
    value &= MASK64
    return value - _WRAP if value >= _SIGN_BIT else value


class CPU:
    """Architectural state + interpreter.

    The CPU does not own policy: it raises :class:`Trap` and lets the
    caller (a :class:`~repro.machine.process.Process` or a debugger)
    decide between termination and repair.
    """

    __slots__ = (
        "iregs",
        "fregs",
        "pc",
        "memory",
        "instrs",
        "output",
        "instret",
        "halted",
        "exit_code",
        "rank",
        "network",
        "_handlers",
        "_n_instrs",
    )

    def __init__(self, program: Program, memory: Memory):
        self.memory = memory
        self.instrs: list[Instr] = program.instrs
        self._n_instrs = len(program.instrs)
        self.iregs: list[int] = [0] * NUM_INT_REGS
        self.fregs: list[float] = [0.0] * NUM_FP_REGS
        self.pc: int = 0
        #: (kind, value) pairs emitted by OUT/FOUT; kind is 'i' or 'f'.
        self.output: list[tuple[str, int | float]] = []
        #: Retired dynamic instruction count.
        self.instret: int = 0
        self.halted = False
        self.exit_code: int = 0
        #: SPMD identity: set by repro.machine.cluster; standalone defaults.
        self.rank: int = 0
        self.network = None
        self._handlers = self._build_handlers()

    # -- run loops -----------------------------------------------------------

    def run(self, max_steps: int) -> str:
        """Execute until HALT or *max_steps* instructions retire.

        Returns :data:`STOP_HALT` or :data:`STOP_STEPS`.  Raises
        :class:`Trap` on a fault, with ``pc`` left at the faulter.
        """
        instrs = self.instrs
        handlers = self._handlers
        n = self._n_instrs
        steps = 0
        try:
            while steps < max_steps:
                if self.halted:
                    return STOP_HALT
                pc = self.pc
                if pc < 0 or pc >= n:
                    raise Trap(
                        Signal.SIGSEGV,
                        pc=pc,
                        instr=None,
                        detail=f"instruction fetch out of image (pc={pc})",
                    )
                ins = instrs[pc]
                handlers[ins.op](ins)
                steps += 1
            return STOP_HALT if self.halted else STOP_STEPS
        finally:
            # A trapped instruction did not retire; ``steps`` excludes it.
            self.instret += steps

    def run_profiled(self, counts: list[int], max_steps: int) -> str:
        """Like :meth:`run` but increments ``counts[pc]`` per retirement.

        ``counts`` must have one slot per static instruction.
        """
        instrs = self.instrs
        handlers = self._handlers
        n = self._n_instrs
        steps = 0
        try:
            while steps < max_steps:
                if self.halted:
                    return STOP_HALT
                pc = self.pc
                if pc < 0 or pc >= n:
                    raise Trap(
                        Signal.SIGSEGV,
                        pc=pc,
                        instr=None,
                        detail=f"instruction fetch out of image (pc={pc})",
                    )
                ins = instrs[pc]
                handlers[ins.op](ins)
                counts[pc] += 1
                steps += 1
            return STOP_HALT if self.halted else STOP_STEPS
        finally:
            self.instret += steps

    def step(self) -> None:
        """Execute exactly one instruction (slow path, debugger use)."""
        self.run(1)

    # -- handler construction ----------------------------------------------

    def _build_handlers(self):
        table = [None] * 128
        for op in Op:
            table[int(op)] = getattr(self, f"_op_{op.name.lower()}")
        return table

    # -- fault helper ---------------------------------------------------------

    def _mem_trap(self, exc: AccessError, ins: Instr) -> Trap:
        signal = Signal.SIGSEGV if exc.kind == "segv" else Signal.SIGBUS
        return Trap(
            signal,
            pc=self.pc,
            instr=ins,
            detail=str(exc),
            address=exc.address,
        )

    # -- data movement ---------------------------------------------------------

    def _op_nop(self, ins: Instr) -> None:
        self.pc += 1

    def _op_mov(self, ins: Instr) -> None:
        self.iregs[ins.rd] = self.iregs[ins.ra]
        self.pc += 1

    def _op_movi(self, ins: Instr) -> None:
        self.iregs[ins.rd] = ins.imm
        self.pc += 1

    def _op_fmov(self, ins: Instr) -> None:
        self.fregs[ins.rd] = self.fregs[ins.ra]
        self.pc += 1

    def _op_fmovi(self, ins: Instr) -> None:
        self.fregs[ins.rd] = ins.imm
        self.pc += 1

    # -- memory ------------------------------------------------------------

    def _op_ld(self, ins: Instr) -> None:
        try:
            value = self.memory.read_int(self.iregs[ins.ra] + ins.imm)
        except AccessError as exc:
            raise self._mem_trap(exc, ins) from None
        self.iregs[ins.rd] = value
        self.pc += 1

    def _op_st(self, ins: Instr) -> None:
        try:
            self.memory.write_int(self.iregs[ins.ra] + ins.imm, self.iregs[ins.rd])
        except AccessError as exc:
            raise self._mem_trap(exc, ins) from None
        self.pc += 1

    def _op_ldx(self, ins: Instr) -> None:
        addr = self.iregs[ins.ra] + self.iregs[ins.rb] * 8 + ins.imm
        try:
            value = self.memory.read_int(addr)
        except AccessError as exc:
            raise self._mem_trap(exc, ins) from None
        self.iregs[ins.rd] = value
        self.pc += 1

    def _op_stx(self, ins: Instr) -> None:
        addr = self.iregs[ins.ra] + self.iregs[ins.rb] * 8 + ins.imm
        try:
            self.memory.write_int(addr, self.iregs[ins.rd])
        except AccessError as exc:
            raise self._mem_trap(exc, ins) from None
        self.pc += 1

    def _op_fld(self, ins: Instr) -> None:
        try:
            value = self.memory.read_float(self.iregs[ins.ra] + ins.imm)
        except AccessError as exc:
            raise self._mem_trap(exc, ins) from None
        self.fregs[ins.rd] = value
        self.pc += 1

    def _op_fst(self, ins: Instr) -> None:
        try:
            self.memory.write_float(self.iregs[ins.ra] + ins.imm, self.fregs[ins.rd])
        except AccessError as exc:
            raise self._mem_trap(exc, ins) from None
        self.pc += 1

    def _op_fldx(self, ins: Instr) -> None:
        addr = self.iregs[ins.ra] + self.iregs[ins.rb] * 8 + ins.imm
        try:
            value = self.memory.read_float(addr)
        except AccessError as exc:
            raise self._mem_trap(exc, ins) from None
        self.fregs[ins.rd] = value
        self.pc += 1

    def _op_fstx(self, ins: Instr) -> None:
        addr = self.iregs[ins.ra] + self.iregs[ins.rb] * 8 + ins.imm
        try:
            self.memory.write_float(addr, self.fregs[ins.rd])
        except AccessError as exc:
            raise self._mem_trap(exc, ins) from None
        self.pc += 1

    def _op_push(self, ins: Instr) -> None:
        sp = self.iregs[SP] - 8
        try:
            self.memory.write_int(sp, self.iregs[ins.ra])
        except AccessError as exc:
            raise self._mem_trap(exc, ins) from None
        self.iregs[SP] = sp
        self.pc += 1

    def _op_pop(self, ins: Instr) -> None:
        sp = self.iregs[SP]
        try:
            value = self.memory.read_int(sp)
        except AccessError as exc:
            raise self._mem_trap(exc, ins) from None
        # sp first, value second: "pop sp" must end with the loaded value.
        self.iregs[SP] = sp + 8
        self.iregs[ins.rd] = value
        self.pc += 1

    def _op_fpush(self, ins: Instr) -> None:
        sp = self.iregs[SP] - 8
        try:
            self.memory.write_float(sp, self.fregs[ins.ra])
        except AccessError as exc:
            raise self._mem_trap(exc, ins) from None
        self.iregs[SP] = sp
        self.pc += 1

    def _op_fpop(self, ins: Instr) -> None:
        sp = self.iregs[SP]
        try:
            value = self.memory.read_float(sp)
        except AccessError as exc:
            raise self._mem_trap(exc, ins) from None
        self.fregs[ins.rd] = value
        self.iregs[SP] = sp + 8
        self.pc += 1

    # -- integer ALU ---------------------------------------------------------

    def _op_add(self, ins: Instr) -> None:
        r = self.iregs
        r[ins.rd] = _wrap64(r[ins.ra] + r[ins.rb])
        self.pc += 1

    def _op_sub(self, ins: Instr) -> None:
        r = self.iregs
        r[ins.rd] = _wrap64(r[ins.ra] - r[ins.rb])
        self.pc += 1

    def _op_mul(self, ins: Instr) -> None:
        r = self.iregs
        r[ins.rd] = _wrap64(r[ins.ra] * r[ins.rb])
        self.pc += 1

    def _op_div(self, ins: Instr) -> None:
        r = self.iregs
        b = r[ins.rb]
        if b == 0:
            raise Trap(Signal.SIGFPE, pc=self.pc, instr=ins, detail="integer divide by zero")
        a = r[ins.ra]
        q = abs(a) // abs(b)
        r[ins.rd] = _wrap64(-q if (a < 0) != (b < 0) else q)
        self.pc += 1

    def _op_mod(self, ins: Instr) -> None:
        r = self.iregs
        b = r[ins.rb]
        if b == 0:
            raise Trap(Signal.SIGFPE, pc=self.pc, instr=ins, detail="integer remainder by zero")
        a = r[ins.ra]
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        r[ins.rd] = _wrap64(a - q * b)
        self.pc += 1

    def _op_and(self, ins: Instr) -> None:
        r = self.iregs
        r[ins.rd] = _wrap64((r[ins.ra] & MASK64) & (r[ins.rb] & MASK64))
        self.pc += 1

    def _op_or(self, ins: Instr) -> None:
        r = self.iregs
        r[ins.rd] = _wrap64((r[ins.ra] & MASK64) | (r[ins.rb] & MASK64))
        self.pc += 1

    def _op_xor(self, ins: Instr) -> None:
        r = self.iregs
        r[ins.rd] = _wrap64((r[ins.ra] & MASK64) ^ (r[ins.rb] & MASK64))
        self.pc += 1

    def _op_shl(self, ins: Instr) -> None:
        r = self.iregs
        r[ins.rd] = _wrap64(r[ins.ra] << (r[ins.rb] & 63))
        self.pc += 1

    def _op_shr(self, ins: Instr) -> None:
        r = self.iregs
        r[ins.rd] = r[ins.ra] >> (r[ins.rb] & 63)
        self.pc += 1

    def _op_neg(self, ins: Instr) -> None:
        self.iregs[ins.rd] = _wrap64(-self.iregs[ins.ra])
        self.pc += 1

    def _op_not(self, ins: Instr) -> None:
        self.iregs[ins.rd] = _wrap64(~self.iregs[ins.ra])
        self.pc += 1

    def _op_addi(self, ins: Instr) -> None:
        self.iregs[ins.rd] = _wrap64(self.iregs[ins.ra] + ins.imm)
        self.pc += 1

    def _op_subi(self, ins: Instr) -> None:
        self.iregs[ins.rd] = _wrap64(self.iregs[ins.ra] - ins.imm)
        self.pc += 1

    def _op_muli(self, ins: Instr) -> None:
        self.iregs[ins.rd] = _wrap64(self.iregs[ins.ra] * ins.imm)
        self.pc += 1

    def _op_andi(self, ins: Instr) -> None:
        self.iregs[ins.rd] = _wrap64((self.iregs[ins.ra] & MASK64) & (ins.imm & MASK64))
        self.pc += 1

    def _op_ori(self, ins: Instr) -> None:
        self.iregs[ins.rd] = _wrap64((self.iregs[ins.ra] & MASK64) | (ins.imm & MASK64))
        self.pc += 1

    def _op_xori(self, ins: Instr) -> None:
        self.iregs[ins.rd] = _wrap64((self.iregs[ins.ra] & MASK64) ^ (ins.imm & MASK64))
        self.pc += 1

    def _op_shli(self, ins: Instr) -> None:
        self.iregs[ins.rd] = _wrap64(self.iregs[ins.ra] << (ins.imm & 63))
        self.pc += 1

    def _op_shri(self, ins: Instr) -> None:
        self.iregs[ins.rd] = self.iregs[ins.ra] >> (ins.imm & 63)
        self.pc += 1

    # -- comparisons -----------------------------------------------------------

    def _op_seq(self, ins: Instr) -> None:
        r = self.iregs
        r[ins.rd] = 1 if r[ins.ra] == r[ins.rb] else 0
        self.pc += 1

    def _op_sne(self, ins: Instr) -> None:
        r = self.iregs
        r[ins.rd] = 1 if r[ins.ra] != r[ins.rb] else 0
        self.pc += 1

    def _op_slt(self, ins: Instr) -> None:
        r = self.iregs
        r[ins.rd] = 1 if r[ins.ra] < r[ins.rb] else 0
        self.pc += 1

    def _op_sle(self, ins: Instr) -> None:
        r = self.iregs
        r[ins.rd] = 1 if r[ins.ra] <= r[ins.rb] else 0
        self.pc += 1

    def _op_feq(self, ins: Instr) -> None:
        f = self.fregs
        self.iregs[ins.rd] = 1 if f[ins.ra] == f[ins.rb] else 0
        self.pc += 1

    def _op_fne(self, ins: Instr) -> None:
        f = self.fregs
        self.iregs[ins.rd] = 1 if f[ins.ra] != f[ins.rb] else 0
        self.pc += 1

    def _op_flt(self, ins: Instr) -> None:
        f = self.fregs
        self.iregs[ins.rd] = 1 if f[ins.ra] < f[ins.rb] else 0
        self.pc += 1

    def _op_fle(self, ins: Instr) -> None:
        f = self.fregs
        self.iregs[ins.rd] = 1 if f[ins.ra] <= f[ins.rb] else 0
        self.pc += 1

    # -- floating point --------------------------------------------------------

    def _op_fadd(self, ins: Instr) -> None:
        f = self.fregs
        f[ins.rd] = f[ins.ra] + f[ins.rb]
        self.pc += 1

    def _op_fsub(self, ins: Instr) -> None:
        f = self.fregs
        f[ins.rd] = f[ins.ra] - f[ins.rb]
        self.pc += 1

    def _op_fmul(self, ins: Instr) -> None:
        f = self.fregs
        f[ins.rd] = f[ins.ra] * f[ins.rb]
        self.pc += 1

    def _op_fdiv(self, ins: Instr) -> None:
        f = self.fregs
        a, b = f[ins.ra], f[ins.rb]
        if b == 0.0:
            # IEEE-754: x/0 -> signed inf; 0/0 and nan/0 -> nan.  No trap.
            if a == 0.0 or isnan(a):
                f[ins.rd] = nan
            else:
                f[ins.rd] = copysign(inf, a) * copysign(1.0, b)
        else:
            f[ins.rd] = a / b
        self.pc += 1

    def _op_fneg(self, ins: Instr) -> None:
        f = self.fregs
        f[ins.rd] = -f[ins.ra]
        self.pc += 1

    def _op_fsqrt(self, ins: Instr) -> None:
        f = self.fregs
        a = f[ins.ra]
        # IEEE: sqrt of a negative is NaN (quiet), not a trap.
        f[ins.rd] = nan if a < 0.0 else (a if isnan(a) else sqrt(a))
        self.pc += 1

    def _op_fabs(self, ins: Instr) -> None:
        f = self.fregs
        f[ins.rd] = abs(f[ins.ra])
        self.pc += 1

    def _op_fmin(self, ins: Instr) -> None:
        # IEEE-754 minNum: a quiet NaN loses to a number (see FAULT_MODEL.md).
        f = self.fregs
        a, b = f[ins.ra], f[ins.rb]
        if isnan(a):
            f[ins.rd] = b
        elif isnan(b):
            f[ins.rd] = a
        else:
            f[ins.rd] = a if a < b else b
        self.pc += 1

    def _op_fmax(self, ins: Instr) -> None:
        # IEEE-754 maxNum: a quiet NaN loses to a number (see FAULT_MODEL.md).
        f = self.fregs
        a, b = f[ins.ra], f[ins.rb]
        if isnan(a):
            f[ins.rd] = b
        elif isnan(b):
            f[ins.rd] = a
        else:
            f[ins.rd] = a if a > b else b
        self.pc += 1

    # -- conversions -----------------------------------------------------------

    def _op_itof(self, ins: Instr) -> None:
        self.fregs[ins.rd] = float(self.iregs[ins.ra])
        self.pc += 1

    def _op_ftoi(self, ins: Instr) -> None:
        a = self.fregs[ins.ra]
        if isnan(a) or isinf(a):
            value = INT64_MIN  # x86 cvttsd2si "integer indefinite"
        else:
            value = int(a)
            if value < INT64_MIN or value > INT64_MAX:
                value = INT64_MIN
        self.iregs[ins.rd] = value
        self.pc += 1

    # -- control flow ----------------------------------------------------------

    def _op_jmp(self, ins: Instr) -> None:
        self.pc = ins.imm

    def _op_beqz(self, ins: Instr) -> None:
        self.pc = ins.imm if self.iregs[ins.ra] == 0 else self.pc + 1

    def _op_bnez(self, ins: Instr) -> None:
        self.pc = ins.imm if self.iregs[ins.ra] != 0 else self.pc + 1

    def _op_call(self, ins: Instr) -> None:
        sp = self.iregs[SP] - 8
        try:
            self.memory.write_int(sp, self.pc + 1)
        except AccessError as exc:
            raise self._mem_trap(exc, ins) from None
        self.iregs[SP] = sp
        self.pc = ins.imm

    def _op_ret(self, ins: Instr) -> None:
        sp = self.iregs[SP]
        try:
            target = self.memory.read_int(sp)
        except AccessError as exc:
            raise self._mem_trap(exc, ins) from None
        self.iregs[SP] = sp + 8
        self.pc = target

    # -- system ------------------------------------------------------------

    def _op_halt(self, ins: Instr) -> None:
        # pc stays on the HALT site: state captured at (or resumed into)
        # the halt re-reports a clean halt instead of fetch-faulting past
        # the end of the image.
        self.halted = True
        self.exit_code = self.iregs[0]

    def _op_out(self, ins: Instr) -> None:
        self.output.append(("i", self.iregs[ins.ra]))
        self.pc += 1

    def _op_fout(self, ins: Instr) -> None:
        self.output.append(("f", self.fregs[ins.ra]))
        self.pc += 1

    def _op_abort(self, ins: Instr) -> None:
        raise Trap(
            Signal.SIGABRT,
            pc=self.pc,
            instr=ins,
            detail="application abort",
        )

    # -- inter-rank communication ------------------------------------------

    def _net_trap(self, ins: Instr, detail: str) -> Trap:
        # A bad rank behaves like a bad address: SIGBUS, elidable by LetGo.
        return Trap(Signal.SIGBUS, pc=self.pc, instr=ins, detail=detail)

    def _op_rank(self, ins: Instr) -> None:
        self.iregs[ins.rd] = self.rank
        self.pc += 1

    def _op_nranks(self, ins: Instr) -> None:
        self.iregs[ins.rd] = self.network.size if self.network is not None else 1
        self.pc += 1

    def _op_send(self, ins: Instr) -> None:
        if self.network is None:
            raise self._net_trap(ins, "send outside a cluster")
        dst = self.iregs[ins.ra]
        if not self.network.valid_rank(dst):
            raise self._net_trap(ins, f"send to invalid rank {dst}")
        self.network.send(self.rank, dst, int_to_pattern(self.iregs[ins.rb]))
        self.pc += 1

    def _op_fsend(self, ins: Instr) -> None:
        if self.network is None:
            raise self._net_trap(ins, "fsend outside a cluster")
        dst = self.iregs[ins.ra]
        if not self.network.valid_rank(dst):
            raise self._net_trap(ins, f"fsend to invalid rank {dst}")
        self.network.send(self.rank, dst, float_to_pattern(self.fregs[ins.rb]))
        self.pc += 1

    def _op_recv(self, ins: Instr) -> None:
        if self.network is None:
            raise self._net_trap(ins, "recv outside a cluster")
        src = self.iregs[ins.ra]
        if not self.network.valid_rank(src):
            raise self._net_trap(ins, f"recv from invalid rank {src}")
        pattern = self.network.recv(self.rank, src)
        if pattern is None:
            raise Blocked(pc=self.pc, rank=self.rank, src=src)
        self.iregs[ins.rd] = pattern_to_int(pattern)
        self.pc += 1

    def _op_frecv(self, ins: Instr) -> None:
        if self.network is None:
            raise self._net_trap(ins, "frecv outside a cluster")
        src = self.iregs[ins.ra]
        if not self.network.valid_rank(src):
            raise self._net_trap(ins, f"frecv from invalid rank {src}")
        pattern = self.network.recv(self.rank, src)
        if pattern is None:
            raise Blocked(pc=self.pc, rank=self.rank, src=src)
        self.fregs[ins.rd] = pattern_to_float(pattern)
        self.pc += 1


__all__ = ["CPU", "STOP_HALT", "STOP_STEPS"]
