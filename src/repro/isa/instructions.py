"""Instruction model for the repro ISA.

Design notes
------------
* Instructions are stored *decoded*: a program is a list of :class:`Instr`
  and the program counter indexes that list, so "advance the PC past the
  faulting instruction" (LetGo's core move) is ``pc + 1``.  A fixed-width
  binary encoding also exists (:mod:`repro.isa.encoding`) so that static
  analysis can work from an image alone, like PIN on a stripped binary.
* Every opcode declares which register it *writes* and which it *reads*.
  The fault injector flips a bit in the written register of the selected
  dynamic instruction (the paper's "destination register"); LetGo's
  Heuristic I needs to know whether the faulting instruction is a load or a
  store, and Heuristic II whether it touches ``sp``/``bp``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from repro.isa.layout import INT64_MAX, INT64_MIN, MASK64
from repro.isa.registers import (
    BP,
    SP,
    fp_reg_name,
    int_reg_name,
)


class Op(IntEnum):
    """Opcodes.  Grouped; the numeric values are stable (used in encoding)."""

    # data movement
    NOP = 0
    MOV = 1      # rd <- ra
    MOVI = 2     # rd <- imm (int); also used for addresses ("la")
    FMOV = 3     # fd <- fa
    FMOVI = 4    # fd <- imm (float)
    # memory (byte addressed, 8-byte cells, 8-aligned)
    LD = 10      # rd <- mem[ra + imm]
    ST = 11      # mem[ra + imm] <- rd (rd is the *source*)
    LDX = 12     # rd <- mem[ra + rb*8 + imm]
    STX = 13     # mem[ra + rb*8 + imm] <- rd (source)
    FLD = 14     # fd <- mem[ra + imm]
    FST = 15     # mem[ra + imm] <- fd (source)
    FLDX = 16    # fd <- mem[ra + rb*8 + imm]
    FSTX = 17    # mem[ra + rb*8 + imm] <- fd (source)
    PUSH = 18    # sp -= 8; mem[sp] <- ra
    POP = 19     # rd <- mem[sp]; sp += 8
    FPUSH = 20   # sp -= 8; mem[sp] <- fa
    FPOP = 21    # fd <- mem[sp]; sp += 8
    # integer ALU (64-bit two's complement, wraparound)
    ADD = 30
    SUB = 31
    MUL = 32
    DIV = 33     # signed, trunc toward zero; divisor 0 -> SIGFPE
    MOD = 34     # sign of dividend; divisor 0 -> SIGFPE
    AND = 35
    OR = 36
    XOR = 37
    SHL = 38     # shift count masked to 6 bits (x86 semantics)
    SHR = 39     # arithmetic right shift, count masked
    NEG = 40
    NOT = 41
    ADDI = 42    # rd <- ra + imm
    SUBI = 43
    MULI = 44
    ANDI = 45
    ORI = 46
    XORI = 47
    SHLI = 48
    SHRI = 49
    # comparisons producing 0/1 in an int register
    SEQ = 55
    SNE = 56
    SLT = 57
    SLE = 58
    FEQ = 60     # rd <- (fa == fb)
    FNE = 61
    FLT = 62
    FLE = 63
    # floating point ALU (IEEE-754 binary64)
    FADD = 70
    FSUB = 71
    FMUL = 72
    FDIV = 73    # /0 -> inf per IEEE, not a trap
    FNEG = 74
    FSQRT = 75   # sqrt of negative -> NaN
    FABS = 76
    FMIN = 77
    FMAX = 78
    # conversions
    ITOF = 80    # fd <- float(ra)
    FTOI = 81    # rd <- trunc(fa); NaN/inf/out-of-range -> INT64_MIN
    # control flow (targets are instruction indices, resolved from labels)
    JMP = 90     # pc <- imm
    BEQZ = 91    # if ra == 0: pc <- imm
    BNEZ = 92    # if ra != 0: pc <- imm
    CALL = 93    # push pc+1; pc <- imm
    RET = 94     # pop pc
    # system
    HALT = 100   # exit; code taken from r0
    OUT = 101    # append int in ra to the process output buffer
    FOUT = 102   # append float in fa to the process output buffer
    ABORT = 103  # raise SIGABRT (application-level assertion failure)
    # inter-rank communication (SPMD clusters; repro.machine.cluster)
    RANK = 110   # rd <- this process's rank (0 outside a cluster)
    NRANKS = 111 # rd <- cluster size (1 outside a cluster)
    SEND = 112   # send int in rb to rank in ra (async, unbounded queue)
    RECV = 113   # rd <- next int from rank in ra (blocks: see cluster)
    FSEND = 114  # send float in fb (register index in rb) to rank in ra
    FRECV = 115  # fd <- next float from rank in ra


#: Opcodes whose immediate is a float (everything else: signed 64-bit int).
FLOAT_IMM_OPS = frozenset({Op.FMOVI})

#: Loads: Heuristic I feeds the destination a fill value for these.
LOAD_OPS = frozenset({Op.LD, Op.LDX, Op.FLD, Op.FLDX, Op.POP, Op.FPOP})
#: Stores: Heuristic I leaves memory untouched for these.
STORE_OPS = frozenset({Op.ST, Op.STX, Op.FST, Op.FSTX, Op.PUSH, Op.FPUSH})
#: All opcodes that access data memory (can raise SIGSEGV / SIGBUS).
MEMORY_OPS = LOAD_OPS | STORE_OPS | frozenset({Op.CALL, Op.RET})

#: Control transfers (the assembler resolves their label immediates).
BRANCH_OPS = frozenset({Op.JMP, Op.BEQZ, Op.BNEZ, Op.CALL})
#: Conditional branches: a taken and a fallthrough successor.
COND_BRANCH_OPS = frozenset({Op.BEQZ, Op.BNEZ})
#: Basic-block terminators: the control transfers, plus the instructions
#: with no static successor.
BLOCK_END_OPS = BRANCH_OPS | frozenset({Op.RET, Op.HALT, Op.ABORT})
#: Inter-rank communication: a receive may block the rank.
NETWORK_OPS = frozenset({Op.SEND, Op.FSEND, Op.RECV, Op.FRECV})

_FP_OPS_WRITING_FD = frozenset(
    {
        Op.FMOV,
        Op.FMOVI,
        Op.FLD,
        Op.FLDX,
        Op.FPOP,
        Op.FADD,
        Op.FSUB,
        Op.FMUL,
        Op.FDIV,
        Op.FNEG,
        Op.FSQRT,
        Op.FABS,
        Op.FMIN,
        Op.FMAX,
        Op.ITOF,
        Op.FRECV,
    }
)

_INT_OPS_WRITING_RD = frozenset(
    {
        Op.MOV,
        Op.MOVI,
        Op.LD,
        Op.LDX,
        Op.POP,
        Op.ADD,
        Op.SUB,
        Op.MUL,
        Op.DIV,
        Op.MOD,
        Op.AND,
        Op.OR,
        Op.XOR,
        Op.SHL,
        Op.SHR,
        Op.NEG,
        Op.NOT,
        Op.ADDI,
        Op.SUBI,
        Op.MULI,
        Op.ANDI,
        Op.ORI,
        Op.XORI,
        Op.SHLI,
        Op.SHRI,
        Op.SEQ,
        Op.SNE,
        Op.SLT,
        Op.SLE,
        Op.FEQ,
        Op.FNE,
        Op.FLT,
        Op.FLE,
        Op.FTOI,
        Op.RANK,
        Op.NRANKS,
        Op.RECV,
    }
)

# Opcodes reading fa/fb slots as fp registers.
_FP_SRC_OPS = frozenset(
    {
        Op.FMOV,
        Op.FST,
        Op.FSTX,
        Op.FPUSH,
        Op.FADD,
        Op.FSUB,
        Op.FMUL,
        Op.FDIV,
        Op.FNEG,
        Op.FSQRT,
        Op.FABS,
        Op.FMIN,
        Op.FMAX,
        Op.FTOI,
        Op.FEQ,
        Op.FNE,
        Op.FLT,
        Op.FLE,
        Op.FOUT,
    }
)


@dataclass(frozen=True)
class Instr:
    """One decoded instruction.

    Field roles depend on the opcode (see :class:`Op` comments):

    ``rd``
        destination register index, or the *source* register for stores
        (this mirrors x86, where the same operand slot is written by loads
        and read by stores).
    ``ra``, ``rb``
        source register indices (base / index registers for memory ops).
    ``imm``
        immediate: int for most opcodes, float for :data:`FLOAT_IMM_OPS`,
        branch/call target instruction index for control flow, byte offset
        for memory ops.
    ``sym``
        optional symbol the immediate refers to (label or data name); purely
        informational, used by the disassembler.
    """

    op: Op
    rd: int = 0
    ra: int = 0
    rb: int = 0
    imm: int | float = 0
    sym: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # Float registers hold floats (a float store writes a float cell)
        # and int registers signed 64-bit ints (an int store writes its
        # register as is), so an int immediate is wrapped to that range.
        imm = self.imm
        if type(imm) is int:
            if self.op in FLOAT_IMM_OPS:
                object.__setattr__(self, "imm", float(imm))
            elif not INT64_MIN <= imm <= INT64_MAX:
                object.__setattr__(self, "imm", ((imm - INT64_MIN) & MASK64) + INT64_MIN)

    # -- classification helpers (used by LetGo and the injector) ----------

    def is_load(self) -> bool:
        """True for instructions that read data memory into a register."""
        return self.op in LOAD_OPS

    def is_store(self) -> bool:
        """True for instructions that write register data to memory."""
        return self.op in STORE_OPS

    def is_memory(self) -> bool:
        """True for any instruction that can fault on a data access."""
        return self.op in MEMORY_OPS

    def written_reg(self) -> tuple[str, int] | None:
        """The (bank, index) this instruction writes, or ``None``.

        The fault injector flips a bit here ("destination register").
        ``sp`` updates from push/pop/call/ret are architectural side
        effects, not destinations, and are excluded -- except POP/FPOP
        whose data destination is ``rd``.
        """
        op = self.op
        if op in _INT_OPS_WRITING_RD:
            return ("r", self.rd)
        if op in _FP_OPS_WRITING_FD:
            return ("f", self.rd)
        return None

    def read_regs(self) -> list[tuple[str, int]]:
        """Registers read by this instruction, in operand order.

        Implicit ``sp`` reads by push/pop/call/ret are included: faults in
        the stack pointer are a scenario the paper's Heuristic II targets.
        """
        op = self.op
        regs: list[tuple[str, int]] = []
        if op in (Op.MOV, Op.NEG, Op.NOT, Op.ITOF, Op.OUT):
            regs.append(("r", self.ra))
        elif op in (Op.FMOV, Op.FNEG, Op.FSQRT, Op.FABS, Op.FOUT):
            regs.append(("f", self.ra))
        elif op in (Op.LD, Op.FLD):
            regs.append(("r", self.ra))
        elif op in (Op.LDX, Op.FLDX):
            regs.extend((("r", self.ra), ("r", self.rb)))
        elif op is Op.ST:
            regs.extend((("r", self.ra), ("r", self.rd)))
        elif op is Op.STX:
            regs.extend((("r", self.ra), ("r", self.rb), ("r", self.rd)))
        elif op is Op.FST:
            regs.extend((("r", self.ra), ("f", self.rd)))
        elif op is Op.FSTX:
            regs.extend((("r", self.ra), ("r", self.rb), ("f", self.rd)))
        elif op is Op.PUSH:
            regs.extend((("r", self.ra), ("r", SP)))
        elif op is Op.FPUSH:
            regs.extend((("f", self.ra), ("r", SP)))
        elif op in (Op.POP, Op.FPOP, Op.RET):
            regs.append(("r", SP))
        elif op in (
            Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR, Op.XOR,
            Op.SHL, Op.SHR, Op.SEQ, Op.SNE, Op.SLT, Op.SLE,
        ):
            regs.extend((("r", self.ra), ("r", self.rb)))
        elif op in (
            Op.ADDI, Op.SUBI, Op.MULI, Op.ANDI, Op.ORI, Op.XORI,
            Op.SHLI, Op.SHRI,
        ):
            regs.append(("r", self.ra))
        elif op in (Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FMIN, Op.FMAX,
                    Op.FEQ, Op.FNE, Op.FLT, Op.FLE):
            regs.extend((("f", self.ra), ("f", self.rb)))
        elif op is Op.FTOI:
            regs.append(("f", self.ra))
        elif op in (Op.BEQZ, Op.BNEZ):
            regs.append(("r", self.ra))
        elif op is Op.CALL:
            regs.append(("r", SP))
        elif op is Op.HALT:
            regs.append(("r", 0))
        elif op is Op.SEND:
            regs.extend((("r", self.ra), ("r", self.rb)))
        elif op is Op.FSEND:
            regs.extend((("r", self.ra), ("f", self.rb)))
        elif op in (Op.RECV, Op.FRECV):
            regs.append(("r", self.ra))
        return regs

    def uses_frame_regs(self) -> bool:
        """True if the instruction reads ``sp`` or ``bp`` (Heuristic II scope)."""
        return any(bank == "r" and idx in (SP, BP) for bank, idx in self.read_regs())

    # -- formatting --------------------------------------------------------

    def text(self) -> str:
        """Assembly text for this instruction (parsable back)."""
        op = self.op
        n = op.name.lower()
        sym = f" <{self.sym}>" if self.sym else ""

        def off(imm) -> str:
            imm = int(imm)
            return f"- {-imm}" if imm < 0 else f"+ {imm}"
        if op is Op.NOP or op is Op.RET or op is Op.HALT or op is Op.ABORT:
            return n
        if op is Op.MOV:
            return f"mov {int_reg_name(self.rd)}, {int_reg_name(self.ra)}"
        if op is Op.MOVI:
            return f"movi {int_reg_name(self.rd)}, #{self.imm}{sym}"
        if op is Op.FMOV:
            return f"fmov {fp_reg_name(self.rd)}, {fp_reg_name(self.ra)}"
        if op is Op.FMOVI:
            return f"fmovi {fp_reg_name(self.rd)}, #{self.imm!r}"
        if op in (Op.LD, Op.FLD):
            d = int_reg_name(self.rd) if op is Op.LD else fp_reg_name(self.rd)
            return f"{n} {d}, [{int_reg_name(self.ra)} {off(self.imm)}]{sym}"
        if op in (Op.ST, Op.FST):
            s = int_reg_name(self.rd) if op is Op.ST else fp_reg_name(self.rd)
            return f"{n} [{int_reg_name(self.ra)} {off(self.imm)}], {s}{sym}"
        if op in (Op.LDX, Op.FLDX):
            d = int_reg_name(self.rd) if op is Op.LDX else fp_reg_name(self.rd)
            return (
                f"{n} {d}, [{int_reg_name(self.ra)} + "
                f"{int_reg_name(self.rb)}*8 {off(self.imm)}]{sym}"
            )
        if op in (Op.STX, Op.FSTX):
            s = int_reg_name(self.rd) if op is Op.STX else fp_reg_name(self.rd)
            return (
                f"{n} [{int_reg_name(self.ra)} + "
                f"{int_reg_name(self.rb)}*8 {off(self.imm)}], {s}{sym}"
            )
        if op in (Op.PUSH, Op.OUT):
            return f"{n} {int_reg_name(self.ra)}"
        if op in (Op.FPUSH, Op.FOUT):
            return f"{n} {fp_reg_name(self.ra)}"
        if op in (Op.POP,):
            return f"pop {int_reg_name(self.rd)}"
        if op in (Op.FPOP,):
            return f"fpop {fp_reg_name(self.rd)}"
        if op in (Op.NEG, Op.NOT):
            return f"{n} {int_reg_name(self.rd)}, {int_reg_name(self.ra)}"
        if op in (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR,
                  Op.XOR, Op.SHL, Op.SHR, Op.SEQ, Op.SNE, Op.SLT, Op.SLE):
            return (
                f"{n} {int_reg_name(self.rd)}, {int_reg_name(self.ra)}, "
                f"{int_reg_name(self.rb)}"
            )
        if op in (Op.ADDI, Op.SUBI, Op.MULI, Op.ANDI, Op.ORI, Op.XORI,
                  Op.SHLI, Op.SHRI):
            return f"{n} {int_reg_name(self.rd)}, {int_reg_name(self.ra)}, #{self.imm}"
        if op in (Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FMIN, Op.FMAX):
            return (
                f"{n} {fp_reg_name(self.rd)}, {fp_reg_name(self.ra)}, "
                f"{fp_reg_name(self.rb)}"
            )
        if op in (Op.FEQ, Op.FNE, Op.FLT, Op.FLE):
            return (
                f"{n} {int_reg_name(self.rd)}, {fp_reg_name(self.ra)}, "
                f"{fp_reg_name(self.rb)}"
            )
        if op in (Op.FNEG, Op.FSQRT, Op.FABS):
            return f"{n} {fp_reg_name(self.rd)}, {fp_reg_name(self.ra)}"
        if op is Op.ITOF:
            return f"itof {fp_reg_name(self.rd)}, {int_reg_name(self.ra)}"
        if op is Op.FTOI:
            return f"ftoi {int_reg_name(self.rd)}, {fp_reg_name(self.ra)}"
        if op is Op.JMP or op is Op.CALL:
            return f"{n} {self.sym or self.imm}"
        if op in (Op.BEQZ, Op.BNEZ):
            return f"{n} {int_reg_name(self.ra)}, {self.sym or self.imm}"
        if op in (Op.RANK, Op.NRANKS):
            return f"{n} {int_reg_name(self.rd)}"
        if op is Op.SEND:
            return f"send {int_reg_name(self.ra)}, {int_reg_name(self.rb)}"
        if op is Op.FSEND:
            return f"fsend {int_reg_name(self.ra)}, {fp_reg_name(self.rb)}"
        if op is Op.RECV:
            return f"recv {int_reg_name(self.rd)}, {int_reg_name(self.ra)}"
        if op is Op.FRECV:
            return f"frecv {fp_reg_name(self.rd)}, {int_reg_name(self.ra)}"
        raise AssertionError(f"unformattable opcode {op!r}")

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text()
