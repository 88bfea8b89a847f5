"""Seeded random program generators: raw ISA sequences and MiniC sources.

Two levels, mirroring the two front doors of the substrate:

* :func:`gen_isa_program` emits weighted random instruction sequences
  directly as a :class:`~repro.isa.program.Program`.  Programs are *not*
  guaranteed to terminate or stay inside mapped memory -- that is the
  point: the differential oracles run them under a fixed step budget
  (the budget harness), so hangs become budget-stops and wild accesses
  become traps, and every one of those outcomes must classify
  identically across backends.
* :func:`gen_lang_source` composes small MiniC programs from bounded
  templates (loops over globals, arithmetic reductions, recursion,
  conditionals).  These always terminate trap-free on the golden path,
  so they can be wrapped in a :class:`~repro.fuzz.app.LangApp` and fed
  through the *campaign* metamorphic oracles (ladder, injector,
  heuristics, journal).

Everything is driven by :class:`random.Random` seeded from strings, so a
fuzz campaign's program stream is bit-reproducible across runs, jobs
counts and platforms.
"""

from __future__ import annotations

import random

from repro.isa.instructions import Instr, Op
from repro.isa.layout import CELL, DATA_BASE, INT64_MAX, INT64_MIN, STACK_TOP
from repro.isa.program import DataSymbol, Program
from repro.isa.registers import BP, NUM_FP_REGS, SP
from repro.machine.memory import float_to_pattern

#: Default differential step budget (the budget harness): generated
#: programs run at most this many instructions per execution.
DEFAULT_BUDGET = 256

# -- operand material --------------------------------------------------------

_INT_IMMS = (
    0, 1, -1, 2, 3, 7, 8, 16, 63, 64, 255, -8, 4096,
    2**31, -(2**31), 2**62, INT64_MAX, INT64_MIN,
)

_FLOAT_IMMS = (
    0.0, -0.0, 1.0, -1.0, 0.5, 1.5, 2.0, 3.141592653589793,
    1e16, 1e308, 5e-324, float("inf"), float("-inf"), float("nan"),
)

#: Weighted opcode pool.  ALU-heavy like real code, with enough memory,
#: control-flow and system traffic to reach every trap class; comm opcodes
#: appear rarely (outside a cluster they raise deterministic SIGBUS traps).
_OP_WEIGHTS: tuple[tuple[Op, float], ...] = (
    (Op.NOP, 1), (Op.MOV, 3), (Op.MOVI, 6), (Op.FMOV, 2), (Op.FMOVI, 4),
    (Op.LD, 3), (Op.ST, 3), (Op.LDX, 2), (Op.STX, 2),
    (Op.FLD, 2), (Op.FST, 2), (Op.FLDX, 1), (Op.FSTX, 1),
    (Op.PUSH, 2), (Op.POP, 2), (Op.FPUSH, 1), (Op.FPOP, 1),
    (Op.ADD, 3), (Op.SUB, 2), (Op.MUL, 2), (Op.DIV, 1), (Op.MOD, 1),
    (Op.AND, 1), (Op.OR, 1), (Op.XOR, 1), (Op.SHL, 1), (Op.SHR, 1),
    (Op.NEG, 1), (Op.NOT, 1),
    (Op.ADDI, 3), (Op.SUBI, 1), (Op.MULI, 1), (Op.ANDI, 1), (Op.ORI, 1),
    (Op.XORI, 1), (Op.SHLI, 1), (Op.SHRI, 1),
    (Op.SEQ, 1), (Op.SNE, 1), (Op.SLT, 2), (Op.SLE, 1),
    (Op.FEQ, 1), (Op.FNE, 1), (Op.FLT, 1), (Op.FLE, 1),
    (Op.FADD, 2), (Op.FSUB, 1), (Op.FMUL, 2), (Op.FDIV, 2),
    (Op.FNEG, 1), (Op.FSQRT, 1), (Op.FABS, 1), (Op.FMIN, 2), (Op.FMAX, 2),
    (Op.ITOF, 1), (Op.FTOI, 1),
    (Op.JMP, 2), (Op.BEQZ, 2), (Op.BNEZ, 2), (Op.CALL, 1), (Op.RET, 1),
    (Op.HALT, 1), (Op.OUT, 2), (Op.FOUT, 2), (Op.ABORT, 0.5),
    (Op.RANK, 0.5), (Op.NRANKS, 0.5),
    (Op.SEND, 0.3), (Op.RECV, 0.3), (Op.FSEND, 0.2), (Op.FRECV, 0.2),
)

_OPS = tuple(op for op, _ in _OP_WEIGHTS)
_WEIGHTS = tuple(w for _, w in _OP_WEIGHTS)

#: Opcodes whose operand slots follow (rd, ra, rb) with both sources int.
_R_RAB = frozenset({
    Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR, Op.XOR,
    Op.SHL, Op.SHR, Op.SEQ, Op.SNE, Op.SLT, Op.SLE,
})
_R_RA_IMM = frozenset({
    Op.ADDI, Op.SUBI, Op.MULI, Op.ANDI, Op.ORI, Op.XORI, Op.SHLI, Op.SHRI,
})
_F_RAB = frozenset({Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FMIN, Op.FMAX})
_FCMP = frozenset({Op.FEQ, Op.FNE, Op.FLT, Op.FLE})
_F_UNARY = frozenset({Op.FNEG, Op.FSQRT, Op.FABS, Op.FMOV})


def _ireg(rng: random.Random) -> int:
    """An integer register index, biased toward a small working set."""
    roll = rng.random()
    if roll < 0.80:
        return rng.randrange(6)
    if roll < 0.95:
        return rng.randrange(6, 14)
    return rng.choice((SP, BP))


def _freg(rng: random.Random) -> int:
    return rng.randrange(6) if rng.random() < 0.85 else rng.randrange(NUM_FP_REGS)


def _int_imm(rng: random.Random) -> int:
    if rng.random() < 0.7:
        return rng.choice(_INT_IMMS)
    return rng.randint(-1024, 1024)


def _float_imm(rng: random.Random) -> float:
    if rng.random() < 0.7:
        return rng.choice(_FLOAT_IMMS)
    return rng.uniform(-1e6, 1e6)


def _mem_offset(rng: random.Random) -> int:
    """Mostly cell-aligned small offsets; occasionally misaligned or huge."""
    roll = rng.random()
    if roll < 0.80:
        return rng.randint(-8, 8) * CELL
    if roll < 0.90:
        return rng.randint(-65, 65)  # usually misaligned -> SIGBUS material
    return rng.choice((1 << 20, -(1 << 20), 1 << 40))


def _branch_target(rng: random.Random, n: int) -> int:
    """A branch/call target: usually in-image (``[0, n]``), sometimes wild."""
    if rng.random() < 0.9:
        return rng.randint(0, n)
    return rng.choice((-3, n + 17, 1 << 40, -(1 << 40)))


def gen_isa_program(rng: random.Random, *, max_len: int = 40) -> Program:
    """One weighted random ISA program (always ends in HALT).

    The program opens with a short prologue seeding a few registers with
    plausible addresses and float values so the body's memory traffic
    lands in mapped segments often enough to make progress, while leaving
    plenty of wild accesses to exercise every trap class.
    """
    data_cells = rng.randint(1, 8)
    n_body = rng.randint(4, max(6, max_len - 6))

    prologue: list[Instr] = [
        Instr(Op.MOVI, rd=1, imm=DATA_BASE + rng.randrange(data_cells) * CELL),
        Instr(Op.MOVI, rd=2, imm=rng.choice(
            (STACK_TOP - 8 * rng.randint(1, 16),
             DATA_BASE,
             rng.choice((0, 3, 1 << 33)))
        )),
        Instr(Op.MOVI, rd=3, imm=rng.randint(0, data_cells - 1)),
        Instr(Op.MOVI, rd=4, imm=rng.choice(
            (-1, -8, -(1 << 31), INT64_MIN, INT64_MAX)
        )),
        Instr(Op.FMOVI, rd=1, imm=_float_imm(rng)),
    ]
    n = len(prologue) + n_body + 1  # +1: the terminal HALT

    instrs = list(prologue)
    for _ in range(n_body):
        op = rng.choices(_OPS, weights=_WEIGHTS, k=1)[0]
        ins = _gen_instr(rng, op, n)
        instrs.append(ins)
    instrs.append(Instr(Op.HALT))

    data_init: dict[int, int] = {}
    for cell in range(data_cells):
        roll = rng.random()
        if roll < 0.4:
            continue  # cell starts zero
        addr = DATA_BASE + cell * CELL
        if roll < 0.7:
            data_init[addr] = rng.choice((1, 2, 7, 255, (1 << 64) - 1))
        else:
            data_init[addr] = float_to_pattern(_float_imm(rng))
    # Now and then the body opens with a stack walk in the data segment:
    # sp moved next to ``r1``'s global by an ADDI (a value the compiled
    # backend cannot know) -- a Heuristic II corruption -- and a run of
    # pushes that may leave the segment at its start.
    if rng.random() < 0.1:
        walk = [Instr(Op.ADDI, rd=SP, ra=1, imm=8 * rng.randint(0, 2))]
        for _ in range(rng.randint(2, 3)):
            if rng.random() < 0.7:
                walk.append(Instr(Op.PUSH, ra=_ireg(rng)))
            else:
                walk.append(Instr(Op.FPUSH, ra=_freg(rng)))
        instrs[len(prologue):len(prologue) + len(walk)] = walk
    return Program(
        instrs=instrs,
        functions={"main": 0},
        data_symbols={"g": DataSymbol("g", DATA_BASE, data_cells)},
        data_init=data_init,
        source_name="fuzz-isa",
    )


def _gen_instr(rng: random.Random, op: Op, n: int) -> Instr:
    """One random instruction of opcode *op* for an image of *n* slots."""
    if op in (Op.NOP, Op.RET, Op.HALT, Op.ABORT):
        return Instr(op)
    if op is Op.MOV:
        return Instr(op, rd=_ireg(rng), ra=_ireg(rng))
    if op is Op.MOVI:
        # Mostly data values; sometimes an address so loads/stores can hit.
        if rng.random() < 0.3:
            imm = DATA_BASE + rng.randint(-2, 10) * CELL
        else:
            imm = _int_imm(rng)
        return Instr(op, rd=_ireg(rng), imm=imm)
    if op is Op.FMOVI:
        return Instr(op, rd=_freg(rng), imm=_float_imm(rng))
    if op in _F_UNARY:
        return Instr(op, rd=_freg(rng), ra=_freg(rng))
    if op in (Op.LD, Op.FLD, Op.ST, Op.FST):
        bank = _freg if op in (Op.FLD, Op.FST) else _ireg
        return Instr(op, rd=bank(rng), ra=_ireg(rng), imm=_mem_offset(rng))
    if op in (Op.LDX, Op.FLDX, Op.STX, Op.FSTX):
        bank = _freg if op in (Op.FLDX, Op.FSTX) else _ireg
        return Instr(
            op, rd=bank(rng), ra=_ireg(rng), rb=_ireg(rng), imm=_mem_offset(rng)
        )
    if op in (Op.PUSH, Op.OUT):
        return Instr(op, ra=_ireg(rng))
    if op in (Op.FPUSH, Op.FOUT):
        return Instr(op, ra=_freg(rng))
    if op is Op.POP:
        return Instr(op, rd=_ireg(rng))
    if op is Op.FPOP:
        return Instr(op, rd=_freg(rng))
    if op in (Op.NEG, Op.NOT):
        return Instr(op, rd=_ireg(rng), ra=_ireg(rng))
    if op in _R_RAB:
        return Instr(op, rd=_ireg(rng), ra=_ireg(rng), rb=_ireg(rng))
    if op in _R_RA_IMM:
        return Instr(op, rd=_ireg(rng), ra=_ireg(rng), imm=_int_imm(rng))
    if op in _F_RAB:
        return Instr(op, rd=_freg(rng), ra=_freg(rng), rb=_freg(rng))
    if op in _FCMP:
        return Instr(op, rd=_ireg(rng), ra=_freg(rng), rb=_freg(rng))
    if op is Op.ITOF:
        return Instr(op, rd=_freg(rng), ra=_ireg(rng))
    if op is Op.FTOI:
        return Instr(op, rd=_ireg(rng), ra=_freg(rng))
    if op in (Op.JMP, Op.CALL):
        return Instr(op, imm=_branch_target(rng, n))
    if op in (Op.BEQZ, Op.BNEZ):
        return Instr(op, ra=_ireg(rng), imm=_branch_target(rng, n))
    if op in (Op.RANK, Op.NRANKS):
        return Instr(op, rd=_ireg(rng))
    if op in (Op.SEND, Op.RECV, Op.FSEND, Op.FRECV):
        return Instr(op, rd=_ireg(rng), ra=_ireg(rng), rb=_ireg(rng))
    raise AssertionError(f"generator missing template for {op!r}")


# -- pause schedules ---------------------------------------------------------


def gen_segments(rng: random.Random, budget: int) -> list[int]:
    """Random lockstep pause schedule summing exactly to *budget*.

    Small Fibonacci-ish steps with an occasional run-to-the-end tail, so
    pauses land inside compiled blocks, right after wild jumps, on HALT
    sites -- all the places exact-budget accounting can go wrong.
    """
    segments: list[int] = []
    total = 0
    while total < budget:
        if rng.random() < 0.15:
            seg = budget - total
        else:
            seg = rng.choice((1, 1, 2, 3, 5, 8, 13, 21, 34))
        seg = min(seg, budget - total)
        segments.append(seg)
        total += seg
    return segments


def gen_breakpoints(rng: random.Random, n_instrs: int) -> list[int]:
    """0-3 distinct breakpoint pcs for the debugger oracle."""
    count = rng.randint(0, 3)
    if count == 0 or n_instrs == 0:
        return []
    return sorted(rng.sample(range(n_instrs), min(count, n_instrs)))


# -- MiniC source generation --------------------------------------------------

_INT_BINOPS = ("+", "-", "*")
_FLOAT_BINOPS = ("+", "-", "*")


def _int_expr(rng: random.Random, names: tuple[str, ...], depth: int) -> str:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.6:
            return rng.choice(names)
        return str(rng.randint(-9, 9))
    a = _int_expr(rng, names, depth - 1)
    b = _int_expr(rng, names, depth - 1)
    op = rng.choice(_INT_BINOPS)
    return f"({a} {op} {b})"


def _float_expr(rng: random.Random, names: tuple[str, ...], depth: int) -> str:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.6:
            return rng.choice(names)
        return f"{rng.choice((0.5, 1.5, 2.0, 0.25, 3.0)):.2f}"
    a = _float_expr(rng, names, depth - 1)
    b = _float_expr(rng, names, depth - 1)
    if rng.random() < 0.2:
        # Division by a never-zero positive denominator keeps golden finite.
        return f"({a} / ({b} * {b} + 1.5))"
    return f"({a} {rng.choice(_FLOAT_BINOPS)} {b})"


def gen_lang_source(rng: random.Random) -> str:
    """One bounded, golden-trap-free MiniC program.

    Structure: globals (a scalar bound + a float array), an optional
    helper (pure function or bounded recursion), and a main that fills
    the array, reduces it, branches on the reduction and emits 2-4
    ``out`` values.  Loop bounds and recursion depths are small constants
    drawn from the rng, so every program halts in a few thousand dynamic
    instructions.
    """
    n = rng.randint(3, 9)
    cells = rng.randint(max(n, 4), 14)
    helper = rng.choice(("square", "poly", "fib", "none"))
    fill = _float_expr(rng, ("x", "float(i)"), rng.randint(1, 2))
    reduce_op = rng.choice(("sum", "max", "min"))
    rec_arg = rng.randint(5, 9)

    lines = [
        f"global int n = {n};",
        f"global float a[{cells}];",
        "",
    ]
    if helper == "square":
        lines += [
            "func helper(float x) -> float {",
            f"    return {_float_expr(rng, ('x',), 1)};",
            "}",
            "",
        ]
    elif helper == "poly":
        lines += [
            "func helper(float x) -> float {",
            "    var float y = x * x;",
            f"    return y + {_float_expr(rng, ('x', 'y'), 1)};",
            "}",
            "",
        ]
    elif helper == "fib":
        lines += [
            "func fib(int k) -> int {",
            "    if (k < 2) { return k; }",
            "    return fib(k - 1) + fib(k - 2);",
            "}",
            "",
        ]
    lines += [
        "func main() -> int {",
        "    var int i;",
        "    var float t = 0.0;",
        "    var float x;",
        "    for (i = 0; i < n; i = i + 1) {",
        "        x = float(i);",
    ]
    if helper in ("square", "poly"):
        lines.append(f"        a[i] = helper({fill});")
    else:
        lines.append(f"        a[i] = {fill};")
    lines.append("    }")
    if reduce_op == "sum":
        lines += [
            "    for (i = 0; i < n; i = i + 1) {",
            "        t = t + a[i];",
            "    }",
        ]
    else:
        cmp = "<" if reduce_op == "max" else ">"
        lines += [
            "    t = a[0];",
            "    for (i = 1; i < n; i = i + 1) {",
            f"        if (t {cmp} a[i]) {{ t = a[i]; }}",
            "    }",
        ]
    lines.append("    out(t);")
    if rng.random() < 0.5:
        lines.append("    out(sqrt(t * t));")
    if helper == "fib":
        lines.append(f"    out(fib({rec_arg}));")
    else:
        lines.append(f"    out(n * {rng.randint(2, 5)});")
    if rng.random() < 0.5:
        lines += [
            "    if (t < 0.0) { out(0 - 1); } else { out(1); }",
        ]
    lines += [
        "    assert(n > 0);",
        "    return 0;",
        "}",
    ]
    return "\n".join(lines) + "\n"


__all__ = [
    "DEFAULT_BUDGET",
    "gen_isa_program",
    "gen_lang_source",
    "gen_segments",
    "gen_breakpoints",
]
