"""Basic-block compiled execution backend: the interpreter's fast twin.

:class:`CompiledCPU` runs hot straight-line code as generated Python.  A
*block* runs from its entry pc through the next control-flow instruction
(``JMP``/``BEQZ``/``BNEZ``/``CALL``/``RET``/``HALT``/``ABORT``).  Only
blocks entered at a *leader* (:func:`repro.isa.program.leaders`: the
image start, a function entry, a branch or call target, or the pc after
a terminator or a network op) are compiled.  On its
:attr:`CompiledCPU.HOT`-th entry such a block becomes one straight-line
function: register indices, immediates and the memory's segment ranges
are literals, loads and stores check the segment map inline and read or
write the memory's cell dict directly (a store puts the register's value
in the cell as it is), and the function returns the next pc.  The run
loop is ``pc = block()`` once per compiled function instead of one
dispatch per instruction.

A leader's function is a *chain* of blocks when its block ends in
``JMP`` or ``CALL``, whose successor is known when the code is
generated (:func:`chain_segments`).  The chain follows the static target's
block, and the block after that, while the target is in the image and is
not a network op, none of the target block's pcs is already in the chain,
and the chain stays within :data:`MAX_CHAIN` instructions.  Blocks
overlap (a leader can sit inside another leader's block, and both run to
the same terminator), so the overlap rule keeps each pc in one segment
at most: a self-``JMP``, a jump back into the chain and a target whose
block shares pcs with the chain all end it.  So do conditional branches,
``RET``, ``HALT``, ``ABORT`` and a block that falls through to a network
op.  The chain's source joins each segment's body as :func:`block_source`
generates it: a chained ``JMP`` emits nothing, a chained ``CALL`` its
checked push and no ``return``.

Checks, wraps and moves whose outcome is known when a chain is generated
are decided then.  One :class:`ChainValues` tracker runs across the whole
chain, from its entry through every segment.  It holds each integer
register as *symbol + offset*.  A symbol is a value fixed for the whole
chain: a register's value at the entry, or whatever an instruction the
tracker does not model wrote.  The symbol None is 0, so its offset is a
literal (``MOVI``).  ``MOV`` copies a register's pair; ``PUSH``/``POP``
and an unwrapped ``ADDI``/``SUBI`` move the offset.

* A ``LD``/``ST``/``FLD``/``FST`` through a literal base has a literal
  address: a mapped, aligned one is accessed with no check, any other one
  raises its trap unconditionally.  An indexed access through such a base
  has a known alignment, so only the segment compare remains, with the
  base's segment first.  Other indexed accesses keep the full check.
* Every other direct access and every stack op is at ``s + o`` for a
  symbol ``s``.  Once one such access passed its check, ``s + o`` is
  mapped and 8-aligned.  The tracker keeps a *window* ``[lo, hi]`` of
  the offsets checked so far, per symbol.  Any two mapped addresses at
  most the map's smallest hole apart lie in one mapped range, and so does
  every address between them.  A window never grows wider than that
  hole, which is computed once per segment map.  So a later access at
  ``s + o`` with ``o`` congruent to ``lo`` mod 8 needs no check inside
  the window.  Below it, it needs ``a < <topmost segment start> and not
  <in another segment>``: an address at or above that start lies below a
  mapped one, so in the topmost segment.  For a push on the stack that
  is a single comparison.  Above the window only the segment test
  remains.  An offset not congruent to ``lo`` is misaligned: the access
  raises its trap unconditionally.
* ``ADDI``/``SUBI`` on a register whose symbol has a window drop their
  64-bit wrap when the sum provably stays in range.  Otherwise the wrap
  stays and the destination becomes a new symbol.
* A ``MOV``/``MOVI`` whose destination already holds the value emits
  nothing (it still retires).

Nothing here assumes what a symbol's value is: the first access through
it is fully checked, and every later decision follows from accesses that
passed.  So the rule stays exact when a fault (the paper's Heuristic II
targets ``sp``/``bp``) sends ``sp`` into the data segment, below the
stack or off alignment.  Nothing outside a chain function changes
registers while it runs, and a chain runs only from its entry, so the
tracker's facts hold for the whole function.

Everything else runs on the inherited interpreter handlers, which are the
reference semantics: cold entries, entries no static code makes (a
restored mid-block state, the pc after a bit flip or a LetGo repair, a
wild jump, a run resumed mid-block), which run until their block ends,
a budget tail shorter than the chain (its first block runs on the
handlers), and the network ops (``SEND``/``FSEND``/``RECV``/``FRECV``),
which are always single-instruction entries.

The backend preserves the interpreter's contract exactly:

* **Precise exceptions.**  A trap inside a chain carries the pc of the
  faulter, retires the instructions before it *in chain order* (the
  whole segments before its own, then ``trap.pc - segment_start``) and
  leaves ``cpu.pc`` on the faulter.  The segment is looked up only when a
  trap is raised, so a chain's normal exit costs nothing extra.  Memory
  traps build the same :class:`~repro.machine.memory.AccessError` as
  :class:`~repro.machine.memory.Memory` (segment check first, then
  alignment), so signals and detail strings match byte for byte.
* **Exact ``instret`` accounting.**  A chain runs only when all of it
  fits the remaining step budget, so ``run(n)`` retires exactly what the
  interpreter would.  This keeps ``dyn_index``-addressed fault injection
  deterministic across backends.
* **Live state.**  Block functions bind the *identities* of the register
  files, the cell dict and the output stream, which
  :func:`~repro.checkpoint.snapshot.restore_into` and
  :meth:`~repro.machine.memory.Memory.load_cells` refill in place.  A
  cell holds the value its last store wrote (see
  :mod:`repro.machine.memory`), so a store is one dict assignment and a
  load one ``get`` and a type test; only a cross-type load converts the
  bits, and it stores the converted value back, as ``Memory`` does.
* **Out-of-image control flow.**  A block returns whatever target it
  computes; the loop's fetch check faults on the *next* fetch, exactly
  like the interpreter (a run whose budget expires right after a wild jump
  stops with the wild pc and no trap).

Code objects, chain lengths and per-entry heat counts belong to the
program image: they live on the :class:`~repro.isa.program.Program` (in
its ``__dict__``, like the cached checksum), keyed by CPU class and
segment ranges, so they die with the program.  Each process binds its own
state into the cached code when it first enters a block, which costs one
function object.  ``run_profiled`` is inherited from the interpreter.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import copysign, inf, isinf, isnan, nan, sqrt
from operator import index
from types import FunctionType

from repro.isa.instructions import BLOCK_END_OPS, LOAD_OPS, NETWORK_OPS, Instr, Op
from repro.isa.layout import INT64_MAX, INT64_MIN, MASK64
from repro.isa.program import leaders
from repro.isa.registers import NUM_INT_REGS, SP
from repro.machine.cpu import CPU, STOP_HALT, STOP_STEPS
from repro.machine.memory import AccessError, float_as_int, int_as_float
from repro.machine.signals import Blocked, Signal, Trap

#: Most instructions one chain of blocks may hold (its first block may
#: be longer, and then runs alone).
MAX_CHAIN = 64

#: What a compiled HALT returns: never a valid pc, so the loop's fetch
#: check stops there and finds ``halted`` set (``cpu.pc`` is on the HALT).
_HALTED = -1


def _trap(instrs, pc: int, signal: Signal, detail: str) -> Trap:
    return Trap(signal, pc=pc, instr=instrs[pc], detail=detail)


def _mem_trap(ranges, instrs, pc: int, address: int, mode: str) -> Trap:
    """The trap :class:`Memory` would raise for a failed inline check."""
    mapped = any(lo <= address < hi for lo, hi in ranges)
    exc = AccessError("bus" if mapped else "segv", address, mode)
    return Trap(
        Signal.SIGSEGV if exc.kind == "segv" else Signal.SIGBUS,
        pc=pc,
        instr=instrs[pc],
        detail=str(exc),
        address=exc.address,
    )


def _int_cell(cells, a: int, value: float) -> int:
    """An int load of float cell *a*: its bits as an int, stored back."""
    value = cells[a] = float_as_int(value)
    return value


def _float_cell(cells, a: int, value: int) -> float:
    """A float load of int cell *a*: its bits as a double, stored back."""
    value = cells[a] = int_as_float(value)
    return value


def _fetch_trap(pc: int) -> Trap:
    return Trap(
        Signal.SIGSEGV,
        pc=pc,
        instr=None,
        detail=f"instruction fetch out of image (pc={pc})",
    )


# -- code generation -----------------------------------------------------------

#: Names generated code reads from its globals (process-independent).
_GLOBALS = {
    "_trap": _trap,
    "_mem_trap": _mem_trap,
    "_int_cell": _int_cell,
    "_float_cell": _float_cell,
    "SIGFPE": Signal.SIGFPE,
    "SIGABRT": Signal.SIGABRT,
    "copysign": copysign,
    "inf": inf,
    "isinf": isinf,
    "isnan": isnan,
    "nan": nan,
    "sqrt": sqrt,
}

#: What every block function binds, in parameter order: the int and float
#: register files, the cell dict and its ``get``, the output stream's
#: ``append``, the CPU itself (HALT and the rank queries), and ``type``,
#: ``int`` and ``float`` as locals for the loads' type test.  Stores put
#: the register's value in the cell as it is.
_PARAMS = "R, F, C, G, O, cpu, TY, IN, FL"

_M, _S = MASK64, 1 << 63


def _wrap(expr: str) -> str:
    """Assign *expr* wrapped to a signed 64-bit value (the common case, a
    result already in range, costs two compares and no new int)."""
    return (
        f"v = {expr}\n"
        f"R[{{rd}}] = v if -{_S} <= v < {_S} else ((v + {_S}) & {_M}) - {_S}"
    )


#: The trap of a failed check of address ``a``, and the inline segment +
#: alignment check.
_RAISE = "raise _mem_trap(RANGES, I, {}, a, {!r})"
_CHECK = "if a & 7 or not ({}):\n    " + _RAISE
#: The value ``p`` of cell ``a`` as an int and as a float: as stored, or
#: (cross-type) its bits converted and stored back.  Int loads read a
#: missing cell as ``0`` and float loads as ``0.0``, inserting nothing.
_INT = "p if TY(p) is IN else _int_cell(C, a, p)"
_FLOAT = "p if TY(p) is FL else _float_cell(C, a, p)"
_LOAD = f"p = G(a, 0)\nR[{{rd}}] = {_INT}"
_LOADF = f"p = G(a, 0.0)\nF[{{rd}}] = {_FLOAT}"
_FMINMAX = (
    "a = F[{ra}]\nb = F[{rb}]\nif isnan(a):\n    F[{rd}] = b\n"
    "elif isnan(b):\n    F[{rd}] = a\nelse:\n    F[{rd}] = a if a %s b else b"
)

#: Op -> statement template.  ``{addr}`` expands to the statement that
#: computes address ``a`` of a ``LD``/``ST``-family access; ``{check}`` to
#: the check of ``a`` of any memory access (:func:`_access`, or the inline
#: segment + alignment check for the stack ops); every other field is a
#: literal of the instruction (``{imm}`` may be a bound name ``K<i>``).
_TEMPLATES: dict[Op, str] = {
    Op.NOP: "",
    Op.MOV: "R[{rd}] = R[{ra}]",
    Op.MOVI: "R[{rd}] = {imm}",
    Op.FMOV: "F[{rd}] = F[{ra}]",
    Op.FMOVI: "F[{rd}] = {imm}",
    Op.LD: f"{{addr}}\n{{check}}\n{_LOAD}",
    Op.ST: "{addr}\n{check}\nC[a] = R[{rd}]",
    Op.LDX: f"{{addr}}\n{{check}}\n{_LOAD}",
    Op.STX: "{addr}\n{check}\nC[a] = R[{rd}]",
    Op.FLD: f"{{addr}}\n{{check}}\n{_LOADF}",
    Op.FST: "{addr}\n{check}\nC[a] = F[{rd}]",
    Op.FLDX: f"{{addr}}\n{{check}}\n{_LOADF}",
    Op.FSTX: "{addr}\n{check}\nC[a] = F[{rd}]",
    Op.PUSH: f"a = R[{SP}] - 8\n{{check}}\nC[a] = R[{{ra}}]\nR[{SP}] = a",
    # sp first, value second: "pop sp" ends with the loaded value.
    Op.POP: (
        f"a = R[{SP}]\n{{check}}\np = G(a, 0)\nR[{SP}] = a + 8\nR[{{rd}}] = {_INT}"
    ),
    Op.FPUSH: f"a = R[{SP}] - 8\n{{check}}\nC[a] = F[{{ra}}]\nR[{SP}] = a",
    Op.FPOP: f"a = R[{SP}]\n{{check}}\n{_LOADF}\nR[{SP}] = a + 8",
    Op.ADD: _wrap("R[{ra}] + R[{rb}]"),
    Op.SUB: _wrap("R[{ra}] - R[{rb}]"),
    Op.MUL: _wrap("R[{ra}] * R[{rb}]"),
    Op.DIV: (
        "b = R[{rb}]\nif b == 0:\n"
        "    raise _trap(I, {pc}, SIGFPE, 'integer divide by zero')\n"
        "a = R[{ra}]\nq = abs(a) // abs(b)\n"
        + _wrap("-q if (a < 0) != (b < 0) else q")
    ),
    Op.MOD: (
        "b = R[{rb}]\nif b == 0:\n"
        "    raise _trap(I, {pc}, SIGFPE, 'integer remainder by zero')\n"
        "a = R[{ra}]\nq = abs(a) // abs(b)\nif (a < 0) != (b < 0):\n    q = -q\n"
        + _wrap("a - q * b")
    ),
    Op.AND: _wrap("R[{ra}] & R[{rb}]"),
    Op.OR: _wrap("R[{ra}] | R[{rb}]"),
    Op.XOR: _wrap("R[{ra}] ^ R[{rb}]"),
    Op.SHL: _wrap("R[{ra}] << (R[{rb}] & 63)"),
    Op.SHR: "R[{rd}] = R[{ra}] >> (R[{rb}] & 63)",
    Op.NEG: _wrap("-R[{ra}]"),
    Op.NOT: _wrap("~R[{ra}]"),
    Op.ADDI: _wrap("R[{ra}] + {imm}"),
    Op.SUBI: _wrap("R[{ra}] - {imm}"),
    Op.MULI: _wrap("R[{ra}] * {imm}"),
    Op.ANDI: _wrap("R[{ra}] & {imm}"),
    Op.ORI: _wrap("R[{ra}] | {imm}"),
    Op.XORI: _wrap("R[{ra}] ^ {imm}"),
    Op.SHLI: _wrap("R[{ra}] << ({imm} & 63)"),
    Op.SHRI: "R[{rd}] = R[{ra}] >> ({imm} & 63)",
    Op.SEQ: "R[{rd}] = 1 if R[{ra}] == R[{rb}] else 0",
    Op.SNE: "R[{rd}] = 1 if R[{ra}] != R[{rb}] else 0",
    Op.SLT: "R[{rd}] = 1 if R[{ra}] < R[{rb}] else 0",
    Op.SLE: "R[{rd}] = 1 if R[{ra}] <= R[{rb}] else 0",
    Op.FEQ: "R[{rd}] = 1 if F[{ra}] == F[{rb}] else 0",
    Op.FNE: "R[{rd}] = 1 if F[{ra}] != F[{rb}] else 0",
    Op.FLT: "R[{rd}] = 1 if F[{ra}] < F[{rb}] else 0",
    Op.FLE: "R[{rd}] = 1 if F[{ra}] <= F[{rb}] else 0",
    Op.FADD: "F[{rd}] = F[{ra}] + F[{rb}]",
    Op.FSUB: "F[{rd}] = F[{ra}] - F[{rb}]",
    Op.FMUL: "F[{rd}] = F[{ra}] * F[{rb}]",
    # IEEE-754: x/0 -> signed inf; 0/0 and nan/0 -> nan.
    Op.FDIV: (
        "a = F[{ra}]\nb = F[{rb}]\nif b == 0.0:\n"
        "    F[{rd}] = nan if a == 0.0 or isnan(a) "
        "else copysign(inf, a) * copysign(1.0, b)\n"
        "else:\n    F[{rd}] = a / b"
    ),
    Op.FNEG: "F[{rd}] = -F[{ra}]",
    Op.FSQRT: "a = F[{ra}]\nF[{rd}] = nan if a < 0.0 else (a if isnan(a) else sqrt(a))",
    Op.FABS: "F[{rd}] = abs(F[{ra}])",
    Op.FMIN: _FMINMAX % "<",
    Op.FMAX: _FMINMAX % ">",
    Op.ITOF: "F[{rd}] = float(R[{ra}])",
    # x86 cvttsd2si "integer indefinite" for NaN, inf and out-of-range.
    Op.FTOI: (
        f"a = F[{{ra}}]\nif isnan(a) or isinf(a):\n    v = {INT64_MIN}\n"
        f"else:\n    v = int(a)\n    if v < {INT64_MIN} or v > {INT64_MAX}:\n"
        f"        v = {INT64_MIN}\nR[{{rd}}] = v"
    ),
    Op.JMP: "return {imm}",
    Op.BEQZ: "return {imm} if R[{ra}] == 0 else {nxt}",
    Op.BNEZ: "return {imm} if R[{ra}] != 0 else {nxt}",
    Op.CALL: (
        f"a = R[{SP}] - 8\n{{check}}\nC[a] = {{nxt}}\nR[{SP}] = a\nreturn {{imm}}"
    ),
    Op.RET: f"a = R[{SP}]\n{{check}}\np = G(a, 0)\nR[{SP}] = a + 8\nreturn {_INT}",
    Op.HALT: (
        f"cpu.halted = True\ncpu.exit_code = R[0]\ncpu.pc = {{pc}}\n"
        f"return {_HALTED}"
    ),
    Op.OUT: "O(('i', R[{ra}]))",
    Op.FOUT: "O(('f', F[{ra}]))",
    Op.ABORT: "raise _trap(I, {pc}, SIGABRT, 'application abort')",
    Op.RANK: "R[{rd}] = cpu.rank",
    Op.NRANKS: "net = cpu.network\nR[{rd}] = net.size if net is not None else 1",
}


def block_spans(instrs: list[Instr]) -> list[int]:
    """Length of the block entered at each pc.

    A block ends at a :data:`BLOCK_END_OPS` instruction, at the end of the
    image, or just before a :data:`NETWORK_OPS` one (which is a block of
    its own).
    """
    n = len(instrs)
    spans = [1] * n
    for pc in range(n - 2, -1, -1):
        op = instrs[pc].op
        if op not in BLOCK_END_OPS and op not in NETWORK_OPS and (
            instrs[pc + 1].op not in NETWORK_OPS
        ):
            spans[pc] = spans[pc + 1] + 1
    return spans


#: Accesses at ``R[ra] + imm`` and at ``R[ra] + R[rb] * 8 + imm``.
_DIRECT = frozenset((Op.LD, Op.ST, Op.FLD, Op.FST))
_INDEXED = frozenset((Op.LDX, Op.STX, Op.FLDX, Op.FSTX))
#: Instructions that write ``sp`` besides any destination register.
_STACK_OPS = frozenset((Op.PUSH, Op.POP, Op.FPUSH, Op.FPOP, Op.CALL, Op.RET))


def _inside(ranges) -> str:
    """The test that address ``a`` lies in one of *ranges*, in order."""
    return " or ".join(
        f"{index(lo)} <= a < {index(hi)}" for lo, hi in ranges
    ) or "False"


def _mode(op: Op) -> str:
    """Whether a memory access of *op* reads or writes."""
    return "read" if op in LOAD_OPS or op is Op.RET else "write"


class _SegmentMap:
    """What the generator uses of one segment map."""

    __slots__ = ("ranges", "inside", "below", "above", "low", "high", "hole")

    def __init__(self, ranges: tuple):
        #: Largest segment (the stack) first: most accesses fall in it.
        self.ranges = sorted(ranges, key=lambda r: r[0] - r[1])
        self.inside = _inside(self.ranges)
        # An address below a mapped one and at or above the topmost
        # segment's start lies in that segment; below it, test the others.
        top = max((lo for lo, _ in ranges), default=0)
        others = [r for r in self.ranges if r[0] != top]
        self.below = f"if a < {index(top)}" + (
            f" and not ({_inside(others)}):" if others else ":"
        )
        self.above = f"if not ({self.inside}):"
        self.low = min((lo for lo, _ in ranges), default=0)
        self.high = max((hi for _, hi in ranges), default=0)
        #: The smallest gap between two neighbouring mapped ranges: two
        #: mapped addresses at most this far apart lie in one of them.
        spans = sorted(ranges)
        self.hole = min(
            (b - a for (_, a), (b, _) in zip(spans, spans[1:]) if b > a),
            default=inf,
        )


#: The :class:`_SegmentMap` of a tuple of ranges, computed once per map.
_segment_map = lru_cache(maxsize=16)(_SegmentMap)


class ChainValues:
    """The integer registers as the generator knows them, from a chain's
    entry up to the instruction it is generating.

    Each register holds ``(symbol, offset)``: a symbol stands for a value
    fixed for the whole chain (a register's value at entry, or what an
    instruction the tracker does not model wrote), and the symbol None for
    0, so its offset is a literal.  A symbol's *window* ``(lo, hi)`` spans
    the offsets at which an earlier access of the chain passed its check:
    ``symbol + lo`` and ``symbol + hi`` are mapped and 8-aligned, and
    ``hi - lo`` never exceeds the map's smallest hole.
    """

    __slots__ = ("map", "regs", "windows", "_symbols")

    def __init__(self, ranges: tuple):
        self.map = _segment_map(tuple(ranges))
        self.regs: list[tuple] = [(reg, 0) for reg in range(NUM_INT_REGS)]
        self.windows: dict[int, tuple[int, int]] = {}
        self._symbols = NUM_INT_REGS

    def forget(self, reg: int) -> None:
        """*reg* now holds a value the tracker does not model."""
        self.regs[reg] = (self._symbols, 0)
        self._symbols += 1

    def check(self, symbol: int, offset: int, pc: int, mode: str) -> str:
        """The check of the access at ``a`` = *symbol* + *offset*, which
        the code after it may take as passed."""
        m = self.map
        window = self.windows.get(symbol)
        if window is None:
            self.windows[symbol] = (offset, offset)
            return _CHECK.format(m.inside, pc, mode)
        lo, hi = window
        trap = _RAISE.format(pc, mode)
        if (offset - lo) & 7:
            return trap  # misaligned, mapped or not
        if lo <= offset <= hi:
            return ""  # between two mapped addresses of one range
        if offset < lo:
            if hi - offset <= m.hole:
                self.windows[symbol] = (offset, hi)
            return f"{m.below}\n    {trap}"
        if offset - lo <= m.hole:
            self.windows[symbol] = (lo, offset)
        return f"{m.above}\n    {trap}"

    def shifted(self, reg: int, delta: int) -> tuple | None:
        """``R[reg] + delta`` as ``(symbol, offset)`` if that sum provably
        stays a signed 64-bit value (its symbol has a window), else None."""
        symbol, offset = self.regs[reg]
        window = self.windows.get(symbol)
        if window is None:
            return None
        offset += delta
        # ``symbol + window[0]`` is mapped: in ``[low, high)``.
        shift = offset - window[0]
        m = self.map
        if INT64_MIN <= m.low + shift and m.high + shift <= INT64_MAX:
            return symbol, offset
        return None


def _access(
    ins: Instr, pc: int, imm_src: str, values: ChainValues
) -> tuple[str, str]:
    """``(address statement, check)`` of a :data:`_DIRECT` or
    :data:`_INDEXED` access.

    A literal base makes the address, or for an indexed access its
    alignment, known here: a check whose outcome is known is left out, or
    becomes the unconditional trap.  A direct access through any other
    base is checked against its symbol's window; an indexed one keeps the
    full check.  A zero offset adds no term.
    """
    mode = _mode(ins.op)
    m = values.map
    symbol, offset = values.regs[ins.ra]
    literal = symbol is None and type(ins.imm) is int
    if literal:
        offset += ins.imm
        terms, const = [], repr(offset)
    else:
        terms, const = [f"R[{index(ins.ra)}]"], imm_src
    if ins.op in _INDEXED:
        terms.append(f"R[{index(ins.rb)}] * 8")
    if const != "0" or not terms:
        terms.append(const)
    addr = "a = " + " + ".join(terms)
    if not literal:
        if ins.op in _DIRECT and type(ins.imm) is int:
            return addr, values.check(symbol, offset + ins.imm, pc, mode)
        return addr, _CHECK.format(m.inside, pc, mode)
    trap = _RAISE.format(pc, mode)
    if offset & 7:
        return addr, trap  # misaligned whatever the index
    if ins.op in _DIRECT:
        mapped = any(lo <= offset < hi for lo, hi in m.ranges)
        return addr, "" if mapped else trap
    # Aligned: only the segment compare, the base's segment first.
    ranges = sorted(m.ranges, key=lambda r: not r[0] <= offset < r[1])
    return addr, f"if not ({_inside(ranges)}):\n    {trap}"


#: The stack ops that move ``sp`` down before their access.
_PUSHES = frozenset((Op.PUSH, Op.FPUSH, Op.CALL))


def block_source(
    instrs: list[Instr], entry: int, length: int, ranges: tuple,
    values: ChainValues | None = None,
) -> tuple[str, tuple]:
    """Source of the block function for ``instrs[entry:entry + length]``.

    *values* is what the chain before this block left in the registers
    (a chain entry's by default); the block updates it.  Returns
    ``(source, consts)``: immediates that are not plain ints (float
    immediates, NaN, infinities, -0.0) are never written into the text;
    they become parameters ``K0, K1, ...`` bound to *consts*.
    """
    if values is None:
        values = ChainValues(ranges)
    regs = values.regs
    inside = values.map.inside
    consts: list = []
    body = []
    for pc in range(entry, entry + length):
        ins = instrs[pc]
        op = ins.op
        imm = ins.imm
        if type(imm) is int:
            imm_src = repr(imm)
        else:
            imm_src = f"K{len(consts)}"
            consts.append(imm)
        template = _TEMPLATES[op]
        addr = check = ""
        value = sp = None  # what rd and sp hold after, None: not modelled
        if op in _DIRECT or op in _INDEXED:
            addr, check = _access(ins, pc, imm_src, values)
        elif op in _STACK_OPS:
            symbol, offset = regs[SP]
            if op in _PUSHES:
                offset -= 8
            if symbol is None:
                check = _CHECK.format(inside, pc, _mode(op))
            else:
                check = values.check(symbol, offset, pc, _mode(op))
                sp = symbol, offset if op in _PUSHES else offset + 8
        elif op is Op.MOV or op is Op.MOVI and type(imm) is int:
            value = regs[ins.ra] if op is Op.MOV else (None, imm)
            if regs[ins.rd] == value:
                template = ""  # it holds that value already
        elif (op is Op.ADDI or op is Op.SUBI) and type(imm) is int:
            value = values.shifted(ins.ra, imm if op is Op.ADDI else -imm)
            if value is not None:
                template = "R[{rd}] = R[{ra}] %s {imm}" % (
                    "+" if op is Op.ADDI else "-"
                )
        # Only integers and names made here ever reach the source text.
        body.append(template.format(
            rd=index(ins.rd), ra=index(ins.ra), rb=index(ins.rb),
            imm=imm_src, pc=pc, nxt=pc + 1, addr=addr, check=check,
        ))
        if op in _STACK_OPS:
            if sp is None:
                values.forget(SP)
            else:
                regs[SP] = sp
        if (written := ins.written_reg()) and written[0] == "r":
            if value is None:
                values.forget(written[1])
            else:
                regs[written[1]] = value
    if instrs[entry + length - 1].op not in BLOCK_END_OPS:
        body.append(f"return {entry + length}")
    params = ", ".join([_PARAMS] + [f"K{i}" for i in range(len(consts))])
    lines = "\n".join(body).splitlines()
    source = f"def block({params}):\n" + "".join(
        f"    {ln}\n" for ln in lines if ln
    )
    return source, tuple(consts)


def chain_segments(
    instrs: list[Instr], spans: list[int], entry: int
) -> list[tuple[int, int]]:
    """``(start, length)`` of each block of the chain entered at *entry*.

    The chain follows the static target of a ``JMP`` or ``CALL`` that
    ends its last block while the target is an in-image pc that is not a
    network op, the target's block shares no pc with the chain, and the
    chain stays within :data:`MAX_CHAIN` instructions.
    """
    n = len(instrs)
    segments = [(entry, spans[entry])]
    total = spans[entry]
    while True:
        start, length = segments[-1]
        last = instrs[start + length - 1]
        if last.op is not Op.JMP and last.op is not Op.CALL:
            return segments
        target = last.imm
        if (
            type(target) is not int
            or not 0 <= target < n
            or instrs[target].op in NETWORK_OPS
        ):
            return segments
        length = spans[target]
        end = target + length
        if total + length > MAX_CHAIN or any(
            lo < end and target < lo + size for lo, size in segments
        ):
            return segments
        segments.append((target, length))
        total += length


_CONST = re.compile(r"\bK(\d+)\b")


def chain_source(
    block_source, instrs: list[Instr], segments, ranges: tuple
) -> tuple[str, tuple]:
    """Source of the function that runs the chain *segments*.

    Joins each segment's body from *block_source*, the per-segment
    generator, which carries one :class:`ChainValues` from each segment
    into the next: every segment but the last loses the ``return`` of its
    ``JMP`` or ``CALL``, so control falls into the next one, and each
    segment's bound constants are renumbered after the ones before it.
    """
    body: list[str] = []
    consts: list = []
    values = ChainValues(ranges)
    last = len(segments) - 1
    for i, (start, length) in enumerate(segments):
        source, seg_consts = block_source(
            instrs, start, length, ranges, values
        )
        lines = source.splitlines()[1:]  # drop the ``def`` line
        if i < last:
            jump = lines.pop()
            assert jump == f"    return {segments[i + 1][0]}", jump
        if consts and seg_consts:
            shift = len(consts)
            lines = [
                _CONST.sub(lambda m: f"K{int(m[1]) + shift}", ln)
                for ln in lines
            ]
        body += lines
        consts += seg_consts
    params = ", ".join([_PARAMS] + [f"K{i}" for i in range(len(consts))])
    source = f"def block({params}):\n" + "".join(f"{ln}\n" for ln in body)
    return source, tuple(consts)


class _BlockImage:
    """Compiled chains, their lengths and heat counts of one program image."""

    __slots__ = ("spans", "lengths", "chains", "heat", "codes", "globals")

    def __init__(self, program, ranges: tuple):
        instrs = program.instrs
        n = len(instrs)
        self.spans = block_spans(instrs)
        #: entry pc -> instructions its compiled function retires (its
        #: block's length until a chain is compiled there)
        self.lengths = list(self.spans)
        #: chain entry -> ``(start, end, before)`` of each segment, for
        #: chains of two blocks or more; *before* counts the instructions
        #: of the segments ahead of it
        self.chains: dict[int, tuple] = {}
        self.heat = [0] * n
        #: entry pc -> (code object, bound constants); None until compiled;
        #: False never (not a leader, or a network op)
        self.codes: list = [False] * n
        for pc in leaders(program):
            if instrs[pc].op not in NETWORK_OPS:
                self.codes[pc] = None
        self.globals = dict(_GLOBALS, I=instrs, RANGES=ranges)


def _block_image(program, cls: type, ranges: tuple) -> _BlockImage:
    """The program's block cache for *cls* under the segment map *ranges*."""
    images = program.__dict__.setdefault("_block_images", {})
    image = images.get((cls, ranges))
    if image is None:
        image = images[cls, ranges] = _BlockImage(program, ranges)
    return image


class CompiledCPU(CPU):
    """Drop-in :class:`CPU` that runs hot basic blocks as generated code."""

    #: Entries of a leader's block before it is compiled.  Compiling every
    #: leader on first entry would pay code generation for blocks that run
    #: once; other entries are never compiled.
    HOT = 8

    __slots__ = ("_program", "_image", "_code", "_ranges", "_state")

    def __init__(self, program, memory):
        super().__init__(program, memory)
        self._program = program
        self._image = None
        self._code = None     # entry pc -> this process's block function
        self._ranges = None   # the segment map the blocks were built for
        self._state = None

    def _bind_image(self) -> None:
        memory = self.memory
        self._ranges = memory._ranges
        self._image = _block_image(
            self._program, type(self), tuple(memory._ranges)
        )
        self._code = [None] * self._n_instrs
        cells = memory._cells
        self._state = (
            self.iregs, self.fregs, cells, cells.get, self.output.append, self,
            type, int, float,
        )

    #: The code generator; a class attribute so a test CPU can plant a
    #: fault in the generated code (see ``repro.fuzz.mutations``).
    block_source = staticmethod(block_source)

    def _compile(self, pc: int):
        """Compile the chain entered at leader *pc* into the image."""
        image = self._image
        segments = chain_segments(self.instrs, image.spans, pc)
        source, consts = chain_source(
            self.block_source, self.instrs, segments, image.globals["RANGES"]
        )
        namespace: dict = {}
        name = f"<block {self._program.source_name}:{pc}>"
        exec(compile(source, name, "exec"), image.globals, namespace)
        if len(segments) > 1:
            before = 0
            chain = []
            for start, length in segments:
                chain.append((start, start + length, before))
                before += length
            image.chains[pc] = tuple(chain)
            image.lengths[pc] = before
        entry = image.codes[pc] = (namespace["block"].__code__, consts)
        return entry

    def _retired_before(self, start: int, pc: int) -> int:
        """Instructions a function entered at *start* retired before the
        one at *pc* raised: those ahead of it in chain order."""
        for lo, hi, before in self._image.chains.get(start, ()):
            if lo <= pc < hi:
                return before + pc - lo
        return pc - start

    def run(self, max_steps: int) -> str:
        """Exactly :meth:`CPU.run`, at compiled speed."""
        if self.halted:
            return STOP_HALT
        if self._ranges is not self.memory._ranges:
            self._bind_image()  # first run, or the segment map changed
        image = self._image
        spans = image.spans
        lengths = image.lengths
        codes = image.codes
        heat = image.heat
        code = self._code
        instrs = self.instrs
        handlers = self._handlers
        n = self._n_instrs
        pc = self.pc
        left = max_steps
        try:
            while True:
                if 0 <= pc < n:
                    fn = code[pc]
                    if fn is not None:
                        length = lengths[pc]
                        if length <= left:
                            pc = fn()
                            left -= length
                            continue
                if left <= 0:
                    break
                if not 0 <= pc < n:
                    if self.halted:  # a compiled HALT returned _HALTED
                        break
                    raise _fetch_trap(pc)
                if fn is None:
                    # Cold entry: bind the image's block, or count a
                    # leader's heat.
                    entry = codes[pc]
                    if entry is None:
                        heat[pc] += 1
                        if heat[pc] >= self.HOT:
                            entry = self._compile(pc)
                    if entry:
                        code[pc] = FunctionType(
                            entry[0], image.globals, None,
                            self._state + entry[1],
                        )
                        continue
                # The reference interpreter runs the block (or the budget
                # tail, or the first block of a chain that does not fit);
                # each instruction is a block of one for trap accounting.
                for _ in range(min(spans[pc], left)):
                    self.pc = pc
                    ins = instrs[pc]
                    handlers[ins.op](ins)
                    left -= 1
                    if self.halted:
                        return STOP_HALT
                    pc = self.pc
            return STOP_HALT if self.halted else STOP_STEPS
        except (Trap, Blocked) as stop:
            # ``pc`` is still where the raising function or instruction
            # was entered: everything before the faulter, in chain
            # order, retired.
            left -= self._retired_before(pc, stop.pc)
            pc = stop.pc
            raise
        finally:
            self.instret += max_steps - left
            if not self.halted:
                self.pc = pc


# -- backend selection -------------------------------------------------------

#: Known execution backends, name -> CPU class.
BACKENDS: dict[str, type[CPU]] = {
    "interpreter": CPU,
    "compiled": CompiledCPU,
}

#: Package default; override per call with ``backend=``.
DEFAULT_BACKEND = "compiled"


def cpu_class(backend: "str | type[CPU] | None") -> type[CPU]:
    """Resolve a backend name (``None`` = :data:`DEFAULT_BACKEND`).

    A :class:`CPU` subclass passes through unchanged, so callers (the
    fuzz harness's eager and mutant CPUs, experiments) can plug a custom
    engine into ``Process.load`` without registering it in
    :data:`BACKENDS`.
    """
    if isinstance(backend, type) and issubclass(backend, CPU):
        return backend
    name = DEFAULT_BACKEND if backend is None else backend
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r} "
            f"(choose from {sorted(BACKENDS)})"
        ) from None


__all__ = [
    "ChainValues",
    "CompiledCPU",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "MAX_CHAIN",
    "block_source",
    "chain_segments",
    "chain_source",
    "cpu_class",
]
