"""Code generation: typed MiniC AST -> repro ISA assembly.

Calling convention (cdecl-flavoured, chosen to exactly reproduce the x86
frame discipline LetGo's Heuristic II depends on):

* arguments are evaluated and pushed right-to-left (arg0 ends on top);
* ``call`` pushes the return address;
* every function opens with the Listing-1 prologue::

      push bp
      mov  bp, sp
      subi sp, sp, #FRAME

  so inside a function: ``[bp]`` = saved bp, ``[bp+8]`` = return address,
  ``[bp+16+8i]`` = i-th argument, ``[bp-8(j+1)]`` = j-th local;
* return values travel in ``r0`` (int) / ``f0`` (float);
* scratch registers ``r1..r9`` / ``f1..f9`` are caller-saved expression
  stacks; ``r10`` is the address temp, ``r12`` the zero-materialisation
  temp.

Expression evaluation is stack-style over the scratch pools: operand
results occupy consecutive scratch registers and operations fold the top
two.  Expressions deep enough to exhaust a pool are rejected at compile
time (7 int / 9 float live intermediates; the apps use at most ~5).

Register promotion: the hottest non-parameter locals of each function are
allocated to callee-saved registers (``r8``, ``r9``, ``r11``, ``r13`` for
ints; ``f10``..``f13`` for floats) instead of stack slots, weighted by
loop depth -- the equivalent of what ``-O3`` does to loop counters and
accumulators.  Besides speed, this matters for *fidelity of the fault
surface*: corruption of a promoted register persists across loop
iterations exactly like a corrupted x86 register, which is what produces
the paper's double-crash population.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import CompileError
from repro.lang.ast_nodes import (
    Abort,
    Assert,
    Assign,
    BinOp,
    Block,
    Break,
    Call,
    Continue,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    FuncDecl,
    If,
    Index,
    IntLit,
    Module,
    Name,
    Out,
    Return,
    Stmt,
    Type,
    UnOp,
    VarDecl,
    While,
)
from repro.lang.semantics import INTRINSICS, LocalInfo, ModuleInfo

#: Deepest simultaneously-live expression intermediates per bank.
INT_SCRATCH_DEPTH = 7
FLOAT_SCRATCH_DEPTH = 9
_ADDR_TEMP = "r10"
_ZERO_TEMP = "r12"
#: Callee-saved registers available for local-variable promotion.
INT_PROMOTE_REGS = ("r8", "r9", "r11", "r13")
FLOAT_PROMOTE_REGS = ("f10", "f11", "f12", "f13")

_INT_CMP = {"==": "seq", "!=": "sne", "<": "slt", "<=": "sle"}
_FLT_CMP = {"==": "feq", "!=": "fne", "<": "flt", "<=": "fle"}
_INT_ARITH = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod"}
_FLT_ARITH = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}


class CodeGenerator:
    """Generates one assembly module from a checked AST."""

    def __init__(self, module: Module, info: ModuleInfo):
        self.module = module
        self.info = info
        self.lines: list[str] = []
        self._label_n = 0

    # -- driver ------------------------------------------------------------

    def generate(self) -> str:
        """Emit the full assembly text (data + _start + all functions)."""
        self._emit_data()
        self.lines.append(".text")
        self.lines.append(".entry _start")
        self.lines.append(".func _start")
        self.lines.append("_start:")
        self.lines.append("    call main")
        self.lines.append("    halt")
        for func in self.module.funcs:
            _FuncEmitter(self, func).emit()
        return "\n".join(self.lines) + "\n"

    def _emit_data(self) -> None:
        if not self.module.globals:
            return
        self.lines.append(".data")
        for decl in self.module.globals:
            if decl.size is not None:
                self.lines.append(f"{decl.name}: .space {decl.size}")
            elif decl.declared is Type.FLOAT:
                value = float(decl.init) if decl.init is not None else 0.0
                self.lines.append(f"{decl.name}: .double {value!r}")
            else:
                value = int(decl.init) if decl.init is not None else 0
                self.lines.append(f"{decl.name}: .word {value}")

    def fresh_label(self, stem: str) -> str:
        self._label_n += 1
        return f".L{stem}{self._label_n}"


def _local_use_weights(func: FuncDecl) -> Counter:
    """Static use counts of each local/param name, weighted 8x per loop level.

    Drives promotion: loop counters and in-loop accumulators dominate.
    """
    weights: Counter = Counter()

    def expr(e: Expr | None, w: int) -> None:
        if e is None:
            return
        if isinstance(e, Name):
            weights[e.name] += w
        elif isinstance(e, Index):
            expr(e.index, w)
        elif isinstance(e, BinOp):
            expr(e.left, w)
            expr(e.right, w)
        elif isinstance(e, UnOp):
            expr(e.operand, w)
        elif isinstance(e, Call):
            for a in e.args:
                expr(a, w)

    def stmt(s: Stmt, w: int) -> None:
        if isinstance(s, Block):
            for child in s.stmts:
                stmt(child, w)
        elif isinstance(s, VarDecl):
            weights[s.name] += w
            expr(s.init, w)
        elif isinstance(s, Assign):
            expr(s.target, w)
            expr(s.value, w)
        elif isinstance(s, If):
            expr(s.cond, w)
            if s.then:
                stmt(s.then, w)
            if s.orelse:
                stmt(s.orelse, w)
        elif isinstance(s, While):
            expr(s.cond, w * 8)
            if s.body:
                stmt(s.body, w * 8)
        elif isinstance(s, For):
            if s.init:
                stmt(s.init, w)
            expr(s.cond, w * 8)
            if s.body:
                stmt(s.body, w * 8)
            if s.step:
                stmt(s.step, w * 8)
        elif isinstance(s, Return):
            expr(s.value, w)
        elif isinstance(s, (ExprStmt, Out)):
            expr(s.expr, w)
        elif isinstance(s, Assert):
            expr(s.cond, w)

    assert func.body is not None
    stmt(func.body, 1)
    return weights


class _FuncEmitter:
    """Per-function state: scratch pools, local offsets, promotion, labels."""

    def __init__(self, gen: CodeGenerator, func: FuncDecl):
        self.gen = gen
        self.func = func
        self.scope: dict[str, LocalInfo] = gen.info.locals_of(func.name)
        self._di = 0  # live int scratch registers
        self._df = 0  # live float scratch registers
        self._loops: list[tuple[str, str]] = []  # (continue_label, break_label)
        self._epilogue = f".Lepi_{func.name}"
        # -- register promotion of the hottest non-param locals -----------
        weights = _local_use_weights(func)
        by_heat = sorted(
            (info for info in self.scope.values() if not info.is_param),
            key=lambda info: -weights[info.name],
        )
        self.promoted: dict[str, str] = {}
        next_int = iter(INT_PROMOTE_REGS)
        next_float = iter(FLOAT_PROMOTE_REGS)
        for info in by_heat:
            pool = next_int if info.ty is Type.INT else next_float
            reg = next(pool, None)
            if reg is not None and weights[info.name] > 1:
                self.promoted[info.name] = reg
        # stack slots only for the locals that stayed in memory
        self._slot_of: dict[str, int] = {}
        for info in self.scope.values():
            if not info.is_param and info.name not in self.promoted:
                self._slot_of[info.name] = len(self._slot_of)
        self.frame = 8 * len(self._slot_of)

    # -- emission helpers ------------------------------------------------------

    def _emit(self, text: str) -> None:
        self.gen.lines.append(f"    {text}")

    def _label(self, name: str) -> None:
        self.gen.lines.append(f"{name}:")

    # -- scratch pools -----------------------------------------------------

    def _alloc_int(self, line: int) -> str:
        if self._di >= INT_SCRATCH_DEPTH:
            raise CompileError("integer expression too deep", line)
        self._di += 1
        return f"r{self._di}"

    def _free_int(self, reg: str) -> None:
        assert reg == f"r{self._di}", f"int pool misuse: freeing {reg} at depth {self._di}"
        self._di -= 1

    def _alloc_float(self, line: int) -> str:
        if self._df >= FLOAT_SCRATCH_DEPTH:
            raise CompileError("float expression too deep", line)
        self._df += 1
        return f"f{self._df}"

    def _free_float(self, reg: str) -> None:
        assert reg == f"f{self._df}", f"float pool misuse: freeing {reg} at depth {self._df}"
        self._df -= 1

    def _free(self, reg: str) -> None:
        (self._free_float if reg.startswith("f") else self._free_int)(reg)

    # -- variable addressing ---------------------------------------------------

    def _local_ref(self, local: LocalInfo) -> str:
        if local.is_param:
            return f"[bp + {16 + 8 * local.slot}]"
        return f"[bp - {8 * (self._slot_of[local.name] + 1)}]"

    # -- function body ---------------------------------------------------------

    def emit(self) -> None:
        self.gen.lines.append(f".func {self.func.name}")
        self._label(self.func.name)
        self._emit("push bp")
        self._emit("mov bp, sp")
        self._emit(f"subi sp, sp, #{self.frame}")
        saved = sorted(self.promoted.values())
        for reg in saved:  # callee-saved promotion registers
            self._emit(f"fpush {reg}" if reg.startswith("f") else f"push {reg}")
        assert self.func.body is not None
        self._block(self.func.body)
        self._label(self._epilogue)
        for reg in reversed(saved):
            self._emit(f"fpop {reg}" if reg.startswith("f") else f"pop {reg}")
        self._emit(f"addi sp, sp, #{self.frame}")
        self._emit("pop bp")
        self._emit("ret")

    def _block(self, block: Block) -> None:
        for stmt in block.stmts:
            self._stmt(stmt)
            assert self._di == 0 and self._df == 0, (
                f"scratch leak after line {stmt.line}: di={self._di} df={self._df}"
            )

    # -- statements ------------------------------------------------------------

    def _stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, VarDecl):
            # MiniC semantics: uninitialised locals are defined to be zero
            # (so promoted and stack-resident locals behave identically).
            home = self.promoted.get(stmt.name)
            if stmt.init is not None:
                reg = self._expr(stmt.init)
                if home is not None:
                    move = "fmov" if stmt.declared is Type.FLOAT else "mov"
                    self._emit(f"{move} {home}, {reg}")
                else:
                    mnemonic = "fst" if stmt.declared is Type.FLOAT else "st"
                    self._emit(
                        f"{mnemonic} {self._local_ref(self.scope[stmt.name])}, {reg}"
                    )
                self._free(reg)
            elif home is not None:
                if stmt.declared is Type.FLOAT:
                    self._emit(f"fmovi {home}, #0.0")
                else:
                    self._emit(f"movi {home}, #0")
            else:
                self._emit(f"movi {_ZERO_TEMP}, #0")
                self._emit(f"st {self._local_ref(self.scope[stmt.name])}, {_ZERO_TEMP}")
            return
        if isinstance(stmt, Assign):
            self._assign(stmt)
            return
        if isinstance(stmt, If):
            self._if(stmt)
            return
        if isinstance(stmt, While):
            self._while(stmt)
            return
        if isinstance(stmt, For):
            self._for(stmt)
            return
        if isinstance(stmt, Return):
            assert stmt.value is not None
            reg = self._expr(stmt.value)
            if stmt.value.ty is Type.FLOAT:
                self._emit(f"fmov f0, {reg}")
            else:
                self._emit(f"mov r0, {reg}")
            self._free(reg)
            self._emit(f"jmp {self._epilogue}")
            return
        if isinstance(stmt, ExprStmt):
            assert stmt.expr is not None
            reg = self._expr(stmt.expr)
            self._free(reg)
            return
        if isinstance(stmt, Out):
            assert stmt.expr is not None
            reg = self._expr(stmt.expr)
            self._emit(f"fout {reg}" if stmt.expr.ty is Type.FLOAT else f"out {reg}")
            self._free(reg)
            return
        if isinstance(stmt, Abort):
            self._emit("abort")
            return
        if isinstance(stmt, Assert):
            assert stmt.cond is not None
            ok = self.gen.fresh_label("ok")
            reg = self._expr(stmt.cond)
            self._emit(f"bnez {reg}, {ok}")
            self._free(reg)
            self._emit("abort")
            self._label(ok)
            return
        if isinstance(stmt, Break):
            self._emit(f"jmp {self._loops[-1][1]}")
            return
        if isinstance(stmt, Continue):
            self._emit(f"jmp {self._loops[-1][0]}")
            return
        raise AssertionError(f"unhandled statement {stmt!r}")

    def _assign(self, stmt: Assign) -> None:
        assert stmt.target is not None and stmt.value is not None
        value = self._expr(stmt.value)
        is_float = stmt.value.ty is Type.FLOAT
        if isinstance(stmt.target, Name):
            home = self.promoted.get(stmt.target.name)
            local = self.scope.get(stmt.target.name)
            if home is not None:
                self._emit(f"{'fmov' if is_float else 'mov'} {home}, {value}")
            elif local is not None:
                mnemonic = "fst" if is_float else "st"
                self._emit(f"{mnemonic} {self._local_ref(local)}, {value}")
            else:
                self._emit(f"movi {_ADDR_TEMP}, @{stmt.target.name}")
                mnemonic = "fst" if is_float else "st"
                self._emit(f"{mnemonic} [{_ADDR_TEMP} + 0], {value}")
            self._free(value)
            return
        assert isinstance(stmt.target, Index) and stmt.target.index is not None
        index = self._expr(stmt.target.index)
        self._emit(f"movi {_ADDR_TEMP}, @{stmt.target.name}")
        mnemonic = "fstx" if is_float else "stx"
        self._emit(f"{mnemonic} [{_ADDR_TEMP} + {index}*8 + 0], {value}")
        self._free(index)
        self._free(value)

    def _if(self, stmt: If) -> None:
        assert stmt.cond is not None and stmt.then is not None
        l_else = self.gen.fresh_label("else")
        l_end = self.gen.fresh_label("fi")
        cond = self._expr(stmt.cond)
        self._emit(f"beqz {cond}, {l_else}")
        self._free(cond)
        self._block(stmt.then)
        if stmt.orelse is not None:
            self._emit(f"jmp {l_end}")
            self._label(l_else)
            self._block(stmt.orelse)
            self._label(l_end)
        else:
            self._label(l_else)

    def _while(self, stmt: While) -> None:
        assert stmt.cond is not None and stmt.body is not None
        l_cond = self.gen.fresh_label("wc")
        l_end = self.gen.fresh_label("we")
        self._label(l_cond)
        cond = self._expr(stmt.cond)
        self._emit(f"beqz {cond}, {l_end}")
        self._free(cond)
        self._loops.append((l_cond, l_end))
        self._block(stmt.body)
        self._loops.pop()
        self._emit(f"jmp {l_cond}")
        self._label(l_end)

    def _for(self, stmt: For) -> None:
        assert stmt.cond is not None and stmt.body is not None
        l_cond = self.gen.fresh_label("fc")
        l_step = self.gen.fresh_label("fs")
        l_end = self.gen.fresh_label("fe")
        if stmt.init is not None:
            self._assign(stmt.init)
        self._label(l_cond)
        cond = self._expr(stmt.cond)
        self._emit(f"beqz {cond}, {l_end}")
        self._free(cond)
        self._loops.append((l_step, l_end))
        self._block(stmt.body)
        self._loops.pop()
        self._label(l_step)
        if stmt.step is not None:
            self._assign(stmt.step)
        self._emit(f"jmp {l_cond}")
        self._label(l_end)

    # -- expressions --------------------------------------------------------

    def _expr(self, expr: Expr) -> str:
        assert expr.ty is not None, f"untyped expression at line {expr.line}"
        if isinstance(expr, IntLit):
            reg = self._alloc_int(expr.line)
            self._emit(f"movi {reg}, #{expr.value}")
            return reg
        if isinstance(expr, FloatLit):
            reg = self._alloc_float(expr.line)
            self._emit(f"fmovi {reg}, #{expr.value!r}")
            return reg
        if isinstance(expr, Name):
            return self._load_name(expr)
        if isinstance(expr, Index):
            return self._load_index(expr)
        if isinstance(expr, UnOp):
            return self._unop(expr)
        if isinstance(expr, BinOp):
            return self._binop(expr)
        if isinstance(expr, Call):
            return self._call(expr)
        raise AssertionError(f"unhandled expression {expr!r}")

    def _load_name(self, expr: Name) -> str:
        home = self.promoted.get(expr.name)
        local = self.scope.get(expr.name)
        if expr.ty is Type.FLOAT:
            reg = self._alloc_float(expr.line)
            if home is not None:
                self._emit(f"fmov {reg}, {home}")
            elif local is not None:
                self._emit(f"fld {reg}, {self._local_ref(local)}")
            else:
                self._emit(f"movi {_ADDR_TEMP}, @{expr.name}")
                self._emit(f"fld {reg}, [{_ADDR_TEMP} + 0]")
            return reg
        reg = self._alloc_int(expr.line)
        if home is not None:
            self._emit(f"mov {reg}, {home}")
        elif local is not None:
            self._emit(f"ld {reg}, {self._local_ref(local)}")
        else:
            self._emit(f"movi {_ADDR_TEMP}, @{expr.name}")
            self._emit(f"ld {reg}, [{_ADDR_TEMP} + 0]")
        return reg

    def _load_index(self, expr: Index) -> str:
        assert expr.index is not None
        index = self._expr(expr.index)
        self._emit(f"movi {_ADDR_TEMP}, @{expr.name}")
        if expr.ty is Type.FLOAT:
            reg = self._alloc_float(expr.line)
            self._emit(f"fldx {reg}, [{_ADDR_TEMP} + {index}*8 + 0]")
            self._free_int(index)
            return reg
        # Integer element: reuse the index register as the destination.
        self._emit(f"ldx {index}, [{_ADDR_TEMP} + {index}*8 + 0]")
        return index

    def _unop(self, expr: UnOp) -> str:
        assert expr.operand is not None
        reg = self._expr(expr.operand)
        if expr.op == "-":
            self._emit(f"fneg {reg}, {reg}" if expr.ty is Type.FLOAT else f"neg {reg}, {reg}")
            return reg
        # logical not: reg = (reg == 0)
        self._emit(f"movi {_ZERO_TEMP}, #0")
        self._emit(f"seq {reg}, {reg}, {_ZERO_TEMP}")
        return reg

    def _binop(self, expr: BinOp) -> str:
        assert expr.left is not None and expr.right is not None
        op = expr.op
        if op in ("&&", "||"):
            return self._short_circuit(expr)
        operand_ty = expr.left.ty
        left = self._expr(expr.left)
        right = self._expr(expr.right)
        if op in ("<", "<=", ">", ">=", "==", "!="):
            return self._compare(expr, left, right, operand_ty)
        if operand_ty is Type.FLOAT:
            self._emit(f"{_FLT_ARITH[op]} {left}, {left}, {right}")
        else:
            self._emit(f"{_INT_ARITH[op]} {left}, {left}, {right}")
        self._free(right)
        return left

    def _compare(self, expr: BinOp, left: str, right: str, operand_ty: Type) -> str:
        op = expr.op
        # > and >= are < and <= with swapped operands.
        swapped = op in (">", ">=")
        base_op = {"<": "<", "<=": "<=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}[op]
        a, b = (right, left) if swapped else (left, right)
        if operand_ty is Type.FLOAT:
            result = self._alloc_int(expr.line)
            self._emit(f"{_FLT_CMP[base_op]} {result}, {a}, {b}")
            # result was allocated after both float operands; free floats
            # (stack order: right on top).
            self._free_float(right)
            self._free_float(left)
            # re-slot the int result: it is the only int alloc from this
            # subtree, already at the top of the int pool.
            return result
        self._emit(f"{_INT_CMP[base_op]} {left}, {a}, {b}")
        self._free_int(right)
        return left

    def _short_circuit(self, expr: BinOp) -> str:
        assert expr.left is not None and expr.right is not None
        l_shortcut = self.gen.fresh_label("sc")
        l_end = self.gen.fresh_label("se")
        branch = "beqz" if expr.op == "&&" else "bnez"
        left = self._expr(expr.left)
        self._emit(f"{branch} {left}, {l_shortcut}")
        self._free_int(left)
        right = self._expr(expr.right)
        self._emit(f"{branch} {right}, {l_shortcut}")
        self._free_int(right)
        result = self._alloc_int(expr.line)
        taken, shortcut = ("#1", "#0") if expr.op == "&&" else ("#0", "#1")
        self._emit(f"movi {result}, {taken}")
        self._emit(f"jmp {l_end}")
        self._label(l_shortcut)
        self._emit(f"movi {result}, {shortcut}")
        self._label(l_end)
        return result

    # -- calls ------------------------------------------------------------

    def _call(self, expr: Call) -> str:
        if expr.name in INTRINSICS:
            return self._intrinsic(expr)
        saved_i, saved_f = self._di, self._df
        for k in range(1, saved_i + 1):
            self._emit(f"push r{k}")
        for k in range(1, saved_f + 1):
            self._emit(f"fpush f{k}")
        self._di = self._df = 0
        for arg in reversed(expr.args):
            reg = self._expr(arg)
            self._emit(f"fpush {reg}" if arg.ty is Type.FLOAT else f"push {reg}")
            self._free(reg)
        self._emit(f"call {expr.name}")
        if expr.args:
            self._emit(f"addi sp, sp, #{8 * len(expr.args)}")
        for k in range(saved_f, 0, -1):
            self._emit(f"fpop f{k}")
        for k in range(saved_i, 0, -1):
            self._emit(f"pop r{k}")
        self._di, self._df = saved_i, saved_f
        if expr.ty is Type.FLOAT:
            reg = self._alloc_float(expr.line)
            self._emit(f"fmov {reg}, f0")
        else:
            reg = self._alloc_int(expr.line)
            self._emit(f"mov {reg}, r0")
        return reg

    def _intrinsic(self, expr: Call) -> str:
        name = expr.name
        if name in ("sqrt", "fabs"):
            reg = self._expr(expr.args[0])
            self._emit(f"{'fsqrt' if name == 'sqrt' else 'fabs'} {reg}, {reg}")
            return reg
        if name in ("fmin", "fmax"):
            left = self._expr(expr.args[0])
            right = self._expr(expr.args[1])
            self._emit(f"{name} {left}, {left}, {right}")
            self._free_float(right)
            return left
        if name == "float":
            operand = self._expr(expr.args[0])
            reg = self._alloc_float(expr.line)
            self._emit(f"itof {reg}, {operand}")
            self._free_int(operand)
            return reg
        if name == "int":
            operand = self._expr(expr.args[0])
            reg = self._alloc_int(expr.line)
            self._emit(f"ftoi {reg}, {operand}")
            self._free_float(operand)
            return reg
        if name in ("myrank", "nranks"):
            reg = self._alloc_int(expr.line)
            self._emit(f"{'rank' if name == 'myrank' else 'nranks'} {reg}")
            return reg
        if name == "sendi":
            rank = self._expr(expr.args[0])
            value = self._expr(expr.args[1])
            self._emit(f"send {rank}, {value}")
            self._free_int(value)
            # reuse the rank register as the dummy 0 result
            self._emit(f"movi {rank}, #0")
            return rank
        if name == "sendf":
            rank = self._expr(expr.args[0])
            value = self._expr(expr.args[1])
            self._emit(f"fsend {rank}, {value}")
            self._free_float(value)
            self._emit(f"movi {rank}, #0")
            return rank
        if name == "recvi":
            rank = self._expr(expr.args[0])
            self._emit(f"recv {rank}, {rank}")
            return rank
        if name == "recvf":
            rank = self._expr(expr.args[0])
            reg = self._alloc_float(expr.line)
            self._emit(f"frecv {reg}, {rank}")
            self._free_int(rank)
            return reg
        raise AssertionError(f"unknown intrinsic {name!r}")


def generate(module: Module, info: ModuleInfo) -> str:
    """Generate assembly text for a checked module."""
    return CodeGenerator(module, info).generate()


__all__ = [
    "CodeGenerator",
    "generate",
    "INT_SCRATCH_DEPTH",
    "FLOAT_SCRATCH_DEPTH",
    "INT_PROMOTE_REGS",
    "FLOAT_PROMOTE_REGS",
]
