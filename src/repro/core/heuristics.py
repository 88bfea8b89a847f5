"""LetGo's two state-repair heuristics (paper section 4.2).

Heuristic I -- faulted memory operations:
    If the crash-causing instruction is a *load*, the destination register
    never received its value; feed it a fill value (0 by default, "because
    the memory often contains a lot of 0s as initialization data").  If it
    is a *store*, the memory cell simply keeps its old value; do nothing.

Heuristic II -- corrupted stack/base pointer:
    If a fault lands in ``sp`` or ``bp``, continuing execution tends to
    fault again and again because those registers are used by nearly every
    instruction in a frame.  Static analysis recovers the frame size ``N``
    from the function prologue, which bounds the legal relationship
    ``N <= bp - sp <= N + slack`` (the slack covers transient pushes); both
    registers must also point into the stack segment.  When the invariant
    is violated, the register *used by the faulting instruction* is assumed
    corrupt and recomputed from the other one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.functions import FunctionTable
from repro.errors import AnalysisError
from repro.isa.instructions import Instr, Op
from repro.isa.layout import STACK_LIMIT, STACK_TOP
from repro.isa.registers import BP, SP, fp_reg_name, int_reg_name
from repro.machine.memory import pattern_to_int
from repro.machine.process import Process
from repro.machine.signals import Trap


@dataclass
class RepairAction:
    """One concrete state edit made during repair."""

    kind: str        # 'fill-load' | 'skip-store' | 'fix-bp' | 'fix-sp' | ...
    description: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.description}"


@dataclass
class HeuristicReport:
    """What the heuristics did for one intervention."""

    h1_fired: bool = False
    h2_fired: bool = False
    actions: list[RepairAction] = field(default_factory=list)


def _in_stack(value: int) -> bool:
    # sp == STACK_TOP is legal (empty stack); anything else must be inside.
    return STACK_LIMIT <= value <= STACK_TOP


def _clamp_stack(value: int) -> int:
    """Nearest address inside the stack segment."""
    return min(STACK_TOP, max(STACK_LIMIT, value))


def _frame_base_reg(instr: Instr) -> int | None:
    """Which of sp/bp the faulting instruction addresses memory through."""
    if instr.op in (Op.PUSH, Op.FPUSH, Op.POP, Op.FPOP, Op.CALL, Op.RET):
        return SP
    if instr.op in (
        Op.LD, Op.ST, Op.LDX, Op.STX, Op.FLD, Op.FST, Op.FLDX, Op.FSTX
    ):
        if instr.ra in (SP, BP):
            return instr.ra
        # Indexed forms can also be corrupted through the index register,
        # but Heuristic II only reasons about frame registers.
        if instr.op in (Op.LDX, Op.STX, Op.FLDX, Op.FSTX) and instr.rb in (SP, BP):
            return instr.rb
    return None


def apply_heuristic2(
    process: Process,
    trap: Trap,
    functions: FunctionTable,
    frame_slack: int,
    report: HeuristicReport,
) -> None:
    """Detect and repair an implausible sp/bp pair (detection + correction)."""
    instr = trap.instr
    if instr is None:
        return
    used = _frame_base_reg(instr)
    if used is None:
        return
    try:
        frame = functions.frame_size_at(trap.pc)
    except AnalysisError:
        return
    regs = process.cpu.iregs
    sp, bp = regs[SP], regs[BP]
    delta = bp - sp
    relationship_ok = frame <= delta <= frame + frame_slack
    plausible = _in_stack(sp) and _in_stack(bp) and relationship_ok
    if plausible:
        return
    report.h2_fired = True
    sp_ok = _in_stack(sp)
    bp_ok = _in_stack(bp)
    if bp_ok and not sp_ok:
        corrupt = SP
    elif sp_ok and not bp_ok:
        corrupt = BP
    else:
        # Both in range but relationship broken (or both wild): blame the
        # register the faulting instruction used, per the paper.
        corrupt = used
    # The anchor register the blamed one is recomputed from may itself be
    # wild (both-wild case): clamp it into the stack first, otherwise the
    # "repair" reproduces the corruption and guarantees a give-up double
    # crash.  After clamping, frame arithmetic from an anchor at a segment
    # edge can step just outside it, so the recomputed value is clamped
    # too.  An in-stack anchor is trusted as-is (Heuristic II's original
    # behaviour for the single-corruption case).
    if corrupt == BP:
        if not _in_stack(sp):
            clamped = _clamp_stack(sp)
            report.actions.append(
                RepairAction(
                    kind="clamp-sp",
                    description=f"sp 0x{sp:x} -> 0x{clamped:x} (wild anchor clamped into stack)",
                )
            )
            regs[SP] = sp = clamped
            new_bp = _clamp_stack(sp + frame)
        else:
            new_bp = sp + frame
        report.actions.append(
            RepairAction(
                kind="fix-bp",
                description=f"bp 0x{bp:x} -> sp+frame = 0x{new_bp:x} (frame={frame})",
            )
        )
        regs[BP] = new_bp
    else:
        if not _in_stack(bp):
            clamped = _clamp_stack(bp)
            report.actions.append(
                RepairAction(
                    kind="clamp-bp",
                    description=f"bp 0x{bp:x} -> 0x{clamped:x} (wild anchor clamped into stack)",
                )
            )
            regs[BP] = bp = clamped
            new_sp = _clamp_stack(bp - frame)
        else:
            new_sp = bp - frame
        report.actions.append(
            RepairAction(
                kind="fix-sp",
                description=f"sp 0x{sp:x} -> bp-frame = 0x{new_sp:x} (frame={frame})",
            )
        )
        regs[SP] = new_sp


def apply_heuristic1(
    process: Process,
    trap: Trap,
    fill_int: int,
    fill_float: float,
    report: HeuristicReport,
) -> None:
    """Feed faulted loads a fill value; leave faulted stores alone."""
    instr = trap.instr
    if instr is None:
        return
    if instr.is_load():
        written = instr.written_reg()
        if written is None:  # pragma: no cover - loads always write
            return
        bank, index = written
        report.h1_fired = True
        if bank == "f":
            process.cpu.fregs[index] = float(fill_float)
            report.actions.append(
                RepairAction(
                    kind="fill-load",
                    description=f"{fp_reg_name(index)} <- {fill_float!r} (faulted load)",
                )
            )
        elif index in (SP, BP):
            # Never zero a frame register: that guarantees a second crash.
            # Heuristic II owns sp/bp repair; keep the old (plausible) value.
            report.actions.append(
                RepairAction(
                    kind="keep-frame-reg",
                    description=(
                        f"faulted load into {int_reg_name(index)} left unchanged "
                        "(frame registers are Heuristic II territory)"
                    ),
                )
            )
        else:
            fill = process.cpu.iregs[index] = pattern_to_int(int(fill_int))
            report.actions.append(
                RepairAction(
                    kind="fill-load",
                    description=f"{int_reg_name(index)} <- {fill} (faulted load)",
                )
            )
    elif instr.is_store():
        report.h1_fired = True
        report.actions.append(
            RepairAction(
                kind="skip-store",
                description="store skipped; memory keeps its previous value",
            )
        )


__all__ = [
    "RepairAction",
    "HeuristicReport",
    "apply_heuristic1",
    "apply_heuristic2",
]
