"""A gdb-flavoured command interpreter over :class:`DebugSession`.

The original LetGo is a gdb script; this module closes the loop by
offering the same command surface on the reproduction's machine, usable
interactively (``python -m repro.machine.repl <image>``) or
programmatically (feed command strings, read reply strings -- which is
how the tests drive it, and how pexpect drove gdb in the paper).

Supported commands::

    break PC | delete PC      breakpoints
    run N | continue N        execute (N = instruction budget)
    step [N]                  single-step
    print REG | print *ADDR   inspect a register / memory cell
    set REG VALUE             write a register (floats for f*, ints else)
    setmem ADDR PATTERN       write a memory cell
    info regs | info trap | info breakpoints
    handle letgo [B|E]        repair the pending trap LetGo-style, resume-ready
    disas [PC [N]]            disassemble around PC
    where                     current pc + containing function
    quit
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.functions import FunctionTable
from repro.core.config import LETGO_B, LETGO_E
from repro.core.session import LetGoSession
from repro.errors import AnalysisError, ReproError
from repro.isa.program import Program
from repro.isa.registers import FP_REG_NAMES, INT_REG_NAMES
from repro.machine.debugger import (
    STOP_BREAKPOINT,
    STOP_BUDGET,
    STOP_EXITED,
    STOP_TRAP,
    DebugSession,
    StopEvent,
)
from repro.machine.memory import AccessError
from repro.machine.process import Process


class ReplError(ReproError):
    """Bad command or argument."""


@dataclass
class _State:
    program: Program
    session: DebugSession
    pending_trap: StopEvent | None = None


class DebuggerRepl:
    """Stateful command interpreter; each ``execute`` returns the reply."""

    def __init__(self, program: Program):
        self._state = _State(
            program=program, session=DebugSession(Process.load(program))
        )
        self._functions = FunctionTable(program)
        self.done = False

    # -- public API --------------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command line; returns the textual reply."""
        parts = line.split()
        if not parts:
            return ""
        command, args = parts[0].lower(), parts[1:]
        handler = getattr(self, f"_cmd_{command}", None)
        if handler is None:
            return f"error: unknown command {command!r} (try 'help')"
        try:
            return handler(args)
        except ReplError as exc:
            return f"error: {exc}"
        except (AccessError, AnalysisError) as exc:
            return f"error: {exc}"

    # -- helpers ------------------------------------------------------------

    @property
    def session(self) -> DebugSession:
        return self._state.session

    def _int(self, text: str, what: str) -> int:
        try:
            return int(text, 0)
        except ValueError:
            raise ReplError(f"bad {what}: {text!r}") from None

    def _describe_stop(self, event: StopEvent) -> str:
        if event.kind == STOP_EXITED:
            code = self.session.process.exit_code
            return f"exited with code {code} after {event.steps} steps"
        if event.kind == STOP_TRAP:
            self._state.pending_trap = event
            return f"stopped: {event.trap} (use 'handle letgo' to repair)"
        if event.kind == STOP_BREAKPOINT:
            return f"breakpoint hit at pc={event.pc}"
        if event.kind == STOP_BUDGET:
            return f"budget exhausted at pc={event.pc}"
        return f"stopped after {event.steps} steps at pc={event.pc}"

    # -- commands -----------------------------------------------------------

    def _cmd_help(self, _args) -> str:
        return (
            "commands: break/delete PC, run N, continue N, step [N], "
            "print REG|*ADDR, set REG VALUE, setmem ADDR PATTERN, "
            "info regs|trap|breakpoints, handle letgo [B|E], "
            "disas [PC [N]], where, quit"
        )

    def _cmd_break(self, args) -> str:
        if len(args) != 1:
            raise ReplError("usage: break PC")
        pc = self._int(args[0], "pc")
        self.session.set_breakpoint(pc)
        return f"breakpoint set at pc={pc}"

    def _cmd_delete(self, args) -> str:
        if len(args) != 1:
            raise ReplError("usage: delete PC")
        self.session.clear_breakpoint(self._int(args[0], "pc"))
        return "breakpoint cleared"

    def _cmd_run(self, args) -> str:
        budget = self._int(args[0], "budget") if args else 10_000_000
        return self._describe_stop(self.session.cont(budget))

    _cmd_continue = _cmd_run
    _cmd_c = _cmd_run

    def _cmd_step(self, args) -> str:
        n = self._int(args[0], "count") if args else 1
        event = self.session.run_steps(n)
        reply = self._describe_stop(event)
        return f"{reply}\n{self._cmd_where([])}"

    def _cmd_print(self, args) -> str:
        if len(args) != 1:
            raise ReplError("usage: print REG or print *ADDR")
        token = args[0]
        if token.startswith("*"):
            address = self._int(token[1:], "address")
            pattern = self.session.read_mem(address)
            return f"mem[0x{address:x}] = 0x{pattern:016x}"
        try:
            value = self.session.read_reg(token)
        except KeyError:
            raise ReplError(f"unknown register {token!r}") from None
        return f"{token} = {value!r}"

    def _cmd_set(self, args) -> str:
        if len(args) != 2:
            raise ReplError("usage: set REG VALUE")
        name, literal = args
        try:
            value: int | float
            value = float(literal) if name.startswith("f") else int(literal, 0)
            self.session.write_reg(name, value)
        except KeyError:
            raise ReplError(f"unknown register {name!r}") from None
        except ValueError:
            raise ReplError(f"bad value {literal!r}") from None
        return f"{name} <- {value!r}"

    def _cmd_setmem(self, args) -> str:
        if len(args) != 2:
            raise ReplError("usage: setmem ADDR PATTERN")
        address = self._int(args[0], "address")
        pattern = self._int(args[1], "pattern")
        self.session.write_mem(address, pattern)
        return f"mem[0x{address:x}] <- 0x{pattern:016x}"

    def _cmd_info(self, args) -> str:
        topic = args[0] if args else "regs"
        if topic == "regs":
            cpu = self.session.process.cpu
            lines = [f"pc = {cpu.pc}"]
            for i, name in enumerate(INT_REG_NAMES):
                lines.append(f"{name:4s} = {cpu.iregs[i]}")
            for i, name in enumerate(FP_REG_NAMES):
                if cpu.fregs[i] != 0.0:
                    lines.append(f"{name:4s} = {cpu.fregs[i]!r}")
            return "\n".join(lines)
        if topic == "trap":
            pending = self._state.pending_trap
            return str(pending.trap) if pending else "no pending trap"
        if topic == "breakpoints":
            bps = sorted(self.session.breakpoints)
            return f"breakpoints: {bps}" if bps else "no breakpoints"
        raise ReplError(f"unknown info topic {topic!r}")

    def _cmd_handle(self, args) -> str:
        if not args or args[0] != "letgo":
            raise ReplError("usage: handle letgo [B|E]")
        pending = self._state.pending_trap
        if pending is None or pending.trap is None:
            raise ReplError("no pending trap to repair")
        config = LETGO_B if len(args) > 1 and args[1].upper() == "B" else LETGO_E
        record = LetGoSession(config, self._functions).intervene(
            self.session, pending.trap, 1
        )
        if record is None:
            raise ReplError(
                f"{config.name} does not intercept {pending.trap.signal.name}"
            )
        self._state.pending_trap = None
        actions = "; ".join(str(a) for a in record.actions) or "pc advance only"
        return f"repaired ({config.name}): {actions}"

    def _cmd_disas(self, args) -> str:
        cpu = self.session.process.cpu
        center = self._int(args[0], "pc") if args else cpu.pc
        count = self._int(args[1], "count") if len(args) > 1 else 8
        lines = []
        instrs = self._state.program.instrs
        lo = max(0, center - count // 2)
        for pc in range(lo, min(len(instrs), lo + count)):
            marker = "=>" if pc == cpu.pc else "  "
            lines.append(f"{marker} {pc:6d}: {instrs[pc].text()}")
        return "\n".join(lines) if lines else "pc outside the image"

    def _cmd_where(self, _args) -> str:
        pc = self.session.process.cpu.pc
        try:
            function = self._functions.function_at(pc).name
        except AnalysisError:
            function = "<outside image>"
        return f"pc={pc} in {function}"

    def _cmd_quit(self, _args) -> str:
        self.done = True
        return "bye"


def run_script(program: Program, commands: list[str]) -> list[str]:
    """Drive a REPL with a fixed command list (the pexpect pattern)."""
    repl = DebuggerRepl(program)
    replies = []
    for command in commands:
        replies.append(repl.execute(command))
        if repl.done:
            break
    return replies


def main() -> int:  # pragma: no cover - interactive convenience
    import sys

    from repro.isa.encoding import decode_program

    if len(sys.argv) != 2:
        print("usage: python -m repro.machine.repl <image-file>")
        return 2
    with open(sys.argv[1], "rb") as handle:
        program = decode_program(handle.read())
    repl = DebuggerRepl(program)
    print(f"loaded {program.source_name or sys.argv[1]}; 'help' for commands")
    while not repl.done:
        try:
            line = input("(repro-db) ")
        except EOFError:
            break
        reply = repl.execute(line)
        if reply:
            print(reply)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())


__all__ = ["DebuggerRepl", "run_script", "ReplError"]
