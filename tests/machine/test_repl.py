"""The gdb-style REPL, driven as pexpect drove gdb."""

import pytest

from repro.isa import assemble
from repro.machine.repl import DebuggerRepl, run_script

CRASHY = """
.text
.entry main
.func main
main:
    push bp
    mov bp, sp
    subi sp, sp, #16
    movi r1, #7
    movi r2, #0
    ld r3, [r2 + 0]     ; null deref at pc 5
    movi r4, #42
    out r4
    movi r0, #0
    addi sp, sp, #16
    pop bp
    halt
"""


@pytest.fixture
def repl():
    return DebuggerRepl(assemble(CRASHY, "crashy"))


def test_help(repl):
    assert "break" in repl.execute("help")


def test_unknown_command(repl):
    assert "unknown command" in repl.execute("frobnicate")


def test_run_hits_trap(repl):
    reply = repl.execute("run")
    assert "SIGSEGV" in reply
    assert "handle letgo" in reply


def test_breakpoints(repl):
    assert "pc=3" in repl.execute("break 3")
    assert "breakpoint hit at pc=3" in repl.execute("run")
    assert "breakpoints: [3]" in repl.execute("info breakpoints")
    repl.execute("delete 3")
    assert "no breakpoints" in repl.execute("info breakpoints")


def test_step_and_where(repl):
    reply = repl.execute("step 4")
    assert "pc=4 in main" in reply


def test_print_and_set(repl):
    repl.execute("step 4")
    assert "r1 = 7" in repl.execute("print r1")
    repl.execute("set r1 99")
    assert "r1 = 99" in repl.execute("print r1")
    repl.execute("set f2 2.5")
    assert "f2 = 2.5" in repl.execute("print f2")
    assert "unknown register" in repl.execute("print zz")


def test_memory_access(repl):
    repl.execute("step 2")  # sp moved below STACK_TOP by the push
    sp = repl.session.read_reg("sp")
    assert "mem[" in repl.execute(f"print *{sp}")
    assert "<-" in repl.execute(f"setmem {sp} 0x1234")
    assert "1234" in repl.execute(f"print *{sp}")


def test_info_regs(repl):
    reply = repl.execute("info regs")
    assert "pc = 0" in reply and "sp" in reply


def test_disas_marks_pc(repl):
    reply = repl.execute("disas 0 4")
    assert "=>" in reply
    assert "push bp" in reply


def test_handle_letgo_repairs_and_continues(repl):
    repl.execute("run")
    reply = repl.execute("handle letgo")
    assert "repaired (LetGo-E)" in reply
    assert "fill-load" in reply
    reply = repl.execute("continue")
    assert "exited with code 0" in reply
    assert repl.session.process.output_values() == [42]


def test_handle_letgo_b(repl):
    repl.execute("run")
    reply = repl.execute("handle letgo B")
    assert "LetGo-B" in reply and "pc advance only" in reply


def test_handle_without_trap(repl):
    assert "no pending trap" in repl.execute("handle letgo")


def test_info_trap(repl):
    assert "no pending trap" in repl.execute("info trap")
    repl.execute("run")
    assert "SIGSEGV" in repl.execute("info trap")


def test_run_script_quits():
    replies = run_script(
        assemble(CRASHY), ["break 3", "quit", "print r1"]
    )
    assert replies[-1] == "bye"
    assert len(replies) == 2


def test_full_letgo_session_via_script():
    """The paper's whole flow, as a command script."""
    replies = run_script(
        assemble(CRASHY),
        ["run", "info trap", "handle letgo E", "continue", "quit"],
    )
    assert "SIGSEGV" in replies[0]
    assert "repaired" in replies[2]
    assert "exited" in replies[3]


def test_bad_arguments(repl):
    assert "error" in repl.execute("break")
    assert "error" in repl.execute("set r1")
    assert "error" in repl.execute("set r1 notanumber")
    assert "error" in repl.execute("print *zzz")
    assert "error" in repl.execute("info nonsense")
    assert "error" in repl.execute("handle gdb")


def test_handle_letgo_refuses_a_signal_letgo_does_not_intercept():
    """SIGFPE is not in LetGo's signal table: the default action stands."""
    repl = DebuggerRepl(assemble(
        ".text\n.entry main\n.func main\nmain:\n"
        "    movi r1, #7\n    movi r2, #0\n    div r3, r1, r2\n    halt\n"
    ))
    assert "SIGFPE" in repl.execute("run")
    assert "does not intercept SIGFPE" in repl.execute("handle letgo")
    assert "SIGFPE" in repl.execute("info trap")
