"""Shared fixtures: compiled demo programs and session-cached apps."""

from __future__ import annotations

import pytest

from repro.apps import make_app
from repro.apps.base import TRAP_FREE_MEMO
from repro.faultinject import shutdown_workers
from repro.isa import assemble
from repro.lang import compile_unit

#: A small hand-written assembly program exercising most opcodes.
DEMO_ASM = """
.data
arr: .space 8
cnt: .word 5
vals: .double 1.5, 2.5
.text
.entry _start
.func _start
_start:
    call main
    halt
.func main
main:
    push bp
    mov bp, sp
    subi sp, sp, #16
    movi r1, @cnt
    ld r2, [r1 + 0]
    movi r3, @arr
    movi r4, #0
loop:
    slt r5, r4, r2
    beqz r5, done
    itof f1, r4
    fmul f2, f1, f1
    fstx [r3 + r4*8 + 0], f2
    addi r4, r4, #1
    jmp loop
done:
    movi r4, #0
    fmovi f3, #0.0
sumloop:
    slt r5, r4, r2
    beqz r5, sdone
    fldx f4, [r3 + r4*8 + 0]
    fadd f3, f3, f4
    addi r4, r4, #1
    jmp sumloop
sdone:
    fout f3
    out r2
    movi r0, #0
    addi sp, sp, #16
    pop bp
    ret
"""

#: A MiniC program exercising the full language.
DEMO_MINIC = """
global int n = 10;
global float acc[16];

func square(float x) -> float {
    return x * x;
}

func fib(int k) -> int {
    if (k < 2) { return k; }
    return fib(k - 1) + fib(k - 2);
}

func main() -> int {
    var int i;
    var float total = 0.0;
    for (i = 0; i < n; i = i + 1) {
        acc[i] = square(float(i));
    }
    for (i = 0; i < n; i = i + 1) {
        total = total + acc[i];
    }
    out(total);
    out(fib(10));
    out(sqrt(16.0));
    assert(total > 0.0);
    return 0;
}
"""


@pytest.fixture(scope="session")
def demo_program():
    """Assembled demo program (sum of squares 0..4 = 30.0)."""
    return assemble(DEMO_ASM, "demo-asm")


@pytest.fixture(scope="session")
def demo_unit():
    """Compiled MiniC demo unit."""
    return compile_unit(DEMO_MINIC, "demo-minic")


@pytest.fixture(autouse=True)
def _cleared_trap_free_memo():
    """Each test starts with an empty process-wide trap-free memo, so test
    order cannot decide which runs are served from it."""
    TRAP_FREE_MEMO.clear()
    yield
    TRAP_FREE_MEMO.clear()


@pytest.fixture(autouse=True)
def _dropped_worker_pool():
    """Each test's first pooled campaign forks a fresh worker pool, so
    workers inherit what the test patched in the parent before it."""
    yield
    shutdown_workers()


def _cached_app(name):
    app = make_app(name)
    app.golden  # warm the profile/golden caches once per session
    return app


@pytest.fixture(scope="session")
def lulesh_app():
    return _cached_app("lulesh")


@pytest.fixture(scope="session")
def clamr_app():
    return _cached_app("clamr")


@pytest.fixture(scope="session")
def hpl_app():
    return _cached_app("hpl")


@pytest.fixture(scope="session")
def comd_app():
    return _cached_app("comd")


@pytest.fixture(scope="session")
def snap_app():
    return _cached_app("snap")


@pytest.fixture(scope="session")
def pennant_app():
    return _cached_app("pennant")


@pytest.fixture(scope="session")
def suite(lulesh_app, clamr_app, hpl_app, comd_app, snap_app, pennant_app):
    """All six cached apps, keyed by name."""
    return {
        app.name: app
        for app in (
            lulesh_app,
            clamr_app,
            hpl_app,
            comd_app,
            snap_app,
            pennant_app,
        )
    }
