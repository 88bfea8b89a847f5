"""The compiled backend must not keep halted runs or programs alive.

A halted run's CPU, memory and bound block functions must stay
collectable: nothing module-level may hold a reference to them (an
earlier backend unwound HALT with one shared exception instance whose
traceback pinned every halted run).  Compiled code lives on its
program, so a throwaway program (a fuzz case) takes it along when it dies.
"""

from __future__ import annotations

import gc
import weakref

from repro.isa import Instr, Op, Program
from repro.machine import Process


def test_halted_compiled_runs_are_collectable(pennant_app):
    refs = []
    for _ in range(4):
        process = pennant_app.load("compiled")
        assert process.run(pennant_app.max_steps).reason == "exited"
        refs.append(weakref.ref(process))
        del process
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_block_cache_dies_with_its_program():
    program = Program(
        instrs=[
            Instr(Op.ADDI, rd=1, ra=1, imm=1),
            Instr(Op.SLT, rd=2, ra=1, rb=3),
            Instr(Op.BNEZ, ra=2, imm=0),
            Instr(Op.HALT),
        ],
        functions={"main": 0},
    )
    process = Process.load(program, backend="compiled")
    process.cpu.iregs[3] = 50
    assert process.run(1000).reason == "exited"
    assert process.cpu._code[0] is not None  # the loop ran compiled
    ref = weakref.ref(program)
    del program, process
    gc.collect()
    assert ref() is None
