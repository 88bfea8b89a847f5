"""Snapshot ladder: rung spacing, nearest-rung lookup, golden fidelity."""

import pytest

from repro.checkpoint import build_ladder, restore, restore_into, snapshot
from repro.checkpoint.snapshot import FIRST_INTERVAL, MAX_RUNGS
from repro.errors import SimulationError
from repro.isa import Instr, Op, Program
from repro.lang import compile_source
from repro.machine import Process


@pytest.fixture(scope="module")
def program():
    return compile_source(
        """
        global float data[8];
        func main() -> int {
            var int i;
            var float s = 0.0;
            for (i = 0; i < 200; i = i + 1) {
                data[i - (i / 8) * 8] = float(i);
                s = s + float(i);
            }
            out(s);
            return 0;
        }
        """,
        "ladder-test",
    )


@pytest.fixture(scope="module")
def reference(program):
    process = Process.load(program)
    process.run(10**6)
    return process


def test_rung_spacing(program, reference):
    ladder = build_ladder(program, interval=100)
    total = reference.cpu.instret
    assert ladder.total == total
    assert ladder.output == tuple(reference.output)
    assert ladder.exit_code == reference.cpu.exit_code == 0
    assert len(ladder) == (total - 1) // 100
    for i, rung in enumerate(ladder.rungs):
        assert rung.instret == (i + 1) * 100


def test_short_run_keeps_first_interval(program, reference):
    total = reference.cpu.instret
    assert total < MAX_RUNGS * FIRST_INTERVAL
    ladder = build_ladder(program)
    assert ladder.interval == FIRST_INTERVAL
    assert ladder.total == total
    assert len(ladder) == (total - 1) // FIRST_INTERVAL
    assert ladder.rungs == build_ladder(program, interval=FIRST_INTERVAL).rungs


def test_nearest(program):
    ladder = build_ladder(program, interval=100)
    assert ladder.nearest(0) is None
    assert ladder.nearest(99) is None
    assert ladder.nearest(100).instret == 100
    assert ladder.nearest(199).instret == 100
    assert ladder.nearest(200).instret == 200
    last = ladder.rungs[-1]
    assert ladder.nearest(10**9) is last


def test_every_rung_resumes_to_golden_end(program, reference):
    ladder = build_ladder(program, interval=150)
    for rung in ladder.rungs:
        resumed = restore(program, rung)
        result = resumed.run(10**6)
        assert result.reason == "exited"
        assert resumed.output == reference.output
        assert resumed.cpu.instret == reference.cpu.instret


def test_restore_into_reuses_finished_process(program, reference):
    donor = Process.load(program)
    donor.cpu.run(100)
    snap = snapshot(donor)
    # run a process to completion, then rewind it onto the snapshot
    process = Process.load(program)
    process.run(10**6)
    restore_into(process, snap)
    assert process.cpu.instret == 100
    result = process.run(10**6)
    assert result.reason == "exited"
    assert process.output == reference.output


def test_bad_interval_rejected(program):
    with pytest.raises(ValueError):
        build_ladder(program, interval=0)


def test_runaway_golden_run_rejected():
    looper = compile_source(
        "func main() -> int { while (1 == 1) { } return 0; }", "looper"
    )
    with pytest.raises(SimulationError):
        build_ladder(looper, interval=64, max_steps=1_000)


@pytest.mark.parametrize(
    "interval", [100, 10**6, None], ids=["grid", "one-chunk", "adaptive"]
)
def test_golden_run_past_the_budget_rejected(program, reference, interval):
    # The run halts inside the last chunk: only the budget can reject it.
    total = reference.cpu.instret
    with pytest.raises(SimulationError, match="exceeded"):
        build_ladder(program, interval=interval, max_steps=total - 1)
    ladder = build_ladder(program, interval=interval, max_steps=total)
    assert ladder.total == total
    assert ladder.rungs == build_ladder(program, interval=interval).rungs


def test_trapping_golden_run_rejected():
    program = Program(instrs=[Instr(Op.ABORT)], functions={"main": 0})
    with pytest.raises(SimulationError, match="^golden run trapped: "):
        build_ladder(program)


def test_restore_into_wrong_program_rejected(program):
    other = compile_source("func main() -> int { return 0; }", "other")
    donor = Process.load(program)
    donor.cpu.run(50)
    snap = snapshot(donor)
    with pytest.raises(SimulationError):
        restore_into(Process.load(other), snap)
