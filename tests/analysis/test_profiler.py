"""Dynamic profiler: counts, totals, dynamic->static site mapping."""

import pytest

from repro.analysis import profile_program
from repro.errors import AnalysisError
from repro.isa import Instr, Op, Program


def test_demo_profile(demo_program):
    prof = profile_program(demo_program)
    assert prof.total == sum(prof.counts)
    assert prof.counts[0] == 1  # _start: call main
    assert prof.exit_code == 0
    assert prof.output == [("f", 30.0), ("i", 5)]


def test_coverage(demo_program):
    prof = profile_program(demo_program)
    assert 0.9 <= prof.coverage() <= 1.0
    executed = prof.executed_pcs()
    assert all(prof.counts[pc] > 0 for pc in executed)


def test_hottest_sorted(demo_program):
    prof = profile_program(demo_program)
    hottest = prof.hottest(5)
    counts = [c for _, c in hottest]
    assert counts == sorted(counts, reverse=True)
    assert len(hottest) == 5


def test_static_site_of(demo_program):
    prof = profile_program(demo_program)
    assert prof.static_site_of(1) == 0  # first instruction is the entry
    # the site of the last retired instruction is the HALT predecessor: RET
    last_pc = prof.static_site_of(prof.total)
    assert demo_program.instrs[last_pc].op in (Op.HALT, Op.RET)


def test_static_site_bounds(demo_program):
    prof = profile_program(demo_program)
    with pytest.raises(AnalysisError):
        prof.static_site_of(0)
    with pytest.raises(AnalysisError):
        prof.static_site_of(prof.total + 1)


def test_trapping_program_rejected():
    program = Program(
        instrs=[Instr(Op.ABORT)],
        functions={"main": 0},
    )
    with pytest.raises(AnalysisError):
        profile_program(program)


def test_nonhalting_program_rejected():
    program = Program(instrs=[Instr(Op.JMP, imm=0)], functions={"main": 0})
    with pytest.raises(AnalysisError):
        profile_program(program, max_steps=1000)


def test_app_profiles_consistent(suite):
    """The profiler is the independent reference for the golden facts
    the snapshot-ladder run supplies."""
    for app in suite.values():
        prof = profile_program(app.program)
        assert prof.total == app.golden.instret
        assert tuple(prof.output) == app.golden.output
        assert prof.exit_code == app.golden.exit_code
        assert prof.coverage() > 0.5, app.name
