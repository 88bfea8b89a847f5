"""Shrinker contracts: minimality, branch remapping, replayable findings."""

import pytest

from repro.fuzz.corpus import check_case, program_from_dict
from repro.fuzz.mutations import MUTATIONS
from repro.fuzz.oracles import check_backends, check_program
from repro.fuzz.runner import mutation_selftest
from repro.fuzz.shrinker import shrink
from repro.isa.instructions import Instr, Op
from repro.isa.layout import DATA_BASE
from repro.isa.program import DataSymbol, Program

pytestmark = pytest.mark.fuzz

BACKEND_MUTANTS = sorted(n for n, m in MUTATIONS.items() if m.cpu)


def _program(instrs, cells=0, data_init=None):
    symbols = {"g": DataSymbol("g", DATA_BASE, cells)} if cells else {}
    return Program(
        instrs=instrs, functions={"main": 0}, data_symbols=symbols,
        data_init=data_init or {}, source_name="test",
    )


def test_shrink_preserves_predicate_and_reduces():
    # Plant the halt-pc mutant; divergence needs only the HALT.
    program = _program([
        Instr(Op.MOVI, rd=1, imm=5),
        Instr(Op.ADDI, rd=2, ra=1, imm=3),
        Instr(Op.NOP),
        Instr(Op.OUT, ra=2),
        Instr(Op.HALT),
    ])
    mutant = MUTATIONS["halt-pc"].cpu

    def diverges(p):
        return bool(check_backends(p, [8], a="interpreter", b=mutant))

    assert diverges(program)
    shrunk = shrink(program, diverges)
    assert diverges(shrunk)
    assert len(shrunk.instrs) == 1
    assert shrunk.instrs[0].op is Op.HALT


def test_shrink_remaps_branch_targets():
    # BNEZ jumps over dead instructions to the OUT; removing the dead
    # block must retarget the branch for the divergence to survive.
    program = _program([
        Instr(Op.MOVI, rd=1, imm=1),
        Instr(Op.BNEZ, ra=1, imm=5),
        Instr(Op.NOP),
        Instr(Op.NOP),
        Instr(Op.NOP),
        Instr(Op.MOVI, rd=2, imm=-16),
        Instr(Op.SHRI, rd=3, ra=2, imm=2),
        Instr(Op.HALT),
    ])
    mutant = MUTATIONS["shri-logical"].cpu

    def diverges(p):
        return bool(check_backends(p, [16], a="interpreter", b=mutant))

    assert diverges(program)
    shrunk = shrink(program, diverges)
    assert diverges(shrunk)
    assert len(shrunk.instrs) <= 3


@pytest.mark.parametrize("mutation", BACKEND_MUTANTS)
def test_selftest_shrinks_every_mutant_to_25_or_fewer(mutation):
    result = mutation_selftest(mutation)
    assert result.killed, f"{mutation} not killed"
    assert result.shrunk_len <= 25
    assert result.ok


def test_selftest_finding_case_replays_clean_and_diverges_on_the_mutant():
    case = mutation_selftest("halt-pc").finding.case
    # The corpus case passes on the fixed substrate...
    assert check_case(case) == []
    # ...and reproduces its divergence when replayed against the mutant.
    assert check_program(
        program_from_dict(case["program"]),
        budget=case["budget"],
        segments=case.get("segments"),
        cut=case.get("cut"),
        breakpoints=case.get("breakpoints"),
        oracles=tuple(case["oracles"]),
        a="interpreter",
        b=MUTATIONS["halt-pc"].cpu,
    )
