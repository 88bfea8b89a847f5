"""Regression corpus replay: every checked-in case must pass all of its
recorded oracles, and the JSON schema must round-trip programs exactly."""

import math
import random
from pathlib import Path

import pytest

from repro.fuzz.corpus import (
    case_to_dict,
    check_case,
    iter_corpus,
    load_case,
    program_from_dict,
    program_to_dict,
    save_case,
)
from repro.fuzz.generator import gen_isa_program
from repro.isa.instructions import Instr, Op
from repro.isa.layout import DATA_BASE
from repro.isa.program import DataSymbol, Program

pytestmark = pytest.mark.fuzz

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
CASES = list(iter_corpus(CORPUS_DIR))


def test_corpus_is_not_empty():
    assert len(CASES) >= 5


@pytest.mark.parametrize(
    "name,case", CASES, ids=[name for name, _ in CASES]
)
def test_corpus_case_replays_clean(name, case):
    divergences = check_case(case)
    assert divergences == [], (
        f"regression corpus case {name!r} diverged: "
        + "; ".join(str(d) for d in divergences)
    )


def test_program_dict_roundtrip_generated():
    for i in range(10):
        program = gen_isa_program(random.Random(f"corpus-rt:{i}"))
        encoded = program_to_dict(program)
        restored = program_from_dict(encoded)
        # NaN immediates break Instr equality; the encoding (repr strings
        # for float imms) is exact, so a stable round trip shows up as a
        # fixpoint of the dict form.
        assert program_to_dict(restored) == encoded
        assert restored.data_init == program.data_init
        assert restored.checksum() == program.checksum()


def test_program_dict_roundtrip_special_floats():
    program = Program(
        instrs=[
            Instr(Op.FMOVI, rd=0, imm=float("nan")),
            Instr(Op.FMOVI, rd=1, imm=float("-inf")),
            Instr(Op.FMOVI, rd=2, imm=-0.0),
            Instr(Op.FMOVI, rd=3, imm=5e-324),
            Instr(Op.HALT),
        ],
        functions={"main": 0},
        data_symbols={"g": DataSymbol("g", DATA_BASE, 2)},
        data_init={DATA_BASE: float("inf"), DATA_BASE + 8: -7},
        source_name="special",
    )
    restored = program_from_dict(program_to_dict(program))
    assert math.isnan(restored.instrs[0].imm)
    assert restored.instrs[1].imm == float("-inf")
    assert math.copysign(1.0, restored.instrs[2].imm) == -1.0
    assert restored.instrs[3].imm == 5e-324
    assert restored.data_init[DATA_BASE] == float("inf")
    assert restored.data_init[DATA_BASE + 8] == -7


def test_case_file_roundtrip_nan_and_negative_imms(tmp_path):
    # A finding's reproducer is its corpus case: NaN and negative
    # immediates must survive the JSON file and the case must replay clean.
    program = Program(
        instrs=[
            Instr(Op.FMOVI, rd=1, imm=float("nan")),
            Instr(Op.MOVI, rd=2, imm=-7),
            Instr(Op.HALT),
        ],
        functions={"main": 0},
        source_name="imms",
    )
    case = case_to_dict(
        "imms", "nan and negative immediates", program,
        budget=8, oracles=("backend",),
    )
    loaded = load_case(save_case(tmp_path / "imms.json", case))
    restored = program_from_dict(loaded["program"])
    # NaN compares unequal through Instr equality; compare fields.
    assert [i.op for i in restored.instrs] == [i.op for i in program.instrs]
    assert math.isnan(restored.instrs[0].imm)
    assert restored.instrs[1] == Instr(Op.MOVI, rd=2, imm=-7)
    assert check_case(loaded) == []


def test_save_and_load_case(tmp_path):
    program = gen_isa_program(random.Random("corpus-save:0"))
    case = case_to_dict(
        "tmp-case", "round-trip check", program,
        budget=64, segments=[32, 32], cut=16, breakpoints=[1],
        oracles=("backend", "snapshot"),
    )
    path = save_case(tmp_path / "tmp-case.json", case)
    loaded = load_case(path)
    assert loaded == case
    names = [name for name, _ in iter_corpus(tmp_path)]
    assert names == ["tmp-case"]
