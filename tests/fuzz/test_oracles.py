"""Oracle behaviour: clean programs pass, every planted mutant is caught,
campaign metamorphic properties hold, and observations compare strictly."""

import random

import pytest

from repro.core.config import VARIANTS
from repro.fuzz.app import FuzzAppA, FuzzAppC, LangApp
from repro.fuzz.generator import gen_isa_program, gen_lang_source, gen_segments
from repro.faultinject import injector
from repro.faultinject.injector import _classify_finished
from repro.fuzz.mutations import MUTATIONS
from repro.fuzz.observe import observe
from repro.checkpoint.snapshot import Snapshot
from repro.fuzz.oracles import (
    check_backends,
    check_converge,
    check_jobs,
    check_merge,
    check_program,
    check_resume,
)
from repro.fuzz.runner import mutation_selftest
from repro.isa.instructions import Instr, Op
from repro.isa.layout import DATA_BASE, STACK_LIMIT
from repro.isa.program import DataSymbol, Program
from repro.isa.registers import SP
from repro.machine.process import Process

pytestmark = pytest.mark.fuzz


def _program(instrs, cells=0, data_init=None):
    symbols = {"g": DataSymbol("g", DATA_BASE, cells)} if cells else {}
    return Program(
        instrs=instrs, functions={"main": 0}, data_symbols=symbols,
        data_init=data_init or {}, source_name="test",
    )


# -- differential oracles on clean programs ----------------------------------


def test_clean_programs_have_no_divergence():
    for i in range(30):
        rng = random.Random(f"oracle-clean:{i}")
        program = gen_isa_program(rng)
        assert check_program(
            program, budget=128, segments=gen_segments(rng, 128),
            cut=rng.randint(1, 127), breakpoints=[2, 5],
        ) == []


def test_lang_program_passes_all_oracles():
    source = gen_lang_source(random.Random("oracle-lang:1"))
    app = LangApp(source)
    budget = app.golden.instret + 16
    assert check_program(app.program, budget=budget, cut=budget // 3) == []


# -- every mutant must be caught by a targeted trigger ------------------------

#: mutation name -> a minimal program exercising exactly its fault.
_TRIGGERS = {
    "fmin-nan": _program([
        Instr(Op.FMOVI, rd=0, imm=float("nan")),
        Instr(Op.FMOVI, rd=1, imm=1.5),
        Instr(Op.FMIN, rd=2, ra=0, rb=1),
        Instr(Op.HALT),
    ]),
    "halt-pc": _program([Instr(Op.HALT)]),
    "shri-logical": _program([
        Instr(Op.MOVI, rd=1, imm=-8),
        Instr(Op.SHRI, rd=2, ra=1, imm=1),
        Instr(Op.HALT),
    ]),
    "segv-order": _program([
        Instr(Op.MOVI, rd=1, imm=3),
        Instr(Op.LD, rd=2, ra=1),
        Instr(Op.HALT),
    ]),
    "block-trap-pc": _program([
        Instr(Op.MOVI, rd=1, imm=8),
        Instr(Op.LD, rd=2, ra=1),
        Instr(Op.NOP),
        Instr(Op.HALT),
    ]),
    "fold-unchecked": _program([
        Instr(Op.MOVI, rd=1, imm=8),
        Instr(Op.ST, rd=1, ra=1),
        Instr(Op.HALT),
    ]),
    # A float constant of the data segment starts as an int cell.
    "typed-load": _program(
        [
            Instr(Op.MOVI, rd=1, imm=DATA_BASE),
            Instr(Op.FLD, rd=2, ra=1),
            Instr(Op.HALT),
        ],
        cells=1, data_init={DATA_BASE: 0x3FF8000000000000},  # 1.5
    ),
    # sp one cell above the stack's start: the second push, below the
    # first one's checked address, leaves the segment.
    "window-unchecked": _program([
        Instr(Op.MOVI, rd=1, imm=STACK_LIMIT + 8),
        Instr(Op.ADDI, rd=SP, ra=1, imm=0),
        Instr(Op.PUSH, ra=1),
        Instr(Op.PUSH, ra=1),
        Instr(Op.HALT),
    ]),
    # The chain [0, 1] + [3, 5] traps at pc 4 after 3 instructions, not 4.
    "chain-offset": _program([
        Instr(Op.MOVI, rd=1, imm=8),
        Instr(Op.JMP, imm=3),
        Instr(Op.HALT),
        Instr(Op.NOP),
        Instr(Op.LD, rd=2, ra=1),
        Instr(Op.HALT),
    ]),
    # The chain [0, 1] + [3, 4] retires 4 instructions, not 2.
    "chain-budget": _program([
        Instr(Op.MOVI, rd=1, imm=5),
        Instr(Op.JMP, imm=3),
        Instr(Op.HALT),
        Instr(Op.ADDI, rd=1, ra=1, imm=1),
        Instr(Op.HALT),
    ]),
}


@pytest.mark.parametrize(
    "mutation", sorted(n for n, m in MUTATIONS.items() if m.cpu)
)
def test_mutant_is_caught(mutation):
    program = _TRIGGERS[mutation]
    divergences = check_backends(
        program, segments=[16], a="interpreter", b=MUTATIONS[mutation].cpu
    )
    assert divergences, f"{mutation} mutant survived its trigger program"
    # ...and the fixed substrate passes the same trigger.
    assert check_program(program, budget=16) == []


# -- observation strictness ---------------------------------------------------


def test_observation_compares_float_bit_patterns():
    neg = _program([Instr(Op.FMOVI, rd=0, imm=-0.0), Instr(Op.HALT)])
    pos = _program([Instr(Op.FMOVI, rd=0, imm=0.0), Instr(Op.HALT)])
    pa, pb = Process.load(neg), Process.load(pos)
    pa.run(4)
    pb.run(4)
    diff = observe(pa).diff(observe(pb))
    assert diff is not None and diff.startswith("fregs")


def test_observation_ignores_exit_code_until_halted():
    program = _program([
        Instr(Op.MOVI, rd=0, imm=42),
        Instr(Op.NOP),
        Instr(Op.HALT),
    ])
    process = Process.load(program)
    process.run(1)
    assert observe(process).exit_code is None
    process.run(16)
    assert observe(process).exit_code == 42


# -- campaign metamorphic oracles ---------------------------------------------


def test_merge_oracle_holds():
    app = LangApp(gen_lang_source(random.Random("oracle-merge:0")))
    assert check_merge(app, 6, 11, VARIANTS["LetGo-E"], split=2) == []
    assert check_merge(app, 5, 12, None, split=3) == []


def test_resume_oracle_holds(tmp_path):
    app = LangApp(gen_lang_source(random.Random("oracle-resume:0")))
    assert check_resume(
        app, 5, 13, VARIANTS["LetGo-E"], prefix=2, workdir=tmp_path
    ) == []


def test_jobs_oracle_holds():
    assert check_jobs(FuzzAppA(), 5, 14, VARIANTS["LetGo-E"], jobs=2) == []


def test_converge_oracle_holds():
    assert check_converge(FuzzAppC(), 12, 15) == []


def test_converge_oracle_catches_a_loose_state_comparison(monkeypatch):
    # Planted bug: registers and pc only, memory and output ignored.
    def loose(self, process, lag=0):
        cpu = process.cpu
        return (
            cpu.instret + lag == self.instret
            and cpu.pc == self.pc
            and tuple(cpu.iregs) == self.iregs
        )

    monkeypatch.setattr(Snapshot, "matches", loose)
    found = check_converge(FuzzAppC(), 12, 15)
    assert found and {d.oracle for d in found} == {"converge"}


def test_converge_oracle_catches_a_dropped_lag():
    # Planted bug: a repaired run that converged finishes at the golden
    # retirement count, as if its repairs had retired.
    result = mutation_selftest("converge-lag")
    assert result.killed and result.ok
    assert result.finding.oracle == "converge"
    assert result.finding.at.startswith("LetGo-E@")
    assert result.shrunk_len == 1 < result.original_len
    assert injector._classify_finished is _classify_finished
