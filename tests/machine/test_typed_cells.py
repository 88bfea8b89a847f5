"""Typed memory cells: a cell holds the value its last store wrote, and the
64-bit pattern decides every cross-type load and every comparison."""

import math
import random

import pytest

from repro.checkpoint.snapshot import snapshot
from repro.fuzz.generator import gen_segments
from repro.fuzz.oracles import EagerCompiledCPU, check_backends
from repro.isa.instructions import Instr, Op
from repro.isa.assembler import assemble
from repro.isa.layout import DATA_BASE, INT64_MAX, INT64_MIN, MASK64
from repro.isa.program import DataSymbol, Program
from repro.machine.memory import (
    Memory,
    float_as_int,
    float_to_pattern,
    int_as_float,
    pattern_to_float,
)
from repro.machine.process import Process

#: Every engine: the reference interpreter, the compiled backend (cold
#: entries on the interpreter handlers), and its twin that compiles every
#: block on first entry.
BACKENDS = ("interpreter", "compiled", EagerCompiledCPU)

NAN_A = 0x7FF8DEADBEEF0001
NAN_B = 0x7FF8DEADBEEF0002
NEG_NAN = 0xFFF8000000000007


def _program(instrs, cells=2, data_init=None):
    return Program(
        instrs=instrs, functions={"main": 0},
        data_symbols={"g": DataSymbol("g", DATA_BASE, cells)},
        data_init=data_init or {}, source_name="typed-cells",
    )


def _run(program, backend):
    process = Process.load(program, backend=backend)
    process.run(10_000)
    return process


# -- cross-type loads ---------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_int_store_then_float_loads(backend):
    pattern = float_to_pattern(1.5)
    program = _program([
        Instr(Op.MOVI, rd=1, imm=DATA_BASE),
        Instr(Op.MOVI, rd=2, imm=pattern),
        Instr(Op.ST, rd=2, ra=1),
        Instr(Op.FLD, rd=1, ra=1),
        Instr(Op.MOVI, rd=3, imm=0),
        Instr(Op.FLDX, rd=2, ra=1, rb=3),
        Instr(Op.PUSH, ra=2),
        Instr(Op.FPOP, rd=3),
        Instr(Op.HALT),
    ])
    process = _run(program, backend)
    assert process.cpu.halted
    assert process.cpu.fregs[1:4] == [1.5, 1.5, 1.5]
    assert process.memory.written_cells()[DATA_BASE] == pattern


@pytest.mark.parametrize("backend", BACKENDS)
def test_float_store_then_int_loads_and_ret(backend):
    bits = float_as_int(-2.5)
    program = _program([
        Instr(Op.MOVI, rd=1, imm=DATA_BASE),
        Instr(Op.FMOVI, rd=1, imm=-2.5),
        Instr(Op.FST, rd=1, ra=1),
        Instr(Op.LD, rd=2, ra=1),
        Instr(Op.MOVI, rd=3, imm=0),
        Instr(Op.LDX, rd=4, ra=1, rb=3),
        Instr(Op.FPUSH, ra=1),
        Instr(Op.POP, rd=5),
        # A double whose bits are 11, the pc after the RET.
        Instr(Op.FMOVI, rd=2, imm=int_as_float(11)),
        Instr(Op.FPUSH, ra=2),
        Instr(Op.RET),
        Instr(Op.MOVI, rd=0, imm=7),
        Instr(Op.HALT),
    ])
    process = _run(program, backend)
    assert process.cpu.halted and process.cpu.exit_code == 7
    assert [process.cpu.iregs[i] for i in (2, 4, 5)] == [bits, bits, bits]


@pytest.mark.parametrize("backend", BACKENDS)
def test_float_load_of_a_data_constant(backend):
    program = _program(
        [
            Instr(Op.MOVI, rd=1, imm=DATA_BASE),
            Instr(Op.FLD, rd=1, ra=1),
            Instr(Op.FLD, rd=2, ra=1),
            Instr(Op.HALT),
        ],
        data_init={DATA_BASE: float_to_pattern(0.1)},
    )
    process = _run(program, backend)
    assert process.cpu.fregs[1:3] == [0.1, 0.1]
    # The first load stored the converted double back: same pattern.
    assert type(process.memory.raw_cells()[DATA_BASE]) is float
    assert process.memory.written_cells() == {DATA_BASE: float_to_pattern(0.1)}


# -- store-back ---------------------------------------------------------------


@pytest.fixture
def mem():
    m = Memory()
    m.map_segment("data", 0x1000, 0x100)
    return m


def test_store_back_keeps_patterns_and_count(mem):
    mem.write_int(0x1000, float_as_int(1.5))
    mem.write_float(0x1008, -0.0)
    before = mem.written_cells()
    assert mem.read_float(0x1000) == 1.5
    assert mem.read_int(0x1008) == INT64_MIN
    assert mem.written_cells() == before and mem.n_written == 2
    assert [type(v) for v in mem.raw_cells().values()] == [float, int]
    assert mem.read_int(0x1000) == float_as_int(1.5)
    assert mem.written_cells() == before and mem.n_written == 2


def test_loads_of_a_missing_cell_insert_nothing(mem):
    assert mem.read_float(0x1010) == 0.0
    assert mem.read_int(0x1010) == 0
    assert mem.read_pattern(0x1010) == 0
    assert mem.raw_cells() == {} and mem.n_written == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_cpu_loads_of_a_missing_cell_insert_nothing(backend):
    program = _program([
        Instr(Op.MOVI, rd=1, imm=DATA_BASE + 8),
        Instr(Op.FLD, rd=1, ra=1),
        Instr(Op.LD, rd=2, ra=1),
        Instr(Op.MOVI, rd=3, imm=0),
        Instr(Op.FLDX, rd=2, ra=1, rb=3),
        Instr(Op.LDX, rd=4, ra=1, rb=3),
        Instr(Op.HALT),
    ])
    process = _run(program, backend)
    assert process.cpu.halted
    assert process.memory.n_written == 0


def test_write_pattern_holds_the_signed_value(mem):
    mem.write_pattern(0x1000, (1 << 64) - 1)
    assert mem.raw_cells() == {0x1000: -1}
    assert mem.read_pattern(0x1000) == (1 << 64) - 1
    assert mem.read_int(0x1000) == -1


# -- int registers stay in range ----------------------------------------------


@pytest.mark.parametrize("imm", [(1 << 64) - 1, -(1 << 64) - 1, 1 << 63])
def test_out_of_range_int_immediates_wrap(imm):
    wrapped = Instr(Op.MOVI, rd=1, imm=imm).imm
    assert INT64_MIN <= wrapped <= INT64_MAX
    assert wrapped & MASK64 == imm & MASK64


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_ones_immediate_stores_and_loads_as_minus_one(backend):
    # A store writes its register as is, so the immediate must already be
    # the signed value, or the float load could not pack the cell.
    source = f"""
.data
g: .space 8
.text
.entry main
.func main
main:
    movi r1, @g
    movi r2, #{MASK64:#x}
    st [r1 + 0], r2
    ld r3, [r1 + 0]
    fld f1, [r1 + 0]
    halt
"""
    process = _run(assemble(source), backend)
    assert process.cpu.halted
    assert process.cpu.iregs[2:4] == [-1, -1]
    assert float_to_pattern(process.cpu.fregs[1]) == MASK64
    assert process.memory.written_cells() == {DATA_BASE: MASK64}


# -- exact comparison ---------------------------------------------------------


#: (value held by one side, value held by the other, same pattern?)
CASES = [
    (1, 1.0, False),
    (0.0, -0.0, False),
    (0, -0.0, False),
    (-1, -1.0, False),
    ("nan-a", "nan-b", False),
    ("nan-a", "nan-a", True),     # one payload, two distinct objects
    (float_as_int(2.5), 2.5, True),
    (float_as_int(-0.0), -0.0, True),
    (0, 0.0, True),
    (-7, -7, True),
]


def _value(spec):
    if spec == "nan-a":
        return pattern_to_float(NAN_A)
    if spec == "nan-b":
        return pattern_to_float(NAN_B)
    return spec


def _write(memory, address, value):
    if type(value) is float:
        memory.write_float(address, value)
    else:
        memory.write_int(address, value)


@pytest.mark.parametrize("first, second, equal", CASES)
def test_cells_equal_is_pattern_equality(first, second, equal):
    for a, b in ((first, second), (second, first)):
        one, two = Memory(), Memory()
        for m in (one, two):
            m.map_segment("data", 0x1000, 0x100)
            m.write_int(0x1000, 5)        # equal cells around the pair
            m.write_float(0x1010, 0.25)
        _write(one, 0x1008, _value(a))
        _write(two, 0x1008, _value(b))
        if a == "nan-a" and b == "nan-a":
            assert one.raw_cells()[0x1008] is not two.raw_cells()[0x1008]
        assert one.cells_equal(two.raw_cells()) is equal
        assert (one.written_cells() == two.written_cells()) is equal


@pytest.mark.parametrize("first, second, equal", CASES)
def test_snapshot_matches_is_pattern_equality(first, second, equal):
    program = _program([Instr(Op.HALT)])
    for a, b in ((first, second), (second, first)):
        process = Process.load(program)
        _write(process.memory, DATA_BASE, _value(a))
        rung = snapshot(process)
        _write(process.memory, DATA_BASE, _value(b))
        assert rung.matches(process) is equal


def test_cells_equal_finds_a_difference_after_equal_nans(mem):
    other = Memory()
    other.map_segment("data", 0x1000, 0x100)
    for m in (mem, other):
        m.write_float(0x1000, pattern_to_float(NAN_A))
    mem.write_int(0x1008, 5)
    other.write_int(0x1008, 6)
    assert not mem.cells_equal(other.raw_cells())
    other.write_int(0x1008, 5)
    assert mem.cells_equal(other.raw_cells())
    other.clear()
    other.write_int(0x1000, float_as_int(pattern_to_float(NAN_A)))
    other.write_int(0x1010, 5)  # same count, another address
    assert not mem.cells_equal(other.raw_cells())


# -- lockstep differential ----------------------------------------------------


def _aliasing_program(rounds: int = 10) -> Program:
    """One cell written as int and float in turn, -0.0 and NaN payloads
    included, in a loop so the compiled backend's blocks get hot."""
    body = [
        Instr(Op.FMOVI, rd=1, imm=-0.0),
        Instr(Op.FST, rd=1, ra=1),
        Instr(Op.LD, rd=2, ra=1),             # INT64_MIN
        Instr(Op.OUT, ra=2),
        Instr(Op.ADDI, rd=2, ra=2, imm=1),
        Instr(Op.ST, rd=2, ra=1),
        Instr(Op.FLD, rd=2, ra=1),            # -5e-324
        Instr(Op.FOUT, ra=2),
        Instr(Op.FMOVI, rd=3, imm=pattern_to_float(NAN_A)),
        Instr(Op.MOVI, rd=5, imm=1),
        Instr(Op.FSTX, rd=3, ra=1, rb=5),
        Instr(Op.LDX, rd=3, ra=1, rb=5),      # the payload's bits
        Instr(Op.XORI, rd=3, ra=3, imm=3),
        Instr(Op.STX, rd=3, ra=1, rb=5),
        Instr(Op.FLDX, rd=4, ra=1, rb=5),     # NaN, payload ...02
        Instr(Op.FOUT, ra=4),
        Instr(Op.FPUSH, ra=4),
        Instr(Op.POP, rd=4),
        Instr(Op.OUT, ra=4),
        Instr(Op.PUSH, ra=2),
        Instr(Op.FPOP, rd=5),
        Instr(Op.FST, rd=5, ra=1),
        Instr(Op.LD, rd=6, ra=1),
        Instr(Op.OUT, ra=6),
        Instr(Op.FMOVI, rd=6, imm=pattern_to_float(NEG_NAN)),
        Instr(Op.FST, rd=6, ra=1),
        Instr(Op.LD, rd=7, ra=1),
        Instr(Op.OUT, ra=7),
        Instr(Op.FLD, rd=7, ra=1),
        Instr(Op.FOUT, ra=7),
        Instr(Op.SUBI, rd=9, ra=9, imm=1),
    ]
    head = [
        Instr(Op.MOVI, rd=1, imm=DATA_BASE),
        Instr(Op.MOVI, rd=9, imm=rounds),
    ]
    loop = len(head)
    return _program(head + body + [
        Instr(Op.BNEZ, ra=9, imm=loop),
        Instr(Op.HALT),
    ])


def test_aliasing_program_values():
    process = _run(_aliasing_program(rounds=1), "interpreter")
    out = process.output
    assert out[0] == ("i", INT64_MIN)
    assert float_to_pattern(out[1][1]) == 1 << 63 | 1
    assert float_to_pattern(out[2][1]) == NAN_A ^ 3
    assert out[3] == ("i", float_as_int(pattern_to_float(NAN_A ^ 3)))
    assert out[4] == ("i", INT64_MIN + 1)
    assert out[5] == ("i", float_as_int(pattern_to_float(NEG_NAN)))
    assert float_to_pattern(out[6][1]) == NEG_NAN
    assert math.isnan(out[6][1])


@pytest.mark.parametrize("side", ["compiled", EagerCompiledCPU])
def test_aliasing_program_lockstep(side):
    program = _aliasing_program()
    budget = 10 * 33 + 8
    rng = random.Random("typed-cells")
    schedules = [[1] * budget, [budget]] + [
        gen_segments(rng, budget) for _ in range(4)
    ]
    for segments in schedules:
        assert check_backends(
            program, segments, a="interpreter", b=side
        ) == []
    finals = [_run(program, b) for b in ("interpreter", side)]
    assert finals[0].memory.written_cells() == finals[1].memory.written_cells()
    assert finals[0].memory.cells_equal(finals[1].memory.raw_cells())
