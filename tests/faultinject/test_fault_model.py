"""Fault model: plan drawing, target selection, bit flips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinject import (
    InjectionPlan,
    flip_bit,
    seeded_plans,
    select_target,
)
from repro.isa import Instr, Op, Program
from repro.isa.registers import SP
from repro.machine import CPU, Memory


def make_cpu():
    program = Program(instrs=[Instr(Op.HALT)], functions={"main": 0})
    return CPU(program, Memory())


def test_plan_validation():
    with pytest.raises(ValueError):
        InjectionPlan(dyn_index=0, bit=3, reg_choice=0.5)
    with pytest.raises(ValueError):
        InjectionPlan(dyn_index=1, bit=64, reg_choice=0.5)
    with pytest.raises(ValueError):
        InjectionPlan(dyn_index=1, bit=1, reg_choice=1.0)


def test_plan_injections_ranges():
    plans = seeded_plans(total_instret=1000, n=500, seed=1)
    assert len(plans) == 500
    assert all(1 <= p.dyn_index <= 1000 for p in plans)
    assert all(0 <= p.bit < 64 for p in plans)
    assert len({p.dyn_index for p in plans}) > 300  # spread out


def test_plan_injections_deterministic():
    a = seeded_plans(1000, 50, 7)
    b = seeded_plans(1000, 50, 7)
    assert a == b


@pytest.mark.parametrize("n_bits", [1, 3])
@pytest.mark.parametrize("seed", range(5))
def test_seeded_plans_match_explicit_rng(seed, n_bits):
    """The plans are drawn from a fresh ``default_rng(seed)`` in one
    order: all indices, then all register choices, then each plan's
    bits, so a given seed always names the same fault population."""
    rng = np.random.default_rng(seed)
    indices = rng.integers(1, 12_345 + 1, size=40)
    choices = rng.random(size=40)
    want = []
    for i, c in zip(indices, choices):
        bits = rng.choice(64, size=n_bits, replace=False)
        want.append(InjectionPlan(
            int(i), int(bits[0]), float(c), tuple(int(b) for b in bits[1:])
        ))
    assert seeded_plans(12_345, 40, seed, n_bits) == want


def test_plan_injections_empty_program():
    with pytest.raises(ValueError):
        seeded_plans(0, 10, 0)


def test_seeded_plans_rejects_negative_n():
    with pytest.raises(ValueError, match="n must be >= 0"):
        seeded_plans(1000, -3, 0)
    assert seeded_plans(1000, 0, 0) == []


def test_select_target_written_reg_priority():
    assert select_target(Instr(Op.ADD, rd=3, ra=1, rb=2), 0.99) == ("r", 3)
    assert select_target(Instr(Op.FLD, rd=4, ra=1), 0.0) == ("f", 4)


def test_select_target_store_picks_source():
    instr = Instr(Op.ST, rd=5, ra=6, imm=0)
    low = select_target(instr, 0.0)
    high = select_target(instr, 0.99)
    assert low in instr.read_regs() and high in instr.read_regs()
    assert low != high  # choice actually varies with reg_choice


def test_select_target_branch():
    assert select_target(Instr(Op.BEQZ, ra=2, imm=0), 0.5) == ("r", 2)


def test_select_target_none_for_jmp():
    assert select_target(Instr(Op.JMP, imm=0), 0.5) is None
    assert select_target(Instr(Op.NOP), 0.5) is None


def test_select_target_ret_hits_sp():
    assert select_target(Instr(Op.RET), 0.5) == ("r", SP)


@given(st.integers(-(2**63), 2**63 - 1), st.integers(0, 63))
@settings(max_examples=200)
def test_int_flip_involution(value, bit):
    cpu = make_cpu()
    cpu.iregs[3] = value
    flip_bit(cpu, "r", 3, bit)
    assert cpu.iregs[3] != value
    flip_bit(cpu, "r", 3, bit)
    assert cpu.iregs[3] == value


@given(
    st.floats(allow_nan=False, width=64),
    st.integers(0, 63),
)
@settings(max_examples=200)
def test_float_flip_involution(value, bit):
    cpu = make_cpu()
    cpu.fregs[3] = value
    flip_bit(cpu, "f", 3, bit)
    flip_bit(cpu, "f", 3, bit)
    assert cpu.fregs[3] == value or (
        np.isnan(cpu.fregs[3]) and np.isnan(value)
    )


def test_int_flip_sign_bit():
    cpu = make_cpu()
    cpu.iregs[1] = 0
    flip_bit(cpu, "r", 1, 63)
    assert cpu.iregs[1] == -(2**63)


def test_float_flip_sign_bit():
    cpu = make_cpu()
    cpu.fregs[1] = 1.0
    flip_bit(cpu, "f", 1, 63)
    assert cpu.fregs[1] == -1.0


def test_float_flip_exponent_explodes():
    cpu = make_cpu()
    cpu.fregs[1] = 1.0
    flip_bit(cpu, "f", 1, 62)  # top exponent bit of 1.0 -> huge value
    assert abs(cpu.fregs[1]) > 1e300
