"""Multi-bit upset extension of the fault model."""

import pytest

from repro.core import LETGO_E
from repro.faultinject import InjectionPlan, run_injection, seeded_plans


def test_plan_bits_property():
    plan = InjectionPlan(dyn_index=10, bit=3, reg_choice=0.5, extra_bits=(7, 40))
    assert plan.bits == (3, 7, 40)


def test_duplicate_bits_rejected():
    with pytest.raises(ValueError):
        InjectionPlan(dyn_index=10, bit=3, reg_choice=0.5, extra_bits=(3,))


def test_extra_bits_range_checked():
    with pytest.raises(ValueError):
        InjectionPlan(dyn_index=10, bit=3, reg_choice=0.5, extra_bits=(64,))


def test_plan_injections_multibit():
    plans = seeded_plans(1000, 50, 0, n_bits=3)
    assert all(len(p.bits) == 3 for p in plans)
    assert all(len(set(p.bits)) == 3 for p in plans)


def test_plan_injections_nbits_validation():
    with pytest.raises(ValueError):
        seeded_plans(1000, 5, 0, n_bits=0)
    with pytest.raises(ValueError):
        seeded_plans(1000, 5, 0, n_bits=65)


def test_single_bit_unchanged_default():
    plans = seeded_plans(1000, 5, 0)
    assert all(p.extra_bits == () for p in plans)


def test_multibit_injection_runs(pennant_app):
    plan = InjectionPlan(
        dyn_index=5000, bit=40, reg_choice=0.5, extra_bits=(41, 42)
    )
    result = run_injection(pennant_app, plan, LETGO_E)
    assert result.outcome is not None
    assert result.target_reg is not None


def test_multibit_deterministic(pennant_app):
    plan = InjectionPlan(dyn_index=5000, bit=40, reg_choice=0.5, extra_bits=(50,))
    a = run_injection(pennant_app, plan, None)
    b = run_injection(pennant_app, plan, None)
    assert a.outcome is b.outcome


def test_multibit_crashes_at_least_as_often(pennant_app):
    """On identical sites, 3-bit faults crash at least as often as 1-bit."""
    single = crashes_multi = crashes_single = 0
    for dyn in range(2000, 2600, 60):
        one = run_injection(
            pennant_app,
            InjectionPlan(dyn_index=dyn, bit=44, reg_choice=0.5),
            None,
        )
        three = run_injection(
            pennant_app,
            InjectionPlan(dyn_index=dyn, bit=44, reg_choice=0.5, extra_bits=(45, 46)),
            None,
        )
        crashes_single += one.outcome.crash_origin
        crashes_multi += three.outcome.crash_origin
        single += 1
    assert crashes_multi >= crashes_single - 1
