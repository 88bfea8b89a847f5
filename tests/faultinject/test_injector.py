"""Single-injection runs: placement, determinism, classification."""

import pytest

from repro.core import LETGO_E
from repro.faultinject import InjectionPlan, Outcome, run_injection
from repro.fuzz.app import LangApp
from repro.machine.signals import Signal


def plan(dyn_index, bit=62, reg_choice=0.0):
    return InjectionPlan(dyn_index=dyn_index, bit=bit, reg_choice=reg_choice)


def test_injection_deterministic(pennant_app):
    p = plan(5000, bit=40)
    a = run_injection(pennant_app, p, None)
    b = run_injection(pennant_app, p, None)
    assert a.outcome is b.outcome
    assert a.target_pc == b.target_pc
    assert a.target_reg == b.target_reg


def test_bit_zero_flip_often_benign(pennant_app):
    """A low-bit flip in an fp mantissa perturbs without crashing."""
    outcomes = set()
    for dyn in (3000, 9000, 15000):
        result = run_injection(pennant_app, plan(dyn, bit=0), None)
        outcomes.add(result.outcome)
    assert outcomes <= {
        Outcome.BENIGN,
        Outcome.SDC,
        Outcome.DETECTED,
        Outcome.CRASH,
        Outcome.HANG,
    }


def test_late_injection_near_end_mostly_benign(pennant_app):
    total = pennant_app.golden.instret
    result = run_injection(pennant_app, plan(total - 2, bit=1), None)
    # flipping the result of one of the last instructions: output already
    # produced, so this can only be benign (or NOT_INJECTED)
    assert result.outcome in (Outcome.BENIGN, Outcome.NOT_INJECTED)


def test_target_recorded(pennant_app):
    result = run_injection(pennant_app, plan(4000), None)
    assert result.target_pc is not None
    assert 0 <= result.target_pc < len(pennant_app.program.instrs)
    assert result.target_reg is not None
    bank, index = result.target_reg
    assert bank in ("r", "f") and 0 <= index < 16


def test_steps_recorded(pennant_app):
    result = run_injection(pennant_app, plan(4000), None)
    assert result.steps >= 4000


def test_crash_has_signal(pennant_app):
    """Flipping a high bit of an address register eventually crashes some run."""
    crashes = []
    for dyn in range(2000, 2200, 20):
        result = run_injection(pennant_app, plan(dyn, bit=45), None)
        if result.outcome is Outcome.CRASH:
            crashes.append(result)
    assert crashes, "expected at least one crash in this window"
    assert all(r.first_signal is not None for r in crashes)


def test_letgo_pairing_same_fault(pennant_app):
    """The same plan under LetGo engages exactly on baseline crashes."""
    for dyn in range(2000, 2200, 40):
        p = plan(dyn, bit=45)
        base = run_injection(pennant_app, p, None)
        letgo = run_injection(pennant_app, p, LETGO_E)
        if base.outcome is Outcome.CRASH:
            assert letgo.outcome.crash_origin
        else:
            assert not letgo.outcome.crash_origin
            assert letgo.outcome is base.outcome


def test_letgo_interventions_counted(pennant_app):
    for dyn in range(2000, 2400, 40):
        p = plan(dyn, bit=45)
        result = run_injection(pennant_app, p, LETGO_E)
        if result.outcome.continued or result.outcome is Outcome.DOUBLE_CRASH:
            assert result.interventions >= 1
        if result.outcome is Outcome.CRASH_UNHANDLED:
            assert result.interventions == 0


def test_unintercepted_first_trap_is_crash_baseline_and_unhandled_under_letgo():
    """SIGFPE is in no signal table LetGo-E handles: a fault whose first
    trap is SIGFPE ends as a crash in both runs, told apart only by
    whether LetGo was attached."""
    app = LangApp(
        "func main() -> int { var int d = 1; out(100 / d); return 0; }"
    )
    plans = [plan(i, bit=0) for i in range(1, app.golden.instret + 1)]
    fpe = [
        p for p in plans
        if run_injection(app, p, None).first_signal is Signal.SIGFPE
    ]
    assert fpe, "no flip zeroes the divisor"
    for p in fpe:
        base = run_injection(app, p, None)
        letgo = run_injection(app, p, LETGO_E)
        assert base.outcome is Outcome.CRASH
        assert letgo.outcome is Outcome.CRASH_UNHANDLED
        assert letgo.first_signal is Signal.SIGFPE
        assert base.interventions == letgo.interventions == 0
        assert (base.target_pc, base.steps) == (letgo.target_pc, letgo.steps)
