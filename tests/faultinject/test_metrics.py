"""Effectiveness metrics (Eqs. 1-4) and confidence intervals."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinject import (
    Outcome,
    compute_metrics,
    crash_probability,
    overall_sdc_rate,
    proportion,
)

SAMPLE = {
    Outcome.BENIGN: 40,
    Outcome.SDC: 2,
    Outcome.DETECTED: 3,
    Outcome.DOUBLE_CRASH: 15,
    Outcome.C_BENIGN: 30,
    Outcome.C_SDC: 4,
    Outcome.C_DETECTED: 6,
}


def test_metrics_values():
    m = compute_metrics(SAMPLE)
    assert m.total == 100
    assert m.crash_count == 55
    assert math.isclose(m.continuability.value, 40 / 55)
    assert math.isclose(m.continued_correct.value, 30 / 55)
    assert math.isclose(m.continued_detected.value, 6 / 55)
    assert math.isclose(m.continued_sdc.value, 4 / 55)


def test_continuability_is_sum_of_components():
    m = compute_metrics(SAMPLE)
    assert math.isclose(
        m.continuability.value,
        m.continued_detected.value + m.continued_correct.value + m.continued_sdc.value,
    )


def test_crash_rate_property():
    m = compute_metrics(SAMPLE)
    assert math.isclose(m.crash_rate.value, 0.55)


def test_overall_sdc_rate():
    rate = overall_sdc_rate(SAMPLE)
    assert math.isclose(rate.value, 6 / 100)


def test_crash_probability():
    p = crash_probability(SAMPLE)
    assert math.isclose(p.value, 0.55)


def test_zero_crash_campaign():
    counts = {Outcome.BENIGN: 10}
    m = compute_metrics(counts)
    assert m.continuability.value == 0.0
    assert m.crash_count == 0


def test_empty_counts():
    m = compute_metrics({})
    assert m.total == 0
    assert m.continuability.denominator == 0


def test_proportion_basics():
    p = proportion(30, 100)
    assert math.isclose(p.value, 0.3)
    assert 0.0 < p.half_width < 0.1
    assert "±" in str(p)


def test_proportion_zero_denominator():
    p = proportion(0, 0)
    assert p.value == 0.0 and p.half_width == 0.0


@given(st.integers(0, 500), st.integers(1, 500))
@settings(max_examples=100)
def test_proportion_bounds(num, den):
    num = min(num, den)
    p = proportion(num, den)
    assert 0.0 <= p.value <= 1.0
    assert p.half_width >= 0.0
    # CI shrinks as 1/sqrt(n)
    wider = proportion(num, den)
    bigger = proportion(num * 4, den * 4)
    assert bigger.half_width <= wider.half_width + 1e-12


def test_ci_95_reference_value():
    # p=0.5, n=400 -> half width ~ 1.96 * 0.5/20 = 0.049
    p = proportion(200, 400)
    assert math.isclose(p.half_width, 0.049, abs_tol=0.002)


@pytest.mark.parametrize("confidence", [1.5, -0.2, 1.0])
def test_proportion_rejects_confidence_outside_unit_interval(confidence):
    with pytest.raises(ValueError, match="confidence"):
        proportion(3, 10, confidence)


#: ``scipy.stats.norm.ppf(0.5 + c / 2)`` (scipy 1.17.1), the reference quantiles.
SCIPY_NORM_PPF = {
    0.8: 1.2815515655446004,
    0.9: 1.6448536269514722,
    0.95: 1.959963984540054,
    0.99: 2.5758293035489004,
}


@pytest.mark.parametrize("confidence", sorted(SCIPY_NORM_PPF))
def test_half_width_matches_scipy_quantile(confidence):
    z = SCIPY_NORM_PPF[confidence]
    want = z * math.sqrt(0.3 * 0.7 / 10)
    got = proportion(3, 10, confidence).half_width
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
