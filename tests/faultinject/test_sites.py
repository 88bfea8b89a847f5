"""Fault-site analysis."""

import pytest

from repro.core import LETGO_E
from repro.faultinject import CampaignConfig, run_campaign
from repro.faultinject.sites import INSTR_CLASSES, analyze_sites, classify_op
from repro.isa import Op

KEEP = CampaignConfig(keep_results=True)


@pytest.fixture(scope="module")
def report(pennant_app):
    campaign = run_campaign(pennant_app, 40, seed=9, config=LETGO_E, campaign=KEEP)
    return analyze_sites(pennant_app, campaign), campaign


def test_classify_op():
    assert classify_op(Op.LD) == "load"
    assert classify_op(Op.FSTX) == "store"
    assert classify_op(Op.JMP) == "branch"
    assert classify_op(Op.RET) == "branch"
    assert classify_op(Op.FADD) == "float"
    assert classify_op(Op.ADDI) == "int"
    assert classify_op(Op.FTOI) == "int"
    assert classify_op(Op.HALT) == "other"
    assert all(classify_op(op) in INSTR_CLASSES for op in Op)


def test_tallies_cover_all_injected(report):
    site_report, campaign = report
    injected = sum(
        1 for r in campaign.results if r.target_pc is not None
    )
    assert sum(sum(c.values()) for c in site_report.by_function.values()) == injected
    assert sum(sum(c.values()) for c in site_report.by_class.values()) == injected


def test_functions_are_real(report, pennant_app):
    site_report, _ = report
    known = {f.name for f in pennant_app.functions.functions}
    assert set(site_report.by_function) <= known


def test_crashiest_functions_sorted(report):
    site_report, _ = report
    ranked = site_report.crashiest_functions(10)
    counts = [c for _, c in ranked]
    assert counts == sorted(counts, reverse=True)
    assert all(c > 0 for c in counts)


def test_crash_rate_bounds(report):
    site_report, _ = report
    for cls in INSTR_CLASSES:
        assert 0.0 <= site_report.crash_rate_of_class(cls) <= 1.0


def test_signals_match_crash_runs(report):
    site_report, campaign = report
    signals = sum(site_report.by_signal.values())
    with_signal = sum(1 for r in campaign.results if r.first_signal is not None)
    assert signals == with_signal


def test_render(report):
    site_report, _ = report
    text = site_report.render()
    assert "instr class" in text
    assert "flipped-bit position" in text


def test_requires_kept_results(pennant_app):
    campaign = run_campaign(pennant_app, 5, seed=1, config=None)
    with pytest.raises(ValueError):
        analyze_sites(pennant_app, campaign)


def test_high_bits_crash_more(pennant_app):
    """Exponent/sign-range flips crash more than low-mantissa flips."""
    campaign = run_campaign(pennant_app, 120, seed=4, config=LETGO_E, campaign=KEEP)
    site_report = analyze_sites(pennant_app, campaign)
    low = site_report.by_bit_range.get("00-15 (low mantissa)")
    high = site_report.by_bit_range.get("48-63 (exponent/sign)")
    if low and high:
        low_rate = sum(v for o, v in low.items() if o.crash_origin) / sum(low.values())
        high_rate = sum(v for o, v in high.items() if o.crash_origin) / sum(high.values())
        assert high_rate >= low_rate
