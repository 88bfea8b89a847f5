"""Campaigns: aggregation, pairing, Table-3 rows, parameter estimation."""

import math

import pytest

from repro.core import LETGO_B, LETGO_E
from repro.faultinject import (
    CampaignConfig,
    Outcome,
    run_campaign,
    run_paired_campaigns,
)

N = 30
SEED = 11


@pytest.fixture(scope="module")
def paired(pennant_app):
    return run_paired_campaigns(
        pennant_app, N, SEED, configs=[None, LETGO_B, LETGO_E]
    )


def test_counts_sum_to_n(paired):
    for result in paired.values():
        assert sum(result.counts.values()) == N
        assert result.n == N


def test_baseline_has_no_letgo_outcomes(paired):
    base = paired["baseline"]
    for outcome in base.counts:
        assert not outcome.continued
        assert outcome is not Outcome.DOUBLE_CRASH


def test_letgo_has_no_plain_crash(paired):
    for name in ("LetGo-B", "LetGo-E"):
        assert Outcome.CRASH not in paired[name].counts


def test_pairing_preserves_crash_population(paired):
    """Same plans: the crash-origin count is identical across configs."""
    crash_counts = {
        name: sum(
            count for outcome, count in result.counts.items() if outcome.crash_origin
        )
        for name, result in paired.items()
    }
    assert len(set(crash_counts.values())) == 1


def test_pairing_preserves_finished_outcomes(paired):
    """Non-crash outcomes are config-independent."""
    for outcome in (Outcome.BENIGN, Outcome.SDC, Outcome.DETECTED, Outcome.HANG):
        values = {r.counts.get(outcome, 0) for r in paired.values()}
        assert len(values) == 1, outcome


def test_table3_row_sums_to_one(paired):
    row = paired["LetGo-E"].table3_row()
    assert math.isclose(sum(row.values()), 1.0, abs_tol=1e-9)


def test_metrics_consistent_with_counts(paired):
    result = paired["LetGo-E"]
    m = result.metrics()
    crash = sum(c for o, c in result.counts.items() if o.crash_origin)
    continued = sum(c for o, c in result.counts.items() if o.continued)
    if crash:
        assert math.isclose(m.continuability.value, continued / crash)


def test_parameter_estimates_in_range(paired):
    result = paired["LetGo-E"]
    for estimate in (
        result.estimate_p_crash(),
        result.estimate_p_v(),
        result.estimate_p_v_prime(),
        result.estimate_p_letgo(),
    ):
        assert 0.0 <= estimate <= 1.0


def test_run_campaign_reproducible(pennant_app):
    a = run_campaign(pennant_app, 10, seed=3, config=LETGO_E)
    b = run_campaign(pennant_app, 10, seed=3, config=LETGO_E)
    assert a.counts == b.counts


def test_run_campaign_keep_results(pennant_app):
    result = run_campaign(
        pennant_app, 5, seed=4, config=None,
        campaign=CampaignConfig(keep_results=True),
    )
    assert len(result.results) == 5


def test_run_campaign_drops_results_by_default(pennant_app):
    """Memory-safe default: per-run records are not accumulated."""
    result = run_campaign(pennant_app, 5, seed=4, config=None)
    assert result.results == []
    assert result.n == 5


def test_plans_length_mismatch(pennant_app):
    from repro.faultinject import plan_injections
    import numpy as np

    plans = plan_injections(np.random.default_rng(0), pennant_app.golden.instret, 3)
    with pytest.raises(ValueError):
        run_campaign(pennant_app, 5, seed=0, plans=plans)


def test_fraction_and_rates(paired):
    result = paired["LetGo-E"]
    benign = result.fraction(Outcome.BENIGN)
    assert 0.0 <= benign.value <= 1.0
    assert result.sdc_rate().denominator == N
    assert result.crash_rate().denominator == N


# -- CampaignResult.merge edge cases ----------------------------------------


def test_merge_empty_shard_list_raises():
    from repro.faultinject import CampaignResult

    with pytest.raises(ValueError, match="nothing to merge"):
        CampaignResult.merge([])


def test_merge_shard_with_zero_results():
    """An empty shard (n=0) is a no-op contribution, not an error."""
    from repro.faultinject import CampaignResult

    empty = CampaignResult("app", "cfg", 0, {})
    full = CampaignResult("app", "cfg", 2, {Outcome.BENIGN: 2})
    merged = CampaignResult.merge([empty, full, empty])
    assert merged.n == 2
    assert merged.counts == {Outcome.BENIGN: 2}
    assert merged.results == []
    assert CampaignResult.merge([empty]).n == 0


def test_duplicate_plans_on_bad_resume_raise(pennant_app, tmp_path):
    """A doctored journal that repeats a shard must raise at resume time,
    not silently double-count the duplicated plans."""
    import json

    from repro.errors import JournalError
    from repro.faultinject import CampaignEngine

    path = tmp_path / "c.journal"
    CampaignEngine(config=CampaignConfig(journal=str(path))).run(
        pennant_app, 4, seed=SEED
    )
    payload = json.loads(path.read_text())
    payload["shards"].append(payload["shards"][0])
    path.write_text(json.dumps(payload))
    with pytest.raises(JournalError, match="twice"):
        CampaignEngine(config=CampaignConfig(resume=str(path))).run(
            pennant_app, 4, seed=SEED
        )
