"""Campaign JSON persistence and merging."""

import math

import pytest

from repro.core import LETGO_E
from repro.faultinject import CampaignConfig, CampaignResult, run_campaign
from repro.faultinject.persistence import (
    campaign_from_json,
    campaign_to_json,
    load_campaign,
    save_campaign,
)

KEEP = CampaignConfig(keep_results=True)


@pytest.fixture(scope="module")
def campaign(pennant_app):
    return run_campaign(pennant_app, 20, seed=13, config=LETGO_E, campaign=KEEP)


def test_round_trip(campaign):
    back = campaign_from_json(campaign_to_json(campaign))
    assert back.app_name == campaign.app_name
    assert back.config_name == campaign.config_name
    assert back.n == campaign.n
    assert back.counts == campaign.counts
    assert len(back.results) == len(campaign.results)


def test_round_trip_preserves_records(campaign):
    back = campaign_from_json(campaign_to_json(campaign))
    for mine, theirs in zip(campaign.results, back.results):
        assert mine.outcome is theirs.outcome
        assert mine.plan == theirs.plan
        assert mine.target_pc == theirs.target_pc
        assert mine.target_reg == theirs.target_reg
        assert mine.first_signal is theirs.first_signal
        assert mine.steps == theirs.steps


def test_metrics_survive_round_trip(campaign):
    back = campaign_from_json(campaign_to_json(campaign))
    assert math.isclose(
        back.metrics().continuability.value,
        campaign.metrics().continuability.value,
    )


def test_file_round_trip(campaign, tmp_path):
    path = save_campaign(campaign, tmp_path / "campaign.json")
    back = load_campaign(path)
    assert back.counts == campaign.counts


def test_bad_format_rejected():
    with pytest.raises(ValueError):
        campaign_from_json('{"format": 99}')


def test_merge(pennant_app):
    a = run_campaign(pennant_app, 10, seed=1, config=LETGO_E, campaign=KEEP)
    b = run_campaign(pennant_app, 10, seed=2, config=LETGO_E, campaign=KEEP)
    merged = CampaignResult.merge([a, b])
    assert merged.n == 20
    assert sum(merged.counts.values()) == 20
    assert len(merged.results) == 20
    # merged error bars are tighter than either part's
    if merged.metrics().crash_count > 2:
        assert (
            merged.crash_rate().half_width
            <= min(a.crash_rate().half_width, b.crash_rate().half_width) + 1e-9
        )


def test_merge_rejects_mismatched(pennant_app, hpl_app):
    a = run_campaign(pennant_app, 5, seed=1, config=LETGO_E)
    b = run_campaign(hpl_app, 5, seed=1, config=LETGO_E)
    with pytest.raises(ValueError):
        CampaignResult.merge([a, b])


def test_merge_empty():
    with pytest.raises(ValueError):
        CampaignResult.merge([])


# -- atomic saves -----------------------------------------------------------


def test_save_leaves_no_temp_files(campaign, tmp_path):
    save_campaign(campaign, tmp_path / "c.json")
    save_campaign(campaign, tmp_path / "c.json")  # overwrite is fine too
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_interrupted_save_preserves_old_file(campaign, tmp_path, monkeypatch):
    """A save that dies mid-write never corrupts the previous result."""
    import os

    from repro.faultinject.persistence import atomic_write_text

    path = tmp_path / "c.json"
    save_campaign(campaign, path)
    before = path.read_text()

    def torn_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", torn_replace)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text(path, "half-written garbage")
    monkeypatch.undo()
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]
    assert load_campaign(path).n == campaign.n
