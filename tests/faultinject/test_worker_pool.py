"""The process-wide worker pool: reused across campaigns, replaced after
it breaks or a campaign is interrupted.

Worker pids come from each shard's ``worker-start`` instant in the
campaign's JSONL trace.
"""

import multiprocessing
import os
import signal

import pytest

from repro.faultinject import CampaignConfig, CampaignEngine
from repro.telemetry import read_jsonl

N = 12
SEED = 23


def _pooled(app, trace, **knobs):
    """One jobs=2 campaign of two-plan shards: (result, engine, pids)."""
    engine = CampaignEngine(config=CampaignConfig(
        jobs=2, shard_size=2, keep_results=True, trace=str(trace), **knobs,
    ))
    result = engine.run(app, N, SEED, None)
    _, records = read_jsonl(trace)
    pids = {r["args"]["pid"] for r in records if r["name"] == "worker-start"}
    assert pids and os.getpid() not in pids
    return result, engine, pids


def _reference(app):
    config = CampaignConfig(jobs=1, keep_results=True)
    return CampaignEngine(config=config).run(app, N, SEED, None).results


def test_consecutive_campaigns_share_the_workers(pennant_app, tmp_path):
    first, _, pids = _pooled(pennant_app, tmp_path / "a.jsonl")
    second, _, again = _pooled(pennant_app, tmp_path / "b.jsonl")
    assert len(pids | again) <= 2
    assert first.results == second.results == _reference(pennant_app)


def test_sigkilled_idle_workers_are_replaced(pennant_app, tmp_path):
    """Workers killed between campaigns (say, by the OOM killer) break
    the shared pool; the next campaign replaces it and still gets the
    serial result."""
    _pooled(pennant_app, tmp_path / "a.jsonl")
    killed = {child.pid for child in multiprocessing.active_children()}
    for pid in killed:
        os.kill(pid, signal.SIGKILL)
    result, engine, fresh = _pooled(pennant_app, tmp_path / "b.jsonl")
    assert engine.telemetry.counters["pool-rebuild"] == 1
    assert not killed & fresh
    assert result.results == _reference(pennant_app)


def test_interrupted_campaign_drops_the_pool(pennant_app, tmp_path):
    """Ctrl-C in the parent mid-campaign: the next campaign runs on new
    workers, so no abandoned shard of the old one shares them."""
    _, _, pids = _pooled(pennant_app, tmp_path / "a.jsonl")

    def interrupt(done, total):
        raise KeyboardInterrupt

    engine = CampaignEngine(config=CampaignConfig(jobs=2, shard_size=2))
    engine.on_progress = interrupt
    with pytest.raises(KeyboardInterrupt):
        engine.run(pennant_app, N, SEED, None)
    result, _, fresh = _pooled(pennant_app, tmp_path / "b.jsonl")
    assert not pids & fresh
    assert result.results == _reference(pennant_app)
