"""Campaign-level telemetry: exact tallies, merge determinism, trace files.

The acceptance contract this file pins:

* a seeded campaign's aggregated ``outcome:*`` counters exactly match the
  campaign's :class:`CampaignResult` tallies;
* the same seed yields an identical aggregated report signature across
  ``jobs=1`` and ``jobs=4`` (sharding never leaks into the numbers);
* telemetry never changes campaign outcomes or the engine's tallies;
  every run leaves its report behind, and ``EngineStats`` reads it;
* a timeline is kept only when a trace file is written, and the trace is
  complete: for every span name its span lines equal its totals count;
* the trace files grow as shards commit, and parse.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.apps.base import TRAP_FREE_MEMO
from repro.core import LETGO_E
from repro.faultinject import CampaignConfig, CampaignEngine
from repro.faultinject import engine as engine_mod
from repro.fuzz.app import FuzzAppA
from repro.telemetry import INJECTION_PHASES, read_jsonl

N = 14
SEED = 71


def _run(app, config=None, **knobs):
    # Every run executes all its plans, so runs compared here differ only
    # in the knobs, not in what the trap-free memo served.
    TRAP_FREE_MEMO.clear()
    engine = CampaignEngine(config=CampaignConfig(telemetry=True, **knobs))
    result = engine.run(app, N, SEED, config)
    assert engine.telemetry is not None
    return result, engine.telemetry


def test_outcome_counters_match_campaign_result_exactly(pennant_app):
    for config in (None, LETGO_E):
        result, report = _run(pennant_app, config, jobs=1)
        assert report.outcome_counts() == {
            outcome.value: count for outcome, count in result.counts.items()
        }
        assert sum(report.outcome_counts().values()) == N


def test_intervention_counter_matches_results(pennant_app):
    result, report = _run(pennant_app, LETGO_E, jobs=1, keep_results=True)
    interventions = sum(r.interventions for r in result.results)
    assert report.counters.get("intervention", 0) == interventions
    if interventions:  # every repair passes through the heuristics
        assert sum(report.heuristic_counts().values()) > 0


def test_signature_identical_across_jobs_1_and_4(pennant_app):
    result_serial, serial = _run(pennant_app, LETGO_E, jobs=1)
    result_fanout, fanout = _run(pennant_app, LETGO_E, jobs=4)
    assert result_serial.counts == result_fanout.counts
    assert serial.signature() == fanout.signature()
    # Restore/cold-start split is geometry-dependent, but their sum is one
    # positioning per injection either way.
    for report in (serial, fanout):
        assert (
            report.counters.get("restore", 0)
            + report.counters.get("cold-start", 0)
            == N
        )


def test_signature_identical_at_every_ladder_interval(pennant_app):
    # The ladder changes how runs are positioned (restore vs cold start)
    # and where post-fault runs stop (converged, lagged or not), never
    # what they report.
    # A 7-instruction ladder on pennant would hold ~18k snapshots, so the
    # tiny interval runs on a small generated app.
    cases = ((pennant_app, (0, None)), (FuzzAppA(), (0, 7, None)))
    converged = lagged = 0
    for app, intervals in cases:
        reports = [
            _run(app, LETGO_E, jobs=1, ladder_interval=k)[1] for k in intervals
        ]
        assert "restore" not in reports[0].counters
        assert "converged" not in reports[0].counters
        converged += sum(r.counters.get("converged", 0) for r in reports)
        lagged += sum(r.counters.get("converged-lagged", 0) for r in reports)
        signatures = [report.signature() for report in reports]
        assert all(sig == signatures[0] for sig in signatures), app.name
    assert converged > 0
    assert lagged > 0  # repaired runs converge too, behind the grid


@pytest.mark.parametrize(
    "knobs",
    [
        {"jobs": 1},
        {"jobs": 2, "ladder_interval": 0},
    ],
    ids=["ladder", "cold"],
)
def test_engine_stats_tallies_identical_with_telemetry_on_and_off(
    pennant_app, knobs
):
    tallies = []
    for telemetry in (False, True):
        TRAP_FREE_MEMO.clear()
        engine = CampaignEngine(
            config=CampaignConfig(telemetry=telemetry, **knobs)
        )
        engine.run(pennant_app, N, SEED, LETGO_E)
        stats, counters = engine.stats, engine.telemetry.counters
        tallies.append(
            (
                counters.get("restore", 0),
                counters.get("cold-start", 0),
                stats.fast_forward_steps,
                stats.executed,
            )
        )
    assert tallies[0] == tallies[1]
    restored, cold, fast_forward, executed = tallies[0]
    assert executed == N and fast_forward > 0
    assert (cold == N) == (knobs.get("ladder_interval") == 0)


def test_telemetry_does_not_change_outcomes(pennant_app):
    plain = CampaignEngine(config=CampaignConfig(jobs=1))
    traced = CampaignEngine(config=CampaignConfig(jobs=1, telemetry=True))
    assert (
        plain.run(pennant_app, N, SEED, LETGO_E).counts
        == traced.run(pennant_app, N, SEED, LETGO_E).counts
    )
    assert plain.telemetry is not None
    assert traced.telemetry is not None


@pytest.mark.parametrize(
    "knobs",
    [{"jobs": 1}, {"jobs": 2}, {"jobs": 2, "shard_size": 3, "journal": True}],
    ids=["serial", "pool", "journaled"],
)
def test_engine_stats_read_the_campaign_report(pennant_app, tmp_path, knobs):
    if knobs.pop("journal", False):
        knobs["journal"] = str(tmp_path / "c.journal")
    engine = CampaignEngine(config=CampaignConfig(**knobs))
    engine.run(pennant_app, N, SEED, LETGO_E)
    stats, report = engine.stats, engine.telemetry
    assert stats.report is report
    counters = report.counters
    assert stats.executed == counters.get("restore", 0) + counters.get(
        "cold-start", 0
    ) == N
    assert stats.fast_forward_steps == counters["fast-forward-instr"]
    assert stats.elapsed_seconds == report.wall_seconds > 0
    shard = report.phases["shard"]
    assert len(stats.per_worker_seconds) == shard.count
    assert sum(stats.per_worker_seconds) == pytest.approx(shard.total_seconds)


def test_per_injection_phases_present_and_bounded_by_wall(pennant_app):
    _, report = _run(pennant_app, LETGO_E, jobs=2)
    assert report.phases["advance-to-site"].count == N
    assert report.phases["post-fault"].count == N
    assert report.phases["restore"].count == N
    assert report.wall_seconds > 0
    # Per-injection phase spans never overlap each other within a worker,
    # so across jobs workers their sum is bounded by jobs * wall.
    phase_sum = sum(
        stat.total_seconds
        for name, stat in report.phases.items()
        if name in INJECTION_PHASES
    )
    assert phase_sum <= 2 * report.wall_seconds


def test_trace_files_written_and_parse(pennant_app, tmp_path):
    jsonl = tmp_path / "campaign.jsonl"
    chrome = tmp_path / "campaign.chrome.json"
    engine = CampaignEngine(
        config=CampaignConfig(jobs=2, trace=str(jsonl), chrome_trace=str(chrome))
    )
    engine.run(pennant_app, N, SEED, LETGO_E)

    meta, records = read_jsonl(jsonl)
    assert meta["app"] == pennant_app.name
    assert meta["n"] == N and meta["seed"] == SEED and meta["jobs"] == 2
    # The totals line carries the exact totals, not just the timeline.
    assert meta["counters"] == engine.telemetry.counters
    assert meta["phases"]["post-fault"]["count"] == N
    assert meta["phases"]["shard"]["count"] == 2
    assert meta["wall_seconds"] > 0
    assert any(r["kind"] == "span" and r["name"] == "shard" for r in records)
    # Worker streams survived the cross-process merge.
    assert any(r["tid"].startswith("shard-") for r in records)
    assert all(r["ts"] >= 0 for r in records)

    events = json.loads(chrome.read_text())
    assert isinstance(events, list) and events
    names = {e["name"] for e in events}
    assert "post-fault" in names and "thread_name" in names


@pytest.mark.parametrize("jobs", [1, 2])
def test_trace_has_one_span_line_per_counted_span(pennant_app, tmp_path, jobs):
    trace = tmp_path / "campaign.jsonl"
    TRAP_FREE_MEMO.clear()
    engine = CampaignEngine(
        config=CampaignConfig(jobs=jobs, shard_size=3, trace=str(trace))
    )
    engine.run(pennant_app, N, SEED, LETGO_E)
    meta, records = read_jsonl(trace)
    lines = Counter(r["name"] for r in records if r["kind"] == "span")
    counts = {name: stat["count"] for name, stat in meta["phases"].items()}
    assert lines == counts
    assert counts["shard"] == 5 and counts["post-fault"] == N
    # (tid, ts) order: each stream's lines are together and in time order.
    keys = [(r["tid"], r["ts"]) for r in records]
    assert keys == sorted(keys)


def test_trace_file_grows_at_every_commit(pennant_app, tmp_path):
    trace = tmp_path / "campaign.jsonl"
    sizes = []
    engine = CampaignEngine(
        config=CampaignConfig(jobs=1, shard_size=3, trace=str(trace))
    )
    engine.on_progress = lambda done, total: sizes.append(trace.stat().st_size)
    engine.run(pennant_app, N, SEED, LETGO_E)
    # The parent streams each committed shard to disk, never buffers the
    # campaign's events to the end.
    assert len(sizes) == 5
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    assert sizes[0] > 0 and sizes[-1] < trace.stat().st_size


def test_interrupted_campaign_leaves_a_trace_without_totals(
    pennant_app, tmp_path
):
    jsonl = tmp_path / "campaign.jsonl"
    chrome = tmp_path / "campaign.chrome.json"

    def interrupt(done, total):
        raise KeyboardInterrupt

    engine = CampaignEngine(config=CampaignConfig(
        jobs=1, shard_size=3, trace=str(jsonl), chrome_trace=str(chrome)
    ))
    engine.on_progress = interrupt
    with pytest.raises(KeyboardInterrupt):
        engine.run(pennant_app, N, SEED, LETGO_E)
    # The first shard reached the files, and both were closed: the Chrome
    # array parses, and the JSONL reader refuses a run that did not finish.
    events = json.loads(chrome.read_text())
    assert any(e["name"] == "post-fault" for e in events)
    with pytest.raises(ValueError, match="no totals line"):
        read_jsonl(jsonl)


def test_telemetry_without_a_trace_keeps_no_events(pennant_app, monkeypatch):
    reference = _run(pennant_app, LETGO_E, jobs=1)[1]
    tracers = []

    class Recorded(engine_mod.Tracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracers.append(self)

    monkeypatch.setattr(engine_mod, "Tracer", Recorded)
    _, report = _run(pennant_app, LETGO_E, jobs=1)
    assert report.signature() == reference.signature()
    assert report.counters == reference.counters
    assert {name: s.count for name, s in report.phases.items()} == {
        name: s.count for name, s in reference.phases.items()
    }
    assert len(tracers) == 2  # the engine's and the one shard's
    assert all(tracer.events is None for tracer in tracers)


def test_resumed_campaign_records_resume_event(pennant_app, tmp_path):
    journal = tmp_path / "campaign.journal"
    engine = CampaignEngine(
        config=CampaignConfig(jobs=1, telemetry=True, journal=str(journal))
    )
    engine.run(pennant_app, N, SEED, LETGO_E)
    assert engine.telemetry.phases["journal-append"].count > 0

    resumed = CampaignEngine(
        config=CampaignConfig(jobs=1, telemetry=True, resume=str(journal))
    )
    result = resumed.run(pennant_app, N, SEED, LETGO_E)
    assert result.n == N
    # Fully settled journal: nothing executes, counters stay empty.
    assert resumed.telemetry.outcome_counts() == {}
