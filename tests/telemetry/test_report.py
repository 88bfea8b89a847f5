"""TelemetryReport: the tracer's totals, the deterministic signature, rendering."""

from __future__ import annotations

from repro.telemetry import (
    INJECTION_PHASES,
    LADDER_COUNTERS,
    MEMO_COUNTERS,
    PhaseStat,
    TelemetryReport,
    Tracer,
)


def _tracer(spans=(), counters=None):
    """A tracer that absorbed one stream of finished (name, ts, dur) spans.

    Goes through the real merge protocol, so the durations are exact.
    """
    phases = {}
    for name, _, dur in spans:
        phases.setdefault(name, PhaseStat()).add(dur)
    tracer = Tracer(tid="engine")
    tracer.absorb(
        {
            "tid": "t",
            "events": [("span", name, ts, dur, 0) for name, ts, dur in spans],
            "counters": dict(counters or {}),
            "phases": phases,
        }
    )
    return tracer


# -- phase aggregation -------------------------------------------------------


def test_phase_stats_aggregate_count_total_mean_max():
    spans = [
        ("restore", 0.0, 0.010),
        ("restore", 0.1, 0.030),
        ("post-fault", 0.2, 0.500),
    ]
    report = TelemetryReport.from_tracer(_tracer(spans), wall_seconds=1.0)
    restore = report.phases["restore"]
    assert restore.count == 2
    assert restore.total_seconds == 0.04
    assert restore.mean_seconds == 0.02
    assert restore.max_seconds == 0.03
    assert report.phases["post-fault"].count == 1


def test_non_span_records_counted_but_not_phased():
    tracer = Tracer(timeline=True)
    tracer.instant("flip")
    tracer.gauge("queue-depth", 1.0)
    report = TelemetryReport.from_tracer(tracer)
    assert report.phases == {} and report.counters == {}
    assert len(tracer.events) == 2


def test_from_tracer_carries_counters_and_leaves_events():
    tracer = Tracer(timeline=True)
    tracer.instant("a")
    with tracer.span("restore"):
        pass
    tracer.count("outcome:masked", 2)
    report = TelemetryReport.from_tracer(tracer, wall_seconds=0.5)
    assert report.counters == {"outcome:masked": 2}
    assert report.phases["restore"].count == 1
    assert report.wall_seconds == 0.5
    # The report reads the totals only: the events stay for the writer,
    # and later accounting does not move the snapshot.
    assert [event[1] for event in tracer.events] == ["a", "restore"]
    tracer.count("outcome:masked")
    with tracer.span("restore"):
        pass
    assert report.counters == {"outcome:masked": 2}
    assert report.phases["restore"].count == 1


def test_empty_phase_stat_mean_is_zero():
    assert PhaseStat().mean_seconds == 0.0


# -- the deterministic signature ---------------------------------------------


def test_signature_keeps_injection_phases_and_counters_only():
    spans = [
        ("restore", 0.0, 0.01),
        ("shard", 0.0, 1.0),  # engine-level: geometry-dependent
        ("journal-append", 0.5, 0.002),
    ]
    report = TelemetryReport.from_tracer(_tracer(spans, counters={"retry": 1}))
    signature = report.signature()
    assert signature == {
        "counters": {"retry": 1},
        "phase_counts": {"restore": 1},
    }
    assert "shard" not in signature["phase_counts"]


def test_signature_drops_ladder_geometry_counters():
    counters = {
        "restore": 9,
        "cold-start": 3,
        "fast-forward-instr": 40_000,
        "converged": 4,
        "converged-lagged": 2,
        "converged-skipped-instr": 51_000,
        "memo-hit": 7,
        "outcome:benign": 12,
    }
    report = TelemetryReport.from_tracer(_tracer(counters=counters))
    assert set(LADDER_COUNTERS | MEMO_COUNTERS) < set(counters)
    assert report.signature()["counters"] == {"outcome:benign": 12}
    assert report.counters == counters  # still reported, just not signed


def test_signature_independent_of_durations():
    fast = TelemetryReport.from_tracer(_tracer([("repair", 0.0, 0.001)]))
    slow = TelemetryReport.from_tracer(_tracer([("repair", 9.0, 5.000)]))
    assert fast.signature() == slow.signature()


def test_injection_phases_cover_the_paper_loop():
    assert {
        "restore",
        "advance-to-site",
        "post-fault",
        "repair",
        "acceptance-check",
    } <= INJECTION_PHASES


# -- accessors ---------------------------------------------------------------


def test_outcome_and_heuristic_accessors_strip_prefixes():
    report = TelemetryReport(
        counters={
            "outcome:masked": 5,
            "outcome:sdc": 1,
            "heuristic:H1": 3,
            "retry": 2,
        }
    )
    assert report.outcome_counts() == {"masked": 5, "sdc": 1}
    assert report.heuristic_counts() == {"H1": 3}


def test_phase_seconds_totals():
    report = TelemetryReport.from_tracer(
        _tracer([("restore", 0.0, 0.25), ("restore", 1.0, 0.25)])
    )
    assert report.phase_seconds() == {"restore": 0.5}


# -- rendering ---------------------------------------------------------------


def test_render_mentions_phases_counters_and_wall():
    report = TelemetryReport.from_tracer(
        _tracer([("post-fault", 0.0, 0.6)], counters={"outcome:masked": 7}),
        wall_seconds=1.2,
    )
    text = report.render(title="telemetry: demo")
    assert "telemetry: demo" in text
    assert "post-fault" in text
    assert "outcome:masked" in text
    assert "50.0%" in text  # 0.6s of 1.2s wall
    assert "1.20s wall-clock" in text
