"""TelemetryReport: aggregation, the deterministic signature, rendering."""

from __future__ import annotations

from repro.telemetry import (
    INJECTION_PHASES,
    LADDER_COUNTERS,
    MEMO_COUNTERS,
    PhaseStat,
    TelemetryReport,
    Tracer,
)


def _span(name, ts, dur, tid="t"):
    return {"kind": "span", "name": name, "ts": ts, "dur": dur, "depth": 0, "tid": tid}


# -- phase aggregation -------------------------------------------------------


def test_phase_stats_aggregate_count_total_mean_max():
    records = [
        _span("restore", 0.0, 0.010),
        _span("restore", 0.1, 0.030),
        _span("post-fault", 0.2, 0.500),
    ]
    report = TelemetryReport.from_records(records, wall_seconds=1.0)
    restore = report.phases["restore"]
    assert restore.count == 2
    assert restore.total_seconds == 0.04
    assert restore.mean_seconds == 0.02
    assert restore.max_seconds == 0.03
    assert report.phases["post-fault"].count == 1
    assert report.events == 3


def test_non_span_records_counted_but_not_phased():
    records = [
        {"kind": "instant", "name": "flip", "ts": 0.0, "args": None, "tid": "t"},
        {"kind": "gauge", "name": "queue-depth", "ts": 0.0, "value": 1.0, "tid": "t"},
    ]
    report = TelemetryReport.from_records(records)
    assert report.phases == {}
    assert report.events == 2


def test_from_tracer_carries_counters_and_dropped():
    tracer = Tracer(capacity=1)
    tracer.instant("a")
    tracer.instant("b")  # evicts "a"
    tracer.count("outcome:masked", 2)
    report = TelemetryReport.from_tracer(tracer, wall_seconds=0.5)
    assert report.counters == {"outcome:masked": 2}
    assert report.dropped == 1
    assert report.wall_seconds == 0.5


def test_empty_phase_stat_mean_is_zero():
    assert PhaseStat().mean_seconds == 0.0


# -- the deterministic signature ---------------------------------------------


def test_signature_keeps_injection_phases_and_counters_only():
    records = [
        _span("restore", 0.0, 0.01),
        _span("shard", 0.0, 1.0),  # engine-level: geometry-dependent
        _span("journal-append", 0.5, 0.002),
    ]
    report = TelemetryReport.from_records(records, counters={"retry": 1})
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
        "converged": 4,
        "converged-lagged": 2,
        "converged-skipped-instr": 51_000,
        "memo-hit": 7,
        "outcome:benign": 12,
    }
    report = TelemetryReport.from_records([], counters=counters)
    assert set(LADDER_COUNTERS | MEMO_COUNTERS) < set(counters)
    assert report.signature()["counters"] == {"outcome:benign": 12}
    assert report.counters == counters  # still reported, just not signed


def test_signature_independent_of_durations():
    fast = TelemetryReport.from_records([_span("repair", 0.0, 0.001)])
    slow = TelemetryReport.from_records([_span("repair", 9.0, 5.000)])
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
    report = TelemetryReport.from_records(
        [_span("restore", 0.0, 0.25), _span("restore", 1.0, 0.25)]
    )
    assert report.phase_seconds() == {"restore": 0.5}


# -- rendering ---------------------------------------------------------------


def test_render_mentions_phases_counters_and_wall():
    report = TelemetryReport.from_records(
        [_span("post-fault", 0.0, 0.6)],
        counters={"outcome:masked": 7},
        wall_seconds=1.2,
    )
    text = report.render(title="telemetry: demo")
    assert "telemetry: demo" in text
    assert "post-fault" in text
    assert "outcome:masked" in text
    assert "50.0%" in text  # 0.6s of 1.2s wall
    assert "1.20s wall-clock" in text


def test_render_notes_ring_buffer_drops():
    report = TelemetryReport.from_records([], dropped=4)
    assert "4 dropped" in report.render()
