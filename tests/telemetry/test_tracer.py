"""Tracer unit tests: no-op contract, spans, counters, timeline, merge, totals."""

from __future__ import annotations

import pickle

from repro.telemetry import NULL_TRACER, PhaseStat, Tracer, TraceWriter, read_jsonl


# -- disabled tracer ---------------------------------------------------------


def test_null_tracer_is_disabled_and_inert():
    assert NULL_TRACER.enabled is False
    with NULL_TRACER.span("anything"):
        pass
    NULL_TRACER.count("x")
    NULL_TRACER.instant("x", detail=1)
    NULL_TRACER.gauge("x", 3.0)
    assert NULL_TRACER.now() == 0.0


def test_null_tracer_span_is_shared_singleton():
    # The no-op span is reusable, so disabled instrumentation allocates
    # nothing per phase.
    assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


# -- spans -------------------------------------------------------------------


def test_span_records_name_duration_and_nesting():
    tracer = Tracer(tid="t", timeline=True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    # Spans are recorded as they close, so the enclosed span comes first.
    inner, outer = tracer.events
    assert [inner[:2], outer[:2]] == [("span", "inner"), ("span", "outer")]
    assert inner[4] == 1 and outer[4] == 0  # depth
    assert outer[2] <= inner[2]  # start timestamps
    assert 0 <= inner[3] <= outer[3]  # durations


def test_span_records_on_exception():
    tracer = Tracer(timeline=True)
    try:
        with tracer.span("failing"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    ((kind, name, *_),) = tracer.events
    assert (kind, name) == ("span", "failing")
    assert tracer.phases["failing"].count == 1


# -- counters ----------------------------------------------------------------


def test_counters_accumulate():
    tracer = Tracer()
    tracer.count("hits")
    tracer.count("hits", 4)
    tracer.count("misses")
    assert tracer.counters == {"hits": 5, "misses": 1}


# -- timeline ----------------------------------------------------------------


def test_no_timeline_keeps_totals_but_no_events():
    tracer = Tracer()
    with tracer.span("post-fault"):
        tracer.instant("flip", pc=4)
        tracer.gauge("queue-depth", 2)
    tracer.count("outcome:masked")
    assert tracer.events is None
    assert tracer.export()["events"] == []
    assert tracer.phases["post-fault"].count == 1
    assert tracer.counters == {"outcome:masked": 1}


def test_instants_and_gauges_are_compact_tuples():
    tracer = Tracer(timeline=True)
    tracer.instant("flip", pc=4, reg="r1")
    tracer.instant("tick")
    tracer.gauge("queue-depth", 2)
    (flip, tick, depth) = tracer.events
    assert flip[:2] == ("instant", "flip") and flip[3] == {"pc": 4, "reg": "r1"}
    assert tick[3] is None
    assert depth[:2] == ("gauge", "queue-depth") and depth[3] == 2.0


# -- merge protocol ----------------------------------------------------------


def test_export_is_picklable_and_hands_over_events():
    leaf = Tracer(tid="shard-0", timeline=True)
    with leaf.span("work"):
        pass
    leaf.count("done", 2)
    payload = pickle.loads(pickle.dumps(leaf.export()))
    assert payload["tid"] == "shard-0"
    assert [event[1] for event in payload["events"]] == ["work"]
    # Handed over, not copied: the leaf's timeline starts empty again,
    # while its totals stay.
    assert leaf.events == [] and leaf.phases["work"].count == 1
    assert leaf.export()["events"] == []

    parent = Tracer(tid="engine", timeline=True)
    parent.count("done", 1)
    parent.absorb(payload)
    assert parent.counters == {"done": 3}
    assert parent.events == []  # absorb merges totals only


def test_absorb_order_does_not_change_counters():
    payloads = []
    for name, n in (("a", 1), ("b", 2), ("c", 3)):
        leaf = Tracer(tid=name)
        leaf.count("runs", n)
        leaf.count(f"only-{name}")
        payloads.append(leaf.export())

    forward, backward = Tracer(), Tracer()
    for p in payloads:
        forward.absorb(p)
    for p in reversed(payloads):
        backward.absorb(p)
    assert forward.counters == backward.counters


def test_records_sorted_across_streams(tmp_path):
    # Streams land in commit order; the reader orders by (tid, ts), so a
    # trace does not depend on which shard finished first.
    leaves = []
    for tid in ("shard-00000", "shard-00004"):
        leaf = Tracer(tid=tid, timeline=True)
        leaf.instant("first")
        leaf.instant("second")
        leaves.append(leaf.export())
    parent = Tracer(tid="engine", timeline=True)
    parent.instant("own")
    writer = TraceWriter(tmp_path / "t.jsonl")
    writer.write(leaves[1], offset=1.0)
    writer.write(leaves[0], offset=2.0)
    writer.close(parent.export())
    _, records = read_jsonl(tmp_path / "t.jsonl")
    assert [(r["tid"], r["name"]) for r in records] == [
        ("engine", "own"),
        ("shard-00000", "first"),
        ("shard-00000", "second"),
        ("shard-00004", "first"),
        ("shard-00004", "second"),
    ]


# -- exact totals ------------------------------------------------------------


def test_spans_feed_streaming_phase_totals():
    tracer = Tracer()
    for _ in range(3):
        with tracer.span("restore"):
            pass
    stat = tracer.phases["restore"]
    assert stat.count == 3  # exact, with no timeline kept at all
    assert 0 <= stat.max_seconds <= stat.total_seconds


def test_absorb_merges_phases_by_sum_and_max():
    parent = Tracer(tid="engine")
    parent.phases["restore"] = PhaseStat(2, 0.5, 0.4)
    leaf = Tracer(tid="shard-0")
    leaf.phases["restore"] = PhaseStat(3, 0.25, 0.125)
    leaf.phases["repair"] = PhaseStat(1, 0.0625, 0.0625)
    payload = pickle.loads(pickle.dumps(leaf.export()))
    parent.absorb(payload)
    assert parent.phases == {
        "restore": PhaseStat(5, 0.75, 0.4),
        "repair": PhaseStat(1, 0.0625, 0.0625),
    }
    parent.absorb(payload)  # the payload is a copy: absorbing it again adds
    assert parent.phases["repair"] == PhaseStat(2, 0.125, 0.0625)
    assert leaf.phases["restore"] == PhaseStat(3, 0.25, 0.125)
