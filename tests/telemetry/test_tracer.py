"""Tracer unit tests: no-op contract, spans, counters, ring, merge, totals."""

from __future__ import annotations

import pickle

from repro.telemetry import NULL_TRACER, PhaseStat, Tracer


# -- disabled tracer ---------------------------------------------------------


def test_null_tracer_is_disabled_and_inert():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.probe_interval == 0
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
    tracer = Tracer(tid="t")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    records = tracer.records()
    # records() sorts by start timestamp, so the enclosing span leads.
    assert [r["name"] for r in records] == ["outer", "inner"]
    outer, inner = records
    assert inner["depth"] == 1 and outer["depth"] == 0
    assert 0 <= inner["dur"] <= outer["dur"]
    assert all(r["kind"] == "span" and r["tid"] == "t" for r in records)


def test_span_records_on_exception():
    tracer = Tracer()
    try:
        with tracer.span("failing"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    (record,) = tracer.records()
    assert record["name"] == "failing"


# -- counters ----------------------------------------------------------------


def test_counters_accumulate():
    tracer = Tracer()
    tracer.count("hits")
    tracer.count("hits", 4)
    tracer.count("misses")
    assert tracer.counters == {"hits": 5, "misses": 1}


# -- ring buffer -------------------------------------------------------------


def test_ring_buffer_drops_oldest_but_never_counters():
    tracer = Tracer(capacity=3)
    for i in range(5):
        tracer.instant(f"e{i}")
        tracer.count("events")
    assert [r["name"] for r in tracer.records()] == ["e2", "e3", "e4"]
    assert tracer.dropped == 2
    assert tracer.counters == {"events": 5}


# -- merge protocol ----------------------------------------------------------


def test_export_is_picklable_and_absorb_shifts_timestamps():
    leaf = Tracer(tid="shard-0")
    with leaf.span("work"):
        pass
    leaf.count("done", 2)
    payload = pickle.loads(pickle.dumps(leaf.export()))

    parent = Tracer(tid="engine")
    parent.count("done", 1)
    parent.absorb(payload, offset=10.0)
    (record,) = parent.records()
    assert record["tid"] == "shard-0"
    assert record["ts"] >= 10.0
    assert parent.counters == {"done": 3}


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


def test_records_sorted_across_streams():
    parent = Tracer(tid="engine")
    parent.instant("late")
    leaf = Tracer(tid="shard-1")
    leaf.instant("early")
    parent.absorb(leaf.export(), offset=-1.0)
    names = [r["name"] for r in parent.records()]
    assert names == ["early", "late"]


# -- exact totals ------------------------------------------------------------


def test_spans_feed_streaming_phase_totals():
    tracer = Tracer(capacity=1)
    for _ in range(3):
        with tracer.span("restore"):
            pass
    stat = tracer.phases["restore"]
    assert stat.count == 3  # exact, though the ring kept one record
    assert 0 <= stat.max_seconds <= stat.total_seconds
    assert len(tracer.records()) == 1 and tracer.dropped == 2


def test_capacity_zero_keeps_totals_but_no_timeline():
    tracer = Tracer(capacity=0)
    with tracer.span("post-fault"):
        tracer.instant("flip", pc=4)
        tracer.gauge("queue-depth", 2)
    tracer.count("outcome:masked")
    assert tracer.records() == []
    assert tracer.dropped == 0  # nothing was built, so nothing dropped
    assert tracer.phases["post-fault"].count == 1
    assert tracer.counters == {"outcome:masked": 1}


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


def test_absorbed_records_respect_the_ring_bound():
    parent = Tracer(capacity=4, tid="engine")
    parent.instant("own")
    for shard in range(3):
        leaf = Tracer(tid=f"shard-{shard}")
        for i in range(3):
            leaf.instant(f"e{i}")
        parent.absorb(leaf.export())
    assert len(parent.records()) == 4
    assert parent.dropped == 10 - 4
