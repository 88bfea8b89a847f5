"""Trace export: the streaming writer, the JSONL round-trip and the Chrome
``trace_event`` array."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import Tracer, TraceWriter, read_jsonl
from repro.telemetry.export import TRACE_FORMAT


def _sample_tracer() -> Tracer:
    tracer = Tracer(tid="engine", timeline=True)
    with tracer.span("execute"):
        tracer.instant("flip", pc=64, reg="r3")
        tracer.gauge("queue-depth", 4)
    tracer.count("outcome:masked", 3)
    return tracer


def _chrome_events(tracer: Tracer, path, process_name="repro campaign"):
    writer = TraceWriter(chrome=path, process_name=process_name)
    writer.close(tracer.export())
    return json.loads(path.read_text())


# -- JSON lines --------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    tracer = _sample_tracer()
    path = tmp_path / "trace.jsonl"
    writer = TraceWriter(path, meta={"app": "x"})
    writer.close(tracer.export(), wall_seconds=1.5)
    meta, records = read_jsonl(path)
    assert meta["format"] == TRACE_FORMAT == 2
    assert meta["app"] == "x"
    # The totals line is folded into the meta.
    assert meta["counters"] == {"outcome:masked": 3}
    assert meta["phases"]["execute"]["count"] == 1
    assert set(meta["phases"]["execute"]) == {
        "count", "total_seconds", "max_seconds"
    }
    assert meta["wall_seconds"] == 1.5
    # In timestamp order: a span is stamped with its start.
    assert [(r["kind"], r["name"]) for r in records] == [
        ("span", "execute"),
        ("instant", "flip"),
        ("gauge", "queue-depth"),
    ]
    span, flip, depth = records
    assert flip["args"] == {"pc": 64, "reg": "r3"} and depth["value"] == 4.0
    assert span["depth"] == 0 and span["dur"] >= 0
    assert all(r["tid"] == "engine" for r in records)


def test_jsonl_header_is_first_line_and_one_object_per_line(tmp_path):
    tracer = _sample_tracer()
    path = tmp_path / "t.jsonl"
    TraceWriter(path).close(tracer.export())
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "meta"
    assert json.loads(lines[-1])["kind"] == "totals"
    # Every line parses alone: the file is greppable/streamable.
    assert all(isinstance(json.loads(line), dict) for line in lines)
    assert len(lines) == 1 + 3 + 1


def test_writer_streams_and_shifts_each_payload(tmp_path):
    path = tmp_path / "t.jsonl"
    writer = TraceWriter(path)
    leaf = Tracer(tid="shard-00000", timeline=True)
    leaf.instant("tick")
    writer.write(leaf.export(), offset=10.0)
    # On disk before the writer is closed.
    (line,) = path.read_text().splitlines()[1:]
    assert json.loads(line)["ts"] >= 10.0
    writer.close(Tracer(tid="engine").export())
    writer.close()  # closing twice is harmless
    assert read_jsonl(path)[0]["counters"] == {}


def test_read_jsonl_rejects_foreign_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_jsonl(empty)

    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text('{"kind": "span"}\n')
    with pytest.raises(ValueError, match="meta header"):
        read_jsonl(headerless)

    futuristic = tmp_path / "future.jsonl"
    futuristic.write_text('{"kind": "meta", "format": 999}\n')
    with pytest.raises(ValueError, match="format"):
        read_jsonl(futuristic)


def test_read_jsonl_rejects_a_trace_cut_off_mid_run(tmp_path):
    path = tmp_path / "cut.jsonl"
    writer = TraceWriter(path, meta={"app": "x"})
    writer.write(_sample_tracer().export())
    writer.close()  # no final payload: the campaign did not finish
    with pytest.raises(ValueError, match=f"{path}.*no totals line"):
        read_jsonl(path)


def test_read_jsonl_rejects_format_1(tmp_path):
    # Format 1 kept the totals in the header and had no totals line.
    path = tmp_path / "old.jsonl"
    header = {"kind": "meta", "format": 1, "counters": {}, "phases": {}}
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(ValueError, match=f"format 1 in {path}"):
        read_jsonl(path)


# -- Chrome trace_event ------------------------------------------------------


def test_chrome_trace_schema(tmp_path):
    events = _chrome_events(_sample_tracer(), tmp_path / "c.json", "unit")

    meta = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in meta} == {"process_name", "thread_name"}
    assert meta[0]["args"]["name"] == "unit"

    (span,) = [e for e in events if e["ph"] == "X"]
    assert span["name"] == "execute"
    assert span["dur"] >= 0  # microseconds
    (instant,) = [e for e in events if e["ph"] == "i"]
    assert instant["name"] == "flip" and instant["args"] == {"pc": 64, "reg": "r3"}
    (counter,) = [e for e in events if e["ph"] == "C"]
    assert counter["args"] == {"queue-depth": 4.0}

    # All events share pid 0 and carry integer tids with a name mapping.
    tids = {e["args"]["name"]: e["tid"] for e in meta if e["name"] == "thread_name"}
    assert all(e["pid"] == 0 for e in events)
    assert span["tid"] == tids["engine"]


def test_chrome_trace_timestamps_are_microseconds(tmp_path):
    tracer = Tracer(tid="t", timeline=True)
    tracer.instant("tick")
    ts = tracer.events[0][2]
    events = _chrome_events(tracer, tmp_path / "c.json")
    (event,) = [e for e in events if e["ph"] == "i"]
    assert event["ts"] == pytest.approx(ts * 1e6, abs=0.01)


def test_chrome_trace_tid_mapping_is_stable_per_stream(tmp_path):
    path = tmp_path / "c.json"
    writer = TraceWriter(chrome=path)
    leaf = Tracer(tid="shard-00000", timeline=True)
    leaf.instant("b")
    writer.write(leaf.export())
    leaf.instant("c")
    writer.write(leaf.export())  # the same stream, flushed again
    parent = Tracer(tid="engine", timeline=True)
    parent.instant("a")
    writer.close(parent.export())
    events = json.loads(path.read_text())
    shard_tids = {
        e["tid"] for e in events if e["ph"] == "i" and e["name"] in ("b", "c")
    }
    assert len(shard_tids) == 1  # one track per stream label
    names = [e["args"]["name"] for e in events if e["name"] == "thread_name"]
    assert names == ["shard-00000", "engine"]  # each named once, when first seen


def test_write_chrome_trace_is_valid_json(tmp_path):
    path = tmp_path / "chrome.json"
    events = _chrome_events(_sample_tracer(), path)
    assert isinstance(events, list) and len(events) == 1 + 1 + 3
    assert path.read_text().startswith("[") and path.read_text().endswith("]\n")
    # A campaign cut off still leaves a closed, parseable array.
    cut = tmp_path / "cut.json"
    writer = TraceWriter(chrome=cut)
    writer.write(_sample_tracer().export())
    writer.close()
    assert len(json.loads(cut.read_text())) == 5
