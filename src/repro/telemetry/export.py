"""Trace export: a streaming writer for JSON-lines and Chrome trace files.

A campaign's events never wait in memory for the end of the run: the
engine hands each committed shard's events (and its own) to one
:class:`TraceWriter`, which appends them to the files at once.  Two
consumers, two formats:

* **JSONL** (:data:`TRACE_FORMAT` 2) -- one JSON object per line: a
  ``meta`` header (app, config, n, seed, jobs), then one line per event,
  then a final ``totals`` line with the exact counters, per-phase count /
  total / max seconds and ``wall_seconds``.  The totals line is written
  only when the campaign finishes, so a file without one is a run that
  was cut off; :func:`read_jsonl` refuses it.
* **Chrome trace** -- the ``trace_event`` JSON Array format understood by
  ``chrome://tracing`` / Perfetto: ``[``, the events, then ``]``.  Spans
  become complete (``"X"``) events, instants ``"i"``, gauges counter
  (``"C"``) events, and each stream gets ``thread_name`` metadata the
  first time it appears, so shards show as labelled tracks.  Timestamps
  are microseconds on the campaign timeline.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

#: Schema version written into every JSONL trace header.
TRACE_FORMAT = 2


class TraceWriter:
    """Streams tracer payloads to a JSONL trace and/or a Chrome trace.

    *jsonl* and *chrome* are file paths (either may be None).  Each
    :meth:`write` appends one stream's events and flushes, so the files
    grow as the campaign commits; :meth:`close` ends both files.
    """

    def __init__(
        self,
        jsonl: str | Path | None = None,
        chrome: str | Path | None = None,
        meta: dict | None = None,
        process_name: str = "repro campaign",
    ):
        self._jsonl = _open(jsonl)
        self._chrome = _open(chrome)
        self._tids: dict[str, int] = {}
        if self._jsonl is not None:
            header = {"kind": "meta", "format": TRACE_FORMAT, **(meta or {})}
            self._jsonl.write(json.dumps(header, sort_keys=True) + "\n")
        if self._chrome is not None:
            self._chrome.write("[\n" + json.dumps(
                {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
                 "args": {"name": process_name}}
            ))

    def write(self, payload: dict, offset: float = 0.0) -> None:
        """Append *payload*'s events (:meth:`Tracer.export`), their
        timestamps shifted by *offset* seconds onto the campaign timeline."""
        label = payload["tid"]
        jsonl, chrome = self._jsonl, self._chrome
        for kind, name, ts, x, *rest in payload["events"]:
            ts += offset
            if jsonl is not None:
                record = {"kind": kind, "name": name, "ts": ts, "tid": label}
                if kind == "span":
                    record["dur"], record["depth"] = x, rest[0]
                else:
                    record["args" if kind == "instant" else "value"] = x
                jsonl.write(json.dumps(record, sort_keys=True) + "\n")
            if chrome is not None:
                event = {"name": name, "cat": "campaign", "ts": round(ts * 1e6, 3),
                         "pid": 0, "tid": self._chrome_tid(label)}
                if kind == "span":
                    event["ph"], event["dur"] = "X", round(x * 1e6, 3)
                elif kind == "instant":
                    event["ph"], event["s"], event["args"] = "i", "t", x or {}
                else:
                    event["ph"], event["args"] = "C", {name: x}
                chrome.write(",\n" + json.dumps(event))
        for handle in (jsonl, chrome):
            if handle is not None:
                handle.flush()

    def _chrome_tid(self, label: str) -> int:
        """The Chrome track of stream *label*, named on first appearance."""
        tid = self._tids.get(label)
        if tid is None:
            tid = self._tids[label] = len(self._tids)
            self._chrome.write(",\n" + json.dumps(
                {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                 "args": {"name": label}}
            ))
        return tid

    def close(self, payload: dict | None = None, wall_seconds: float = 0.0) -> None:
        """End both files.  A campaign that finished passes its tracer's
        final :meth:`Tracer.export`: its last events are written, and its
        counters and phases, with *wall_seconds*, become the JSONL
        ``totals`` line.  Without one the file has no totals line, as a
        run cut off should.  Safe to call twice."""
        if payload is not None:
            self.write(payload)
        jsonl, chrome = self._jsonl, self._chrome
        self._jsonl = self._chrome = None
        if jsonl is not None:
            if payload is not None:
                totals = {
                    "kind": "totals",
                    "counters": payload["counters"],
                    "phases": {
                        name: asdict(stat)
                        for name, stat in payload["phases"].items()
                    },
                    "wall_seconds": wall_seconds,
                }
                jsonl.write(json.dumps(totals, sort_keys=True) + "\n")
            jsonl.close()
        if chrome is not None:
            chrome.write("\n]\n")
            chrome.close()


def _open(path: str | Path | None):
    if path is None:
        return None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w")


def read_jsonl(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a finished JSONL trace back as ``(meta, records)``.

    The ``totals`` line is folded into *meta* (``counters``, ``phases``,
    ``wall_seconds``).  Records come in (tid, ts) order, so a campaign's
    trace does not depend on the order its shards completed.  Raises
    ``ValueError`` naming *path* on a foreign header, another format, or a
    missing ``totals`` line (a campaign cut off mid-run).
    """
    lines = [line for line in Path(path).read_text().splitlines() if line]
    if not lines:
        raise ValueError(f"empty trace file {path}")
    meta = json.loads(lines[0])
    if not isinstance(meta, dict) or meta.get("kind") != "meta":
        raise ValueError(f"{path} does not start with a trace meta header")
    if meta.get("format") != TRACE_FORMAT:
        raise ValueError(
            f"unsupported trace format {meta.get('format')!r} in {path}"
        )
    totals = json.loads(lines[-1]) if len(lines) > 1 else {}
    if totals.get("kind") != "totals":
        raise ValueError(f"{path} has no totals line: the campaign did not finish")
    del totals["kind"]
    meta.update(totals)
    records = [json.loads(line) for line in lines[1:-1]]
    records.sort(key=lambda record: (record["tid"], record["ts"]))
    return meta, records


__all__ = ["TraceWriter", "read_jsonl", "TRACE_FORMAT"]
