"""Trace export: JSON-lines files and the Chrome ``trace_event`` view.

Two consumers, two formats:

* **JSONL** -- one JSON object per line, header first.  The header
  carries the exact totals (counters and per-phase count / total / max
  seconds), the lines after it the bounded timeline.  Trivially
  greppable/streamable, and :func:`read_jsonl` round-trips it back (the
  CI smoke job checks the phase counts from the file alone).
* **Chrome trace** -- the ``trace_event`` JSON schema understood by
  ``chrome://tracing`` / Perfetto: spans become complete (``"X"``)
  events, instants ``"i"``, gauges counter (``"C"``) events, with
  per-stream ``thread_name`` metadata so shards appear as labelled
  tracks.  Timestamps are microseconds on the merged campaign timeline.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

#: Schema version written into every exported trace header.
TRACE_FORMAT = 1


# -- JSON lines --------------------------------------------------------------


def write_jsonl(
    path: str | Path,
    records: list[dict],
    counters: dict[str, int] | None = None,
    phases: dict | None = None,
    meta: dict | None = None,
) -> Path:
    """Write a trace as JSON lines: one ``meta`` header, then the events.

    *phases* maps span names to :class:`~repro.telemetry.PhaseStat`; the
    header stores each as ``{"count", "total_seconds", "max_seconds"}``.
    """
    path = Path(path)
    header = {
        "kind": "meta",
        "format": TRACE_FORMAT,
        "counters": dict(counters or {}),
        "phases": {name: asdict(stat) for name, stat in (phases or {}).items()},
        **(meta or {}),
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(record, sort_keys=True) for record in records)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def read_jsonl(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a JSONL trace back as ``(meta, records)``.

    Raises ``ValueError`` on a missing/foreign header so consumers fail
    loudly on a file that merely looks like a trace.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"empty trace file {path}")
    meta = json.loads(lines[0])
    if not isinstance(meta, dict) or meta.get("kind") != "meta":
        raise ValueError(f"{path} does not start with a trace meta header")
    if meta.get("format") != TRACE_FORMAT:
        raise ValueError(
            f"unsupported trace format {meta.get('format')!r} in {path}"
        )
    return meta, [json.loads(line) for line in lines[1:] if line]


# -- Chrome trace_event ------------------------------------------------------


def chrome_trace(records: list[dict], process_name: str = "repro campaign") -> dict:
    """The ``trace_event`` document for *records* (canonical tracer output).

    Stream labels (``tid`` strings) are mapped to small integers with
    ``thread_name`` metadata events, which is what the Chrome viewer
    expects; the mapping is assigned in first-appearance order of the
    (timestamp-sorted) records, so it is stable for a given trace.
    """
    tids: dict[str, int] = {}
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]

    def tid_of(label: str) -> int:
        tid = tids.get(label)
        if tid is None:
            tid = tids[label] = len(tids)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
        return tid

    for record in records:
        tid = tid_of(record["tid"])
        ts = round(record["ts"] * 1e6, 3)
        kind = record["kind"]
        if kind == "span":
            events.append(
                {
                    "name": record["name"],
                    "cat": "campaign",
                    "ph": "X",
                    "ts": ts,
                    "dur": round(record["dur"] * 1e6, 3),
                    "pid": 0,
                    "tid": tid,
                }
            )
        elif kind == "instant":
            events.append(
                {
                    "name": record["name"],
                    "cat": "campaign",
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": 0,
                    "tid": tid,
                    "args": record.get("args") or {},
                }
            )
        elif kind == "gauge":
            events.append(
                {
                    "name": record["name"],
                    "cat": "campaign",
                    "ph": "C",
                    "ts": ts,
                    "pid": 0,
                    "tid": tid,
                    "args": {record["name"]: record["value"]},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str | Path, records: list[dict], process_name: str = "repro campaign"
) -> Path:
    """Write the Chrome ``trace_event`` JSON for *records* to *path*."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(records, process_name)) + "\n")
    return path


__all__ = [
    "write_jsonl",
    "read_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "TRACE_FORMAT",
]
