#!/usr/bin/env python
"""Trace smoke check: run a telemetry-enabled campaign, validate the trace.

Runs one seeded campaign with telemetry on, writing both trace formats,
then asserts the observability contract end to end from the *files*
alone:

* the JSONL trace parses and every record carries the canonical fields;
* the trace is complete: for every span name, the file's span lines
  equal the count on its ``totals`` line;
* the totals' per-injection phase counts match the campaign size, and
  their ``outcome:*`` counters sum to n and equal the CampaignResult
  tallies;
* within each worker stream, per-injection phase time sums to no more
  than that stream's span of the campaign wall-clock (spans nest, they
  never double-book a worker's time);
* the Chrome trace is a valid ``trace_event`` JSON array with labelled
  tracks.

Run from the repo root:

    PYTHONPATH=src python scripts/trace_smoke.py [trace-dir]

Leaves ``campaign.jsonl`` / ``campaign.trace.json`` in *trace-dir*
(default: ``traces/``) for the CI artifact upload.  Exits 0 on success,
1 with a diagnostic on any violation.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

from repro.apps import make_app
from repro.core import VARIANTS
from repro.faultinject import CampaignConfig, CampaignEngine
from repro.telemetry import INJECTION_PHASES, read_jsonl

N = 60
SEED = 20170626
APP = "pennant"
JOBS = 2


def fail(message: str) -> None:
    print(f"trace smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "traces")
    jsonl_path = out_dir / "campaign.jsonl"
    chrome_path = out_dir / "campaign.trace.json"

    app = make_app(APP)
    engine = CampaignEngine(
        config=CampaignConfig(
            jobs=JOBS, trace=str(jsonl_path), chrome_trace=str(chrome_path)
        )
    )
    result = engine.run(app, N, SEED, VARIANTS["LetGo-E"])

    # -- JSONL parses and is internally consistent ------------------------
    meta, records = read_jsonl(jsonl_path)
    if meta["n"] != N or meta["seed"] != SEED or meta["app"] != app.name:
        fail(f"trace meta {meta} does not describe the campaign")
    for record in records:
        if record["kind"] not in ("span", "instant", "gauge"):
            fail(f"unknown record kind {record['kind']!r}")
        if "ts" not in record or "tid" not in record or "name" not in record:
            fail(f"record missing canonical fields: {record}")

    # -- one span line per counted span ------------------------------------
    lines = Counter(r["name"] for r in records if r["kind"] == "span")
    counts = {name: stat["count"] for name, stat in meta["phases"].items()}
    if lines != counts:
        fail(f"span lines {dict(lines)} != totals counts {counts}")

    # -- counters equal the campaign's own tallies -------------------------
    outcomes = {
        name.split(":", 1)[1]: value
        for name, value in meta["counters"].items()
        if name.startswith("outcome:")
    }
    tallies = {outcome.value: count for outcome, count in result.counts.items()}
    if outcomes != tallies:
        fail(f"trace outcomes {outcomes} != campaign tallies {tallies}")
    if sum(outcomes.values()) != N:
        fail(f"outcome counters sum to {sum(outcomes.values())}, not {N}")

    # -- phase accounting --------------------------------------------------
    wall = engine.stats.elapsed_seconds
    for phase in ("restore", "advance-to-site", "post-fault"):
        count = meta["phases"].get(phase, {}).get("count", 0)
        if count != N:
            fail(f"phase {phase!r} counted {count} spans, expected {N}")

    per_stream = defaultdict(float)
    for record in records:
        if record["kind"] == "span" and record["name"] in INJECTION_PHASES:
            per_stream[record["tid"]] += record["dur"]
    for tid, seconds in sorted(per_stream.items()):
        if seconds > wall * 1.01:  # 1% timer-resolution slack
            fail(
                f"stream {tid} accounts {seconds:.3f}s of injection phases "
                f"in a {wall:.3f}s campaign"
            )
    total_phase = sum(per_stream.values())
    if total_phase > JOBS * wall * 1.01:
        fail(f"phase total {total_phase:.3f}s exceeds {JOBS}x{wall:.3f}s wall")

    # -- Chrome trace ------------------------------------------------------
    events = json.loads(chrome_path.read_text())
    if not isinstance(events, list) or not events:
        fail("chrome trace is not a non-empty trace_event array")
    tracks = {
        e["args"]["name"] for e in events if e.get("name") == "thread_name"
    }
    if "engine" not in tracks or not any(t.startswith("shard-") for t in tracks):
        fail(f"chrome trace tracks {tracks} lack engine/shard labels")
    if any(e["ph"] == "X" and e["dur"] < 0 for e in events):
        fail("negative span duration in chrome trace")

    print(
        f"trace smoke ok: n={N} jobs={JOBS} wall={wall:.2f}s "
        f"events={len(records)} phase-seconds={total_phase:.2f} "
        f"outcomes={outcomes}"
    )
    print(f"traces left in {out_dir}/ for artifact upload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
