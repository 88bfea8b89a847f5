"""Structured campaign telemetry: tracing, metrics, and trace export.

The paper's evaluation is an exercise in measuring what happens inside
thousands of injection runs; this package gives the reproduction the same
fine-grained accounting for itself.  A :class:`Tracer` keeps exact
totals -- counters (outcome / heuristic / signal tallies) and streaming
per-phase :class:`PhaseStat` timings -- plus a bounded timeline ring of
typed spans, instants and gauges with monotonic timestamps; a
:class:`TelemetryReport` snapshots a merged tracer's totals;
:mod:`repro.telemetry.export` renders the timeline as a JSON-lines trace
file (totals in its header) or a Chrome ``trace_event`` view.

Design contract (see docs/ARCHITECTURE.md, "Observability"):

* **One accounting source.**  The campaign engine always accounts through
  a tracer, and derives both its ``EngineStats`` and the report from it;
  telemetry only turns the timeline on.  Code that is not traced passes
  :data:`NULL_TRACER`, whose methods are allocation-free no-ops; the CPU
  hot loops are never touched.
* **Picklable flushes.**  Worker processes drain their tracer per shard
  through :meth:`Tracer.export` (plain dicts, lists and
  :class:`PhaseStat` values), and the parent
  merges the payloads with :meth:`Tracer.absorb`.
* **Deterministic aggregation.**  Counter sums (less the ladder-geometry
  counters) and injection-phase counts depend only on the campaign's
  plans, never on sharding, ladder interval, ring size or wall-clock, so
  the same seed yields the same :meth:`TelemetryReport.signature`
  whether a campaign ran on 1 worker or 8, with or without a snapshot
  ladder.
"""

from repro.telemetry.export import (
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.report import (
    INJECTION_PHASES,
    LADDER_COUNTERS,
    MEMO_COUNTERS,
    TelemetryReport,
)
from repro.telemetry.tracer import (
    DEFAULT_CAPACITY,
    NULL_TRACER,
    NullTracer,
    PhaseStat,
    Tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "DEFAULT_CAPACITY",
    "TelemetryReport",
    "PhaseStat",
    "INJECTION_PHASES",
    "LADDER_COUNTERS",
    "MEMO_COUNTERS",
    "write_jsonl",
    "read_jsonl",
    "chrome_trace",
    "write_chrome_trace",
]
