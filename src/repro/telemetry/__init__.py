"""Structured campaign telemetry: tracing, metrics, and trace export.

The paper's evaluation is an exercise in measuring what happens inside
thousands of injection runs; this package gives the reproduction the same
fine-grained accounting for itself.  A :class:`Tracer` keeps exact
totals -- counters (outcome / heuristic / signal tallies) and streaming
per-phase :class:`PhaseStat` timings -- and, only when a trace file will
be written, a timeline of typed spans, instants and gauges with
monotonic timestamps; a :class:`TelemetryReport` snapshots a merged
tracer's totals; a :class:`~repro.telemetry.export.TraceWriter` streams
the timeline to a JSON-lines trace (totals on its last line) and a
Chrome ``trace_event`` array as the campaign commits.

Design contract (see docs/ARCHITECTURE.md, "Observability"):

* **One accounting source.**  The campaign engine always accounts through
  a tracer and snapshots it into a :class:`TelemetryReport` on every
  run; its ``EngineStats`` reads its counts and wall-clock off that
  report.  The ``telemetry`` knob only prints the breakdown, and a trace
  file only turns the timeline on.  Code that is not traced
  passes :data:`NULL_TRACER`, whose methods are allocation-free no-ops;
  the CPU hot loops are never touched.
* **Picklable flushes.**  Worker processes drain their tracer per shard
  through :meth:`Tracer.export` (plain dicts, lists, tuples and
  :class:`PhaseStat` values); the parent merges the totals with
  :meth:`Tracer.absorb` and hands the events to the trace writer.
* **Deterministic aggregation.**  Counter sums (less the ladder-geometry
  counters) and injection-phase counts depend only on the campaign's
  plans, never on sharding, ladder interval or wall-clock, so the same
  seed yields the same :meth:`TelemetryReport.signature` whether a
  campaign ran on 1 worker or 8, with or without a snapshot ladder.
"""

from repro.telemetry.export import TraceWriter, read_jsonl
from repro.telemetry.report import (
    INJECTION_PHASES,
    LADDER_COUNTERS,
    MEMO_COUNTERS,
    TelemetryReport,
)
from repro.telemetry.tracer import (
    NULL_TRACER,
    NullTracer,
    PhaseStat,
    Tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TelemetryReport",
    "PhaseStat",
    "INJECTION_PHASES",
    "LADDER_COUNTERS",
    "MEMO_COUNTERS",
    "TraceWriter",
    "read_jsonl",
]
