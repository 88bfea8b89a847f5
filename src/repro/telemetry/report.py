"""Aggregated telemetry: where a campaign's wall-clock actually went.

A :class:`TelemetryReport` snapshots a merged tracer's exact totals --
per-phase statistics (count / total / mean / max seconds) and the counter
tallies -- and renders them as the end-of-campaign breakdown table the
CLI prints.  Neither comes from the timeline, so a report is the same
whether or not a trace file was written.

Determinism contract
--------------------
Phase *durations* are wall-clock and vary run to run; phase *counts* for
the per-injection phases and all counters are pure functions of the
campaign's plan population.  :meth:`TelemetryReport.signature` projects
out exactly that deterministic core, which is what the engine's
cross-process merge test pins: the same seed must produce an identical
signature at ``jobs=1`` and ``jobs=4``.  Engine-level phases (one
``shard`` span per shard, journal appends) are excluded because the shard
*count* legitimately depends on the fan-out geometry; so are the
counters of the snapshot-ladder geometry (:data:`LADDER_COUNTERS`), so
the signature is also the same at every ``ladder_interval``, and the
trap-free memo's hit tally (:data:`MEMO_COUNTERS`), so it is the same
whether a run was served from the memo or executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.reporting.tables import ascii_table
from repro.telemetry.tracer import PhaseStat

#: Span names whose counts are per-injection, i.e. independent of
#: sharding and worker geometry.  These (plus all counters) form the
#: deterministic signature.
INJECTION_PHASES = frozenset(
    {
        "restore",
        "advance-to-site",
        "post-fault",
        "repair",
        "acceptance-check",
    }
)


#: Counters that depend on the snapshot-ladder geometry: how each run was
#: positioned (rung restore vs cold start, and the golden-prefix
#: instructions replayed from there) and whether its post-fault run
#: stopped at a rung in the golden state (``converged-lagged``: after at
#: least one LetGo repair).  Exact, but excluded from the
#: deterministic signature.
LADDER_COUNTERS = frozenset(
    {
        "restore",
        "cold-start",
        "fast-forward-instr",
        "converged",
        "converged-lagged",
        "converged-skipped-instr",
    }
)

#: Counters of the trap-free memo: how many runs it served.  They depend
#: on what ran earlier in the process (and, with a pool, in which
#: worker), so they are excluded from the deterministic signature.
MEMO_COUNTERS = frozenset({"memo-hit"})


@dataclass
class TelemetryReport:
    """One campaign's aggregated telemetry."""

    phases: dict[str, PhaseStat] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_tracer(cls, tracer, wall_seconds: float = 0.0) -> "TelemetryReport":
        """Snapshot a (merged) tracer's exact totals; its events stay put."""
        return cls(
            phases={name: replace(stat) for name, stat in tracer.phases.items()},
            counters=dict(tracer.counters),
            wall_seconds=wall_seconds,
        )

    # -- deterministic projection ------------------------------------------

    def signature(self) -> dict:
        """The sharding-independent core of this report.

        Counters (less :data:`LADDER_COUNTERS` and :data:`MEMO_COUNTERS`)
        plus per-injection phase counts: for a given (app, n, seed,
        config, plans) this dict is identical whatever ``jobs``,
        ``shard_size`` or ``ladder_interval`` the campaign ran with, and
        whatever the trap-free memo held.
        """
        return {
            "counters": {
                name: value
                for name, value in sorted(self.counters.items())
                if name not in LADDER_COUNTERS and name not in MEMO_COUNTERS
            },
            "phase_counts": {
                name: stat.count
                for name, stat in sorted(self.phases.items())
                if name in INJECTION_PHASES
            },
        }

    # -- accessors ---------------------------------------------------------

    def outcome_counts(self) -> dict[str, int]:
        """Per-outcome tallies recorded by the injector (``outcome:*``)."""
        return {
            name.split(":", 1)[1]: value
            for name, value in sorted(self.counters.items())
            if name.startswith("outcome:")
        }

    def heuristic_counts(self) -> dict[str, int]:
        """Per-heuristic firing tallies (``heuristic:*``)."""
        return {
            name.split(":", 1)[1]: value
            for name, value in sorted(self.counters.items())
            if name.startswith("heuristic:")
        }

    def phase_seconds(self) -> dict[str, float]:
        """Total seconds per phase name."""
        return {name: stat.total_seconds for name, stat in self.phases.items()}

    # -- rendering ---------------------------------------------------------

    def render(self, title: str | None = None) -> str:
        """The end-of-campaign breakdown: phases table + counter table."""
        wall = self.wall_seconds
        phase_rows = [
            [
                name,
                stat.count,
                f"{stat.total_seconds:.3f}",
                f"{stat.mean_seconds * 1e3:.2f}",
                f"{stat.max_seconds * 1e3:.2f}",
                f"{100.0 * stat.total_seconds / wall:.1f}%" if wall > 0 else "-",
            ]
            for name, stat in sorted(
                self.phases.items(), key=lambda kv: -kv[1].total_seconds
            )
        ]
        parts = [
            ascii_table(
                ["phase", "count", "total s", "mean ms", "max ms", "of wall"],
                phase_rows,
                title=title or "phase breakdown",
            )
        ]
        counter_rows = [
            [name, value] for name, value in sorted(self.counters.items())
        ]
        if counter_rows:
            parts.append("")
            parts.append(ascii_table(["counter", "n"], counter_rows))
        if wall > 0:
            parts.append("")
            parts.append(f"{wall:.2f}s wall-clock")
        return "\n".join(parts)


__all__ = [
    "TelemetryReport",
    "INJECTION_PHASES",
    "LADDER_COUNTERS",
    "MEMO_COUNTERS",
]
