"""The tracer: exact running totals plus a ring-buffered event timeline.

A :class:`Tracer` is the one accounting source of an execution stream
(the campaign parent, or one worker shard).  Its **totals** are exact at
any size: ``counters`` (name -> int) and ``phases`` (name ->
:class:`PhaseStat`: count, total and max seconds), which every
:meth:`Tracer.span` updates on exit, exceptions included, so failed
shards still account their time.  Both merge by sum (and max), which is
order-independent: absorbing shards in any completion order reproduces
the serial campaign's totals exactly.

Its **timeline** is a ring buffer of ``capacity`` raw events, for the
trace files only: ``span`` (a named duration with nesting depth),
``instant`` (a point event with optional arguments: ``flip``, ``retry``,
``progress`` probes) and ``gauge`` (a sampled value: ``queue-depth``).
When the ring is full the oldest event is dropped and ``dropped``
incremented.  ``capacity=0`` keeps no timeline: :meth:`Tracer.instant`
and :meth:`Tracer.gauge` return before building a record.

Timestamps come from :func:`time.perf_counter` and are stored relative to
the tracer's birth; :meth:`export` produces a picklable payload and
:meth:`absorb` merges one into a parent tracer, shifting times by a
caller-supplied offset so worker streams land on the parent's timeline,
and through the parent's own ring, so its bound holds for the merged
stream.

Code that is not traced passes the module-level :data:`NULL_TRACER`
singleton: every method is a no-op and :meth:`NullTracer.span` returns
one shared, reusable null context manager.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from time import perf_counter

#: Default ring-buffer capacity (timeline events, not totals).
DEFAULT_CAPACITY = 100_000


@dataclass
class PhaseStat:
    """Aggregate of every span with one name."""

    count: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def merge(self, other: "PhaseStat") -> None:
        self.count += other.count
        self.total_seconds += other.total_seconds
        if other.max_seconds > self.max_seconds:
            self.max_seconds = other.max_seconds

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


class _NullSpan:
    """Shared no-op context manager returned by the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op."""

    __slots__ = ()

    enabled = False
    probe_interval = 0

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass

    def instant(self, name: str, **args) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def now(self) -> float:
        return 0.0


NULL_TRACER = NullTracer()


class _Span:
    """One open span; accounts itself on ``__exit__``."""

    __slots__ = ("tracer", "name", "t0")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.tracer._depth += 1
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        dur = perf_counter() - self.t0
        tracer = self.tracer
        tracer._depth -= 1
        stat = tracer.phases.get(self.name)
        if stat is None:
            stat = tracer.phases[self.name] = PhaseStat()
        stat.add(dur)
        if tracer.capacity:
            tracer._append(
                {
                    "kind": "span",
                    "name": self.name,
                    "ts": self.t0 - tracer._t0,
                    "dur": dur,
                    "depth": tracer._depth,
                    "tid": tracer.tid,
                }
            )
        return False


class Tracer:
    """Enabled recorder for one execution stream.

    ``tid`` labels the stream (``"engine"``, ``"shard-0042"``);
    ``capacity`` bounds the timeline ring (0: no timeline);
    ``probe_interval`` > 0 asks instrumented run loops to emit
    ``progress`` instants every that many retired instructions.
    """

    __slots__ = (
        "tid",
        "probe_interval",
        "capacity",
        "counters",
        "phases",
        "dropped",
        "_events",
        "_depth",
        "_t0",
    )

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        tid: str = "main",
        probe_interval: int = 0,
    ):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if probe_interval < 0:
            raise ValueError("probe_interval must be >= 0")
        self.tid = tid
        self.probe_interval = probe_interval
        self.capacity = capacity
        self.counters: dict[str, int] = {}
        self.phases: dict[str, PhaseStat] = {}
        self.dropped = 0
        self._events: deque[dict] = deque(maxlen=capacity)
        self._depth = 0
        self._t0 = perf_counter()

    # -- recording ---------------------------------------------------------

    def _append(self, record: dict) -> None:
        events = self._events
        if len(events) == self.capacity:
            self.dropped += 1  # deque(maxlen) evicts the oldest on append
        events.append(record)

    def span(self, name: str) -> _Span:
        """Open a timed span; use as ``with tracer.span("restore"):``."""
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter *name* by *n* (never ring-buffered)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def instant(self, name: str, **args) -> None:
        """Record a point event, with optional structured arguments."""
        if not self.capacity:
            return
        self._append(
            {
                "kind": "instant",
                "name": name,
                "ts": perf_counter() - self._t0,
                "args": args or None,
                "tid": self.tid,
            }
        )

    def gauge(self, name: str, value: float) -> None:
        """Sample a time-varying value (e.g. queue depth)."""
        if not self.capacity:
            return
        self._append(
            {
                "kind": "gauge",
                "name": name,
                "ts": perf_counter() - self._t0,
                "value": float(value),
                "tid": self.tid,
            }
        )

    def now(self) -> float:
        """Seconds since this tracer was created (its timeline origin)."""
        return perf_counter() - self._t0

    # -- merge protocol ----------------------------------------------------

    def export(self) -> dict:
        """Picklable payload of everything recorded so far.

        Timestamps are relative to this tracer's birth; the receiving
        :meth:`absorb` re-bases them onto its own timeline.
        """
        return {
            "tid": self.tid,
            "records": list(self._events),
            "counters": dict(self.counters),
            "phases": {name: replace(stat) for name, stat in self.phases.items()},
            "dropped": self.dropped,
        }

    def absorb(self, payload: dict, offset: float = 0.0) -> None:
        """Merge an exported payload from another tracer.

        Counters and phase totals merge by sum (phase maxima by max), so
        absorbing shards in any completion order yields identical totals.
        *offset* (seconds on this tracer's timeline) shifts the payload's
        events to where its stream actually ran -- the engine passes
        ``commit_time - shard_duration`` so worker spans line up with the
        parent's view in the Chrome trace.  The shifted events enter this
        tracer's ring, under its capacity.
        """
        for name, value in payload["counters"].items():
            self.count(name, value)
        for name, stat in payload["phases"].items():
            self.phases.setdefault(name, PhaseStat()).merge(stat)
        self.dropped += payload["dropped"]
        for record in payload["records"]:
            shifted = dict(record)
            shifted["ts"] = record["ts"] + offset
            self._append(shifted)

    def records(self) -> list[dict]:
        """The timeline (own + absorbed events), sorted by timestamp then tid.

        The sort makes the exported trace independent of shard completion
        order, so two runs of the same campaign differ only in the
        timestamp *values*, never in record ordering logic.
        """
        return sorted(self._events, key=lambda r: (r["ts"], r["tid"], r["name"]))


__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "PhaseStat", "DEFAULT_CAPACITY"]
