"""The tracer: exact running totals plus an optional event timeline.

A :class:`Tracer` is the one accounting source of an execution stream
(the campaign parent, or one worker shard).  Its **totals** are exact at
any size: ``counters`` (name -> int) and ``phases`` (name ->
:class:`PhaseStat`: count, total and max seconds), which every
:meth:`Tracer.span` updates on exit, exceptions included, so failed
shards still account their time.  Both merge by sum (and max), which is
order-independent: absorbing shards in any completion order reproduces
the serial campaign's totals exactly.

Its **timeline** exists only when a trace file will be written
(``timeline=True``).  ``events`` is then a list of compact tuples, one
per event, held until :meth:`export` hands them to a trace writer:

* ``("span", name, ts, dur, depth)``: a named duration with nesting depth;
* ``("instant", name, ts, args)``: a point event with optional arguments
  (``flip``, ``retry``);
* ``("gauge", name, ts, value)``: a sampled value (``queue-depth``).

Without a timeline ``events`` is ``None`` and spans, instants and gauges
record nothing beyond the totals.

Timestamps come from :func:`time.perf_counter` and are relative to the
tracer's birth; the writer shifts a stream's events onto the campaign
timeline.

Code that is not traced passes the module-level :data:`NULL_TRACER`
singleton: every method is a no-op and :meth:`NullTracer.span` returns
one shared, reusable null context manager.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter


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
        if tracer.events is not None:
            tracer.events.append(
                ("span", self.name, self.t0 - tracer._t0, dur, tracer._depth)
            )
        return False


class Tracer:
    """Enabled recorder for one execution stream.

    ``tid`` labels the stream (``"engine"``, ``"shard-00042"``);
    ``timeline`` keeps its events for a trace file.
    """

    __slots__ = ("tid", "counters", "phases", "events", "_depth", "_t0")

    enabled = True

    def __init__(self, tid: str = "main", timeline: bool = False):
        self.tid = tid
        self.counters: dict[str, int] = {}
        self.phases: dict[str, PhaseStat] = {}
        self.events: list[tuple] | None = [] if timeline else None
        self._depth = 0
        self._t0 = perf_counter()

    # -- recording ---------------------------------------------------------

    def span(self, name: str) -> _Span:
        """Open a timed span; use as ``with tracer.span("restore"):``."""
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter *name* by *n* (a total, never an event)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def instant(self, name: str, **args) -> None:
        """Record a point event, with optional structured arguments."""
        if self.events is not None:
            self.events.append(
                ("instant", name, perf_counter() - self._t0, args or None)
            )

    def gauge(self, name: str, value: float) -> None:
        """Sample a time-varying value (e.g. queue depth)."""
        if self.events is not None:
            self.events.append(
                ("gauge", name, perf_counter() - self._t0, float(value))
            )

    def now(self) -> float:
        """Seconds since this tracer was created (its timeline origin)."""
        return perf_counter() - self._t0

    # -- merge protocol ----------------------------------------------------

    def export(self) -> dict:
        """Picklable payload: copies of the totals, and the events so far.

        The events are handed over, not copied: the tracer's timeline
        starts empty again, so a stream flushed at every commit holds
        only what it recorded since.  Timestamps stay relative to this
        tracer's birth.
        """
        events = self.events
        if events is not None:
            self.events = []
        return {
            "tid": self.tid,
            "events": events or [],
            "counters": dict(self.counters),
            "phases": {name: replace(stat) for name, stat in self.phases.items()},
        }

    def absorb(self, payload: dict) -> None:
        """Merge an exported payload's totals into this tracer.

        Counters and phase totals merge by sum (phase maxima by max), so
        absorbing shards in any completion order yields identical totals.
        The payload's events are the trace writer's to place.
        """
        for name, value in payload["counters"].items():
            self.count(name, value)
        for name, stat in payload["phases"].items():
            self.phases.setdefault(name, PhaseStat()).merge(stat)


__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "PhaseStat"]
