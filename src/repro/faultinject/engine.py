"""Campaign engine: prefix reuse, process fan-out, and failure survival.

The naive campaign loop replays the golden prefix from instruction 0 for
every injection and runs the N independent injections strictly serially:
O(N·L) interpreted instructions on one core.  Both costs are accidental --
the paper's methodology is one profiling pass followed by N *independent*
runs -- and this engine removes them with two composable optimizations:

**Snapshot ladder.**  The app's one golden run drops a
:class:`~repro.checkpoint.snapshot.Snapshot` every K retired instructions
and records the golden facts (cached on the app, see
:meth:`~repro.apps.base.MiniApp.ladder`).  Each injection restores the
nearest rung at or below its injection point and fast-forwards only the
remainder, turning O(N·L) prefix replay into O(L + N·K).  The same rungs
end post-fault runs early: a run whose state equals the golden state at
a rung it reaches is finished as the golden run (see
:func:`~repro.faultinject.injector.run_injection`'s ``ladder``), with an
identical result.

**Trap-free memo.**  A post-fault run that raises no crash signal ends
the same under every LetGo configuration.  Every shard passes the
process-wide :data:`~repro.apps.base.TRAP_FREE_MEMO`, so a campaign
family (baseline plus LetGo variants on the same plans) runs each such
plan once; later configurations only restore, advance and flip.  A
pooled shard ships with the parent's entries for its plans, and the
worker sends the entries it adds back with its results, so pooled and
in-process campaigns are served alike.

**Multiprocess fan-out.**  Plans are split into contiguous shards, each
shard sorted by injection depth for ladder locality, and executed on one
process-wide ``ProcessPoolExecutor`` that lives across campaigns (see
:func:`shutdown_workers`).  Nothing un-picklable crosses the process
boundary: each shard carries its app spec (the import path of its
class), LetGo config and campaign config, and workers re-derive the app
and ladder from (source, interval) through module caches -- on
fork-based platforms those the parent held when the pool started are
inherited, so this is free.  Each shard is folded into the campaign's
outcome counts as it commits; its per-plan results are kept, and
reassembled in plan order, only with ``keep_results``.  The parallel
output is therefore *identical* to the serial output for the same seed
-- counts, per-plan outcomes, and result ordering -- preserving the
paired-campaign property every Figure-5/Table-3 comparison relies on,
and without ``keep_results`` only the shards in flight hold results.

On top of both sits the **resilience layer**, applying the paper's own
checkpoint/restart discipline to the campaign runner itself:

* a write-ahead **campaign journal**
  (:class:`~repro.faultinject.journal.CampaignJournal`) durably records
  each completed shard, and ``resume=`` skips journaled plans and folds
  old + new shards into a result bit-identical to an uninterrupted run;
* a **supervisor** retries failed shards with bounded exponential
  backoff, bisects a persistently failing shard down to the single
  **poison plan** and quarantines it (recorded in :class:`EngineStats`
  and the journal, never silently dropped), rebuilds a broken process
  pool up to :data:`MAX_POOL_REBUILDS` times, and then finishes
  in-process.  That ladder is fixed and has no abort rung, as LetGo
  keeps an application going: a campaign stops short only when its own
  process dies, and its journal covers that.

A run's one hang bound is the app's instruction budget: nothing in the
engine or below it reads a clock to decide an outcome, so a campaign
result is a pure function of (app, plans, LetGo config).

Every campaign accounts through one tracer, and its totals become the
run's :class:`~repro.telemetry.TelemetryReport`, kept on
:attr:`CampaignEngine.telemetry`.  :class:`EngineStats` reads that
report (injections/sec, fast-forward, retries, pool rebuilds) and adds
only what it does not hold: ladder geometry, per-shard utilization,
resumed and quarantined plans.
"""

from __future__ import annotations

import importlib
import math
import os
from collections import Counter, deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Callable

from repro.apps.base import TRAP_FREE_MEMO, MiniApp, TrapFreeMemo
from repro.checkpoint.snapshot import SnapshotLadder, restore_into, snapshot
from repro.core.config import LetGoConfig
from repro.faultinject.campaign import CampaignConfig, CampaignResult
from repro.faultinject.fault_model import InjectionPlan, seeded_plans
from repro.faultinject.injector import InjectionResult, run_injection
from repro.faultinject.journal import CampaignJournal, JournalHeader
from repro.faultinject.outcomes import Outcome
from repro.machine.debugger import DebugSession
from repro.telemetry import TelemetryReport, Tracer, TraceWriter

#: ``ladder_interval`` value that disables the ladder entirely.
NO_LADDER = 0

#: Re-executions of a failing shard before it is bisected.
MAX_RETRIES = 2
#: Broken process pools replaced before the campaign finishes in-process.
MAX_POOL_REBUILDS = 2
#: Seconds slept before the first retry of a shard; doubles per retry.
RETRY_BACKOFF = 0.1
#: Upper bound on one retry's sleep, in seconds.
RETRY_BACKOFF_CAP = 2.0
#: Most plans in a default shard: a shard holds its results (and, traced,
#: its events) until it commits.
MAX_DEFAULT_SHARD = 1000


@dataclass(frozen=True)
class EngineStats:
    """Throughput + resilience observability for one engine campaign.

    A view of the campaign's one tally: every count and the wall-clock
    are read off :attr:`report`, the campaign's
    :class:`~repro.telemetry.TelemetryReport`, so they cannot disagree
    with it.  The fields hold only what the report does not: campaign
    geometry, per-shard seconds, resumed plans and quarantined plans.
    """

    n: int
    jobs: int                      # worker processes actually used (1 = in-process)
    ladder_interval: int           # 0 when the ladder was disabled
    ladder_rungs: int
    per_worker_seconds: tuple[float, ...]    # per committed shard
    report: TelemetryReport
    resumed: int = 0               # plans skipped: already journaled
    quarantined: tuple[int, ...] = ()  # poison-plan indices, never re-run

    @property
    def executed(self) -> int:
        """Injections actually run this invocation: ladder restores plus
        cold starts."""
        tally = self.report.counters.get
        return tally("restore", 0) + tally("cold-start", 0)

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds of the campaign."""
        return self.report.wall_seconds

    @property
    def fast_forward_steps(self) -> int:
        """Golden-prefix instructions actually replayed."""
        return self.report.counters.get("fast-forward-instr", 0)

    @property
    def injections_per_sec(self) -> float:
        """Injections executed this invocation per wall-clock second
        (journaled plans a resume skipped do not count)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.executed / self.elapsed_seconds

    @property
    def mean_fast_forward(self) -> float:
        """Mean golden-prefix instructions replayed per executed injection."""
        return self.fast_forward_steps / self.executed if self.executed else 0.0

    @property
    def utilization(self) -> float:
        """Mean fraction of the wall-clock each worker spent injecting."""
        if not self.per_worker_seconds or self.elapsed_seconds <= 0:
            return 0.0
        busy = sum(self.per_worker_seconds)
        return busy / (self.jobs * self.elapsed_seconds)

    def describe(self) -> str:
        """One-line human-readable summary."""
        ladder = (
            f"ladder K={self.ladder_interval} ({self.ladder_rungs} rungs, "
            f"mean ff {self.mean_fast_forward:,.0f})"
            if self.ladder_interval
            else "ladder off"
        )
        line = (
            f"{self.executed} injections in {self.elapsed_seconds:.2f}s "
            f"({self.injections_per_sec:.1f}/s) | jobs={self.jobs} "
            f"util={self.utilization:.0%} | {ladder}"
        )
        tally = self.report.counters.get
        extras = []
        if self.resumed:
            extras.append(f"resumed={self.resumed}")
        if tally("retry"):
            extras.append(f"retries={tally('retry')}")
        if tally("pool-rebuild"):
            extras.append(f"pool rebuilds={tally('pool-rebuild')}")
        if tally("serial-degrade"):
            extras.append("serial fallback")
        if self.quarantined:
            extras.append(f"quarantined={list(self.quarantined)}")
        if extras:
            line += " | " + " ".join(extras)
        return line


def _ladder_for(app: MiniApp, campaign: CampaignConfig) -> SnapshotLadder | None:
    """The snapshot ladder *campaign* asks for (None: ladder disabled)."""
    if campaign.ladder_interval == NO_LADDER:
        return None
    return app.ladder(campaign.ladder_interval)


def _run_shard(
    app: MiniApp,
    ladder: SnapshotLadder | None,
    letgo_config: LetGoConfig | None,
    batch: list[tuple[int, InjectionPlan]],
    campaign: CampaignConfig,
) -> tuple[list[tuple[int, InjectionResult]], dict]:
    """Run one shard of (index, plan) pairs.

    Plans execute in injection-depth order (ladder/cache locality) but the
    returned pairs are in index order, so reassembling shards by plan
    index reproduces the serial result order exactly.

    One *host process* serves the whole shard: every plan restores its
    launch state (ladder rung, or a pristine instret-0 snapshot) into the
    same process, so segment mapping, CPU construction and -- on the
    compiled backend -- binding compiled blocks to the process are paid
    once per shard rather than once per injection.

    A leaf :class:`~repro.telemetry.Tracer` accounts the shard; its
    picklable export is the second return element, absorbed by the
    supervisor.  The leaf is created here -- identically for in-process
    and pooled shards -- so the merged totals are independent of *where*
    the shard ran.
    """
    tracer = Tracer(
        tid=f"shard-{min(idx for idx, _ in batch):05d}",
        timeline=campaign.writes_trace,
    )
    tracer.instant("worker-start", pid=os.getpid(), plans=len(batch))
    out: dict[int, InjectionResult] = {}
    with tracer.span("shard"):
        host = app.load(campaign.backend)
        pristine = snapshot(host)
        for idx, plan in sorted(batch, key=lambda pair: pair[1].dyn_index):
            target = plan.dyn_index - 1
            snap = ladder.nearest(target) if ladder is not None else None
            with tracer.span("restore"):
                restore_into(host, pristine if snap is None else snap)
            if snap is None:
                tracer.count("cold-start")
                tracer.count("fast-forward-instr", target)
            else:
                tracer.count("restore")
                tracer.count("fast-forward-instr", target - snap.instret)
            out[idx] = run_injection(
                app,
                plan,
                letgo_config,
                session=DebugSession(host),
                tracer=tracer,
                ladder=ladder,
                memo=TRAP_FREE_MEMO,
            )
    return [(idx, out[idx]) for idx in sorted(out)], tracer.export()


# -- worker protocol --------------------------------------------------------
#
# Every shard task carries only picklable values: an app *spec* (its
# class's module:qualname import path), the LetGo config, the
# CampaignConfig (both frozen dataclasses), the batch, and the parent's
# trap-free memo entries for the batch's plans.  App, program image and
# ladder are re-derived worker-side through the same module caches the
# parent uses, so a worker holds no campaign state between shards.


def _app_from_spec(spec: tuple) -> MiniApp:
    """Rebuild an app from its worker spec."""
    module, qualname = spec
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj()


def _app_spec(app: MiniApp) -> tuple | None:
    """A picklable spec a worker can rebuild *app* from (None: not possible).

    The spec is ``(module, qualname)`` of a module-level class whose
    zero-argument instance has *app*'s source, as every registry app's
    has.
    """
    cls = type(app)
    if "<locals>" in cls.__qualname__ or cls.__module__ == "__main__":
        return None
    spec = (cls.__module__, cls.__qualname__)
    try:
        rebuilt = _app_from_spec(spec)
    except Exception:
        return None
    if not isinstance(rebuilt, MiniApp) or rebuilt.source != app.source:
        return None
    return spec


def _worker_run(
    spec: tuple,
    letgo_config: LetGoConfig | None,
    campaign: CampaignConfig,
    batch: list[tuple[int, InjectionPlan]],
    memo_entries: list,
):
    """One pooled shard, plus the trap-free memo entries it added.

    The worker's memo is reset to exactly the parent's entries for this
    shard's plans, so what the shard may be served never depends on what
    this worker ran before.
    """
    app = _app_from_spec(spec)
    TRAP_FREE_MEMO.reset(memo_entries)
    pairs, payload = _run_shard(
        app, _ladder_for(app, campaign), letgo_config, batch, campaign
    )
    return pairs, payload, TRAP_FREE_MEMO.take_added()


# -- the process-wide worker pool -------------------------------------------
#
# Starting a pool costs tens of milliseconds, as much as a small campaign,
# so workers outlive the campaign that started them: every later pooled
# campaign with the same worker count reuses them.

#: (pid of the process that started it, workers, executor), or None.
_POOL: tuple[int, int, ProcessPoolExecutor] | None = None


def _worker_pool(jobs: int) -> ProcessPoolExecutor:
    """The process-wide pool of *jobs* workers, started on first use; a
    pool of another size is dropped and replaced."""
    global _POOL
    if _POOL is not None and _POOL[:2] == (os.getpid(), jobs):
        return _POOL[2]
    shutdown_workers()
    _POOL = (os.getpid(), jobs, ProcessPoolExecutor(max_workers=jobs))
    return _POOL[2]


def shutdown_workers() -> None:
    """Drop the process-wide worker pool; the next pooled campaign starts
    a fresh one.  Queued shards are cancelled, and workers exit once the
    shard each is running ends.

    The main interpreter's exit needs no call.  A ``multiprocessing``
    child that ran a pooled campaign should call it before it returns:
    a child's exit joins the child's own children, idle workers too.
    """
    global _POOL
    if _POOL is None:
        return
    pid, _, pool = _POOL
    _POOL = None
    if pid == os.getpid():  # a forked child must not touch its parent's pool
        pool.shutdown(wait=False, cancel_futures=True)


def _split(items: list, k: int) -> list[list]:
    """Split into *k* contiguous, nearly-even, non-empty chunks."""
    k = max(1, min(k, len(items)))
    base, extra = divmod(len(items), k)
    chunks, lo = [], 0
    for i in range(k):
        hi = lo + base + (1 if i < extra else 0)
        chunks.append(items[lo:hi])
        lo = hi
    return chunks


# -- the supervisor ---------------------------------------------------------


@dataclass
class _Supervisor:
    """Drives shards to completion through failures.

    Policy ladder, applied per shard: retry up to :data:`MAX_RETRIES`
    times with exponential backoff (:data:`RETRY_BACKOFF` seconds,
    doubling up to :data:`RETRY_BACKOFF_CAP`) -> bisect a still-failing
    shard to isolate the poison plan -> quarantine the single plan that
    keeps failing.  Pool breakage (SIGKILLed/OOM-killed workers) rebuilds
    the executor up to :data:`MAX_POOL_REBUILDS` times, then finishes
    in-process.  The ladder has no abort rung: a campaign stops short
    only if its own process dies, and the journal covers that.
    Every completed shard is journaled *before* :meth:`fold` counts it.
    """

    campaign: CampaignConfig
    app: MiniApp
    ladder: SnapshotLadder | None
    letgo_config: LetGoConfig | None
    spec: tuple | None
    jobs: int
    journal: CampaignJournal | None
    tracer: Tracer                    # parent-side merged accounting
    writer: TraceWriter | None = None  # trace files, when requested

    counts: Counter = field(default_factory=Counter)
    kept: list[tuple[int, InjectionResult]] = field(default_factory=list)
    shard_seconds: list[float] = field(default_factory=list)
    attempts: dict[tuple[int, ...], int] = field(default_factory=dict)
    quarantined: list[int] = field(default_factory=list)
    on_progress: Callable[[int, int], None] | None = None
    total: int = 0                    # campaign n, for progress reporting
    done: int = 0                     # plans settled so far

    def run(self, shards: list[list[tuple[int, InjectionPlan]]]) -> None:
        self.queue: deque = deque(shard for shard in shards if shard)
        if self.jobs > 1:
            self._run_pool()
        else:
            self._run_serial()

    # -- serial ------------------------------------------------------------

    def _run_serial(self) -> None:
        while self.queue:
            self.tracer.gauge("queue-depth", len(self.queue))
            shard = self.queue.popleft()
            try:
                pairs, payload = _run_shard(
                    self.app, self.ladder, self.letgo_config, shard, self.campaign
                )
            except Exception as exc:
                self._failure(shard, exc)
            else:
                self._commit(pairs, payload)

    # -- pool --------------------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor | None:
        try:
            return _worker_pool(self.jobs)
        except Exception:
            return None

    def _submit(self, pool: ProcessPoolExecutor, shard: list):
        keys = (
            TrapFreeMemo.key(self.app, plan, self.ladder) for _, plan in shard
        )
        return pool.submit(
            _worker_run, self.spec, self.letgo_config, self.campaign, shard,
            TRAP_FREE_MEMO.subset(keys),
        )

    def _run_pool(self) -> None:
        pool = self._make_pool()
        if pool is None:
            self._degrade()
            return
        try:
            while self.queue:
                self.tracer.gauge("queue-depth", len(self.queue))
                batch = list(self.queue)
                self.queue.clear()
                futures = {}
                broken = False
                for shard in batch:
                    if broken:
                        self.queue.append(shard)
                        continue
                    try:
                        futures[self._submit(pool, shard)] = shard
                    except BrokenExecutor:
                        broken = True
                        self.queue.append(shard)
                for future in as_completed(futures):
                    shard = futures[future]
                    try:
                        pairs, payload, added = future.result()
                    except BrokenExecutor:
                        broken = True
                        self.queue.append(shard)
                    except Exception as exc:
                        self._failure(shard, exc)
                    else:
                        for key, entry in added:
                            TRAP_FREE_MEMO.put(key, entry)
                        self._commit(pairs, payload)
                if broken:
                    shutdown_workers()
                    self.tracer.count("pool-rebuild")
                    rebuilds = self.tracer.counters["pool-rebuild"]
                    self.tracer.instant("pool-rebuild", n=rebuilds)
                    pool = (
                        self._make_pool() if rebuilds <= MAX_POOL_REBUILDS
                        else None
                    )
                    if pool is None:
                        self._degrade()
                        return
        except BaseException:
            # Abandoned shards must not hold up the next campaign's workers.
            shutdown_workers()
            raise

    def _degrade(self) -> None:
        """Multiprocessing unavailable or unreliable: finish in-process."""
        self.tracer.count("serial-degrade")
        self.tracer.instant("serial-degrade")
        self._run_serial()

    # -- shared bookkeeping ------------------------------------------------

    def _commit(
        self, pairs: list[tuple[int, InjectionResult]], payload: dict
    ) -> None:
        # Re-base the shard's events to where it ran on the parent
        # timeline: it finished "now" and lasted its one ``shard`` span.
        seconds = payload["phases"]["shard"].total_seconds
        offset = max(0.0, self.tracer.now() - seconds)
        self.tracer.absorb(payload)
        # Journal first: the shard is durable before its results count.
        if self.journal is not None:
            self.journal.record_shard(
                [idx for idx, _ in pairs], [result for _, result in pairs]
            )
        self.fold(pairs)
        self.shard_seconds.append(seconds)
        if self.writer is not None:
            self.writer.write(payload, offset)
            self.writer.write(self.tracer.export())
        if self.on_progress is not None:
            self.on_progress(self.done, self.total)

    def fold(self, pairs: list[tuple[int, InjectionResult]]) -> None:
        """Count *pairs*' outcomes; keep the pairs only with keep_results."""
        for _, result in pairs:
            self.counts[result.outcome] += 1
        if self.campaign.keep_results:
            self.kept.extend(pairs)
        self.done += len(pairs)

    def _failure(self, shard: list[tuple[int, InjectionPlan]], exc: Exception) -> None:
        key = tuple(idx for idx, _ in shard)
        count = self.attempts.get(key, 0) + 1
        self.attempts[key] = count
        if count <= MAX_RETRIES:
            self.tracer.count("retry")
            self.tracer.instant(
                "retry", plans=len(shard), attempt=count,
                error=type(exc).__name__,
            )
            sleep(min(RETRY_BACKOFF_CAP, RETRY_BACKOFF * 2 ** (count - 1)))
            self.queue.append(shard)
        elif len(shard) > 1:
            # Bisect: isolate the poison plan instead of discarding the
            # healthy majority of the shard alongside it.
            mid = len(shard) // 2
            self.tracer.count("bisect")
            self.tracer.instant("bisect", plans=len(shard))
            self.queue.append(shard[:mid])
            self.queue.append(shard[mid:])
        else:
            ((index, plan),) = shard
            self.quarantined.append(index)
            self.tracer.count("quarantine")
            self.tracer.instant(
                "quarantine", index=index, error=type(exc).__name__
            )
            if self.journal is not None:
                self.journal.record_quarantine(index, plan, repr(exc), count)


# -- the engine -------------------------------------------------------------


class CampaignEngine:
    """Runs injection campaigns with prefix reuse, fan-out, and supervision.

    Every knob -- execution (``jobs``, ``ladder_interval``, ``shard_size``,
    ``backend``, ``keep_results``), durability (``journal`` / ``resume``)
    and observability -- is a field of the frozen
    :class:`~repro.faultinject.campaign.CampaignConfig` passed as
    ``config=`` (None: the defaults).  The engine reads it as
    :attr:`config` and hands the same object to every worker.

    For the same (app, n, seed, LetGo config, plans) every (jobs,
    ladder_interval, shard_size, backend) combination produces an
    identical :class:`CampaignResult`; the engine only changes how fast
    it arrives and what it survives.  The last run's
    :class:`~repro.telemetry.TelemetryReport`, its one tally, is kept on
    :attr:`telemetry`, and the :class:`EngineStats` that reads it on
    :attr:`stats`; :attr:`on_progress` optionally receives
    ``(done, total)`` after every committed shard.
    """

    def __init__(self, config: CampaignConfig | None = None):
        self.config = config if config is not None else CampaignConfig()
        self.stats: EngineStats | None = None
        self.telemetry: TelemetryReport | None = None
        self.on_progress: Callable[[int, int], None] | None = None

    def _shard_count(self, pending: int, jobs: int, journaling: bool) -> int:
        shard_size = self.config.shard_size
        if shard_size is not None:
            return max(1, math.ceil(pending / shard_size))
        # Finer grain when journaling: each journaled shard is resume
        # credit, and bisection isolates poison plans in fewer halvings.
        count = min(pending, 8 * jobs) if journaling else jobs
        return max(count, math.ceil(pending / MAX_DEFAULT_SHARD))

    def run(
        self,
        app: MiniApp,
        n: int,
        seed: int,
        config: LetGoConfig | None = None,
        plans: list[InjectionPlan] | None = None,
    ) -> CampaignResult:
        """Run *n* injections on *app* under *config* (None = baseline).

        With :attr:`CampaignConfig.journal` the run starts a fresh
        write-ahead journal at that path; with :attr:`CampaignConfig.resume`
        it loads an existing one, verifies it belongs to this exact
        campaign, skips already-journaled plans, and appends new shards to
        the same file.  Either way the returned result is bit-identical to
        an uninterrupted run with the same seed.

        Raises :class:`ValueError` for *n* below 1: a campaign of no runs
        has no outcome rates to estimate.
        """
        if n < 1:
            raise ValueError(f"a campaign needs at least one run, got n={n}")
        cfg = self.config
        tracer = Tracer(tid="engine", timeline=cfg.writes_trace)
        self.stats = self.telemetry = None
        t0 = perf_counter()
        if plans is None:
            with tracer.span("plan"):
                plans = seeded_plans(app.golden.instret, n, seed)
        elif len(plans) != n:
            raise ValueError("len(plans) must equal n")

        config_name = config.name if config is not None else "baseline"
        journal_obj: CampaignJournal | None = None
        if cfg.resume is not None:
            journal_obj = CampaignJournal.load(cfg.resume)
            journal_obj.verify(
                JournalHeader.for_campaign(app.name, config_name, n, seed, plans)
            )
        elif cfg.journal is not None:
            journal_obj = CampaignJournal.create(
                cfg.journal,
                JournalHeader.for_campaign(app.name, config_name, n, seed, plans),
            )
        if journal_obj is not None:
            journal_obj.tracer = tracer

        settled = (
            journal_obj.settled_indices if journal_obj is not None else frozenset()
        )
        indexed = [
            (idx, plan) for idx, plan in enumerate(plans) if idx not in settled
        ]
        prior_quarantine = (
            [record.index for record in journal_obj.quarantined]
            if journal_obj is not None
            else []
        )
        if cfg.resume is not None:
            tracer.instant(
                "journal-resume", settled=len(settled), pending=len(indexed)
            )

        # Building (or fetching) the ladder in the parent warms the
        # per-source cache, which a pool forked after it inherits.
        with tracer.span("ladder"):
            ladder = _ladder_for(app, cfg)

        requested = cfg.jobs if cfg.jobs is not None else (os.cpu_count() or 1)
        jobs = max(1, min(requested, len(indexed)))
        spec = _app_spec(app) if jobs > 1 else None
        if jobs > 1 and spec is None:
            jobs = 1  # un-rederivable app (e.g. a local class): stay in-process

        writer = (
            TraceWriter(
                cfg.trace,
                cfg.chrome_trace,
                meta={
                    "app": app.name,
                    "config": config_name,
                    "n": n,
                    "seed": seed,
                    "jobs": jobs,
                },
                process_name=f"{app.name} under {config_name}",
            )
            if cfg.writes_trace
            else None
        )
        supervisor = _Supervisor(
            campaign=cfg,
            app=app,
            ladder=ladder,
            letgo_config=config,
            spec=spec,
            jobs=jobs,
            journal=journal_obj,
            tracer=tracer,
            writer=writer,
            on_progress=self.on_progress,
            total=n,
            done=len(prior_quarantine),
        )
        try:
            if journal_obj is not None:
                supervisor.fold(journal_obj.take_pairs())
            resumed = supervisor.done - len(prior_quarantine)
            if indexed:
                shards = _split(
                    indexed,
                    self._shard_count(len(indexed), jobs, journal_obj is not None),
                )
                with tracer.span("execute"):
                    supervisor.run(shards)

            with tracer.span("merge"):
                counts = supervisor.counts
                supervisor.kept.sort(key=lambda pair: pair[0])
                merged = CampaignResult(
                    app_name=app.name,
                    config_name=config_name,
                    n=sum(counts.values()),
                    counts={o: counts[o] for o in Outcome if o in counts},
                    results=[result for _, result in supervisor.kept],
                )

            elapsed = perf_counter() - t0
            if writer is not None:
                # Only a finished campaign's trace gets its totals line.
                writer.close(tracer.export(), wall_seconds=elapsed)
        finally:
            if writer is not None:
                writer.close()
        self.telemetry = TelemetryReport.from_tracer(tracer, wall_seconds=elapsed)
        self.stats = EngineStats(
            n=n,
            jobs=jobs,
            ladder_interval=ladder.interval if ladder is not None else NO_LADDER,
            ladder_rungs=len(ladder) if ladder is not None else 0,
            per_worker_seconds=tuple(supervisor.shard_seconds),
            report=self.telemetry,
            resumed=resumed,
            quarantined=tuple(sorted(prior_quarantine + supervisor.quarantined)),
        )
        return merged


__all__ = [
    "CampaignEngine",
    "EngineStats",
    "NO_LADDER",
    "shutdown_workers",
]
