"""Differential and metamorphic oracles.

Three *differential* oracles run one program two ways and demand
identical :class:`~repro.fuzz.observe.Observation` digests.  The
"compiled" side is checked twice (:data:`COMPILED_SIDES`): at the
default hot threshold and compiling every block on first entry.

* ``backend`` -- lockstep interpreter vs compiled under a random pause
  schedule (every pause point must agree, not just the final state).
* ``debugger`` -- a :class:`~repro.machine.debugger.DebugSession` on one
  backend (single-stepping, or continuing across random breakpoints)
  against a straight budgeted run on the other.
* ``snapshot`` -- snapshot mid-run on one backend, restore onto the
  other (:func:`~repro.checkpoint.snapshot.restore`) and continue; plus
  an in-place :func:`~repro.checkpoint.snapshot.restore_into` replay of
  the same process after it finished.

Five *metamorphic* oracles check campaign-engine invariants on
generated apps: ``merge`` (shard + ``CampaignResult.merge`` equals the
unsharded run; associative and counts-commutative; telemetry counters
sum), ``resume`` (a journal pre-seeded with a prefix of results resumes
to the bit-identical campaign), ``jobs`` (jobs=1 equals jobs=N,
telemetry counters included), ``converge`` (stopping post-fault runs
at the ladder rung where they reach the golden state changes no per-plan
result against the cold, full-length ``run_injection``), and ``paired``
(serving trap-free runs from the memo across a campaign family changes
no per-plan result, signature or counter against memo-cleared runs).
Each engine run starts from a cleared trap-free memo unless an oracle
asks for it warm, so the first four test the ladder, pool and journal
paths rather than the memo.

Every oracle returns a list of :class:`Divergence` records -- empty
means the property held.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

from repro.apps.base import TRAP_FREE_MEMO
from repro.checkpoint.snapshot import restore, restore_into, snapshot
from repro.core.config import LETGO_E, VARIANTS, LetGoConfig
from repro.faultinject.campaign import CampaignConfig, CampaignResult
from repro.faultinject.engine import CampaignEngine
from repro.faultinject.fault_model import seeded_plans
from repro.faultinject.injector import InjectionResult, run_injection
from repro.faultinject.journal import CampaignJournal, JournalHeader
from repro.fuzz.observe import Observation, observe
from repro.isa.program import Program
from repro.machine.compiled import CompiledCPU
from repro.machine.cpu import CPU
from repro.machine.debugger import (
    STOP_BREAKPOINT,
    STOP_BUDGET,
    STOP_EXITED,
    STOP_TRAP,
    DebugSession,
)
from repro.machine.process import Process, ProcessStatus
from repro.telemetry import MEMO_COUNTERS

#: Backend selectors accepted by the differential oracles: a registry
#: name ("interpreter"/"compiled") or a CPU subclass (scratch mutants).
Backend = str | type[CPU]


class EagerCompiledCPU(CompiledCPU):
    """The compiled backend with every leader's block compiled on first
    entry.

    Random programs are short, so most of their blocks never reach the
    default hot threshold and would run on the interpreter handlers on
    both sides of an oracle.  This twin makes them reach generated code.
    """

    HOT = 1


#: The compiled sides the differential oracles check against the
#: interpreter by default: the real backend and its eager twin.
COMPILED_SIDES = ("compiled", EagerCompiledCPU)

#: Differential oracle names (program-level).
PROGRAM_ORACLES = ("backend", "debugger", "snapshot")
#: Metamorphic oracle names (campaign-level).
CAMPAIGN_ORACLES = ("merge", "resume", "jobs", "converge", "paired")
ALL_ORACLES = PROGRAM_ORACLES + CAMPAIGN_ORACLES
#: The baseline (None) and every LetGo variant: the campaign family the
#: ``paired`` oracle runs on the same plans, and the configs the other
#: campaign oracles draw from.
CAMPAIGN_CONFIGS: tuple[LetGoConfig | None, ...] = (None,) + tuple(
    VARIANTS.values()
)


@dataclass(frozen=True)
class Divergence:
    """One observed violation of an oracle's property."""

    oracle: str
    at: str        # where in the schedule/property it was observed
    detail: str    # first differing field, ``a != b``

    def to_dict(self) -> dict:
        return asdict(self)


# -- differential oracles -----------------------------------------------------


def _run_budget(process: Process, budget: int) -> None:
    """Advance *process* by up to *budget* instructions (no-op if done)."""
    if process.status is ProcessStatus.RUNNING and budget > 0:
        process.run(budget)


def classify_stop(obs: Observation) -> str:
    """Coverage bucket of a final observation: halt / budget / signal."""
    if obs.status == "exited":
        return "halt"
    if obs.status == "terminated" and obs.trap is not None:
        return obs.trap[0]
    return "budget"


def check_backends(
    program: Program,
    segments: list[int],
    a="interpreter",
    b="compiled",
) -> list[Divergence]:
    """Lockstep run across *segments*; every pause point must agree."""
    pa = Process.load(program, backend=a)
    pb = Process.load(program, backend=b)
    for k, seg in enumerate(segments):
        _run_budget(pa, seg)
        _run_budget(pb, seg)
        diff = observe(pa).diff(observe(pb))
        if diff is not None:
            return [
                Divergence(
                    "backend",
                    at=f"segment {k} (after {sum(segments[: k + 1])} steps)",
                    detail=diff,
                )
            ]
    return []


def check_debugger(
    program: Program,
    budget: int,
    breakpoints: list[int],
    a="interpreter",
    b="compiled",
) -> list[Divergence]:
    """Debug-session stepping on *a* vs one straight run on *b*.

    With breakpoints the session continues across them (gdb-style);
    without, it single-steps the whole budget.  Traps are delivered with
    the default disposition so the final status matches a plain run.
    """
    ref = Process.load(program, backend=b)
    _run_budget(ref, budget)

    session = DebugSession(Process.load(program, backend=a))
    for bp in breakpoints:
        session.set_breakpoint(bp)
    remaining = budget
    while remaining > 0:
        if breakpoints:
            event = session.cont(remaining)
        else:
            event = session.run_steps(1)
        remaining -= event.steps
        if event.kind == STOP_TRAP:
            session.deliver_default(event.trap)
            break
        if event.kind in (STOP_EXITED, STOP_BUDGET):
            break
        if event.kind == STOP_BREAKPOINT:
            continue
        if event.steps == 0:  # defensive: no progress, no stop reason
            break
    diff = observe(session.process).diff(observe(ref))
    if diff is not None:
        mode = "breakpoints" if breakpoints else "single-step"
        return [Divergence("debugger", at=mode, detail=diff)]
    return []


def check_snapshot(
    program: Program,
    cut: int,
    budget: int,
    a="interpreter",
    b="compiled",
) -> list[Divergence]:
    """Snapshot at *cut* steps, restore, continue to *budget*; must match.

    Leg 1: run *cut* on backend *a*, snapshot, restore onto a fresh
    process on backend *b*, finish there; compare against a straight
    *b* run (snapshots are backend-agnostic).  Leg 2: after the donor
    process finishes the budget itself, ``restore_into`` rewinds it to
    the snapshot and replays; compare against a straight *a* run
    (in-place restore must scrub all finished-run state).
    """
    donor = Process.load(program, backend=a)
    result = donor.run(min(cut, budget))
    if result.reason != "budget":
        return []  # finished before the cut: nothing to snapshot
    snap = snapshot(donor)
    remaining = budget - result.steps

    ref_b = Process.load(program, backend=b)
    _run_budget(ref_b, budget)
    cross = restore(program, snap, backend=b)
    _run_budget(cross, remaining)
    diff = observe(cross).diff(observe(ref_b))
    if diff is not None:
        return [Divergence("snapshot", at=f"restore@{cut}", detail=diff)]

    ref_a = Process.load(program, backend=a)
    _run_budget(ref_a, budget)
    _run_budget(donor, remaining)          # donor finishes its own budget
    restore_into(donor, snap)              # ...then rewinds in place
    _run_budget(donor, remaining)
    diff = observe(donor).diff(observe(ref_a))
    if diff is not None:
        return [Divergence("snapshot", at=f"restore_into@{cut}", detail=diff)]
    return []


def check_program(
    program: Program,
    *,
    budget: int,
    segments: list[int] | None = None,
    cut: int | None = None,
    breakpoints: list[int] | None = None,
    oracles: tuple[str, ...] = PROGRAM_ORACLES,
    a="interpreter",
    b=COMPILED_SIDES,
) -> list[Divergence]:
    """Run the selected differential oracles on one program.

    *b* is one backend or a tuple of them, each checked against *a*.
    This is the replay entry point used by corpus tests and emitted
    reproducers; defaults derive a simple schedule from *budget*.
    """
    found: list[Divergence] = []
    for side in b if isinstance(b, tuple) else (b,):
        if "backend" in oracles:
            found += check_backends(program, segments or [budget], a=a, b=side)
        if "debugger" in oracles:
            found += check_debugger(
                program, budget, breakpoints or [], a=a, b=side
            )
        if "snapshot" in oracles:
            found += check_snapshot(
                program, cut if cut is not None else max(1, budget // 2),
                budget, a=a, b=side,
            )
    return found


# -- metamorphic campaign oracles ---------------------------------------------


def _result_key(r: InjectionResult) -> tuple:
    return (
        r.outcome.value,
        r.target_pc,
        r.target_reg,
        None if r.first_signal is None else r.first_signal.name,
        r.interventions,
        r.steps,
        r.timed_out,
    )


def _campaign_key(result: CampaignResult) -> tuple:
    counts = tuple(
        sorted((o.value, c) for o, c in result.counts.items() if c)
    )
    return (
        result.n,
        counts,
        tuple(_result_key(r) for r in result.results),
    )


def _counter_sum(counter_dicts) -> dict[str, int]:
    total: dict[str, int] = {}
    for counters in counter_dicts:
        for name, value in counters.items():
            total[name] = total.get(name, 0) + value
    return {k: v for k, v in sorted(total.items()) if v}


def _run_with_engine(app, n, seed, config, plans, campaign, *, warm=False):
    """One engine campaign; the trap-free memo is cleared first unless
    *warm*, so the run executes every plan itself."""
    if not warm:
        TRAP_FREE_MEMO.clear()
    engine = CampaignEngine(config=campaign)
    result = engine.run(app, n, seed, config, plans=plans)
    return result, engine.telemetry


def _tally(coverage, result: CampaignResult, report) -> None:
    """Fold one campaign's outcome classes and heuristics into *coverage*."""
    if coverage is None:
        return
    for outcome, count in result.counts.items():
        if count:
            coverage.outcomes[outcome.value] += count
    if report is not None:
        for name, count in report.heuristic_counts().items():
            coverage.heuristics[name] += count


def check_merge(
    app,
    n: int,
    seed: int,
    config: LetGoConfig | None,
    split: int,
    coverage=None,
) -> list[Divergence]:
    """Sharded runs + ``merge`` == unsharded run; merge laws; telemetry."""
    cc = CampaignConfig(keep_results=True, telemetry=True)
    plans = seeded_plans(app.golden.instret, n, seed)
    split = max(1, min(split, n - 1))
    full, full_tel = _run_with_engine(app, n, seed, config, plans, cc)
    _tally(coverage, full, full_tel)

    parts = [plans[:split], plans[split:]]
    shard_runs = [
        _run_with_engine(app, len(p), seed, config, p, cc) for p in parts
    ]
    shards = [r for r, _ in shard_runs]
    merged = CampaignResult.merge(shards)

    found: list[Divergence] = []
    if _campaign_key(merged) != _campaign_key(full):
        found.append(Divergence(
            "merge", at=f"shard@{split}",
            detail=f"{_campaign_key(merged)!r} != {_campaign_key(full)!r}",
        ))

    # Associativity on a 3-way split; commutativity of the counts.
    third = max(1, split // 2)
    trio = [plans[:third], plans[third:split], plans[split:]]
    trio_results = [
        _run_with_engine(app, len(p), seed, config, p, cc)[0]
        for p in trio if p
    ]
    if len(trio_results) >= 2:
        left = CampaignResult.merge(
            [CampaignResult.merge(trio_results[:-1]), trio_results[-1]]
        )
        right = CampaignResult.merge(
            [trio_results[0], CampaignResult.merge(trio_results[1:])]
        )
        if _campaign_key(left) != _campaign_key(right):
            found.append(Divergence(
                "merge", at="associativity",
                detail=f"{_campaign_key(left)!r} != {_campaign_key(right)!r}",
            ))
        forward = CampaignResult.merge(trio_results).counts
        backward = CampaignResult.merge(trio_results[::-1]).counts
        if forward != backward:
            found.append(Divergence(
                "merge", at="counts-commutativity",
                detail=f"{forward!r} != {backward!r}",
            ))

    shard_counters = _counter_sum(
        _filtered_counters(tel) for _, tel in shard_runs
    )
    full_counters = _filtered_counters(full_tel)
    if shard_counters != full_counters:
        found.append(Divergence(
            "merge", at="telemetry-counters",
            detail=f"{shard_counters!r} != {full_counters!r}",
        ))
    return found


def check_resume(
    app,
    n: int,
    seed: int,
    config: LetGoConfig | None,
    prefix: int,
    workdir: str | Path,
    coverage=None,
) -> list[Divergence]:
    """A journal pre-seeded with *prefix* results resumes bit-identically."""
    plans = seeded_plans(app.golden.instret, n, seed)
    cc = CampaignConfig(keep_results=True)
    full, _ = _run_with_engine(app, n, seed, config, plans, cc)
    _tally(coverage, full, None)

    prefix = max(0, min(prefix, n - 1))
    path = Path(workdir) / "fuzz-resume.journal"
    header = JournalHeader.for_campaign(
        app.name, config.name if config is not None else "baseline",
        n, seed, plans,
    )
    journal = CampaignJournal.create(path, header)
    if prefix:
        done = [run_injection(app, plans[i], config) for i in range(prefix)]
        journal.record_shard(list(range(prefix)), done)

    resumed, _ = _run_with_engine(
        app, n, seed, config, plans,
        CampaignConfig(keep_results=True, resume=str(path)),
    )
    if _campaign_key(resumed) != _campaign_key(full):
        return [Divergence(
            "resume", at=f"prefix={prefix}",
            detail=f"{_campaign_key(resumed)!r} != {_campaign_key(full)!r}",
        )]
    return []


def check_jobs(
    app,
    n: int,
    seed: int,
    config: LetGoConfig | None,
    jobs: int = 4,
    shard_size: int | None = None,
    coverage=None,
) -> list[Divergence]:
    """jobs=1 and jobs=N produce identical results and telemetry counters.

    *app* must satisfy the engine's picklable-spec contract (see
    :mod:`repro.fuzz.app`); the engine raises otherwise.
    """
    plans = seeded_plans(app.golden.instret, n, seed)
    serial, serial_tel = _run_with_engine(
        app, n, seed, config, plans,
        CampaignConfig(jobs=1, keep_results=True, telemetry=True),
    )
    _tally(coverage, serial, serial_tel)
    fanned, fanned_tel = _run_with_engine(
        app, n, seed, config, plans,
        CampaignConfig(
            jobs=jobs, keep_results=True, telemetry=True,
            shard_size=shard_size,
        ),
    )
    found: list[Divergence] = []
    if _campaign_key(serial) != _campaign_key(fanned):
        found.append(Divergence(
            "jobs", at=f"jobs=1 vs jobs={jobs}",
            detail=f"{_campaign_key(serial)!r} != {_campaign_key(fanned)!r}",
        ))
    serial_outcomes = _filtered_counters(serial_tel)
    fanned_outcomes = _filtered_counters(fanned_tel)
    if serial_outcomes != fanned_outcomes:
        found.append(Divergence(
            "jobs", at="telemetry-counters",
            detail=f"{serial_outcomes!r} != {fanned_outcomes!r}",
        ))
    return found


#: Ladder interval small enough that short generated runs cross many
#: rungs, so convergence is tried at many points of each post-fault run.
TINY_LADDER_INTERVAL = 7


def check_converge(
    app, n: int, seed: int, coverage=None, plans=None
) -> list[Divergence]:
    """Ladder-cut campaigns == cold full-length ``run_injection``, per plan.

    The engine passes its snapshot ladder to every run, which stops a
    post-fault run at the first rung where it reaches the golden state
    (a LetGo run that was repaired: where it reaches it one retirement
    behind per repair).  For the baseline and LetGo-E the engine runs at
    the app's default ladder interval and at
    :data:`TINY_LADDER_INTERVAL`; every per-plan result must equal the
    cold run's under ``_result_key``, and the telemetry signature must
    not depend on the interval.  *plans* overrides the seeded draw.
    """
    if plans is None:
        plans = seeded_plans(app.golden.instret, n, seed)
    intervals = (app.default_ladder_interval, TINY_LADDER_INTERVAL)
    found: list[Divergence] = []
    for config in (None, LETGO_E):
        name = config.name if config is not None else "baseline"
        cold = [_result_key(run_injection(app, plan, config)) for plan in plans]
        signatures = []
        for interval in intervals:
            result, report = _run_with_engine(
                app, n, seed, config, plans,
                CampaignConfig(
                    keep_results=True, telemetry=True, ladder_interval=interval
                ),
            )
            _tally(coverage, result, report)
            if coverage is not None:
                for name in ("converged", "converged-lagged"):
                    coverage.convergence[name] += report.counters.get(name, 0)
            signatures.append(report.signature())
            got = [_result_key(r) for r in result.results]
            for index, (want, have) in enumerate(zip(cold, got)):
                if want != have:
                    found.append(Divergence(
                        "converge", at=f"{name}@K={interval}#plan{index}",
                        detail=f"{have!r} != cold {want!r} ({plans[index]})",
                    ))
                    break
        if signatures[0] != signatures[1]:
            found.append(Divergence(
                "converge", at=f"{name}:signature",
                detail=f"{signatures[0]!r} != {signatures[1]!r}",
            ))
    return found


def check_paired(
    app, n: int, seed: int, coverage=None, plans=None
) -> list[Divergence]:
    """Memo-served campaigns == memo-cleared campaigns, per config.

    Runs the baseline and every :data:`~repro.core.config.VARIANTS`
    config on the same plans twice: in order with the trap-free memo
    warm, so each run may be served what earlier ones stored, and with
    the memo cleared before each run.  Per config, every per-plan result
    (``_result_key``), the telemetry signature and every counter except
    ``memo-hit`` must agree.  *plans* overrides the seeded draw.
    """
    if plans is None:
        plans = seeded_plans(app.golden.instret, n, seed)
    cc = CampaignConfig(jobs=1, keep_results=True, telemetry=True)
    cold = []
    for config in CAMPAIGN_CONFIGS:
        result, report = _run_with_engine(app, n, seed, config, plans, cc)
        _tally(coverage, result, report)
        cold.append((result, report))
    TRAP_FREE_MEMO.clear()
    found: list[Divergence] = []
    for config, (want, want_tel) in zip(CAMPAIGN_CONFIGS, cold):
        name = config.name if config is not None else "baseline"
        have, have_tel = _run_with_engine(
            app, n, seed, config, plans, cc, warm=True
        )
        for index, (a, b) in enumerate(zip(want.results, have.results)):
            if _result_key(a) != _result_key(b):
                found.append(Divergence(
                    "paired", at=f"{name}#plan{index}",
                    detail=(
                        f"{_result_key(b)!r} != memo-cleared "
                        f"{_result_key(a)!r} ({plans[index]})"
                    ),
                ))
                break
        if have_tel.signature() != want_tel.signature():
            found.append(Divergence(
                "paired", at=f"{name}:signature",
                detail=f"{have_tel.signature()!r} != {want_tel.signature()!r}",
            ))
        counters = [
            {
                k: v for k, v in sorted(tel.counters.items())
                if k not in MEMO_COUNTERS
            }
            for tel in (have_tel, want_tel)
        ]
        if counters[0] != counters[1]:
            found.append(Divergence(
                "paired", at=f"{name}:counters",
                detail=f"{counters[0]!r} != {counters[1]!r}",
            ))
    return found


def _filtered_counters(report) -> dict[str, int]:
    """Outcome/heuristic/signal counters only (scheduling events vary)."""
    if report is None:
        return {}
    keep = ("outcome:", "heuristic:", "first-signal:")
    return {
        name: value
        for name, value in sorted(report.counters.items())
        if name.startswith(keep) and value
    }


__all__ = [
    "Divergence",
    "PROGRAM_ORACLES",
    "CAMPAIGN_ORACLES",
    "CAMPAIGN_CONFIGS",
    "ALL_ORACLES",
    "classify_stop",
    "check_backends",
    "check_debugger",
    "check_snapshot",
    "check_program",
    "check_merge",
    "check_resume",
    "check_jobs",
    "check_converge",
    "check_paired",
]
