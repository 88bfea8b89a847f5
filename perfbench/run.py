#!/usr/bin/env python3
"""Layered campaign benchmark for the LetGo reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload suite-paired --seed 1 --seconds 30 --trace 0

A *round* is the workload's full set of fault-injection campaigns (every
app of the suite under every LetGo configuration the workload names).
Each round draws its own plan population from ``--seed`` and the round
number, so the same seed always gives the same sequence of inputs.  The
benchmark sets up the suite, runs rounds back to back for ``--seconds``
seconds, checks every result, and prints one JSON object as the last line
of its output.

``--trace 0`` reports the end-to-end metrics a campaign user sees:

* ``inj_per_s``   -- injections per second over all rounds;
* ``setup_s``     -- median of three cold set-ups, each in a fresh
  interpreter (import, compile, golden profile, snapshot ladder, first
  injection of every campaign);
* ``peak_rss_mb`` -- peak resident memory of the benchmark process after
  the first round.

``--trace 1`` runs the same rounds with campaign telemetry on and reports
one number per layer instead: substrate instructions/s per backend, ladder
build and ``restore_into`` cost, the mean of each injection phase, the
golden-prefix fast-forward, journal appends and size, worker utilization,
and ``resume_ms``, the median time to resume the workload's completed
journals (load, identity check, merge; nothing is re-run).  Resumes are
timed and checked in every run; their figure varies too much between
seeds to gate on, so only the traced run reports it.

Timing: the CPU speed of a shared sandbox drifts by up to 2x within
seconds.  Every timed unit (a campaign, a set-up step, a resume) is
therefore bracketed by a short pure-Python calibration loop, and its
seconds are rescaled to a reference speed at which that loop takes
:data:`CAL_REFERENCE_S`.  The rescaled times follow code changes while the
drift cancels; the loop touches no code of the package under test.

Correctness checks, any failure of which makes ``correct`` false:

* every campaign accounts for each of its plans exactly once, and no plan
  is quarantined;
* a campaign of the first round, re-run with a journal, repeats its
  per-plan outcomes exactly;
* under paired configurations, a plan whose baseline run raised no crash
  signal has the identical outcome under LetGo-E, and a crashing plan
  stays crash-origin;
* sampled plans re-run through the plain single-injection path (cold
  start, no ladder, no engine) give the engine's outcome;
* every resumed journal reproduces its campaign's per-plan outcomes.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

BASELINE = "baseline"
LETGO_E = "LetGo-E"


@dataclass(frozen=True)
class Workload:
    """One campaign shape; a round runs it once over the whole suite."""

    configs: tuple[str, ...]          # LetGo configurations, paired on plans
    plans_per_app: int                # plans per campaign
    window: tuple[float, float]       # share of the golden run faults land in
    jobs: int = 1                     # engine worker processes
    journaled: bool = False           # journal every timed campaign
    shard_size: int | None = None     # plans per shard (None: engine default)


WORKLOADS: dict[str, Workload] = {
    # The paper's campaign: faults anywhere in the run, baseline and
    # LetGo-E on the same plans, in-process.  Cost is dominated by the
    # post-fault continuation and LetGo's repairs.
    "suite-paired": Workload(
        configs=(BASELINE, LETGO_E), plans_per_app=16, window=(0.0, 1.0)
    ),
    # Faults in the last tenth of each golden run: most post-fault runs are
    # short, so ladder restore, fast-forward and per-injection overheads
    # weigh far more; the few late faults that re-enter a convergence loop
    # run about one more golden length.
    "late-fault": Workload(
        configs=(BASELINE, LETGO_E), plans_per_app=32, window=(0.9, 1.0)
    ),
    # Two worker processes and a write-ahead journal with two-plan shards:
    # pool dispatch, durable journal appends, merge and resume.
    "journaled-fanout": Workload(
        configs=(LETGO_E,),
        plans_per_app=24,
        window=(0.0, 1.0),
        jobs=2,
        journaled=True,
        shard_size=2,
    ),
}

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Timed batches of resumes of the workload's journals, and the length a
#: batch is sized to; ``resume_ms`` is the median over batches of the mean
#: resume.
RESUME_BATCHES = 15
RESUME_BATCH_S = 0.03
#: Plans per (app, configuration) re-run through the single-injection path.
SPOT_CHECKS = 1


# -- drift-corrected timing ---------------------------------------------------

#: Iterations of the calibration loop.
CAL_ITERATIONS = 10_000
#: Seconds the calibration loop takes at the reference speed.
CAL_REFERENCE_S = 0.0018


def _calibration_loop() -> float:
    """Seconds of a fixed piece of interpreter work: indexing, dict
    updates, int and float arithmetic."""
    t0 = perf_counter()
    cells = [0.5] * 64
    counts: dict[int, int] = {}
    acc = 0
    for i in range(CAL_ITERATIONS):
        j = i & 63
        cells[j] = cells[j] * 1.0000001 + 0.5
        counts[j] = counts.get(j, 0) + i
        acc = (acc + (i ^ (i >> 3))) & 0xFFFFFFFF
    return perf_counter() - t0


def _calibrate() -> float:
    # The fastest of three: an interrupt inflates a single loop, and at
    # this length nothing makes one read fast.
    return min(_calibration_loop() for _ in range(3))


def timed(fn, *args):
    """``(fn(*args), seconds, scale)``: *seconds* is the call's wall-clock
    times *scale*, the reference speed over the speed measured around it."""
    before = _calibrate()
    t0 = perf_counter()
    value = fn(*args)
    elapsed = perf_counter() - t0
    scale = CAL_REFERENCE_S * 2 / (before + _calibrate())
    return value, elapsed * scale, scale


# -- inputs -------------------------------------------------------------------


def draw_plans(app, seed: int, round_no: int, workload: Workload) -> list:
    """Round *round_no*'s single-bit plans for *app*, drawn by
    Latin-hypercube sampling over the workload's window of the run.

    Each plan's depth, flipped bit and register choice stays uniform, as
    in the paper, but the *n* plans cover *n* equal slices of each axis
    once.  Depth and bit decide how far a faulty run gets, so the cost of
    a campaign varies less between populations.
    """
    from repro.faultinject import InjectionPlan

    rng = random.Random(f"{seed}:{round_no}:{app.name}")
    n = workload.plans_per_app

    def strata() -> list[float]:
        """One uniform draw from each of *n* equal slices of [0, 1),
        in random order."""
        draws = [(i + rng.random()) / n for i in range(n)]
        rng.shuffle(draws)
        return draws

    total = app.golden.instret
    first = 1 + int(workload.window[0] * (total - 1))
    span = total - first + 1
    return [
        InjectionPlan(
            dyn_index=first + min(span - 1, int(depth * span)),
            bit=min(63, int(bit * 64)),
            reg_choice=choice,
        )
        for depth, bit, choice in zip(strata(), strata(), strata())
    ]


def letgo_config(name: str):
    from repro.core import LETGO_E as config

    return None if name == BASELINE else config


# -- set-up -------------------------------------------------------------------


def _import_package() -> list[str]:
    from repro.apps import app_names
    import repro.faultinject  # noqa: F401

    return app_names()


def _warm_app(name: str, workload: Workload, seed: int):
    """Build one app and pay, through a single-plan campaign per
    configuration, whatever the engine initialises lazily."""
    from repro.apps import make_app
    from repro.faultinject import CampaignConfig, CampaignEngine

    app = make_app(name)
    plans = draw_plans(app, seed, 0, workload)[:1]
    for config in workload.configs:
        CampaignEngine(config=CampaignConfig(jobs=1)).run(
            app, 1, seed, letgo_config(config), plans=plans
        )
    return app


def set_up(workload: Workload, seed: int):
    """Everything before the first timed injection, from a cold import:
    ``(apps, rescaled seconds)``."""
    names, seconds, _ = timed(_import_package)
    apps = []
    for name in names:
        app, step, _ = timed(_warm_app, name, workload, seed)
        seconds += step
        apps.append(app)
    return apps, seconds


def setup_in_fresh_interpreter(workload_name: str, seed: int) -> float:
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--setup-probe",
            "--workload",
            workload_name,
            "--seed",
            str(seed),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# -- campaigns ----------------------------------------------------------------


@dataclass
class Campaign:
    """One finished (app, configuration) campaign."""

    app: object
    config: str
    plans: list
    outcomes: tuple
    seconds: float                    # rescaled wall-clock
    scale: float                      # rescaled seconds per wall-clock second
    quarantined: int
    journal: Path | None
    telemetry: object                 # TelemetryReport, None when untraced
    stats: object                     # EngineStats


def run_campaign(app, plans, config, workload, seed, journal, telemetry):
    from repro.faultinject import CampaignConfig, CampaignEngine

    engine = CampaignEngine(
        config=CampaignConfig(
            jobs=workload.jobs,
            shard_size=workload.shard_size,
            keep_results=True,
            telemetry=telemetry,
            journal=str(journal) if journal is not None else None,
        )
    )
    result, seconds, scale = timed(
        lambda: engine.run(
            app, len(plans), seed, letgo_config(config), plans=plans
        )
    )
    if result.n != len(plans) or sum(result.counts.values()) != len(plans):
        raise AssertionError(
            f"{app.name}/{config}: {result.n} results for {len(plans)} plans"
        )
    return Campaign(
        app=app,
        config=config,
        plans=plans,
        outcomes=tuple(r.outcome for r in result.results),
        seconds=seconds,
        scale=scale,
        quarantined=len(engine.stats.quarantined),
        journal=journal,
        telemetry=engine.telemetry,
        stats=engine.stats,
    )


def run_round(apps, workload, seed, round_no, round_dir, telemetry):
    """Every (app, configuration) campaign of one round, on the round's
    own plan population."""
    campaigns = []
    for app in apps:
        plans = draw_plans(app, seed, round_no, workload)
        for config in workload.configs:
            journal = (
                round_dir / f"{app.name}-{config}.journal"
                if workload.journaled
                else None
            )
            campaigns.append(
                run_campaign(
                    app, plans, config, workload, seed, journal, telemetry
                )
            )
    return campaigns


# -- checks -------------------------------------------------------------------


def mismatches(got, want) -> int:
    return sum(a is not b for a, b in zip(got, want)) + abs(len(got) - len(want))


def pairing_failures(campaigns) -> int:
    """Plans on which LetGo-E disagrees with the baseline where it must not.

    LetGo only acts on crash signals: a plan that raised none must end
    identically with and without it, and a crashing plan stays
    crash-origin.
    """
    by_key = {(c.app.name, c.config): c.outcomes for c in campaigns}
    failures = 0
    for (app_name, config), base in by_key.items():
        letgo = by_key.get((app_name, LETGO_E))
        if config != BASELINE or letgo is None:
            continue
        for b, e in zip(base, letgo):
            if b.crash_origin != e.crash_origin:
                failures += 1
            elif not b.crash_origin and b is not e:
                failures += 1
    return failures


def spot_check(campaigns, seed: int) -> tuple[int, int]:
    """Re-run sampled plans cold through ``run_injection``:
    ``(attempted, mismatched)``."""
    from repro.faultinject import run_injection

    rng = random.Random(f"spot:{seed}")
    attempted = failed = 0
    for campaign in campaigns:
        for index in rng.sample(range(len(campaign.plans)), SPOT_CHECKS):
            result = run_injection(
                campaign.app,
                campaign.plans[index],
                letgo_config(campaign.config),
            )
            attempted += 1
            failed += result.outcome is not campaign.outcomes[index]
    return attempted, failed


def measure_resume(journaled, workload, seed) -> tuple[float, int]:
    """Median rescaled seconds to resume every journal in *journaled*, and
    the number of plans whose resumed outcome differs from the original."""
    from repro.faultinject import CampaignConfig, CampaignEngine

    def resume_all():
        return [
            CampaignEngine(
                config=CampaignConfig(
                    jobs=workload.jobs, keep_results=True, resume=str(c.journal)
                )
            ).run(
                c.app, len(c.plans), seed, letgo_config(c.config), plans=c.plans
            )
            for c in journaled
        ]

    # An untimed first resume warms up and sizes the batches, so that a
    # small journal still gives timed units long enough to measure.
    t0 = perf_counter()
    resume_all()
    size = max(1, round(RESUME_BATCH_S / (perf_counter() - t0)))

    def batch():
        return [resume_all() for _ in range(size)]

    times, failed = [], 0
    for _ in range(RESUME_BATCHES):
        batches, seconds, _ = timed(batch)
        times.append(seconds / size)
        for resumed in batches:
            for campaign, result in zip(journaled, resumed):
                got = tuple(r.outcome for r in result.results)
                failed += mismatches(got, campaign.outcomes)
    return statistics.median(times), failed


# -- per-layer probes (trace mode) --------------------------------------------


def substrate_mips(apps, backend: str) -> float:
    """Golden-run million instructions per second on *backend*, whole suite."""
    instret = seconds = 0.0
    for app in apps:
        process = app.load(backend)
        run, step, _ = timed(process.run, app.max_steps)
        instret += run.steps
        seconds += step
    return instret / seconds / 1e6


def ladder_build_ms(apps) -> float:
    """Milliseconds to build one uncached snapshot ladder per app, summed."""
    total = 0.0
    for app in apps:
        # One past the default interval: a ladder the cache does not hold.
        _, seconds, _ = timed(app.ladder, app.default_ladder_interval + 1)
        total += seconds
    return total * 1e3


def restore_into_us(apps, repeats: int = 200) -> float:
    """Mean microseconds to restore a ladder rung into a live process."""
    from repro.checkpoint.snapshot import restore_into

    def restore_rungs(process, rungs):
        for i in range(repeats):
            restore_into(process, rungs[i % len(rungs)])

    total = 0.0
    for app in apps:
        _, seconds, _ = timed(restore_rungs, app.load(), app.ladder().rungs)
        total += seconds
    return total / (repeats * len(apps)) * 1e6


def phase_means_ms(campaigns) -> dict[str, float]:
    """Mean rescaled milliseconds per span name over traced campaigns."""
    totals: dict[str, list[float]] = {}
    for campaign in campaigns:
        for name, stat in campaign.telemetry.phases.items():
            acc = totals.setdefault(name, [0, 0.0])
            acc[0] += stat.count
            acc[1] += stat.total_seconds * campaign.scale
    return {
        name: seconds / count * 1e3
        for name, (count, seconds) in totals.items()
        if count
    }


def layer_metrics(apps, campaigns, inj_per_s, journal_bytes, resume_s) -> dict:
    phases = phase_means_ms(campaigns)
    stats = [c.stats for c in campaigns]
    executed = sum(s.executed for s in stats)
    busy = sum(sum(s.per_worker_seconds) for s in stats)
    capacity = sum(s.elapsed_seconds * s.jobs for s in stats)
    return {
        "inj_per_s_traced": metric(inj_per_s, "1/s"),
        "substrate_compiled_mips": metric(
            substrate_mips(apps, "compiled"), "Minstr/s"
        ),
        "substrate_interpreter_mips": metric(
            substrate_mips(apps, "interpreter"), "Minstr/s"
        ),
        "ladder_build_ms": metric(ladder_build_ms(apps), "ms"),
        "restore_into_us": metric(restore_into_us(apps), "us"),
        "phase_restore_ms": metric(phases.get("restore", 0.0), "ms"),
        "phase_advance_ms": metric(phases.get("advance-to-site", 0.0), "ms"),
        "phase_post_fault_ms": metric(phases.get("post-fault", 0.0), "ms"),
        "phase_repair_ms": metric(phases.get("repair", 0.0), "ms"),
        "phase_acceptance_ms": metric(phases.get("acceptance-check", 0.0), "ms"),
        "phase_shard_ms": metric(phases.get("shard", 0.0), "ms"),
        "phase_merge_ms": metric(phases.get("merge", 0.0), "ms"),
        "journal_append_ms": metric(phases.get("journal-append", 0.0), "ms"),
        "journal_kb": metric(journal_bytes / 1024, "KiB"),
        "resume_ms": metric(resume_s * 1e3, "ms"),
        "fast_forward_instr": metric(
            sum(s.fast_forward_steps for s in stats) / executed, "instr"
        ),
        "worker_utilization_pct": metric(100.0 * busy / capacity, "%"),
    }


# -- the run ------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_now() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every worker process the engine started to end."""
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    apps, first_setup = set_up(workload, seed)
    setups = [first_setup]
    if not trace:
        setups += [
            setup_in_fresh_interpreter(name, seed)
            for _ in range(SETUP_SAMPLES - 1)
        ]

    work = WORK_DIR / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rates: list[float] = []           # per round, for the summary line
        injected = timed_seconds = 0.0
        traced: list[Campaign] = []
        attempted = failed = 0
        deadline = perf_counter() + seconds
        round_wall = 0.0
        # Start a round only if one more, as long as the last, still fits.
        while not rates or perf_counter() + round_wall <= deadline:
            round_no = len(rates)
            round_dir = work / f"round-{round_no}"
            round_dir.mkdir()
            t0 = perf_counter()
            campaigns = run_round(
                apps, workload, seed, round_no, round_dir, trace
            )
            round_wall = perf_counter() - t0
            injections = sum(len(c.outcomes) for c in campaigns)
            round_seconds = sum(c.seconds for c in campaigns)
            rates.append(injections / round_seconds)
            injected += injections
            timed_seconds += round_seconds
            attempted += injections
            failed += sum(c.quarantined for c in campaigns)
            failed += pairing_failures(campaigns)
            if round_no:
                shutil.rmtree(work / f"round-{round_no - 1}")
            else:
                first_round = campaigns
                # Read after the first round, so the figure does not
                # depend on how many rounds fit in the run.
                peak_rss_mb = peak_rss_now()
            if trace:
                traced.extend(campaigns)

        spot_attempted, spot_failed = spot_check(campaigns, seed)
        attempted += spot_attempted
        failed += spot_failed

        if workload.journaled:
            journaled = campaigns
        else:
            # Re-run one campaign of the first round with a journal: it must
            # repeat that round's outcomes, and its journal is what resume
            # cost is measured on, without journal appends in the rounds.
            (work / "resume").mkdir()
            again = first_round[len(workload.configs) - 1]
            journaled = [
                run_campaign(
                    again.app,
                    again.plans,
                    again.config,
                    workload,
                    seed,
                    work / "resume" / f"{again.app.name}.journal",
                    trace,
                )
            ]
            attempted += len(again.plans)
            failed += mismatches(journaled[0].outcomes, again.outcomes)
            if trace:
                traced.extend(journaled)
        resume_s, resume_failed = measure_resume(journaled, workload, seed)
        failed += resume_failed
        journal_bytes = sum(c.journal.stat().st_size for c in journaled)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still uses it
            pass
        reap_children()

    # Pooled over rounds: a few long plans (late faults that re-enter a
    # convergence loop) make single rounds vary, and pooling averages
    # them best in the time a run has.
    inj_per_s = injected / timed_seconds
    if trace:
        metrics = layer_metrics(
            apps, traced, inj_per_s, journal_bytes, resume_s
        )
    else:
        metrics = {
            "inj_per_s": metric(inj_per_s, "1/s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(
        f"{name} seed={seed}: {len(rates)} rounds, {attempted} injections "
        f"checked, {failed} failed; round rates "
        f"{[round(r, 1) for r in rates]}; set-ups "
        f"{[round(t, 3) for t in setups]}"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Layered fault-injection campaign benchmark."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="time one cold set-up and print it as JSON",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        _, seconds = set_up(WORKLOADS[args.workload], args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
