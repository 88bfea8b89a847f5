"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``apps``
    List the benchmark suite with golden-run facts.
``objdump --app NAME``
    Disassemble an app image with the function/frame table.
``golden --app NAME``
    Run an app to completion and print its output + acceptance verdict.
``inject --app NAME --dyn-index K --bit B [--letgo VARIANT]``
    One fault-injection run, with or without LetGo.
``campaign --app NAME -n N [--seed S] [--letgo VARIANT] [--jobs J] [--ladder-interval K]``
    An injection campaign with the Table-3 breakdown and Eq. 1-4 metrics,
    run on the snapshot-ladder/multiprocess campaign engine.
``simulate --app NAME --t-chk SECONDS [--mtbfaults S] [--years Y]``
    The Figure-6 C/R simulation with and without LetGo.
``sites --app NAME -n N``
    Fault-site characterisation: which functions / instruction classes /
    bit positions crash, from a fresh LetGo-E campaign.
``parallel [--ranks R] [--mtbf I]``
    The SPMD heat proxy under coordinated C/R, with and without LetGo.
``fuzz [--iterations N] [--seed S] [--oracles LIST] [--findings PATH]``
    Differential fuzzing: random ISA/MiniC programs through the
    backend/debugger/snapshot oracles and the campaign metamorphic
    oracles, shrinking any divergence to a minimal reproducer.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.apps import app_names, make_app
from repro.core import VARIANTS
from repro.faultinject import (
    CampaignConfig,
    InjectionPlan,
    add_campaign_arguments,
    campaign_config_from_args,
    run_campaign,
    run_injection,
)
from repro.reporting import ascii_table, pct, pct_ci


def _cmd_apps(_args: argparse.Namespace) -> int:
    rows = []
    for name in app_names():
        app = make_app(name)
        rows.append(
            [
                app.name,
                app.domain,
                "iterative" if app.iterative else "direct",
                f"{app.golden.instret:,}",
                len(app.program.instrs),
            ]
        )
    print(
        ascii_table(
            ["name", "domain", "method", "dyn instrs", "static instrs"], rows
        )
    )
    return 0


def _cmd_objdump(args: argparse.Namespace) -> int:
    from repro.analysis import objdump

    app = make_app(args.app)
    print(objdump(app.program))
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    app = make_app(args.app)
    process = app.load(args.backend)
    process.run(app.max_steps)
    output = list(process.output)
    print(
        f"{app.name}: exited {process.exit_code} after "
        f"{process.cpu.instret:,} instructions [{process.backend} backend]"
    )
    for kind, value in output[:20]:
        print(f"  {kind} {value!r}")
    if len(output) > 20:
        print(f"  ... {len(output) - 20} more values")
    verdict = app.acceptance_check(output)
    print(f"acceptance check: {'PASS' if verdict else 'FAIL'}")
    return 0 if verdict else 1


def _variant(name: str | None):
    if name is None:
        return None
    try:
        return VARIANTS[name]
    except KeyError:
        raise SystemExit(
            f"unknown LetGo variant {name!r}; choose from {sorted(VARIANTS)}"
        ) from None


def _cmd_inject(args: argparse.Namespace) -> int:
    try:
        plan = InjectionPlan(
            dyn_index=args.dyn_index, bit=args.bit, reg_choice=args.reg_choice
        )
    except ValueError as exc:
        raise SystemExit(f"inject: {exc}") from None
    app = make_app(args.app)
    result = run_injection(app, plan, config=_variant(args.letgo), backend=args.backend)
    print(f"outcome: {result.outcome.value}")
    print(f"target: pc={result.target_pc} reg={result.target_reg}")
    if result.first_signal is not None:
        print(f"first signal: {result.first_signal.name}")
    print(f"interventions: {result.interventions}")
    print(f"instructions retired: {result.steps:,}")
    return 0


def _progress_line(done: int, total: int) -> None:
    print(
        f"\rcampaign: {done}/{total} injections", end="", file=sys.stderr,
        flush=True,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.errors import CampaignAbortedError, JournalError
    from repro.faultinject import CampaignEngine

    app = make_app(args.app)
    config = _variant(args.letgo)
    try:
        cfg = campaign_config_from_args(args)
    except ValueError as exc:
        raise SystemExit(f"campaign: {exc}") from None
    engine = CampaignEngine(config=cfg)
    live = sys.stderr.isatty()
    if live:
        engine.on_progress = _progress_line
    journal_path = cfg.journal or cfg.resume
    try:
        try:
            campaign = engine.run(app, args.n, seed=args.seed, config=config)
        finally:
            if live:
                print("\r\x1b[K", end="", file=sys.stderr, flush=True)
    except KeyboardInterrupt:
        # Every completed shard was journaled durably before it counted,
        # so there is nothing left to flush -- just say where to pick up.
        if journal_path is not None:
            print(
                f"interrupted: journal flushed; resume with "
                f"--resume {journal_path}",
                file=sys.stderr,
            )
        else:
            print(
                "interrupted: no journal (use --journal PATH to make "
                "campaigns resumable)",
                file=sys.stderr,
            )
        return 130
    except (CampaignAbortedError, JournalError) as exc:
        print(f"campaign failed: {exc}", file=sys.stderr)
        return 1
    n_done = campaign.n or 1
    rows = [
        [outcome.value, count, pct(count / n_done)]
        for outcome, count in sorted(campaign.counts.items(), key=lambda kv: -kv[1])
    ]
    title = f"{app.name} under {campaign.config_name} (n={args.n}, seed={args.seed})"
    print(ascii_table(["outcome", "runs", "fraction"], rows, title=title))
    if engine.stats is not None and engine.stats.quarantined:
        print(
            f"quarantined poison plans (excluded from fractions): "
            f"{list(engine.stats.quarantined)}"
        )
    if config is not None:
        m = campaign.metrics()
        print(f"\ncontinuability    : {pct_ci(m.continuability.value, m.continuability.half_width)}")
        print(f"continued_correct : {pct_ci(m.continued_correct.value, m.continued_correct.half_width)}")
        print(f"continued_detected: {pct_ci(m.continued_detected.value, m.continued_detected.half_width)}")
        print(f"continued_sdc     : {pct_ci(m.continued_sdc.value, m.continued_sdc.half_width)}")
    print(f"crash rate        : {pct_ci(campaign.crash_rate().value, campaign.crash_rate().half_width)}")
    print(f"overall SDC rate  : {pct_ci(campaign.sdc_rate().value, campaign.sdc_rate().half_width)}")
    if engine.stats is not None:
        print(f"engine            : {engine.stats.describe()}")
    if engine.telemetry is not None:
        print()
        print(engine.telemetry.render(title=f"telemetry: {app.name}"))
        if cfg.trace is not None:
            print(f"trace written to {cfg.trace}")
        if cfg.chrome_trace is not None:
            print(f"chrome trace written to {cfg.chrome_trace}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.crsim import (
        PAPER_APP_PARAMS,
        YEAR,
        AppParams,
        SystemParams,
        compare_efficiency,
    )

    if args.app in PAPER_APP_PARAMS and not args.estimate:
        params = PAPER_APP_PARAMS[args.app]
        source = "paper Table 3"
    else:
        app = make_app(args.app)
        campaign = run_campaign(
            app, args.n, seed=args.seed, config=VARIANTS["LetGo-E"]
        )
        params = AppParams(
            name=app.name,
            p_crash=campaign.estimate_p_crash(),
            p_v=campaign.estimate_p_v(),
            p_v_prime=campaign.estimate_p_v_prime(),
            p_letgo=campaign.estimate_p_letgo(),
        )
        source = f"fresh campaign (n={args.n})"
    system = SystemParams(t_chk=args.t_chk, mtbfaults=args.mtbfaults)
    comparison = compare_efficiency(
        system, params, needed=args.years * YEAR, seeds=[1, 2, 3]
    )
    print(f"parameters from {source}: P_crash={params.p_crash:.3f} "
          f"P_v={params.p_v:.3f} P_v'={params.p_v_prime:.3f} "
          f"P_letgo={params.p_letgo:.3f}")
    print(f"standard C/R efficiency: {comparison.standard:.4f}")
    print(f"with LetGo             : {comparison.letgo:.4f}")
    print(f"gain                   : {comparison.gain_absolute:+.4f} "
          f"({comparison.gain_relative:.3f}x)")
    return 0


def _cmd_sites(args: argparse.Namespace) -> int:
    from repro.faultinject import analyze_sites

    app = make_app(args.app)
    campaign = run_campaign(
        app, args.n, seed=args.seed, config=VARIANTS["LetGo-E"],
        campaign=CampaignConfig(keep_results=True),
    )
    print(analyze_sites(app, campaign).render())
    return 0


def _cmd_parallel(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core import LETGO_E
    from repro.parallel import (
        ClusterCRParams,
        ClusterPolicy,
        HeatApp,
        drive_cluster,
    )

    app = HeatApp(size=args.ranks)
    params = ClusterCRParams(
        interval=20_000,
        t_chk=3_000,
        t_sync=300 * args.ranks,
        t_letgo=100,
        mtbf_faults=args.mtbf,
    )
    rows = []
    for label, policy, kwargs in (
        ("none", ClusterPolicy.NONE, {}),
        ("cr", ClusterPolicy.CR, {}),
        ("cr+letgo", ClusterPolicy.CR_LETGO, {"letgo": LETGO_E}),
    ):
        runs = [
            drive_cluster(app, params, policy, seed=s, **kwargs)
            for s in range(args.seeds)
        ]
        rows.append(
            [
                label,
                f"{sum(r.completed for r in runs)}/{args.seeds}",
                f"{np.mean([r.efficiency for r in runs]):.3f}",
                sum(r.rollbacks for r in runs),
                sum(r.letgo_repairs for r in runs),
            ]
        )
    print(
        ascii_table(
            ["policy", "completed", "mean efficiency", "rollbacks", "repairs"],
            rows,
            title=f"{args.ranks}-rank heat proxy, MTBFaults={args.mtbf:.0f} instrs",
        )
    )
    return 0


def _fuzz_progress(done: int, total: int) -> None:
    print(f"\rfuzz: {done}/{total} cases", end="", file=sys.stderr, flush=True)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.fuzz.corpus import iter_corpus, save_case
    from repro.fuzz.mutations import (
        CONVERGE_MUTATIONS,
        MEMO_MUTATIONS,
        MUTATIONS,
    )
    from repro.fuzz.oracles import ALL_ORACLES
    from repro.fuzz.runner import FuzzConfig, mutation_selftest, run_fuzz

    if args.selftest:
        names = (
            [args.mutation] if args.mutation
            else sorted(MUTATIONS) + sorted(MEMO_MUTATIONS)
            + sorted(CONVERGE_MUTATIONS)
        )
        rows = []
        ok = True
        for name in names:
            result = mutation_selftest(name, seed=args.seed)
            ok = ok and result.ok
            rows.append([
                name,
                "killed" if result.killed else "MISSED",
                "-" if result.found_at is None else result.found_at,
                "-" if result.original_len is None else result.original_len,
                "-" if result.shrunk_len is None else result.shrunk_len,
                result.limit,
                "ok" if result.ok else "FAIL",
            ])
        print(ascii_table(
            ["mutation", "status", "case", "len", "shrunk", "limit", "verdict"],
            rows,
            title=(
                "mutation self-test "
                "(len: instructions; plans for memo-* and converge-*)"
            ),
        ))
        return 0 if ok else 1

    if args.oracles == "all":
        oracles = ALL_ORACLES
    else:
        oracles = tuple(args.oracles.split(","))
        unknown = set(oracles) - set(ALL_ORACLES)
        if unknown:
            raise SystemExit(
                f"unknown oracles {sorted(unknown)}; "
                f"choose from {list(ALL_ORACLES)}"
            )

    replayed = 0
    corpus_failures = 0
    if args.corpus_dir:
        from repro.fuzz.corpus import check_case

        for name, case in iter_corpus(args.corpus_dir):
            replayed += 1
            for div in check_case(case):
                corpus_failures += 1
                print(f"corpus {name}: {div.oracle}@{div.at}: {div.detail}")
        if replayed:
            print(f"corpus: {replayed} cases replayed, "
                  f"{corpus_failures} divergences")

    config = FuzzConfig(
        iterations=args.iterations,
        lang_iterations=(
            args.lang_iterations if args.lang_iterations is not None
            else max(1, args.iterations // 10)
        ),
        seed=args.seed,
        oracles=oracles,
        budget=args.budget,
        jobs=args.jobs,
        mutation=args.mutation,
        shrink=not args.no_shrink,
    )
    live = sys.stderr.isatty()
    report = run_fuzz(config, on_progress=_fuzz_progress if live else None)
    if live:
        print("\r\x1b[K", end="", file=sys.stderr, flush=True)

    if args.findings:
        with open(args.findings, "w") as fh:
            meta = {
                "record": "meta",
                "seed": config.seed,
                "iterations": config.iterations,
                "lang_iterations": config.lang_iterations,
                "oracles": list(config.oracles),
                "budget": config.budget,
                "mutation": config.mutation,
            }
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for finding in report.findings:
                record = {"record": "finding", **finding.to_dict()}
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            summary = {
                "record": "summary",
                "cases": report.cases,
                "findings": len(report.findings),
                "coverage": report.coverage.to_dict(),
            }
            fh.write(json.dumps(summary, sort_keys=True) + "\n")
        print(f"findings JSONL written to {args.findings}")
    if args.coverage_out:
        report.coverage.save(args.coverage_out)
        print(f"coverage written to {args.coverage_out}")

    saved = 0
    if args.save_corpus and args.corpus_dir:
        from pathlib import Path

        for finding in report.findings:
            if finding.case is not None:
                path = Path(args.corpus_dir) / f"{finding.case['name']}.json"
                save_case(path, finding.case)
                saved += 1
        if saved:
            print(f"{saved} shrunk reproducers saved under {args.corpus_dir}")

    cov = report.coverage.to_dict()
    print(
        f"fuzz: {report.cases} cases, {len(report.findings)} findings "
        f"(seed {config.seed}); {len(cov['opcodes'])} opcodes, "
        f"stops {cov['stops']}, outcomes {cov['outcomes']}, "
        f"heuristics {cov['heuristics']}"
        + (f", convergence {cov['convergence']}" if cov["convergence"] else "")
    )
    for finding in report.findings:
        line = f"  {finding.kind}[{finding.index}] {finding.oracle}@{finding.at}"
        if finding.shrunk_len is not None:
            line += f" (shrunk {finding.original_len} -> {finding.shrunk_len})"
        print(line)
        print(f"    {finding.detail[:500]}")
    return 1 if (report.findings or corpus_failures) else 0


def _add_backend_arg(p: argparse.ArgumentParser) -> None:
    from repro.machine.compiled import BACKENDS

    p.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default=None,
        help="execution engine (default: compiled); "
             "outcomes are backend-invariant",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LetGo (HPDC'17) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list the benchmark suite")

    p = sub.add_parser("objdump", help="disassemble an app image")
    p.add_argument("--app", required=True, choices=app_names())

    p = sub.add_parser("golden", help="run an app and check its output")
    p.add_argument("--app", required=True, choices=app_names())
    _add_backend_arg(p)

    p = sub.add_parser("inject", help="run one fault injection")
    p.add_argument("--app", required=True, choices=app_names())
    p.add_argument("--dyn-index", type=int, required=True)
    p.add_argument("--bit", type=int, default=45)
    p.add_argument("--reg-choice", type=float, default=0.5)
    p.add_argument("--letgo", choices=sorted(VARIANTS), default=None)
    _add_backend_arg(p)

    p = sub.add_parser("campaign", help="run an injection campaign")
    p.add_argument("--app", required=True, choices=app_names())
    p.add_argument("-n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--letgo", choices=sorted(VARIANTS), default="LetGo-E")
    # Every execution/resilience/observability flag is derived from the
    # CampaignConfig fields, so config and CLI cannot drift apart.
    add_campaign_arguments(p)

    # crsim.params loads no numpy (crsim/__init__ is lazy), so
    # building the parser keeps every command's cold start light.
    from repro.crsim.params import PAPER_APP_PARAMS

    p = sub.add_parser("simulate", help="C/R efficiency with vs without LetGo")
    p.add_argument("--app", required=True, choices=list(PAPER_APP_PARAMS))
    p.add_argument("--t-chk", type=float, default=120.0)
    p.add_argument("--mtbfaults", type=float, default=21600.0)
    p.add_argument("--years", type=float, default=2.0)
    p.add_argument("--estimate", action="store_true",
                   help="estimate parameters from a fresh campaign instead "
                        "of the paper's Table 3")
    p.add_argument("-n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sites", help="fault-site characterisation")
    p.add_argument("--app", required=True, choices=app_names())
    p.add_argument("-n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("parallel", help="SPMD coordinated-C/R study")
    p.add_argument("--ranks", type=int, default=4)
    p.add_argument("--mtbf", type=float, default=5_000.0)
    p.add_argument("--seeds", type=int, default=6)

    p = sub.add_parser(
        "fuzz", help="differential fuzzing across backends and oracles"
    )
    p.add_argument("--iterations", type=int, default=200,
                   help="random ISA programs to generate")
    p.add_argument("--lang-iterations", type=int, default=None,
                   help="random MiniC programs (default: iterations/10)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracles", default="all",
                   help="comma list: backend,debugger,snapshot,"
                        "merge,resume,jobs,converge,paired (default: all)")
    p.add_argument("--budget", type=int, default=256,
                   help="step budget per ISA differential case")
    p.add_argument("--jobs", type=int, default=1,
                   help="fuzz worker processes (findings are identical "
                        "for any value)")
    p.add_argument("--findings", metavar="PATH", default=None,
                   help="write findings as JSONL")
    p.add_argument("--coverage-out", metavar="PATH", default=None,
                   help="write the coverage report as JSON")
    p.add_argument("--corpus-dir", metavar="DIR", default=None,
                   help="replay this reproducer corpus before fuzzing")
    p.add_argument("--save-corpus", action="store_true",
                   help="save shrunk reproducers of new findings "
                        "into --corpus-dir")
    p.add_argument("--mutation", default=None,
                   help="plant a known-bad backend mutant "
                        "(fmin-nan, halt-pc, shri-logical, segv-order, "
                        "block-trap-pc, fold-unchecked, typed-load, "
                        "window-unchecked, chain-offset, chain-budget); "
                        "with --selftest also memo-traps, converge-lag")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip delta-debugging divergent programs")
    p.add_argument("--selftest", action="store_true",
                   help="verify the fuzzer kills and shrinks every "
                        "planted mutant (<= 25 instructions; memo and "
                        "convergence mutants to one plan)")
    return parser


_DISPATCH = {
    "apps": _cmd_apps,
    "objdump": _cmd_objdump,
    "golden": _cmd_golden,
    "inject": _cmd_inject,
    "campaign": _cmd_campaign,
    "simulate": _cmd_simulate,
    "sites": _cmd_sites,
    "parallel": _cmd_parallel,
    "fuzz": _cmd_fuzz,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _DISPATCH[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
