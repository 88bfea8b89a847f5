"""Fuzz campaign orchestration: case planning, fan-out, shrink, report.

Determinism contract (an acceptance criterion of the subsystem): a run
is a pure function of its :class:`FuzzConfig`.  Every case derives its
own ``random.Random(f"{seed}:{kind}:{index}")`` -- string seeding hashes
through SHA-512, so it is stable across processes, platforms and
``PYTHONHASHSEED``.  Cases never share RNG state, so partitioning them
across worker processes (``jobs``) cannot change the program stream,
the findings, or the coverage report; results are merged in case order
regardless of completion order.

Case kinds:

* ``isa``  -- a random instruction sequence through the differential
  oracles (backend lockstep, debugger, snapshot round-trip);
* ``lang`` -- a generated MiniC source: compiled (a front-end crash is
  itself a finding), run through the differential oracles, and on a
  stride wrapped as an app for the merge/resume/converge/paired
  metamorphic oracles;
* ``jobs`` -- campaign-parameter fuzz of the jobs=1 vs jobs=N oracle
  against the fixed importable apps (these spawn a process pool, so
  they always run in the parent, never inside a fuzz worker).

Any differential divergence is delta-debugged down to a minimal
reproducer and carried in the finding as a ready-to-save corpus case.
"""

from __future__ import annotations

import random
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from repro.faultinject.fault_model import seeded_plans
from repro.fuzz.app import FIXED_APPS, LangApp
from repro.fuzz.corpus import case_to_dict
from repro.fuzz.coverage import FuzzCoverage
from repro.fuzz.generator import (
    DEFAULT_BUDGET,
    gen_breakpoints,
    gen_isa_program,
    gen_lang_source,
    gen_segments,
)
from repro.fuzz.mutations import MUTATIONS
from repro.fuzz.oracles import (
    ALL_ORACLES,
    CAMPAIGN_CONFIGS,
    COMPILED_SIDES,
    PROGRAM_ORACLES,
    check_converge,
    check_jobs,
    check_merge,
    check_paired,
    check_program,
    check_resume,
)
from repro.fuzz.shrinker import shrink, shrink_list

#: Every Nth lang case also runs the campaign oracles on its app.
CAMPAIGN_STRIDE = 2
#: Injections per campaign oracle run.
CAMPAIGN_N = 5
#: Jobs-invariance cases of a run whose oracles include ``jobs``.
JOBS_CASES = 1


@dataclass(frozen=True)
class FuzzConfig:
    """Everything a fuzz run depends on (the whole determinism domain)."""

    iterations: int = 200          # ISA cases
    lang_iterations: int = 20      # MiniC cases
    seed: int = 0
    oracles: tuple[str, ...] = ALL_ORACLES
    budget: int = DEFAULT_BUDGET   # differential step budget per ISA case
    jobs: int = 1                  # fuzz worker processes
    mutation: str | None = None    # plant a backend mutant as compiled side
    shrink: bool = True

    def __post_init__(self) -> None:
        if self.mutation is not None and (
            self.mutation not in MUTATIONS
            or MUTATIONS[self.mutation].cpu is None
        ):
            raise ValueError(
                f"{self.mutation!r} is not a backend mutant; campaign "
                "mutants run only under the self-test (--selftest)"
            )

    def backends(self) -> tuple:
        """(a, b): every differential oracle compares *a* with each of *b*."""
        if self.mutation is not None:
            return ("interpreter", MUTATIONS[self.mutation].cpu)
        return ("interpreter", COMPILED_SIDES)


@dataclass
class Finding:
    """One oracle violation, with its shrunk reproducer when available."""

    kind: str                      # isa | lang | jobs
    index: int
    oracle: str
    at: str
    detail: str
    case: dict | None = None       # corpus-format reproducer (shrunk)
    shrunk_len: int | None = None
    original_len: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    config: FuzzConfig
    cases: int
    findings: list[Finding] = field(default_factory=list)
    coverage: FuzzCoverage = field(default_factory=FuzzCoverage)

    @property
    def ok(self) -> bool:
        return not self.findings


# -- per-case execution -------------------------------------------------------


def _case_rng(config: FuzzConfig, kind: str, index: int) -> random.Random:
    return random.Random(f"{config.seed}:{kind}:{index}")


def _shrink_finding(
    finding: Finding,
    program,
    config: FuzzConfig,
    *,
    budget: int,
    segments: list[int],
    cut: int,
    breakpoints: list[int],
) -> None:
    """Attach a minimal reproducer (a corpus case) to *finding*."""
    a, b = config.backends()
    oracle = finding.oracle

    def still_diverges(candidate) -> bool:
        return bool(check_program(
            candidate, budget=budget, segments=segments, cut=cut,
            breakpoints=breakpoints, oracles=(oracle,), a=a, b=b,
        ))

    finding.original_len = len(program.instrs)
    if config.shrink and still_diverges(program):
        program = shrink(program, still_diverges)
    finding.shrunk_len = len(program.instrs)
    name = f"{finding.kind}-{finding.oracle}-seed{config.seed}-{finding.index}"
    provenance = (
        f"Found by `repro fuzz --seed {config.seed}` "
        f"({finding.kind} case {finding.index}, oracle {finding.oracle}); "
        f"shrunk from {finding.original_len} instructions."
    )
    finding.case = case_to_dict(
        name,
        provenance + f" Divergence: {finding.detail}",
        program,
        budget=budget,
        segments=segments,
        cut=cut,
        breakpoints=breakpoints,
        oracles=(oracle,),
    )


def _program_oracles(config: FuzzConfig) -> tuple[str, ...]:
    return tuple(o for o in config.oracles if o in PROGRAM_ORACLES)


def _check_generated(
    kind: str,
    index: int,
    program,
    config: FuzzConfig,
    rng: random.Random,
    budget: int,
    coverage: FuzzCoverage,
) -> list[Finding]:
    """Differential oracles + coverage for one generated program."""
    oracles = _program_oracles(config)
    if not oracles:
        return []
    segments = gen_segments(rng, budget)
    cut = rng.randint(1, max(1, budget - 1))
    breakpoints = gen_breakpoints(rng, len(program.instrs))
    a, b = config.backends()
    coverage.record_program(program, budget)
    for oracle in oracles:
        coverage.oracles[oracle] += 1
    findings = []
    for div in check_program(
        program, budget=budget, segments=segments, cut=cut,
        breakpoints=breakpoints, oracles=oracles, a=a, b=b,
    ):
        finding = Finding(kind, index, div.oracle, div.at, div.detail)
        _shrink_finding(
            finding, program, config,
            budget=budget, segments=segments, cut=cut,
            breakpoints=breakpoints,
        )
        findings.append(finding)
    return findings


def _resume(app, seed, letgo, rng, coverage):
    with tempfile.TemporaryDirectory() as workdir:
        return check_resume(
            app, CAMPAIGN_N, seed, letgo,
            prefix=rng.randint(0, CAMPAIGN_N - 1), workdir=workdir,
            coverage=coverage,
        )


#: The campaign oracles a lang case runs on its app, in order, each
#: called as ``check(app, campaign_seed, letgo, rng, coverage)``; a
#: check draws its own parameters from *rng* after the earlier ones.
METAMORPHIC = {
    "merge": lambda app, seed, letgo, rng, coverage: check_merge(
        app, CAMPAIGN_N, seed, letgo,
        split=rng.randint(1, CAMPAIGN_N - 1), coverage=coverage,
    ),
    "resume": _resume,
    # Twice the plans: only repaired runs that rejoin the golden path
    # test the lagged rung match, and on generated apps that is about
    # one plan in 40.
    "converge": lambda app, seed, letgo, rng, coverage: check_converge(
        app, 2 * CAMPAIGN_N, seed, coverage=coverage
    ),
    "paired": lambda app, seed, letgo, rng, coverage: check_paired(
        app, CAMPAIGN_N, seed, coverage=coverage
    ),
}


def run_case(config: FuzzConfig, kind: str, index: int):
    """Run one case; returns (findings, coverage) for merge in case order."""
    rng = _case_rng(config, kind, index)
    coverage = FuzzCoverage()
    findings: list[Finding] = []

    if kind == "isa":
        program = gen_isa_program(rng)
        findings = _check_generated(
            kind, index, program, config, rng, config.budget, coverage
        )

    elif kind == "lang":
        source = gen_lang_source(rng)
        try:
            app = LangApp(source, name=f"fuzz-lang-{config.seed}-{index}")
            program = app.program
            golden_steps = app.golden.instret
        except Exception as exc:
            findings.append(Finding(
                kind, index, "lang-compile", at="compile/golden",
                detail=f"{type(exc).__name__}: {exc}\n--- source ---\n{source}",
            ))
            return findings, coverage
        budget = golden_steps + 16  # past the halt: exercises halted states
        findings = _check_generated(
            kind, index, program, config, rng, budget, coverage
        )
        if index % CAMPAIGN_STRIDE == 0 and config.mutation is None:
            letgo = rng.choice(CAMPAIGN_CONFIGS)
            campaign_seed = rng.randrange(1 << 30)
            for oracle, check in METAMORPHIC.items():
                if oracle in config.oracles:
                    coverage.oracles[oracle] += 1
                    for div in check(
                        app, campaign_seed, letgo, rng, coverage
                    ):
                        findings.append(Finding(
                            kind, index, div.oracle, div.at, div.detail
                        ))

    elif kind == "jobs":
        app = FIXED_APPS[index % len(FIXED_APPS)]()
        letgo = rng.choice(CAMPAIGN_CONFIGS)
        coverage.oracles["jobs"] += 1
        for div in check_jobs(
            app, rng.randint(4, 4 + CAMPAIGN_N), rng.randrange(1 << 30),
            letgo, jobs=4, shard_size=rng.choice((None, 1, 2)),
            coverage=coverage,
        ):
            findings.append(Finding(kind, index, div.oracle, div.at, div.detail))

    else:  # pragma: no cover - internal misuse
        raise ValueError(f"unknown case kind {kind!r}")

    return findings, coverage


def _pool_case(args):
    return run_case(*args)


# -- the run ------------------------------------------------------------------


def plan_cases(config: FuzzConfig) -> list[tuple[str, int]]:
    """The full (kind, index) schedule of a run, in canonical order."""
    cases = [("isa", i) for i in range(config.iterations)]
    cases += [("lang", i) for i in range(config.lang_iterations)]
    if "jobs" in config.oracles and config.mutation is None:
        cases += [("jobs", i) for i in range(JOBS_CASES)]
    return cases


def run_fuzz(config: FuzzConfig, on_progress=None) -> FuzzReport:
    """Execute the whole fuzz campaign described by *config*.

    ``on_progress(done, total)`` is called as cases complete.  With
    ``jobs > 1`` the isa/lang cases fan out over a process pool; the
    jobs-invariance cases (which spawn their own campaign pools) always
    run in the parent.
    """
    report = FuzzReport(config=config, cases=0)
    cases = plan_cases(config)
    pool_cases = [c for c in cases if c[0] != "jobs"]
    local_cases = [c for c in cases if c[0] == "jobs"]
    done = 0
    total = len(cases)
    per_case: dict[tuple[str, int], tuple] = {}

    if config.jobs > 1 and pool_cases:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            chunk = max(1, len(pool_cases) // (config.jobs * 4))
            for case, result in zip(
                pool_cases,
                pool.map(
                    _pool_case,
                    [(config, kind, index) for kind, index in pool_cases],
                    chunksize=chunk,
                ),
            ):
                per_case[case] = result
                done += 1
                if on_progress:
                    on_progress(done, total)
    else:
        for kind, index in pool_cases:
            per_case[(kind, index)] = run_case(config, kind, index)
            done += 1
            if on_progress:
                on_progress(done, total)

    for kind, index in local_cases:
        per_case[(kind, index)] = run_case(config, kind, index)
        done += 1
        if on_progress:
            on_progress(done, total)

    for case in cases:  # canonical order, independent of completion order
        findings, coverage = per_case[case]
        report.findings.extend(findings)
        report.coverage.merge(coverage)
    report.cases = total
    return report


# -- mutation self-test -------------------------------------------------------


@dataclass
class SelftestResult:
    """Outcome of one mutant-killing run (the shrinker acceptance gate).

    Lengths count instructions for a backend mutant and plans for a
    campaign mutant; ``limit`` is the most the shrunk reproducer may
    keep.
    """

    mutation: str
    killed: bool
    found_at: int | None = None
    original_len: int | None = None
    shrunk_len: int | None = None
    finding: Finding | None = None
    limit: int = 25

    @property
    def ok(self) -> bool:
        return (
            self.killed
            and self.shrunk_len is not None
            and self.shrunk_len <= self.limit
        )


#: Plans per campaign of a campaign mutant's self-test.
CAMPAIGN_SELFTEST_PLANS = 8


def _campaign_selftest(
    mutation: str, seed: int, max_cases: int
) -> SelftestResult:
    """With a campaign mutant planted, its oracle must kill it on a
    fixed generated app, and the plan list shrink to one plan.

    Case seeds are keyed by the mutant's oracle, so each oracle's
    self-test draws its own campaigns."""
    mutant = MUTATIONS[mutation]
    check = mutant.check
    with mutant.plant():
        for index in range(max_cases):
            rng = random.Random(f"{seed}:{mutant.oracle}:{index}")
            app = FIXED_APPS[index % len(FIXED_APPS)]()
            campaign_seed = rng.randrange(1 << 30)
            plans = seeded_plans(
                app.golden.instret, CAMPAIGN_SELFTEST_PLANS, campaign_seed
            )
            found = check(app, len(plans), campaign_seed, plans=plans)
            if not found:
                continue
            shrunk = shrink_list(
                plans,
                lambda subset: bool(check(
                    app, len(subset), campaign_seed, plans=subset
                )),
            )
            first = found[0]
            finding = Finding(
                first.oracle, index, first.oracle, first.at, first.detail,
                shrunk_len=len(shrunk), original_len=len(plans),
            )
            return SelftestResult(
                mutation, killed=True, found_at=index,
                original_len=len(plans), shrunk_len=len(shrunk),
                finding=finding, limit=1,
            )
    return SelftestResult(mutation, killed=False, limit=1)


def mutation_selftest(
    mutation: str,
    seed: int = 0,
    max_cases: int = 300,
    budget: int = 96,
) -> SelftestResult:
    """Plant *mutation* (a name in :data:`~repro.fuzz.mutations.MUTATIONS`)
    and check that the fuzzer kills and shrinks it.

    A backend mutant runs as the compiled side of the differential
    oracles, which must kill it within *max_cases* programs and shrink
    the program to <= 25 instructions.  A campaign mutant's oracle must
    kill it within *max_cases* campaigns and shrink the plan list to a
    single plan.
    """
    if MUTATIONS[mutation].cpu is None:
        return _campaign_selftest(mutation, seed, max_cases)
    config = FuzzConfig(
        iterations=max_cases, lang_iterations=0, seed=seed,
        oracles=PROGRAM_ORACLES, budget=budget, mutation=mutation,
    )
    for index in range(max_cases):
        findings, _ = run_case(config, "isa", index)
        if findings:
            finding = findings[0]
            return SelftestResult(
                mutation, killed=True, found_at=index,
                original_len=finding.original_len,
                shrunk_len=finding.shrunk_len, finding=finding,
            )
    return SelftestResult(mutation, killed=False)


__all__ = [
    "FuzzConfig",
    "Finding",
    "FuzzReport",
    "SelftestResult",
    "run_case",
    "plan_cases",
    "run_fuzz",
    "mutation_selftest",
]
