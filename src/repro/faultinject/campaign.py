"""Campaign runner: many injections, aggregated per app and LetGo config.

Mirrors the paper's two-phase methodology: one golden run per app (the
snapshot-ladder run, cached on the :class:`~repro.apps.base.MiniApp`),
then N injection runs with independently drawn (dynamic-instruction,
bit) pairs.  Plans are drawn once per seed, so campaigns for different
LetGo configurations are *paired*: every config experiences the
identical fault population, which is what makes the Figure-5 B-vs-E
comparison tight at moderate N.
"""

from __future__ import annotations

import argparse
from dataclasses import MISSING, dataclass, field, fields

from repro.apps.base import MiniApp
from repro.core.config import LetGoConfig
from repro.faultinject.fault_model import seeded_plans
from repro.faultinject.injector import InjectionResult
from repro.faultinject.metrics import (
    LetGoMetrics,
    Proportion,
    compute_metrics,
    crash_probability,
    overall_sdc_rate,
    proportion,
)
from repro.faultinject.outcomes import Outcome


@dataclass
class CampaignResult:
    """Aggregated outcomes of one (app, config) campaign."""

    app_name: str
    config_name: str           # "baseline" when no LetGo was attached
    n: int
    counts: dict[Outcome, int]
    results: list[InjectionResult] = field(default_factory=list, repr=False)

    # -- basic accessors ---------------------------------------------------

    def fraction(self, outcome: Outcome) -> Proportion:
        """Share of all injections landing in *outcome*."""
        return proportion(self.counts.get(outcome, 0), self.n)

    def crash_rate(self) -> Proportion:
        """Fraction of faults that raised a crash-causing signal."""
        return crash_probability(self.counts)

    def sdc_rate(self) -> Proportion:
        """Overall undetected-wrong-result rate (SDC + C-SDC)."""
        return overall_sdc_rate(self.counts)

    def metrics(self) -> LetGoMetrics:
        """Eq. 1-4 metrics (meaningful for LetGo campaigns)."""
        return compute_metrics(self.counts)

    # -- Table 3 row -----------------------------------------------------------

    def table3_row(self) -> dict[str, float]:
        """The seven Table-3 leaf fractions, normalised by total runs.

        'double crash' folds in unhandled-signal crashes and continued
        hangs, matching the paper's accounting (everything LetGo failed to
        convert into a finished run).
        """
        n = self.n or 1
        fold = sum(
            count
            for outcome, count in self.counts.items()
            if outcome.folds_to_double_crash or outcome is Outcome.CRASH
        )
        return {
            "detected": self.counts.get(Outcome.DETECTED, 0) / n,
            "benign": self.counts.get(Outcome.BENIGN, 0) / n,
            "sdc": self.counts.get(Outcome.SDC, 0) / n,
            "double_crash": fold / n,
            "c_detected": self.counts.get(Outcome.C_DETECTED, 0) / n,
            "c_benign": self.counts.get(Outcome.C_BENIGN, 0) / n,
            "c_sdc": self.counts.get(Outcome.C_SDC, 0) / n,
        }

    # -- C/R-model parameter estimation (Table 4 "Estimated") -----------------

    def estimate_p_crash(self) -> float:
        """P_crash: fault -> crash probability."""
        return self.crash_rate().value

    def estimate_p_v(self) -> float:
        """P_v: P(acceptance check passes | fault, finished without crash)."""
        finished = (
            self.counts.get(Outcome.BENIGN, 0)
            + self.counts.get(Outcome.SDC, 0)
            + self.counts.get(Outcome.DETECTED, 0)
        )
        passed = self.counts.get(Outcome.BENIGN, 0) + self.counts.get(Outcome.SDC, 0)
        return passed / finished if finished else 1.0

    def estimate_p_v_prime(self) -> float:
        """P_v': P(acceptance check passes | LetGo continued the run)."""
        continued = (
            self.counts.get(Outcome.C_BENIGN, 0)
            + self.counts.get(Outcome.C_SDC, 0)
            + self.counts.get(Outcome.C_DETECTED, 0)
        )
        passed = self.counts.get(Outcome.C_BENIGN, 0) + self.counts.get(
            Outcome.C_SDC, 0
        )
        return passed / continued if continued else 1.0

    def estimate_p_letgo(self) -> float:
        """P_letgo: Continuability (Eq. 1)."""
        return self.metrics().continuability.value


# -- the unified campaign configuration --------------------------------------


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _knob(
    default,
    help: str,
    *,
    kind: str = "str",
    metavar: str | None = None,
    choices: str | None = None,
    cli_default=MISSING,
    group: str | None = None,
):
    """A :class:`CampaignConfig` field whose metadata drives CLI flag
    generation (see :func:`add_campaign_arguments`)."""
    meta = {"help": help, "kind": kind}
    if metavar is not None:
        meta["metavar"] = metavar
    if choices is not None:
        meta["choices"] = choices
    if cli_default is not MISSING:
        meta["cli_default"] = cli_default
    if group is not None:
        meta["group"] = group
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class CampaignConfig:
    """Every execution / durability / observability knob of a campaign.

    The one way to configure a campaign: the CLI builds it from flags,
    :class:`~repro.faultinject.engine.CampaignEngine`, the one campaign
    entry point, takes it as ``config=`` (:func:`run_paired_campaigns`
    passes its ``campaign=`` on), and the engine pickles it once into
    each worker.  None of these knobs changes campaign *outcomes*: a
    result is a pure function of (app, plans, LetGo config), and the
    app's instruction budget is the one hang bound.  The knobs change
    how fast the result arrives, where it is journaled, and what gets
    observed on the way.

    Each field's metadata (help text, flag type, default) is the single
    source of truth the CLI derives its ``campaign`` flags from, so
    config and command line cannot drift apart (a parity test pins this).
    """

    # -- execution --------------------------------------------------------
    jobs: int | None = _knob(
        1,
        "worker processes (default: all cores; results are identical "
        "to --jobs 1 for the same seed)",
        kind="int",
        metavar="J",
        cli_default=None,
    )
    ladder_interval: int | None = _knob(
        None,
        "snapshot-ladder rung spacing in retired instructions "
        "(default: auto; 0 disables the ladder)",
        kind="ladder",
        metavar="K",
    )
    shard_size: int | None = _knob(
        None,
        "plans per shard (default: one shard per worker, finer when "
        "journaling, and at most 1,000 plans each)",
        kind="int",
        metavar="P",
    )
    backend: str | None = _knob(
        None,
        "execution engine (default: compiled); "
        "outcomes are backend-invariant",
        choices="backends",
    )
    keep_results: bool = _knob(
        False,
        "retain per-run InjectionResult records on the campaign "
        "(memory-unsafe at large N)",
        kind="bool",
    )
    # -- durability -------------------------------------------------------
    journal: str | None = _knob(
        None,
        "write-ahead journal: every completed shard is recorded durably, "
        "so an interrupted campaign can be resumed with --resume",
        metavar="PATH",
        group="durability",
    )
    resume: str | None = _knob(
        None,
        "resume from an existing journal: skips already-completed plans "
        "and appends new shards; the merged result is identical to an "
        "uninterrupted run",
        metavar="PATH",
        group="durability",
    )
    # -- observability ----------------------------------------------------
    telemetry: bool = _knob(
        False,
        "print the end-of-campaign breakdown (phase spans + counters); "
        "the campaign accounts either way",
        kind="bool",
    )
    trace: str | None = _knob(
        None,
        "write the merged event stream as a JSON-lines trace file "
        "(implies telemetry)",
        metavar="PATH",
    )
    chrome_trace: str | None = _knob(
        None,
        "write a chrome://tracing / Perfetto trace_event view "
        "(implies telemetry)",
        metavar="PATH",
    )

    def __post_init__(self) -> None:
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be >= 1 (or None for all cores)")
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if self.ladder_interval is not None and self.ladder_interval < 0:
            raise ValueError("ladder_interval must be >= 0")
        if self.journal is not None and self.resume is not None:
            raise ValueError(
                "pass either journal= (fresh) or resume= (existing), not both"
            )

    @property
    def telemetry_enabled(self) -> bool:
        """True when any observability output was requested."""
        return self.telemetry or self.writes_trace

    @property
    def writes_trace(self) -> bool:
        """True when a trace file was requested: only then is a timeline kept."""
        return self.trace is not None or self.chrome_trace is not None


#: argparse flag types, keyed by field-metadata ``kind``.
_FLAG_TYPES = {
    "int": int,
    "str": str,
    "ladder": _nonnegative_int,
}


def add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    """Derive one CLI flag per :class:`CampaignConfig` field.

    Flag name, type, default and help text all come from the field and
    its metadata; fields sharing a metadata ``group`` become mutually
    exclusive (journal vs resume).  Bool fields get paired
    ``--flag/--no-flag`` switches.
    """
    groups: dict[str, argparse._MutuallyExclusiveGroup] = {}
    for spec in fields(CampaignConfig):
        meta = spec.metadata
        flag = "--" + spec.name.replace("_", "-")
        target: argparse._ActionsContainer = parser
        group = meta.get("group")
        if group is not None:
            if group not in groups:
                groups[group] = parser.add_mutually_exclusive_group()
            target = groups[group]
        kwargs: dict = {
            "dest": spec.name,
            "default": meta.get("cli_default", spec.default),
            "help": meta["help"],
        }
        if meta["kind"] == "bool":
            kwargs["action"] = argparse.BooleanOptionalAction
        else:
            kwargs["type"] = _FLAG_TYPES[meta["kind"]]
            if "metavar" in meta:
                kwargs["metavar"] = meta["metavar"]
            if meta.get("choices") == "backends":
                from repro.machine.compiled import BACKENDS

                kwargs["choices"] = sorted(BACKENDS)
        target.add_argument(flag, **kwargs)


def campaign_config_from_args(args: argparse.Namespace) -> CampaignConfig:
    """The :class:`CampaignConfig` a parsed command line describes."""
    return CampaignConfig(
        **{spec.name: getattr(args, spec.name) for spec in fields(CampaignConfig)}
    )


#: CampaignConfig fields that name one campaign's output or input file.
_PER_CAMPAIGN_PATHS = ("journal", "resume", "trace", "chrome_trace")


def run_paired_campaigns(
    app: MiniApp,
    n: int,
    seed: int,
    configs: list[LetGoConfig | None],
    *,
    campaign: CampaignConfig | None = None,
) -> dict[str, CampaignResult]:
    """Run the same fault population under several configurations.

    Returns config-name -> result ("baseline" for None).  ``campaign``
    configures each configuration's engine, so it may not name a file:
    every configuration would write (or resume) the same one.
    """
    from repro.faultinject.engine import CampaignEngine

    if campaign is not None:
        paths = [
            name for name in _PER_CAMPAIGN_PATHS
            if getattr(campaign, name) is not None
        ]
        if paths:
            raise ValueError(
                f"{', '.join(paths)} names one campaign's file; run each "
                f"configuration with CampaignEngine to give each its own"
            )
    plans = seeded_plans(app.golden.instret, n, seed)
    out: dict[str, CampaignResult] = {}
    for config in configs:
        name = config.name if config is not None else "baseline"
        out[name] = CampaignEngine(config=campaign).run(
            app, n, seed, config, plans=plans
        )
    return out


__all__ = [
    "CampaignResult",
    "CampaignConfig",
    "add_campaign_arguments",
    "campaign_config_from_args",
    "run_paired_campaigns",
]
