"""Effectiveness metrics (paper section 5.3, equations 1-4) + error bars.

All four metrics are conditional on the *Crash* population (runs whose
fault raised a crash-causing signal)::

    Continuability     = (C-Pass-check + C-Detected) / Crash      (Eq. 1)
    Continued_detected = C-Detected / Crash                       (Eq. 2)
    Continued_correct  = C-Benign / Crash                         (Eq. 3)
    Continued_SDC      = C-SDC / Crash                            (Eq. 4)

Continuability = Continued_detected + Continued_correct + Continued_SDC
holds by construction.  Error bars are normal-approximation binomial
confidence intervals at 95%, as the paper reports.  The normal quantile
comes from the standard library (``statistics.NormalDist``), which agrees
with ``scipy.stats.norm.ppf`` to within two ULPs, so the campaign path
needs no scientific stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from statistics import NormalDist

from repro.faultinject.outcomes import Outcome


@dataclass(frozen=True)
class Proportion:
    """A binomial estimate with its confidence half-width."""

    value: float
    half_width: float
    numerator: int
    denominator: int

    def __str__(self) -> str:
        return f"{self.value:.3%} ± {self.half_width:.3%}"


def proportion(numerator: int, denominator: int, confidence: float = 0.95) -> Proportion:
    """Normal-approximation binomial proportion with CI half-width.

    ``confidence`` must lie strictly between 0 and 1.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    if denominator <= 0:
        return Proportion(0.0, 0.0, numerator, denominator)
    p = numerator / denominator
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    half = z * sqrt(max(p * (1.0 - p), 0.0) / denominator)
    return Proportion(p, half, numerator, denominator)


@dataclass(frozen=True)
class LetGoMetrics:
    """The four Eq. 1-4 metrics for one campaign."""

    continuability: Proportion
    continued_detected: Proportion
    continued_correct: Proportion
    continued_sdc: Proportion
    crash_count: int
    total: int

    @property
    def crash_rate(self) -> Proportion:
        """Fraction of all faults that raised a crash signal."""
        return proportion(self.crash_count, self.total)


def compute_metrics(counts: dict[Outcome, int]) -> LetGoMetrics:
    """Eqs. 1-4 from an outcome histogram of a LetGo campaign."""
    total = sum(counts.values())
    crash = sum(n for outcome, n in counts.items() if outcome.crash_origin)
    c_detected = counts.get(Outcome.C_DETECTED, 0)
    c_benign = counts.get(Outcome.C_BENIGN, 0)
    c_sdc = counts.get(Outcome.C_SDC, 0)
    continued = c_detected + c_benign + c_sdc
    return LetGoMetrics(
        continuability=proportion(continued, crash),
        continued_detected=proportion(c_detected, crash),
        continued_correct=proportion(c_benign, crash),
        continued_sdc=proportion(c_sdc, crash),
        crash_count=crash,
        total=total,
    )


def overall_sdc_rate(counts: dict[Outcome, int]) -> Proportion:
    """SDCs (undetected wrong results) as a fraction of all injections.

    With LetGo this includes both the original SDCs and those introduced
    by continuation -- the quantity the paper tracks as "the increase in
    the SDC rate".
    """
    total = sum(counts.values())
    sdc = sum(n for outcome, n in counts.items() if outcome.is_sdc)
    return proportion(sdc, total)


def crash_probability(counts: dict[Outcome, int]) -> Proportion:
    """P_crash: probability that a fault crashes the application.

    Feeds the C/R simulation's per-application parameters (Table 4).
    """
    total = sum(counts.values())
    crash = sum(n for outcome, n in counts.items() if outcome.crash_origin)
    return proportion(crash, total)


__all__ = [
    "Proportion",
    "proportion",
    "LetGoMetrics",
    "compute_metrics",
    "overall_sdc_rate",
    "crash_probability",
]
