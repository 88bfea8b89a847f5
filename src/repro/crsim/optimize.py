"""Checkpoint-interval optimisation against the simulated machines.

Young's formula is the paper's (and this package's) default; this module
finds the *simulation-optimal* interval by golden-section search on the
seeded M-S / M-L efficiency curves (a private routine below, so the
module needs neither numpy nor an optimisation library).  Used by the
interval ablation to quantify how close Young's choice lands, and
available to users tuning a deployment whose parameters fall outside the
formula's assumptions (e.g. low ``P_v``, where verification failures
dominate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean
from typing import Callable

from repro.crsim.machines import simulate_letgo, simulate_standard
from repro.crsim.params import AppParams, SystemParams, YEAR, young_interval
from repro.errors import SimulationError


@dataclass(frozen=True)
class OptimalInterval:
    """Result of an interval search."""

    interval: float
    efficiency: float
    young: float              # Young's choice for the same configuration
    young_efficiency: float

    @property
    def improvement(self) -> float:
        """Efficiency gained over Young's choice (>= 0 up to noise)."""
        return self.efficiency - self.young_efficiency

    @property
    def ratio_to_young(self) -> float:
        """Optimal interval relative to Young's."""
        return self.interval / self.young if self.young > 0 else float("inf")


#: Search tolerance on the interval, as a fraction of Young's interval.
_XATOL = 0.02
#: Most bracket-shrinking steps per search.
_MAXITER = 24
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(
    f: Callable[[float], float], lo: float, hi: float, xatol: float, maxiter: int
) -> tuple[float, float]:
    """Minimise a unimodal *f* on ``[lo, hi]``; ``(x, f(x))`` of the best probe.

    Each step drops the worse end of the bracket, shrinking it by 1/phi for
    one new evaluation, until it is at most ``2 * xatol`` wide (scipy's
    bounded-method test) or *maxiter* steps ran: at most ``maxiter + 2``
    evaluations.
    """
    a, b = lo, hi
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(maxiter):
        if b - a <= 2.0 * xatol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def _mean_eff(simulate, system, app, interval, needed, seeds) -> float:
    return fmean(
        simulate(system, app, needed=needed, seed=s, interval=interval).efficiency
        for s in seeds
    )


def optimize_interval(
    system: SystemParams,
    app: AppParams,
    letgo: bool = False,
    needed: float = YEAR,
    seeds: tuple[int, ...] = (1, 2),
    span: float = 8.0,
) -> OptimalInterval:
    """Golden-section search for the best checkpoint interval.

    Searches ``[young/span, young*span]`` on the mean seeded efficiency of
    the chosen machine.  The curve is noisy (finite simulation) but
    unimodal enough in practice; ``seeds`` averages the noise down.
    """
    if span <= 1.0:
        raise SimulationError("span must exceed 1")
    simulate = simulate_letgo if letgo else simulate_standard
    mtbf = (
        app.mtbf_letgo(system.mtbfaults) if letgo else app.mtbf_failures(system.mtbfaults)
    )
    young = young_interval(system.t_chk, min(mtbf, 1e15))
    young = min(young, needed)

    def negative_efficiency(interval: float) -> float:
        return -_mean_eff(simulate, system, app, interval, needed, seeds)

    best_interval, best = _golden_section(
        negative_efficiency, young / span, young * span, young * _XATOL, _MAXITER
    )
    return OptimalInterval(
        interval=best_interval,
        efficiency=-best,
        young=young,
        young_efficiency=_mean_eff(simulate, system, app, young, needed, seeds),
    )


__all__ = ["OptimalInterval", "optimize_interval"]
