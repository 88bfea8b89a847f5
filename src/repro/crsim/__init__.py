"""Continuous-time C/R simulation (paper section 7).

State machines M-S (standard checkpoint/restart) and M-L (C/R + LetGo)
over Poisson fault arrivals, with Young-interval checkpointing and the
Table-4 parameter model.  Used to reproduce Figures 7 and 8 and the
Section-8 HPL discussion.

Names are loaded from their submodule on first access (PEP 562), so
``repro.crsim.params`` -- all the CLI needs to build its parser -- can be
imported without loading numpy.  The interval search in ``optimize`` is
a standard-library golden-section search.
"""

from importlib import import_module

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "daly_optimal_interval": "analytic",
    "expected_efficiency_standard": "analytic",
    "expected_efficiency_letgo": "analytic",
    "GainPoint": "decision",
    "gain_surface": "decision",
    "Recommendation": "decision",
    "recommend": "decision",
    "OptimalInterval": "optimize",
    "optimize_interval": "optimize",
    "SimResult": "machines",
    "simulate_standard": "machines",
    "simulate_letgo": "machines",
    "SystemParams": "params",
    "AppParams": "params",
    "young_interval": "params",
    "PAPER_APP_PARAMS": "params",
    "T_CHK_CHOICES": "params",
    "BASELINE_MTBFAULTS": "params",
    "YEAR": "params",
    "EfficiencyComparison": "simulator",
    "compare_efficiency": "simulator",
    "mean_efficiency": "simulator",
    "single_runs": "simulator",
    "FIG8_NODE_COUNTS": "sweep",
    "IntervalPoint": "sweep",
    "sweep_checkpoint_overhead": "sweep",
    "sweep_interval_multiplier": "sweep",
    "sweep_system_scale": "sweep",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
