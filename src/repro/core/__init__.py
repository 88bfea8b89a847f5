"""LetGo core: monitor + modifier + heuristics + session runner.

The paper's primary contribution.  ``LetGoSession(config, functions)``
runs a loaded process and continues it across crash-causing errors
instead of letting the OS kill it, per the configured variant (LetGo-B /
LetGo-E / ablations).
"""

from repro.core.config import (
    LETGO_B,
    LETGO_E,
    LETGO_H1,
    LETGO_H2,
    VARIANTS,
    LetGoConfig,
)
from repro.core.heuristics import (
    HeuristicReport,
    RepairAction,
    apply_heuristic1,
    apply_heuristic2,
)
from repro.core.modifier import InterventionRecord, Modifier
from repro.core.monitor import Monitor, SignalPolicy
from repro.core.session import (
    COMPLETED,
    HUNG,
    TERMINATED,
    LetGoRunReport,
    LetGoSession,
)

__all__ = [
    "LetGoConfig",
    "LETGO_B",
    "LETGO_E",
    "LETGO_H1",
    "LETGO_H2",
    "VARIANTS",
    "Monitor",
    "SignalPolicy",
    "Modifier",
    "InterventionRecord",
    "HeuristicReport",
    "RepairAction",
    "apply_heuristic1",
    "apply_heuristic2",
    "LetGoSession",
    "LetGoRunReport",
    "COMPLETED",
    "TERMINATED",
    "HUNG",
]
