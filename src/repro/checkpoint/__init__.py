"""Bit-exact process snapshots and the golden run's snapshot ladder.

A :class:`Snapshot` captures a whole process and restores it exactly;
the campaign engine restores ladder rungs to skip golden prefixes and
compares rungs to detect post-fault convergence.  The in-vivo
checkpoint/restart runs (Figure 1 and its multi-rank extension) take
their checkpoints with these snapshots in :mod:`repro.parallel.driver`.
"""

from repro.checkpoint.snapshot import (
    Snapshot,
    SnapshotLadder,
    build_ladder,
    restore,
    restore_into,
    snapshot,
)

__all__ = [
    "Snapshot",
    "snapshot",
    "restore",
    "restore_into",
    "SnapshotLadder",
    "build_ladder",
]
