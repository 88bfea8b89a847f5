"""SPMD parallelism: clusters, a parallel proxy app, coordinated C/R.

The paper's "towards large-scale application" extension, built for real:
multi-rank jobs with message passing, synchronous coordinated
checkpointing, global rollback on failure, and per-rank LetGo repair that
saves every rank's work at once.  A single-process MiniApp runs on the
same driver as a one-rank job (:class:`OneRankApp`, the Figure-1 runs).
"""

from repro.machine.cluster import Cluster, ClusterEvent, Network
from repro.parallel.app import HeatApp, OneRankApp, ParallelApp, RankOutputs
from repro.parallel.cg import CgApp
from repro.parallel.driver import (
    ClusterCRParams,
    ClusterPolicy,
    ClusterRunResult,
    ClusterSnapshot,
    CoordinatedRun,
    drive_cluster,
    restore_cluster,
    take_cluster_snapshot,
)

__all__ = [
    "Cluster",
    "ClusterEvent",
    "Network",
    "ParallelApp",
    "OneRankApp",
    "HeatApp",
    "CgApp",
    "RankOutputs",
    "ClusterPolicy",
    "ClusterCRParams",
    "ClusterSnapshot",
    "take_cluster_snapshot",
    "restore_cluster",
    "ClusterRunResult",
    "CoordinatedRun",
    "drive_cluster",
]
