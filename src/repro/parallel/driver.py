"""Coordinated checkpoint/restart for SPMD clusters, with LetGo.

Implements the paper's Section-7 multi-node assumptions *in vivo*:
synchronous coordinated checkpoints (all ranks + in-flight messages
captured together), and global rollback -- "when one node crashes, all
nodes in the system have to fall back to the last checkpoint and
re-execute together".  With LetGo attached, a crash on one rank is
repaired locally and *every* rank's work since the checkpoint is saved,
which is exactly why the paper expects LetGo's advantage to grow with
scale.

A deadlock (e.g. a receiver starved because LetGo elided a crashed send)
is treated like a failure: global rollback under C/R, death without it.

Comm-safe repair: by default the driver refuses to elide crashes whose
faulting instruction is a communication op (send/recv and friends) --
skipping a message does not perturb a number, it tears the synchronisation
structure, and measurements show the resulting deadlocks cost more than
the rollback LetGo avoided.  ``repair_comm=True`` restores the naive
behaviour for ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.checkpoint.snapshot import Snapshot, restore, snapshot
from repro.core.config import LetGoConfig
from repro.core.modifier import Modifier
from repro.core.monitor import Monitor
from repro.errors import SimulationError
from repro.faultinject.fault_model import flip_bit, select_target
from repro.isa.instructions import NETWORK_OPS
from repro.machine.cluster import Cluster
from repro.machine.debugger import DebugSession
from repro.parallel.app import ParallelApp


class ClusterPolicy(Enum):
    """Failure handling for a cluster run."""

    NONE = "none"
    CR = "cr"
    CR_LETGO = "cr+letgo"


@dataclass(frozen=True)
class ClusterCRParams:
    """Platform parameters in cluster-total instruction units."""

    interval: int                 # work between coordinated checkpoints
    t_chk: int                    # charged cost of one coordinated checkpoint
    t_r: int | None = None       # rollback cost (default t_chk)
    t_sync: int = 0               # extra per-checkpoint coordination cost
    t_letgo: int = 0              # charged cost of one LetGo repair
    mtbf_faults: float = 50_000.0  # mean cluster-instructions between faults

    def __post_init__(self) -> None:
        if self.interval <= 0 or self.mtbf_faults <= 0:
            raise SimulationError("invalid ClusterCRParams")

    @property
    def recovery(self) -> int:
        return (self.t_chk if self.t_r is None else self.t_r) + self.t_sync


@dataclass(frozen=True)
class ClusterSnapshot:
    """Coordinated checkpoint: every rank + the network, atomically."""

    ranks: tuple[Snapshot, ...]
    channels: dict = field(hash=False)


def take_cluster_snapshot(cluster: Cluster) -> ClusterSnapshot:
    """Capture all ranks and in-flight messages (all must be running)."""
    return ClusterSnapshot(
        ranks=tuple(snapshot(cluster.process(r)) for r in range(cluster.size)),
        channels=cluster.network.capture(),
    )


def restore_cluster(cluster: Cluster, snap: ClusterSnapshot) -> None:
    """Roll every rank and the network back to the checkpoint."""
    for rank, rank_snap in enumerate(snap.ranks):
        cluster.replace_process(rank, restore(cluster.program, rank_snap))
    cluster.network.reset(snap.channels)


@dataclass
class ClusterRunResult:
    """Outcome of one coordinated run."""

    policy: ClusterPolicy
    size: int
    completed: bool
    outcome: str                  # benign|sdc|detected|dead|hung|deadlocked
    useful: int
    cost: int
    checkpoints: int = 0
    rollbacks: int = 0
    deadlock_rollbacks: int = 0
    restarts: int = 0             # fell back to the initial state (poisoned ckpt)
    faults_injected: int = 0
    letgo_repairs: int = 0

    @property
    def efficiency(self) -> float:
        if not self.completed or self.cost <= 0:
            return 0.0
        return self.useful / self.cost


class CoordinatedRun:
    """Drives one cluster run under a policy with injected faults."""

    def __init__(
        self,
        app: ParallelApp,
        params: ClusterCRParams,
        policy: ClusterPolicy,
        seed: int,
        letgo: LetGoConfig | None = None,
        repair_comm: bool = False,
    ):
        if policy is ClusterPolicy.CR_LETGO and letgo is None:
            raise SimulationError("CR_LETGO policy needs a LetGo config")
        self.app = app
        self.params = params
        self.policy = policy
        self.letgo = letgo
        self.repair_comm = repair_comm
        self.rng = np.random.default_rng(seed)
        self._monitor = Monitor(letgo) if letgo is not None else None
        self._modifier = (
            Modifier(letgo, app.functions) if letgo is not None else None
        )

    def run(self) -> ClusterRunResult:
        app, params = self.app, self.params
        cluster = app.make_cluster()
        result = ClusterRunResult(
            policy=self.policy,
            size=app.size,
            completed=False,
            outcome="dead",
            useful=app.golden_steps,
            cost=0,
        )
        can_checkpoint = self.policy is not ClusterPolicy.NONE
        initial = take_cluster_snapshot(cluster) if can_checkpoint else None
        ckpt = initial
        since_ckpt = 0
        to_fault = self._next_fault()
        budget = app.max_steps * 4
        repairs_since_rollback = 0
        # Repeated failures from one checkpoint mean the checkpoint itself
        # captured corrupted (e.g. deadlock-bound) state; after a few tries
        # the job restarts from scratch, as an operator would.
        failures_since_ckpt = 0
        self._restart_pending = False

        while result.cost < budget:
            stride = min(params.interval - since_ckpt, to_fault)
            if not can_checkpoint:
                stride = to_fault
            event = cluster.run(stride)
            result.cost += event.steps
            since_ckpt += event.steps
            to_fault -= event.steps

            if event.kind == "exited":
                outputs = cluster.outputs()
                result.completed = True
                result.outcome = self._classify(outputs)
                return result

            if event.kind == "trap":
                assert event.trap is not None and event.rank is not None
                # Eliding a network op tears the message protocol.
                comm_fault = (
                    event.trap.instr is not None
                    and event.trap.instr.op in NETWORK_OPS
                )
                handled = (
                    self.policy is ClusterPolicy.CR_LETGO
                    and self._monitor is not None
                    and self._monitor.intercepts(event.trap.signal)
                    and (self.repair_comm or not comm_fault)
                    and repairs_since_rollback
                    < self.letgo.max_interventions * self.app.size  # type: ignore[union-attr]
                )
                if handled:
                    assert self._modifier is not None
                    session = DebugSession(cluster.process(event.rank))
                    self._modifier.repair(session, event.trap)
                    result.cost += params.t_letgo
                    result.letgo_repairs += 1
                    repairs_since_rollback += 1
                    continue
                if self.policy is ClusterPolicy.NONE:
                    result.outcome = "dead"
                    return result
                failures_since_ckpt += 1
                if failures_since_ckpt > 3:
                    ckpt = initial
                    result.restarts += 1
                    failures_since_ckpt = 0
                self._rollback(cluster, ckpt, result)
                since_ckpt = 0
                to_fault = self._next_fault()
                repairs_since_rollback = 0
                continue

            if event.kind == "deadlock":
                if self.policy is ClusterPolicy.NONE:
                    result.outcome = "deadlocked"
                    return result
                result.deadlock_rollbacks += 1
                failures_since_ckpt += 1
                if failures_since_ckpt > 1:
                    # deterministic re-deadlock: the checkpoint is poisoned
                    ckpt = initial
                    result.restarts += 1
                    failures_since_ckpt = 0
                self._rollback(cluster, ckpt, result)
                since_ckpt = 0
                to_fault = self._next_fault()
                repairs_since_rollback = 0
                continue

            assert event.kind == "budget"
            if to_fault <= 0:
                self._inject(cluster)
                result.faults_injected += 1
                to_fault = self._next_fault()
            if (
                can_checkpoint
                and since_ckpt >= params.interval
                and self._all_running(cluster)
            ):
                ckpt = take_cluster_snapshot(cluster)
                result.cost += params.t_chk + params.t_sync
                result.checkpoints += 1
                since_ckpt = 0
                repairs_since_rollback = 0
                failures_since_ckpt = 0

        result.outcome = "hung"
        return result

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _all_running(cluster: Cluster) -> bool:
        return not any(r.exited or r.terminated for r in cluster.ranks)

    def _rollback(self, cluster: Cluster, ckpt, result: ClusterRunResult) -> None:
        assert ckpt is not None
        restore_cluster(cluster, ckpt)
        result.cost += self.params.recovery
        result.rollbacks += 1

    def _next_fault(self) -> int:
        return max(1, int(self.rng.exponential(self.params.mtbf_faults)))

    def _inject(self, cluster: Cluster) -> None:
        live = [
            r for r in range(cluster.size)
            if not (cluster.ranks[r].exited or cluster.ranks[r].terminated)
        ]
        if not live:
            return
        rank = live[int(self.rng.integers(len(live)))]
        cpu = cluster.process(rank).cpu
        pc = cpu.pc
        instrs = cluster.program.instrs
        if not 0 <= pc < len(instrs):
            return
        target = select_target(instrs[pc], float(self.rng.random()))
        if target is None:
            return
        flip_bit(cpu, target[0], target[1], int(self.rng.integers(64)))

    def _classify(self, outputs) -> str:
        if not self.app.acceptance_check(outputs):
            return "detected"
        if self.app.matches_golden(outputs):
            return "benign"
        return "sdc"


def drive_cluster(
    app: ParallelApp,
    params: ClusterCRParams,
    policy: ClusterPolicy,
    seed: int = 0,
    letgo: LetGoConfig | None = None,
    repair_comm: bool = False,
) -> ClusterRunResult:
    """One-shot convenience wrapper."""
    return CoordinatedRun(app, params, policy, seed, letgo, repair_comm).run()


__all__ = [
    "ClusterPolicy",
    "ClusterCRParams",
    "ClusterSnapshot",
    "take_cluster_snapshot",
    "restore_cluster",
    "ClusterRunResult",
    "CoordinatedRun",
    "drive_cluster",
]
