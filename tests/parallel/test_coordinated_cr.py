"""The one coordinated C/R driver on a multi-rank heat cluster.

The same driver running pennant as a one-rank job (the Figure-1 runs)
is tested in ``tests/checkpoint/test_driver.py``.
"""

import numpy as np
import pytest

from repro.core import LETGO_E
from repro.errors import SimulationError
from repro.isa.instructions import NETWORK_OPS, Instr, Op
from repro.machine.signals import Signal, Trap
from repro.parallel import (
    ClusterCRParams,
    ClusterPolicy,
    CoordinatedRun,
    HeatApp,
    drive_cluster,
    restore_cluster,
    take_cluster_snapshot,
)
from repro.parallel.driver import _not_comm

PARAMS = ClusterCRParams(
    interval=20_000, t_chk=4_000, t_sync=400, t_letgo=100, mtbf_faults=15_000.0
)
CALM = ClusterCRParams(interval=40_000, t_chk=1_000, mtbf_faults=10**9)


@pytest.fixture(scope="module")
def heat():
    app = HeatApp(size=4)
    app.golden
    return app


def test_params_validation():
    with pytest.raises(SimulationError):
        ClusterCRParams(interval=0, t_chk=1)


@pytest.mark.parametrize("cost", ["t_chk", "t_r", "t_sync", "t_letgo"])
def test_negative_costs_rejected(cost):
    """A negative charge could push efficiency above 1."""
    costs = {"t_chk": 5, cost: -1}
    with pytest.raises(SimulationError, match=cost):
        ClusterCRParams(interval=10, **costs)


def test_letgo_policy_needs_config(heat):
    with pytest.raises(SimulationError):
        CoordinatedRun(heat, PARAMS, ClusterPolicy.CR_LETGO, seed=0)


def test_cluster_snapshot_roundtrip(heat):
    cluster = heat.make_cluster()
    cluster.run(5_000)
    snap = take_cluster_snapshot(cluster)
    in_flight = cluster.network.in_flight()
    # run on, then roll back and check everything resumed correctly
    cluster.run(5_000)
    restore_cluster(cluster, snap)
    assert cluster.network.in_flight() == in_flight
    event = cluster.run(10**8)
    assert event.kind == "exited"
    assert cluster.outputs() == heat.golden_outputs


def test_fault_free_run(heat):
    result = drive_cluster(heat, CALM, ClusterPolicy.CR, seed=1)
    assert result.completed and result.outcome == "benign"
    assert result.faults_injected == 0
    assert result.rollbacks == 0
    assert result.cost == heat.golden_steps + result.checkpoints * CALM.t_chk


def test_none_policy_no_checkpoints(heat):
    result = drive_cluster(heat, CALM, ClusterPolicy.NONE, seed=1)
    assert result.completed
    assert result.checkpoints == 0
    assert result.cost == heat.golden_steps


def test_deterministic(heat):
    a, b = (
        drive_cluster(heat, PARAMS, ClusterPolicy.CR_LETGO, seed=7, letgo=LETGO_E)
        for _ in range(2)
    )
    assert a == b


def test_cr_completes_under_faults(heat):
    completed = 0
    for seed in range(6):
        result = drive_cluster(heat, PARAMS, ClusterPolicy.CR, seed=seed)
        completed += result.completed
    assert completed >= 5


def test_letgo_not_worse_than_cr(heat):
    cr = np.mean(
        [drive_cluster(heat, PARAMS, ClusterPolicy.CR, seed=s).efficiency
         for s in range(6)]
    )
    lg = np.mean(
        [
            drive_cluster(
                heat, PARAMS, ClusterPolicy.CR_LETGO, seed=s, letgo=LETGO_E
            ).efficiency
            for s in range(6)
        ]
    )
    assert lg >= cr - 0.03


def test_unprotected_cluster_can_die(heat):
    hot = ClusterCRParams(interval=20_000, t_chk=4_000, mtbf_faults=4_000.0)
    outcomes = [
        drive_cluster(heat, hot, ClusterPolicy.NONE, seed=s).outcome
        for s in range(6)
    ]
    assert any(o in ("dead", "deadlocked") for o in outcomes)


def test_poisoned_checkpoint_restart_bounded(heat):
    """No run should loop forever on a corrupt checkpoint."""
    hot = ClusterCRParams(
        interval=15_000, t_chk=3_000, t_letgo=100, mtbf_faults=6_000.0
    )
    for seed in range(4):
        result = drive_cluster(heat, hot, ClusterPolicy.CR, seed=seed)
        # either completes, or gives up within the budget with few rollbacks
        assert result.rollbacks < 200


def test_comm_safe_rule_refuses_only_network_ops():
    for op in NETWORK_OPS:
        assert not _not_comm(Trap(Signal.SIGSEGV, pc=0, instr=Instr(op)))
    assert _not_comm(Trap(Signal.SIGSEGV, pc=0, instr=Instr(Op.LD)))
    assert _not_comm(Trap(Signal.SIGSEGV, pc=0))  # fetch fault


def test_checkpoint_due_after_a_rank_exited_does_not_stall():
    """A checkpoint falls due after rank 1 has exited and before rank 0
    has: it cannot be taken, and the run used to spin on zero-length
    strides forever.  It now runs on to the end without it."""
    app = HeatApp(size=2)
    params = ClusterCRParams(
        interval=app.golden_steps - 100, t_chk=1_000, mtbf_faults=10**9
    )
    result = drive_cluster(app, params, ClusterPolicy.CR, seed=1)
    assert result.completed and result.outcome == "benign"
    assert result.checkpoints == 0
    assert result.cost == app.golden_steps
