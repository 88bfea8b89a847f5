"""Figure 1 on the one C/R driver: pennant as a one-rank coordinated run.

The same driver on a multi-rank heat cluster is tested in
``tests/parallel/test_coordinated_cr.py``.
"""

import numpy as np
import pytest

from repro.core import LETGO_E
from repro.errors import SimulationError
from repro.parallel import (
    ClusterCRParams,
    ClusterPolicy,
    CoordinatedRun,
    OneRankApp,
    drive_cluster,
)

PARAMS = ClusterCRParams(
    interval=15_000, t_chk=3_000, t_letgo=100, mtbf_faults=12_000.0
)
CALM = ClusterCRParams(
    interval=30_000, t_chk=1_000, t_letgo=100, mtbf_faults=10**9
)


@pytest.fixture(scope="module")
def pennant(pennant_app):
    return OneRankApp(pennant_app)


def test_params_validation():
    with pytest.raises(SimulationError):
        ClusterCRParams(interval=10, t_chk=1, mtbf_faults=0)


def test_recovery_defaults_to_t_chk():
    assert ClusterCRParams(interval=10, t_chk=7).recovery == 7
    assert ClusterCRParams(interval=10, t_chk=7, t_r=3).recovery == 3
    assert ClusterCRParams(interval=10, t_chk=7, t_r=3, t_sync=2).recovery == 5


def test_letgo_policy_needs_config(pennant):
    with pytest.raises(SimulationError):
        CoordinatedRun(pennant, PARAMS, ClusterPolicy.CR_LETGO, seed=0)


def test_fault_free_run_overheads(pennant):
    """With ~no faults, cost = work + checkpoints * t_chk."""
    result = drive_cluster(pennant, CALM, ClusterPolicy.CR, seed=1)
    assert result.completed and result.outcome == "benign"
    assert result.faults_injected == 0
    assert result.rollbacks == 0
    expected_ckpts = pennant.golden_steps // CALM.interval
    assert abs(result.checkpoints - expected_ckpts) <= 1
    assert result.cost == pennant.golden_steps + result.checkpoints * CALM.t_chk


def test_policy_none_takes_no_checkpoints(pennant):
    result = drive_cluster(pennant, CALM, ClusterPolicy.NONE, seed=1)
    assert result.completed
    assert result.checkpoints == 0
    assert result.cost == pennant.golden_steps


def test_efficiency_zero_for_dead_runs(pennant):
    # guaranteed crashes: very high fault rate without protection
    params = ClusterCRParams(interval=10_000, t_chk=100, mtbf_faults=2_000.0)
    dead = [
        drive_cluster(pennant, params, ClusterPolicy.NONE, seed=s)
        for s in range(8)
    ]
    killed = [r for r in dead if not r.completed]
    assert killed, "expected some unprotected run to die"
    assert all(r.efficiency == 0.0 for r in killed)
    assert all(r.outcome == "dead" for r in killed)


def test_cr_survives_where_none_dies(pennant):
    completed_cr = 0
    for seed in range(6):
        result = drive_cluster(pennant, PARAMS, ClusterPolicy.CR, seed=seed)
        if result.completed:
            completed_cr += 1
            assert result.cost >= pennant.golden_steps
    assert completed_cr >= 4  # C/R completes almost always


def test_letgo_reduces_rollbacks_paired(pennant):
    """Same seeds: CR+LetGo rolls back less than CR (repairs instead)."""
    cr_rollbacks = letgo_rollbacks = repairs = 0
    for seed in range(6):
        cr = drive_cluster(pennant, PARAMS, ClusterPolicy.CR, seed=seed)
        lg = drive_cluster(
            pennant, PARAMS, ClusterPolicy.CR_LETGO, seed=seed, letgo=LETGO_E
        )
        cr_rollbacks += cr.rollbacks
        letgo_rollbacks += lg.rollbacks
        repairs += lg.letgo_repairs
    assert repairs > 0
    assert letgo_rollbacks < cr_rollbacks


def test_letgo_efficiency_at_least_cr(pennant):
    """Averaged over seeds, CR+LetGo does not lose to CR."""
    cr = np.mean(
        [
            drive_cluster(pennant, PARAMS, ClusterPolicy.CR, seed=s).efficiency
            for s in range(8)
        ]
    )
    lg = np.mean(
        [
            drive_cluster(
                pennant, PARAMS, ClusterPolicy.CR_LETGO, seed=s, letgo=LETGO_E
            ).efficiency
            for s in range(8)
        ]
    )
    assert lg >= cr - 0.03


def test_accounting_consistency(pennant):
    result = drive_cluster(
        pennant, PARAMS, ClusterPolicy.CR_LETGO, seed=3, letgo=LETGO_E
    )
    if result.completed:
        overhead = (
            result.checkpoints * PARAMS.t_chk
            + result.rollbacks * PARAMS.recovery
            + result.letgo_repairs * PARAMS.t_letgo
        )
        # cost = executed instructions (>= useful) + charged overheads
        assert result.cost >= result.useful + overhead - PARAMS.interval
        assert 0.0 < result.efficiency <= 1.0


def test_deterministic_per_seed(pennant):
    a, b = (
        drive_cluster(
            pennant, PARAMS, ClusterPolicy.CR_LETGO, seed=9, letgo=LETGO_E
        )
        for _ in range(2)
    )
    assert a == b


def test_poisoned_checkpoint_restarts_instead_of_hanging(pennant):
    """Seed 4 keeps failing from one checkpoint.  Rolling back to it
    forever used to exhaust the budget (918 rollbacks, 'hung'); after the
    fourth failure the job restarts from the initial state and completes."""
    result = drive_cluster(pennant, PARAMS, ClusterPolicy.CR, seed=4)
    assert result.completed
    assert result.restarts == 1
    assert result.rollbacks == 5
