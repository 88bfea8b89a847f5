"""In-vivo Figure 1: the three failure policies executed for real.

Runs the PENNANT proxy end-to-end on the machine, as a one-rank job of the
coordinated C/R driver, under Poisson fault arrivals with (a) no fault tolerance, (b) checkpoint/restart, and
(c) C/R + LetGo -- the scenario Figure 1 illustrates -- and measures
delivered efficiency directly instead of modelling it.  Expected shape,
matching both the figure and the Section-7 model: unprotected runs die;
C/R survives through rollbacks; LetGo converts most rollbacks into cheap
repairs and delivers at least C/R's efficiency.
"""

import os

import numpy as np

from repro.apps import make_app
from repro.core import LETGO_E
from repro.parallel import ClusterCRParams, ClusterPolicy, OneRankApp, drive_cluster
from repro.reporting import ascii_table

from conftest import write_artifact

SEEDS = range(int(os.environ.get("REPRO_INVIVO_SEEDS", "10")))
PARAMS = ClusterCRParams(
    interval=15_000, t_chk=3_000, t_letgo=100, mtbf_faults=12_000.0
)


def build_study():
    app = OneRankApp(make_app("pennant"))
    rows = []
    stats = {}
    for policy in (ClusterPolicy.NONE, ClusterPolicy.CR, ClusterPolicy.CR_LETGO):
        kwargs = {"letgo": LETGO_E} if policy is ClusterPolicy.CR_LETGO else {}
        runs = [drive_cluster(app, PARAMS, policy, seed=s, **kwargs) for s in SEEDS]
        completed = sum(r.completed for r in runs)
        eff = float(np.mean([r.efficiency for r in runs]))
        rollbacks = sum(r.rollbacks for r in runs)
        repairs = sum(r.letgo_repairs for r in runs)
        sdc = sum(r.outcome == "sdc" for r in runs)
        stats[policy] = dict(
            completed=completed, eff=eff, rollbacks=rollbacks,
            repairs=repairs, sdc=sdc,
        )
        rows.append(
            [
                policy.value,
                f"{completed}/{len(list(SEEDS))}",
                f"{eff:.3f}",
                rollbacks,
                repairs,
                sdc,
            ]
        )
    text = ascii_table(
        ["policy", "completed", "mean efficiency", "rollbacks", "repairs", "SDC runs"],
        rows,
        title=(
            "In-vivo Figure 1 on PENNANT "
            f"(interval={PARAMS.interval}, t_chk={PARAMS.t_chk}, "
            f"MTBFaults={PARAMS.mtbf_faults:.0f} instructions)"
        ),
    )
    return stats, text


def test_invivo_figure1(benchmark):
    stats, text = benchmark.pedantic(build_study, rounds=1, iterations=1)
    print("\n" + text)
    write_artifact("invivo_figure1.txt", text)

    none, cr, lg = (
        stats[ClusterPolicy.NONE], stats[ClusterPolicy.CR], stats[ClusterPolicy.CR_LETGO]
    )
    n = len(list(SEEDS))
    # unprotected runs die at this fault rate
    assert none["completed"] < n
    # C/R completes (nearly) everything, at a rollback cost
    assert cr["completed"] >= n - 2
    assert cr["rollbacks"] > 0
    # LetGo repairs crashes instead of rolling back...
    assert lg["repairs"] > 0
    assert lg["rollbacks"] < cr["rollbacks"]
    # ...and delivers at least C/R's efficiency (the paper's headline)
    assert lg["eff"] >= cr["eff"] - 0.02
    # both protected schemes beat the unprotected mean (dead runs deliver 0)
    assert cr["eff"] > none["eff"]
