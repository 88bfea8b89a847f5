"""Campaign engine speedup: naive serial loop vs ladder vs fan-out.

Times the identical (app, n, seed, config) campaign three ways:

* ``naive``   -- the seed behaviour: one process per injection, golden
  prefix replayed from instruction 0, strictly serial;
* ``ladder``  -- snapshot-ladder prefix reuse, still one core (the timing
  includes building the ladder, i.e. the extra golden run);
* ``engine``  -- ladder plus multiprocess fan-out across up to 4 workers.

All three must produce identical outcome counts (the engine's determinism
guarantee); the recorded artifact is the speedup table.  The ≥3x
acceptance floor applies to the fan-out configuration on a multi-core
runner; on fewer cores only the ladder's serial win is asserted.
"""

import os
import time

from repro.apps.base import TRAP_FREE_MEMO
from repro.core import LETGO_E
from repro.faultinject import NO_LADDER, CampaignConfig, CampaignEngine

from conftest import write_artifact

ENGINE_N = int(os.environ.get("REPRO_BENCH_ENGINE_N", "200"))
SEED = 20170626
APP = "pennant"
JOBS = max(1, min(4, os.cpu_count() or 1))


def test_campaign_engine_speedup(apps):
    app = apps[APP]
    app.golden  # keep compile/profile out of every timing

    rows = []
    counts = {}

    def measure(label, engine):
        # Every mode executes all its plans: this compares prefix reuse
        # and fan-out, not runs a previous mode left in the memo.
        TRAP_FREE_MEMO.clear()
        t0 = time.perf_counter()
        result = engine.run(app, ENGINE_N, SEED, LETGO_E)
        elapsed = time.perf_counter() - t0
        counts[label] = result.counts
        rows.append((label, elapsed, engine.stats))
        return elapsed

    t_naive = measure(
        "naive",
        CampaignEngine(config=CampaignConfig(jobs=1, ladder_interval=NO_LADDER)),
    )
    t_ladder = measure("ladder", CampaignEngine(config=CampaignConfig(jobs=1)))
    t_engine = measure("engine", CampaignEngine(config=CampaignConfig(jobs=JOBS)))

    assert counts["ladder"] == counts["naive"]
    assert counts["engine"] == counts["naive"]

    ladder_speedup = t_naive / t_ladder
    engine_speedup = t_naive / t_engine
    lines = [
        f"campaign engine speedup -- app={APP} n={ENGINE_N} seed={SEED} "
        f"config=LetGo-E cores={os.cpu_count()} jobs={JOBS}",
        "",
        f"{'mode':8s} {'seconds':>9s} {'inj/s':>8s} {'speedup':>8s}  detail",
    ]
    for label, elapsed, stats in rows:
        lines.append(
            f"{label:8s} {elapsed:9.2f} {stats.injections_per_sec:8.1f} "
            f"{t_naive / elapsed:7.2f}x  {stats.describe()}"
        )
    lines += [
        "",
        f"ladder-only speedup : {ladder_speedup:.2f}x",
        f"full engine speedup : {engine_speedup:.2f}x",
        "outcome counts identical across all modes: yes",
    ]
    write_artifact("campaign_engine.txt", "\n".join(lines))

    if JOBS >= 4:
        assert engine_speedup >= 3.0, (
            f"engine {engine_speedup:.2f}x < 3x on a {JOBS}-worker run"
        )
    else:
        # Single/dual-core runner: the fan-out lever is unavailable, the
        # ladder must still pay for itself (including its build cost).
        assert ladder_speedup >= 1.3, f"ladder only {ladder_speedup:.2f}x"
    assert engine_speedup >= ladder_speedup * 0.8  # fan-out must not regress
