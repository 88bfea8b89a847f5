"""Telemetry overhead: a traced campaign must stay cheap.

Times the identical (app, n, seed, config) campaign with telemetry off
and with a JSONL trace written.  The engine accounts phases and counters
and builds its report either way (``EngineStats`` reads that report); a
trace file adds the timeline, streamed to disk as shards commit, and is
allowed a modest, bounded cost.  The per-phase numbers
themselves are perfbench's job (``perfbench/run.py --trace 1``).

Also runnable standalone: ``python benchmarks/bench_campaign_telemetry.py``.
"""

import os
import tempfile
from pathlib import Path
from time import perf_counter

from repro.apps.base import TRAP_FREE_MEMO
from repro.core import LETGO_E
from repro.faultinject import CampaignConfig, CampaignEngine

TELEMETRY_N = int(os.environ.get("REPRO_BENCH_TELEMETRY_N", "150"))
SEED = 20170626
APP = "pennant"

#: Enabled-telemetry slowdown ceiling (generous: CI runners are noisy;
#: the point is catching an accidental hot-path regression, not 1%).
MAX_ENABLED_OVERHEAD = 1.25


def _measure(app, trace: str | None):
    TRAP_FREE_MEMO.clear()  # both timings execute every plan
    engine = CampaignEngine(config=CampaignConfig(jobs=1, trace=trace))
    t0 = perf_counter()
    result = engine.run(app, TELEMETRY_N, SEED, LETGO_E)
    return perf_counter() - t0, result, engine.telemetry


def run_bench(app):
    """(traced / untraced wall-clock ratio, the traced run's report)."""
    app.golden  # keep compile/profile out of both timings
    _measure(app, None)  # warm caches (ladder, compiled blocks)

    t_off, result_off, report_off = _measure(app, None)
    with tempfile.TemporaryDirectory() as tmp:
        t_on, result_on, report_on = _measure(
            app, str(Path(tmp) / "campaign.jsonl")
        )

    assert report_off is None
    assert report_on is not None
    # Telemetry observes, never participates.
    assert result_on.counts == result_off.counts
    assert report_on.outcome_counts() == {
        outcome.value: count for outcome, count in result_on.counts.items()
    }
    return (t_on / t_off if t_off > 0 else 1.0), report_on


def test_telemetry_overhead_and_phase_counts(apps):
    overhead, report = run_bench(apps[APP])
    assert overhead <= MAX_ENABLED_OVERHEAD, (
        f"traced campaign {overhead:.2f}x slower "
        f"than untraced (ceiling {MAX_ENABLED_OVERHEAD}x)"
    )
    # The report must cover the paper loop's phases.
    for phase in ("restore", "advance-to-site", "post-fault"):
        assert report.phases[phase].count == TELEMETRY_N


if __name__ == "__main__":
    from repro.apps import make_app

    overhead, report = run_bench(make_app(APP))
    print(report.render(title=f"telemetry: {APP}, n={TELEMETRY_N}"))
    print(f"\ntelemetry overhead: {overhead:.3f}x")
