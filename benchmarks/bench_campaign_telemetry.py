"""Telemetry overhead and the per-phase baseline trajectory.

Times the identical (app, n, seed, config) campaign with telemetry off
and on.  Off is the default and must stay effectively free (the null
tracer is one attribute lookup + no-op call per phase); on buys the full
phase/counter accounting and is allowed a modest, bounded cost.

The enabled run's aggregated phase timings are recorded to
``results/BENCH_phases.json`` -- the baseline trajectory future perf PRs
diff against: a change that shrinks ``post-fault`` or ``restore`` seconds
per injection shows up here before it shows up in end-to-end wall-clock.

Also runnable standalone: ``python benchmarks/bench_campaign_telemetry.py``.
"""

import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

from repro.apps.base import TRAP_FREE_MEMO
from repro.core import LETGO_E
from repro.faultinject import CampaignConfig, CampaignEngine

from conftest import RESULTS_DIR

TELEMETRY_N = int(os.environ.get("REPRO_BENCH_TELEMETRY_N", "150"))
SEED = 20170626
APP = "pennant"

#: Enabled-telemetry slowdown ceiling (generous: CI runners are noisy;
#: the point is catching an accidental hot-path regression, not 1%).
MAX_ENABLED_OVERHEAD = 1.25


def _measure(app, telemetry: bool):
    TRAP_FREE_MEMO.clear()  # both timings execute every plan
    engine = CampaignEngine(
        config=CampaignConfig(jobs=1, telemetry=telemetry)
    )
    t0 = perf_counter()
    result = engine.run(app, TELEMETRY_N, SEED, LETGO_E)
    return perf_counter() - t0, result, engine.telemetry


def run_bench(app) -> dict:
    app.golden  # keep compile/profile out of both timings
    _measure(app, False)  # warm caches (ladder, compiled blocks)

    t_off, result_off, report_off = _measure(app, False)
    t_on, result_on, report_on = _measure(app, True)

    assert report_off is None
    assert report_on is not None
    # Telemetry observes, never participates.
    assert result_on.counts == result_off.counts
    assert report_on.outcome_counts() == {
        outcome.value: count for outcome, count in result_on.counts.items()
    }

    overhead = t_on / t_off if t_off > 0 else 1.0
    doc = {
        "app": APP,
        "n": TELEMETRY_N,
        "seed": SEED,
        "config": "LetGo-E",
        "python": platform.python_version(),
        "wall_seconds_disabled": round(t_off, 4),
        "wall_seconds_enabled": round(t_on, 4),
        "enabled_overhead": round(overhead, 4),
        "phases": {
            name: {
                "count": stat.count,
                "total_seconds": round(stat.total_seconds, 6),
                "mean_ms": round(stat.mean_seconds * 1e3, 4),
                "max_ms": round(stat.max_seconds * 1e3, 4),
            }
            for name, stat in sorted(report_on.phases.items())
        },
        "counters": dict(sorted(report_on.counters.items())),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_phases.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def test_telemetry_overhead_and_phase_baseline(apps):
    doc = run_bench(apps[APP])
    assert doc["enabled_overhead"] <= MAX_ENABLED_OVERHEAD, (
        f"telemetry-enabled campaign {doc['enabled_overhead']:.2f}x slower "
        f"than disabled (ceiling {MAX_ENABLED_OVERHEAD}x)"
    )
    # The trajectory must cover the paper loop's phases.
    for phase in ("restore", "advance-to-site", "post-fault"):
        assert doc["phases"][phase]["count"] == TELEMETRY_N


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    from repro.apps import make_app

    doc = run_bench(make_app(APP))
    print(json.dumps(doc, indent=2))
    print(
        f"\ntelemetry overhead: {doc['enabled_overhead']:.3f}x "
        f"({doc['wall_seconds_disabled']:.2f}s -> "
        f"{doc['wall_seconds_enabled']:.2f}s), "
        f"baseline written to {RESULTS_DIR / 'BENCH_phases.json'}"
    )
