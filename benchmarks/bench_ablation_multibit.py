"""Ablation (extension): multi-bit upsets.

The paper's Section-8 hardware discussion notes that ~30% of uncorrectable
memory errors manifest as multiple flipped bits and that nothing in LetGo
fundamentally limits it to single flips.  This bench injects 1-, 2- and
4-bit upsets (all in the target register) and tracks how crash rate and
LetGo's metrics move.
"""

import os

from repro.apps import make_app
from repro.core import LETGO_E
from repro.faultinject import CampaignEngine, seeded_plans
from repro.reporting import ascii_table, pct

from conftest import SEED, write_artifact

N = int(os.environ.get("REPRO_BENCH_N", "150"))
APP = "pennant"


def build_table():
    app = make_app(APP)
    rows = []
    series = {}
    for n_bits in (1, 2, 4):
        plans = seeded_plans(app.golden.instret, N, SEED, n_bits=n_bits)
        campaign = CampaignEngine().run(
            app, N, seed=SEED, config=LETGO_E, plans=plans
        )
        m = campaign.metrics()
        series[n_bits] = campaign
        rows.append(
            [
                n_bits,
                pct(campaign.crash_rate().value),
                pct(m.continuability.value),
                pct(m.continued_correct.value),
                pct(campaign.sdc_rate().value),
            ]
        )
    text = ascii_table(
        ["bits", "crash rate", "continuability", "continued correct", "SDC rate"],
        rows,
        title=f"Multi-bit upset ablation on {APP.upper()} (n={N} per width)",
    )
    return series, text


def test_ablation_multibit(benchmark):
    series, text = benchmark.pedantic(build_table, rounds=1, iterations=1)
    print("\n" + text)
    write_artifact("ablation_multibit.txt", text)

    crash1 = series[1].crash_rate().value
    crash4 = series[4].crash_rate().value
    # wider upsets crash at least as often (more high bits hit)
    assert crash4 >= crash1 - 0.05
    # LetGo still elides a substantial share even for 4-bit upsets
    assert series[4].metrics().continuability.value > 0.3
