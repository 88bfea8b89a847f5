#!/usr/bin/env python
"""Check ladder-cut campaigns against cold runs on the benchmark's plans.

Draws the plans of the ``suite-paired`` benchmark workload
(``perfbench/run.py``'s ``draw_plans``) for every app and the given
rounds, runs baseline and LetGo-E campaigns on them through the engine
(snapshot ladder on, trap-free memo shared as in the benchmark), and
re-runs every plan cold: ``run_injection`` without ladder, memo or
engine, the full-length reference.  Each engine result must equal its
cold run under the fuzz oracles' ``_result_key``, and the LetGo-E
campaigns must include runs that converged behind the rung grid after a
repair (``converged-lagged``).

Run from the repo root:

    PYTHONPATH=src python scripts/check_lagged_convergence.py [--seed 1] [--rounds 3]

Prints one line per app and round plus a total, and exits 0 on success,
1 on any mismatch or if no repaired run converged.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path

from repro.apps import app_names, make_app
from repro.apps.base import TRAP_FREE_MEMO
from repro.core import LETGO_E
from repro.faultinject import CampaignConfig, CampaignEngine, run_injection
from repro.fuzz.oracles import _result_key

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _perfbench():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    bench = _perfbench()
    workload = bench.WORKLOADS["suite-paired"]
    TRAP_FREE_MEMO.clear()
    mismatches = lagged = converged = runs = 0
    for name in app_names():
        app = make_app(name)
        for round_no in range(args.rounds):
            plans = bench.draw_plans(app, args.seed, round_no, workload)
            row = []
            for config in (None, LETGO_E):
                engine = CampaignEngine(
                    config=CampaignConfig(jobs=1, keep_results=True)
                )
                result = engine.run(app, len(plans), args.seed, config, plans=plans)
                counters = engine.telemetry.counters
                for plan, got in zip(plans, result.results):
                    want = run_injection(app, plan, config)
                    runs += 1
                    if _result_key(got) != _result_key(want):
                        mismatches += 1
                        print(
                            f"MISMATCH {name} round {round_no} "
                            f"{config.name if config else 'baseline'} {plan}: "
                            f"{_result_key(got)} != cold {_result_key(want)}"
                        )
                if config is not None:
                    lagged += counters.get("converged-lagged", 0)
                converged += counters.get("converged", 0)
                row.append(
                    f"{config.name if config else 'baseline'}: converged "
                    f"{counters.get('converged', 0)}, lagged "
                    f"{counters.get('converged-lagged', 0)}"
                )
            print(f"{name} round {round_no}: " + "; ".join(row))
    print(
        f"{runs} runs checked against cold runs: {mismatches} mismatches; "
        f"{converged} converged, {lagged} of them after a LetGo repair"
    )
    return 0 if mismatches == 0 and lagged > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
