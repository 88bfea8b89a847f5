#!/usr/bin/env python
"""Pin campaign outcomes: compare a fixed campaign with a committed record.

Runs every app under baseline and LetGo-E on the same seeded plans
through the campaign engine (one process, snapshot ladder and trap-free
memo on, telemetry on) and reduces each campaign to

* ``results``: a sha256 over every field of every per-plan
  :class:`~repro.faultinject.injector.InjectionResult`, in plan order;
* ``signature``: a sha256 over ``TelemetryReport.signature()``;
* ``ladder``: the ladder counters (``converged``, ``converged-lagged``,
  ``converged-skipped-instr``, ``restore``, ...), verbatim;
* ``outcomes``: the outcome tally, verbatim, so a difference reads at a
  glance.

A speed-up of the substrate or the engine must leave all of it
unchanged, bit for bit.  Outcomes are also a pure function of (app,
plans, config), whatever the worker count or the execution backend, so
the check re-runs the family once per :data:`LEGS` entry (two worker
processes; the interpreter backend) and requires each campaign's
``results`` and ``signature`` hashes and its convergence counters
(:data:`LEG_COUNTERS`) to equal those of the recorded one-process,
compiled-backend run.  Run from the repo root:

    PYTHONPATH=src python scripts/bench_compare.py            # check
    PYTHONPATH=src python scripts/bench_compare.py --write    # re-record

The campaign is fixed at :data:`N` plans per app and config drawn with
seed :data:`SEED` (about 10 s; the interpreter leg about five times
that).  The check compares it with the record (``BENCH_signature.json``),
prints one line per campaign and one per leg, and exits 1 on any
difference.  ``--write`` records the one-process run only.  Re-record
only on a commit whose outcomes are known good, never to make a check
pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import sys
from pathlib import Path

from repro.apps import app_names, make_app
from repro.apps.base import TRAP_FREE_MEMO
from repro.core import LETGO_E
from repro.faultinject import CampaignConfig, CampaignEngine, seeded_plans
from repro.telemetry.report import LADDER_COUNTERS

RECORD = Path(__file__).resolve().parent.parent / "BENCH_signature.json"
CONFIGS = (None, LETGO_E)
N, SEED = 100, 7
#: CampaignConfig knobs of the legs re-run beside the recorded campaign.
LEGS = {"jobs=2": {"jobs": 2}, "interpreter": {"backend": "interpreter"}}
#: Record fields every leg must reproduce.
LEG_FIELDS = ("results", "signature")
#: Ladder counters every leg must reproduce: where a post-fault run stops
#: depends only on its plan and the ladder.  ``restore``, ``cold-start``
#: and ``fast-forward-instr`` depend on how plans are sharded, so they are
#: compared with the record only.
LEG_COUNTERS = ("converged", "converged-lagged", "converged-skipped-instr")


def _plain(value):
    """*value* as JSON-able data: dataclasses by field, enums by name."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, float):
        return repr(value)  # exact, NaN and -0.0 included
    return value


def _digest(data) -> str:
    text = json.dumps(_plain(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def measure(n: int, seed: int, **knobs) -> dict[str, dict]:
    """``"app/config" -> record`` of the pinned campaign family, run at
    ``jobs=1`` on the default backend unless *knobs* say otherwise."""
    # The memo key has no backend in it: a warm memo would serve one
    # backend's trap-free runs to the other, so every leg starts cold.
    TRAP_FREE_MEMO.clear()
    records = {}
    for name in app_names():
        app = make_app(name)
        plans = seeded_plans(app.golden.instret, n, seed)
        for config in CONFIGS:
            engine = CampaignEngine(config=CampaignConfig(**{
                "jobs": 1, "keep_results": True, "telemetry": True, **knobs
            }))
            result = engine.run(app, n, seed, config, plans=plans)
            counters = engine.telemetry.counters
            records[f"{name}/{config.name if config else 'baseline'}"] = {
                "results": _digest(result.results),
                "signature": _digest(engine.telemetry.signature()),
                "ladder": {
                    k: counters[k] for k in sorted(LADDER_COUNTERS) if k in counters
                },
                "outcomes": {
                    o.value: c for o, c in sorted(
                        result.counts.items(), key=lambda item: item[0].value
                    ) if c
                },
            }
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help="record the campaign instead of checking it",
    )
    args = parser.parse_args(argv)

    records = measure(N, SEED)
    if args.write:
        RECORD.write_text(json.dumps(
            {"n": N, "seed": SEED, "campaigns": records}, indent=1
        ) + "\n")
        print(f"recorded {len(records)} campaigns (n={N}, seed {SEED})")
        return 0

    pinned = json.loads(RECORD.read_text())
    differ = 0
    for key in sorted(pinned["campaigns"].keys() | records.keys()):
        want, got = pinned["campaigns"].get(key), records.get(key)
        same = want == got
        differ += not same
        print(f"{'ok  ' if same else 'DIFF'} {key}")
        if not same:
            print(f"     pinned {json.dumps(want, sort_keys=True)}")
            print(f"     now    {json.dumps(got, sort_keys=True)}")
    print(
        f"{len(records) - differ}/{len(records)} campaigns match "
        f"(n={N}, seed {SEED})"
    )
    for leg, knobs in LEGS.items():
        other = measure(N, SEED, **knobs)
        misses = [
            key for key in sorted(records)
            if any(other[key][f] != records[key][f] for f in LEG_FIELDS)
            or any(
                other[key]["ladder"].get(c) != records[key]["ladder"].get(c)
                for c in LEG_COUNTERS
            )
        ]
        for key in misses:
            print(f"DIFF {key} at {leg}")
            print(f"     jobs=1 {json.dumps(records[key], sort_keys=True)}")
            print(f"     {leg} {json.dumps(other[key], sort_keys=True)}")
        print(
            f"{len(records) - len(misses)}/{len(records)} campaigns at "
            f"{leg} match the jobs=1 compiled run"
        )
        differ += len(misses)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
