"""Cold-start budget: the campaign path and the CLI load no numpy, and no
module needs scipy or networkx.

numpy, the one runtime dependency, is needed only to draw seeded plans
(and by the C/R driver, ``parallel`` and ``crsim``).  Each case runs in a
fresh interpreter, since the test process itself may have imported any of
them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("numpy",)
#: Former dependencies: a fresh interpreter that cannot import them must
#: still import and run everything.
DROPPED = ("scipy", "networkx")

_REPORT = f"""
import json, sys
print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
"""

_CAMPAIGN = """
import repro.faultinject, repro.apps, repro.core, repro.checkpoint.snapshot
from repro.apps import make_app
from repro.core import LETGO_E
from repro.faultinject import (
    CampaignConfig, CampaignEngine, InjectionPlan, shutdown_workers,
)

app = make_app("pennant")
plans = {plans}
result = CampaignEngine(config=CampaignConfig(jobs={jobs})).run(
    app, {n}, 0, LETGO_E, plans=plans
)
assert result.n == {n}
shutdown_workers()
"""


def loaded_heavy_modules(script: str) -> list[str]:
    """Run *script* in a fresh interpreter; the heavy modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script + _REPORT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("jobs", [1, 2])
def test_campaign_with_explicit_plans_loads_no_scientific_stack(jobs):
    script = _CAMPAIGN.format(
        plans="[InjectionPlan(dyn_index=1000, bit=3, reg_choice=0.5)]",
        jobs=jobs,
        n=1,
    )
    assert loaded_heavy_modules(script) == []


def test_cli_import_and_parser_load_no_scientific_stack():
    script = "import repro.cli\nrepro.cli.build_parser()\n"
    assert loaded_heavy_modules(script) == []


def test_seeded_campaign_loads_numpy():
    # The budget test can see an import: drawing plans from a seed does
    # load numpy, and nothing else.
    script = _CAMPAIGN.format(plans="None", jobs=1, n=2)
    assert loaded_heavy_modules(script) == ["numpy"]


_WITHOUT_DROPPED = f"""
import importlib, pkgutil, sys
for name in {DROPPED!r}:
    sys.modules[name] = None  # any import of it raises ImportError
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)

from repro.analysis import cfg_summary
from repro.apps import make_app
from repro.crsim import PAPER_APP_PARAMS, SystemParams
from repro.crsim.optimize import optimize_interval

best = optimize_interval(
    SystemParams(t_chk=120.0, mtbfaults=21600.0),
    PAPER_APP_PARAMS["snap"],
    needed=7 * 24 * 3600.0,
    seeds=(1,),
)
assert 0.0 < best.efficiency <= 1.0
assert "reachable=" in cfg_summary(make_app("pennant").program)
"""


def test_every_module_runs_without_scipy_and_networkx():
    # numpy does load (crsim, parallel), which shows the walk imported them.
    assert loaded_heavy_modules(_WITHOUT_DROPPED) == ["numpy"]
