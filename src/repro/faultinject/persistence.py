"""Campaign persistence: JSON round trips for results and plans.

Large campaigns are the expensive artifact of this package; saving them
lets reports (Table 3, Figure 5, fault-site analysis) be regenerated and
extended without re-running injections, and makes results shareable.

All saves go through :func:`atomic_write_text` (write to a temp file in
the destination directory, then ``os.replace``), so an interrupted save
can never leave a corrupt or truncated file behind -- the reader sees
either the old contents or the new, never a prefix.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.faultinject.campaign import CampaignResult
from repro.faultinject.fault_model import InjectionPlan
from repro.faultinject.injector import InjectionResult
from repro.faultinject.outcomes import Outcome
from repro.machine.signals import Signal

#: Format version written into every file.
FORMAT_VERSION = 1


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Durably replace *path* with *text*: temp file + fsync + rename.

    The temp file lives in the destination directory so the final
    ``os.replace`` is atomic (same filesystem); on any failure the temp
    file is removed and the original *path* is untouched.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def plan_to_dict(plan: InjectionPlan) -> dict:
    """JSON-safe dict for one :class:`InjectionPlan`."""
    return {
        "dyn_index": plan.dyn_index,
        "bit": plan.bit,
        "reg_choice": plan.reg_choice,
        "extra_bits": list(plan.extra_bits),
    }


def plan_from_dict(data: dict) -> InjectionPlan:
    """Inverse of :func:`plan_to_dict`."""
    return InjectionPlan(
        dyn_index=data["dyn_index"],
        bit=data["bit"],
        reg_choice=data["reg_choice"],
        extra_bits=tuple(data.get("extra_bits", ())),
    )


def result_to_dict(result: InjectionResult) -> dict:
    """JSON-safe dict for one :class:`InjectionResult`."""
    return {
        "outcome": result.outcome.value,
        "plan": plan_to_dict(result.plan),
        "target_pc": result.target_pc,
        "target_reg": list(result.target_reg) if result.target_reg else None,
        "first_signal": result.first_signal.name if result.first_signal else None,
        "interventions": result.interventions,
        "steps": result.steps,
        "timed_out": result.timed_out,
    }


def result_from_dict(data: dict) -> InjectionResult:
    """Inverse of :func:`result_to_dict`."""
    target = data.get("target_reg")
    signal = data.get("first_signal")
    return InjectionResult(
        outcome=Outcome(data["outcome"]),
        plan=plan_from_dict(data["plan"]),
        target_pc=data.get("target_pc"),
        target_reg=(target[0], target[1]) if target else None,
        first_signal=Signal[signal] if signal else None,
        interventions=data.get("interventions", 0),
        steps=data.get("steps", 0),
        timed_out=data.get("timed_out", False),
    )


def campaign_to_json(campaign: CampaignResult) -> str:
    """Serialize a campaign (including per-run records if kept)."""
    payload = {
        "format": FORMAT_VERSION,
        "app_name": campaign.app_name,
        "config_name": campaign.config_name,
        "n": campaign.n,
        "counts": {o.value: c for o, c in campaign.counts.items()},
        "results": [result_to_dict(r) for r in campaign.results],
    }
    return json.dumps(payload, indent=1)


def campaign_from_json(text: str) -> CampaignResult:
    """Inverse of :func:`campaign_to_json`."""
    payload = json.loads(text)
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported campaign format {payload.get('format')!r}")
    return CampaignResult(
        app_name=payload["app_name"],
        config_name=payload["config_name"],
        n=payload["n"],
        counts={Outcome(k): v for k, v in payload["counts"].items()},
        results=[result_from_dict(r) for r in payload.get("results", [])],
    )


def save_campaign(campaign: CampaignResult, path: str | Path) -> Path:
    """Atomically write a campaign to *path*."""
    return atomic_write_text(path, campaign_to_json(campaign))


def load_campaign(path: str | Path) -> CampaignResult:
    """Read a campaign from *path*."""
    return campaign_from_json(Path(path).read_text())


__all__ = [
    "atomic_write_text",
    "plan_to_dict",
    "plan_from_dict",
    "result_to_dict",
    "result_from_dict",
    "campaign_to_json",
    "campaign_from_json",
    "save_campaign",
    "load_campaign",
    "FORMAT_VERSION",
]
