#!/usr/bin/env python
"""Chaos check: SIGKILL a campaign worker mid-run, then resume; tear the
journal's last line, then resume again.

Stages a worker that kills itself (SIGKILL, like the OOM killer) the
first time it sees one specific injection plan.  The supervising engine
is configured with no pool rebuilds and no serial fallback, so the
campaign aborts with a durable journal.  The script then clears the
fault and resumes from that journal, asserting the reassembled
CampaignResult is bit-identical to an uninterrupted serial run.

Torn-tail phase: the finished journal is cut partway through its last
line, as a crash mid-append would leave it.  Resuming must re-run only
that shard, append after the cut, and again give the bit-identical
result.

Run from the repo root:

    PYTHONPATH=src python scripts/chaos_resume.py

Exits 0 on success, 1 with a diagnostic on any mismatch.  Used as the
CI chaos step; also runnable locally.
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
from pathlib import Path

from repro.apps import make_app
from repro.errors import CampaignAbortedError
from repro.faultinject import (
    CampaignConfig,
    CampaignEngine,
    CampaignJournal,
    run_injection,
)
from repro.faultinject import engine as engine_mod

N = 10
SEED = 41
APP = "pennant"

_SENTINEL = Path(tempfile.gettempdir()) / f"chaos-resume-kill-{os.getpid()}"


def _killer(app, plan, config=None, **kwargs):
    """Fork-inherited wrapper: first worker to reach the victim plan dies."""
    if plan == _killer.victim and _SENTINEL.exists():
        _SENTINEL.unlink()
        os.kill(os.getpid(), signal.SIGKILL)
    return run_injection(app, plan, config, **kwargs)


def _fingerprint(result):
    return (
        result.n,
        result.counts,
        [(r.outcome, r.plan, r.steps, r.timed_out) for r in result.results],
    )


def main() -> int:
    app = make_app(APP)
    app.golden  # profile once in the parent so workers inherit the cache
    print(f"[chaos] reference: serial campaign, n={N} seed={SEED}")
    reference = CampaignEngine(
        config=CampaignConfig(jobs=1, keep_results=True)
    ).run(app, N, SEED)

    from repro.faultinject import seeded_plans

    plans = seeded_plans(app.golden.instret, N, SEED)
    _killer.victim = plans[N // 2]
    _SENTINEL.touch()
    engine_mod.run_injection = _killer

    journal_path = Path(tempfile.mkdtemp(prefix="chaos-resume-")) / "c.journal"
    crashy = CampaignEngine(
        config=CampaignConfig(
            jobs=2,
            shard_size=1,
            keep_results=True,
            max_pool_rebuilds=0,
            serial_fallback=False,
            journal=str(journal_path),
        )
    )
    print("[chaos] launching campaign with a SIGKILL booby-trap...")
    try:
        crashy.run(app, N, SEED)
    except CampaignAbortedError as exc:
        print(f"[chaos] campaign aborted as staged: {exc}")
    else:
        print("[chaos] FAIL: the booby-trapped campaign did not abort")
        return 1
    finally:
        _SENTINEL.unlink(missing_ok=True)
        engine_mod.run_injection = run_injection

    completed = CampaignJournal.load(journal_path).completed_indices
    print(f"[chaos] journal holds {len(completed)}/{N} completed plans")
    if not completed or len(completed) >= N:
        print("[chaos] FAIL: expected a partial journal")
        return 1

    print(f"[chaos] resuming from {journal_path}")
    resumed_engine = CampaignEngine(
        config=CampaignConfig(
            jobs=2, keep_results=True, resume=str(journal_path)
        )
    )
    resumed = resumed_engine.run(app, N, SEED)
    print(
        f"[chaos] resumed={resumed_engine.stats.resumed} "
        f"executed={resumed_engine.stats.executed}"
    )

    if _fingerprint(resumed) != _fingerprint(reference):
        print("[chaos] FAIL: resumed result differs from the serial run")
        return 1
    print("[chaos] OK: resumed result is bit-identical to the serial run")
    return torn_tail(app, journal_path, reference)


def torn_tail(app, journal_path: Path, reference) -> int:
    """Cut the finished journal mid-way through its last line, resume,
    and require the serial result and a journal of whole lines."""
    data = journal_path.read_bytes()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1
    journal_path.write_bytes(data[: (last + len(data)) // 2])
    kept = CampaignJournal.load(journal_path).completed_indices
    print(
        f"[chaos] tore the journal's last line: {len(kept)}/{N} plans kept"
    )
    engine = CampaignEngine(
        config=CampaignConfig(
            jobs=2, keep_results=True, resume=str(journal_path)
        )
    )
    resumed = engine.run(app, N, SEED)
    print(
        f"[chaos] resumed={engine.stats.resumed} "
        f"executed={engine.stats.executed}"
    )
    if engine.stats.executed == 0 or len(kept) >= N:
        print("[chaos] FAIL: the torn line's shard was not re-run")
        return 1
    if _fingerprint(resumed) != _fingerprint(reference):
        print("[chaos] FAIL: torn-tail resume differs from the serial run")
        return 1
    if CampaignJournal.load(journal_path).completed_indices != set(range(N)):
        print("[chaos] FAIL: the resumed journal does not hold every plan")
        return 1
    print("[chaos] OK: torn-tail resume is bit-identical to the serial run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
