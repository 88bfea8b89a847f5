#!/usr/bin/env python
"""Chaos check: a plan that SIGKILLs whatever process runs it takes down
every worker pool and then the campaign process itself; resume from the
journal, then tear the journal's last line and resume again.

The journaled campaign (``jobs=2``, ``shard_size=1``) runs under the
default failure policy in a forked child process.  One booby-trapped
plan SIGKILLs its process on every attempt, as an OOM killer would, so
the run walks the whole degradation ladder: each pool breaks and is
rebuilt up to ``MAX_POOL_REBUILDS`` times, the child falls back to
in-process execution, and then the child dies too.  The parent requires:

* the child exited by SIGKILL, after the victim plan was attempted by
  ``MAX_POOL_REBUILDS + 1`` pool workers and then by the child itself;
* the journal holds some but not all plans;
* with the trap cleared, the resumed result is bit-identical to an
  uninterrupted serial run;
* after ``shutdown_workers()`` and a join, no process is left running:
  neither a child of this script nor any process that ran a plan.

Torn-tail phase: the finished journal is cut partway through its last
line, as a crash mid-append would leave it.  Resuming must re-run only
that shard, append after the cut, and again give the bit-identical
result.

Run from the repo root:

    PYTHONPATH=src python scripts/chaos_resume.py

Exits 0 on success, 1 with a diagnostic on any mismatch.  Used as the
CI chaos step; also runnable locally.  Needs ``fork`` (Linux).
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

from repro.apps import make_app
from repro.faultinject import (
    CampaignConfig,
    CampaignEngine,
    CampaignJournal,
    run_injection,
    seeded_plans,
    shutdown_workers,
)
from repro.faultinject import engine as engine_mod

N = 10
SEED = 41
APP = "pennant"

#: Scratch directory: the trap's arming file and the pid logs.
_WORK = Path(tempfile.mkdtemp(prefix="chaos-resume-"))
#: While this file exists, the victim plan kills its process.
_ARMED = _WORK / "armed"
#: One line per process that ran any plan / that ran the victim plan.
_RAN = _WORK / "ran.pids"
_VICTIM = _WORK / "victim.pids"


def _log_pid(path: Path) -> None:
    with open(path, "a") as log:
        log.write(f"{os.getpid()}\n")


def _pids(path: Path) -> list[int]:
    if not path.exists():
        return []
    return [int(line) for line in path.read_text().split()]


def _killer(app, plan, config=None, **kwargs):
    """Fork-inherited wrapper: the victim plan kills every process that
    runs it while the trap is armed."""
    _log_pid(_RAN)
    if plan == _killer.victim and _ARMED.exists():
        _log_pid(_VICTIM)
        os.kill(os.getpid(), signal.SIGKILL)
    return run_injection(app, plan, config, **kwargs)


def _running(pid: int) -> bool:
    """True while *pid* exists and is not a zombie (reads /proc)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _fingerprint(result):
    return (
        result.n,
        result.counts,
        [(r.outcome, r.plan, r.steps) for r in result.results],
    )


def main() -> int:
    app = make_app(APP)
    app.golden  # profile once here so the child and its workers inherit it
    print(f"[chaos] reference: serial campaign, n={N} seed={SEED}")
    reference = CampaignEngine(
        config=CampaignConfig(jobs=1, keep_results=True)
    ).run(app, N, SEED)

    _killer.victim = seeded_plans(app.golden.instret, N, SEED)[N // 2]
    _ARMED.touch()
    engine_mod.run_injection = _killer
    journal_path = _WORK / "c.journal"
    crashy = CampaignEngine(
        config=CampaignConfig(
            jobs=2, shard_size=1, keep_results=True, journal=str(journal_path)
        )
    )
    print("[chaos] launching the journaled campaign in a child process, "
          "with a plan that SIGKILLs every process that runs it...")
    child = multiprocessing.get_context("fork").Process(
        target=crashy.run, args=(app, N, SEED)
    )
    try:
        child.start()
        child.join()
    finally:
        _ARMED.unlink(missing_ok=True)
        engine_mod.run_injection = run_injection

    if child.exitcode != -signal.SIGKILL:
        print(f"[chaos] FAIL: child exit code {child.exitcode}, "
              f"expected {-signal.SIGKILL}")
        return 1
    victims = _pids(_VICTIM)
    workers = victims[:-1]
    print(f"[chaos] child killed by SIGKILL; the victim plan killed "
          f"{len(workers)} pool workers, then the child")
    pools = engine_mod.MAX_POOL_REBUILDS + 1
    walked = len(workers) == len(set(workers) - {child.pid}) == pools
    if victims[-1:] != [child.pid] or not walked:
        print(f"[chaos] FAIL: expected {pools} worker deaths, then the "
              f"child's own (victim pids {victims})")
        return 1

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

    status = torn_tail(app, journal_path, reference)
    return status or no_process_left(_pids(_RAN))


def no_process_left(ran: list[int]) -> int:
    """Drop the worker pool, join every child, and require that neither a
    child nor any process that ran a plan under the trap is still up."""
    shutdown_workers()
    for proc in multiprocessing.active_children():
        proc.join(timeout=30)
    deadline = time.monotonic() + 30
    others = set(ran) - {os.getpid()}
    while any(map(_running, others)) and time.monotonic() < deadline:
        time.sleep(0.1)
    left = [proc.pid for proc in multiprocessing.active_children()]
    left += sorted(pid for pid in others if _running(pid))
    if left:
        print(f"[chaos] FAIL: processes still running: {left}")
        return 1
    print(f"[chaos] OK: no process left running "
          f"({len(others)} that ran plans checked)")
    return 0


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
    try:
        status = main()
    finally:
        shutil.rmtree(_WORK, ignore_errors=True)
    sys.exit(status)
