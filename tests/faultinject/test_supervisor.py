"""Resilience layer: retries, poison-plan quarantine, pool supervision,
and journaled resume.

The failure-injection trick: ``repro.faultinject.engine.run_injection`` is
monkeypatched in the parent, and the fork-based worker pool inherits the
patch, so worker crashes and poison plans can be staged deterministically.
"""

import multiprocessing
import os
import signal

import pytest

from repro.core import LETGO_E
from repro.errors import JournalError
from repro.faultinject import (
    CampaignConfig,
    CampaignEngine,
    CampaignJournal,
    run_injection,
    seeded_plans,
)
from repro.faultinject import engine as engine_mod

N = 12
SEED = 23


def _fingerprint(result):
    """Everything observable about a campaign, order included."""
    return (
        result.n,
        result.counts,
        [
            (
                r.outcome,
                r.plan,
                r.target_pc,
                r.target_reg,
                r.first_signal,
                r.interventions,
                r.steps,
            )
            for r in result.results
        ],
    )


def _plans(app, n=N, seed=SEED):
    return seeded_plans(app.golden.instret, n, seed)


def _reference(app, config=None, n=N, seed=SEED):
    return _engine(jobs=1).run(app, n, seed, config)


def _engine(**knobs):
    knobs.setdefault("keep_results", True)
    return CampaignEngine(config=CampaignConfig(**knobs))


@pytest.fixture(autouse=True)
def _instant_retries(monkeypatch):
    # The supervisor sleeps in the parent, so this holds for pooled
    # campaigns too.
    monkeypatch.setattr(engine_mod, "RETRY_BACKOFF", 0.0)


def test_shard_size_determinism(pennant_app):
    """Arbitrary shard granularity never changes the result."""
    reference = _fingerprint(_reference(pennant_app))
    for shard_size in (1, 3, 5, N):
        engine = _engine(jobs=2, shard_size=shard_size)
        assert _fingerprint(engine.run(pennant_app, N, SEED, None)) == reference


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
def test_poison_plan_quarantined(pennant_app, tmp_path, monkeypatch, jobs):
    """A persistently failing plan is bisected out and quarantined; the
    rest of the campaign completes and is reported, not aborted."""
    plans = _plans(pennant_app)
    poison = plans[7]
    reference = _reference(pennant_app)

    def poisoned(app, plan, config=None, **kwargs):
        if plan == poison:
            raise RuntimeError("poison plan")
        return run_injection(app, plan, config, **kwargs)

    monkeypatch.setattr(engine_mod, "run_injection", poisoned)
    journal_path = tmp_path / "c.journal"
    engine = _engine(jobs=jobs, journal=str(journal_path))
    result = engine.run(pennant_app, N, SEED, None)

    assert engine.stats.quarantined == (7,)
    assert result.n == N - 1

    expected = [
        pair for i, pair in enumerate(_fingerprint(reference)[2]) if i != 7
    ]
    assert _fingerprint(result)[2] == expected

    journal = CampaignJournal.load(journal_path)
    (record,) = journal.quarantined
    assert record.index == 7 and record.plan == poison
    assert "poison plan" in record.error
    assert record.attempts == engine_mod.MAX_RETRIES + 1  # first run + retries
    assert journal.completed_indices == set(range(N)) - {7}


def test_transient_failure_is_retried(pennant_app, tmp_path, monkeypatch):
    """A failure that clears on retry costs a retry, not a quarantine."""
    plans = _plans(pennant_app)
    reference = _fingerprint(_reference(pennant_app))
    flaky, sentinel = plans[4], tmp_path / "fail-once"
    sentinel.touch()

    def transient(app, plan, config=None, **kwargs):
        if plan == flaky and sentinel.exists():
            sentinel.unlink()
            raise OSError("transient worker failure")
        return run_injection(app, plan, config, **kwargs)

    monkeypatch.setattr(engine_mod, "run_injection", transient)
    engine = _engine(jobs=1)
    result = engine.run(pennant_app, N, SEED, None)
    assert engine.telemetry.counters["retry"] >= 1
    assert engine.stats.quarantined == ()
    assert _fingerprint(result) == reference


def test_sigkilled_worker_recovers_in_run(pennant_app, tmp_path, monkeypatch):
    """An OOM-style SIGKILL breaks the pool; the supervisor rebuilds it and
    the campaign still finishes with the exact serial result."""
    plans = _plans(pennant_app)
    reference = _fingerprint(_reference(pennant_app))
    victim, sentinel = plans[6], tmp_path / "kill-once"
    sentinel.touch()

    def killer(app, plan, config=None, **kwargs):
        if plan == victim and sentinel.exists():
            sentinel.unlink()
            os.kill(os.getpid(), signal.SIGKILL)
        return run_injection(app, plan, config, **kwargs)

    monkeypatch.setattr(engine_mod, "run_injection", killer)
    engine = _engine(jobs=2, shard_size=2)
    result = engine.run(pennant_app, N, SEED, None)
    assert engine.telemetry.counters["pool-rebuild"] >= 1
    assert engine.stats.quarantined == ()
    assert _fingerprint(result) == reference


def test_sigkill_abort_then_resume_is_bit_identical(
    pennant_app, tmp_path, monkeypatch
):
    """Acceptance: a plan that kills whatever process runs it takes down
    every rebuilt pool, then the campaign's own process once it has
    fallen back to serial; the journal resumes to a result bit-identical
    to the uninterrupted serial run."""
    plans = _plans(pennant_app)
    reference = _fingerprint(_reference(pennant_app, LETGO_E))
    victim, sentinel = plans[8], tmp_path / "kill-always"
    sentinel.touch()

    def killer(app, plan, config=None, **kwargs):
        if plan == victim and sentinel.exists():
            os.kill(os.getpid(), signal.SIGKILL)
        return run_injection(app, plan, config, **kwargs)

    monkeypatch.setattr(engine_mod, "run_injection", killer)
    journal_path = tmp_path / "c.journal"
    crashy = _engine(jobs=2, shard_size=1, journal=str(journal_path))
    child = multiprocessing.get_context("fork").Process(
        target=crashy.run, args=(pennant_app, N, SEED, LETGO_E)
    )
    child.start()
    child.join()
    assert child.exitcode == -signal.SIGKILL

    completed = CampaignJournal.load(journal_path).completed_indices
    assert 8 not in completed  # the killer shard never journaled
    assert completed  # the rest of the pool's work was kept

    sentinel.unlink()  # the "machine" recovered
    resumed_engine = _engine(jobs=1, resume=str(journal_path))
    resumed = resumed_engine.run(pennant_app, N, SEED, LETGO_E)
    assert resumed_engine.stats.resumed == len(completed)
    assert _fingerprint(resumed) == reference


def test_keyboard_interrupt_leaves_resumable_journal(
    pennant_app, tmp_path, monkeypatch
):
    """Acceptance: Ctrl-C mid-campaign loses nothing that was journaled;
    resume reproduces the uninterrupted run exactly."""
    plans = _plans(pennant_app)
    interrupt_at = plans[7]

    def interrupted(app, plan, config=None, **kwargs):
        if plan == interrupt_at:
            raise KeyboardInterrupt
        return run_injection(app, plan, config, **kwargs)

    monkeypatch.setattr(engine_mod, "run_injection", interrupted)
    journal_path = tmp_path / "c.journal"
    engine = _engine(jobs=1, shard_size=2, journal=str(journal_path))
    with pytest.raises(KeyboardInterrupt):
        engine.run(pennant_app, N, SEED, None)

    completed = CampaignJournal.load(journal_path).completed_indices
    assert completed == {0, 1, 2, 3, 4, 5}  # shards before the interrupt

    monkeypatch.setattr(engine_mod, "run_injection", run_injection)
    resumed_engine = _engine(jobs=1, resume=str(journal_path))
    resumed = resumed_engine.run(pennant_app, N, SEED, None)
    assert resumed_engine.stats.resumed == 6
    assert _fingerprint(resumed) == _fingerprint(_reference(pennant_app))


def test_degrades_to_serial_when_pool_unavailable(pennant_app, monkeypatch):
    """No multiprocessing?  Same campaign, in-process."""

    def no_pool(*args, **kwargs):
        raise OSError("no forks on this box")

    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", no_pool)
    engine = _engine(jobs=4)
    result = engine.run(pennant_app, N, SEED, None)
    assert engine.telemetry.counters["serial-degrade"] == 1
    assert _fingerprint(result) == _fingerprint(_reference(pennant_app))


def test_journal_resume_rejects_different_campaign(pennant_app, tmp_path):
    journal_path = tmp_path / "c.journal"
    _engine(jobs=1, journal=str(journal_path)).run(pennant_app, N, SEED, None)
    resumer = _engine(jobs=1, resume=str(journal_path))
    with pytest.raises(JournalError, match="different campaign"):
        resumer.run(pennant_app, N, SEED + 1, None)
    with pytest.raises(JournalError, match="different campaign"):
        resumer.run(pennant_app, N, SEED, LETGO_E)


def test_journal_and_resume_are_exclusive(tmp_path):
    with pytest.raises(ValueError, match="not both"):
        _engine(jobs=1, journal=str(tmp_path / "a"), resume=str(tmp_path / "b"))


def test_resume_of_complete_journal_runs_nothing(pennant_app, tmp_path):
    journal_path = tmp_path / "c.journal"
    reference = _engine(jobs=1, journal=str(journal_path)).run(
        pennant_app, N, SEED, None
    )
    engine = _engine(jobs=2, resume=str(journal_path))
    resumed = engine.run(pennant_app, N, SEED, None)
    assert engine.stats.resumed == N
    assert engine.stats.executed == 0
    assert _fingerprint(resumed) == _fingerprint(reference)


def test_resumed_plans_do_not_count_as_injected(pennant_app, tmp_path):
    journal_path = tmp_path / "c.journal"
    _engine(jobs=1, journal=str(journal_path)).run(pennant_app, N, SEED, None)
    engine = _engine(jobs=1, resume=str(journal_path))
    engine.run(pennant_app, N, SEED, None)
    stats = engine.stats
    assert stats.injections_per_sec == 0.0
    assert stats.describe().startswith("0 injections in ")
    assert f"resumed={N}" in stats.describe()


def test_utilization_divides_by_jobs_not_shards(pennant_app, tmp_path):
    engine = _engine(
        jobs=1, shard_size=2, journal=str(tmp_path / "u.journal")
    )
    engine.run(pennant_app, 16, SEED, None)
    stats = engine.stats
    assert len(stats.per_worker_seconds) == 8
    busy = sum(stats.per_worker_seconds) / stats.elapsed_seconds
    assert stats.utilization == pytest.approx(busy)
    assert 0.0 < stats.utilization <= 1.0
    assert stats.injections_per_sec == pytest.approx(
        16 / stats.elapsed_seconds
    )
