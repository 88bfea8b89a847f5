"""Trap-free memo: what it stores, how a hit replays, worker merge, and
the ``paired`` oracle and memo mutant that guard it."""

import pytest

from repro.apps.base import TRAP_FREE_MEMO, MemoEntry, TrapFreeMemo
from repro.core import LETGO_E
from repro.errors import InjectionError
from repro.faultinject import (
    CampaignConfig,
    CampaignEngine,
    Outcome,
    run_injection,
    seeded_plans,
)
from repro.faultinject.engine import _app_spec, _worker_run
from repro.fuzz.oracles import check_paired
from repro.fuzz.runner import mutation_selftest
from repro.telemetry import Tracer

N = 16
SEED = 5


def _plans(app, n=N, seed=SEED):
    return seeded_plans(app.golden.instret, n, seed)


def test_stores_only_trap_free_runs(pennant_app):
    memo = TrapFreeMemo()
    ladder = pennant_app.ladder()
    results = [
        run_injection(pennant_app, plan, None, ladder=ladder, memo=memo)
        for plan in _plans(pennant_app)
    ]
    stored = [
        r for r in results
        if memo.get(memo.key(pennant_app, r.plan, ladder)) is not None
    ]
    assert stored and len(stored) == len(memo)
    assert all(TrapFreeMemo.admits(r) for r in stored)
    assert any(r.outcome is Outcome.CRASH for r in results)
    for r in results:
        if r.first_signal is not None:
            assert memo.get(memo.key(pennant_app, r.plan, ladder)) is None


def test_hit_replays_the_executed_run(pennant_app):
    memo = TrapFreeMemo()
    ladder = pennant_app.ladder()
    plans = _plans(pennant_app)
    for plan in plans:
        run_injection(pennant_app, plan, None, ladder=ladder, memo=memo)
    warm, cold = Tracer(), Tracer()
    hits = 0
    for plan in plans:
        served = run_injection(
            pennant_app, plan, LETGO_E, ladder=ladder, memo=memo, tracer=warm
        )
        executed = run_injection(
            pennant_app, plan, LETGO_E, ladder=ladder, tracer=cold
        )
        assert served == executed
        hits += memo.get(memo.key(pennant_app, plan, ladder)) is not None
    assert warm.counters.pop("memo-hit") == hits > 0
    assert warm.counters == cold.counters


def test_cold_run_injection_neither_reads_nor_fills_the_memo(pennant_app):
    plan = next(
        p for p in _plans(pennant_app)
        if run_injection(pennant_app, p).first_signal is None
    )
    assert len(TRAP_FREE_MEMO) == 0
    tracer = Tracer()
    run_injection(pennant_app, plan, LETGO_E, tracer=tracer)
    assert len(TRAP_FREE_MEMO) == 0
    assert "memo-hit" not in tracer.counters


def test_hit_on_a_different_flip_target_raises(pennant_app):
    memo = TrapFreeMemo()
    plan = _plans(pennant_app)[0]
    result = run_injection(pennant_app, plan, memo=memo)
    key = memo.key(pennant_app, plan, None)
    memo.put(key, MemoEntry(
        Outcome.BENIGN, result.target_pc + 1, result.target_reg,
        result.steps, None,
    ))
    with pytest.raises(InjectionError, match="memoized run"):
        run_injection(pennant_app, plan, LETGO_E, memo=memo)


def test_memo_is_a_bounded_lru():
    memo = TrapFreeMemo(capacity=2)
    entry = MemoEntry(Outcome.BENIGN, 0, ("r", 1), 10, None)
    memo.put("a", entry)
    memo.put("b", entry)
    memo.get("a")
    memo.put("c", entry)
    assert len(memo) == 2
    assert memo.get("b") is None and memo.get("a") is entry


def test_key_separates_apps_and_ladder_intervals(pennant_app, hpl_app):
    plan = _plans(pennant_app)[0]
    ladder = pennant_app.ladder()
    keys = {
        TrapFreeMemo.key(pennant_app, plan, ladder),
        TrapFreeMemo.key(pennant_app, plan, None),
        TrapFreeMemo.key(hpl_app, plan, hpl_app.ladder()),
    }
    assert len(keys) == 3


def _paired(app, jobs):
    """Baseline then LetGo-E on the same plans: (results, telemetry)."""
    plans = _plans(app)
    runs = []
    for config in (None, LETGO_E):
        engine = CampaignEngine(config=CampaignConfig(
            jobs=jobs, keep_results=True, telemetry=True
        ))
        result = engine.run(app, len(plans), SEED, config, plans=plans)
        runs.append((result.results, engine.telemetry))
    return runs


def test_pooled_paired_campaign_hits_and_keeps_its_signature(pennant_app):
    """Pooled shards are served exactly what the parent's memo holds:
    the shared workers' own history neither adds hits nor survives a
    clear in the parent."""
    pooled = _paired(pennant_app, jobs=2)
    assert len(TRAP_FREE_MEMO) > 0          # worker entries reached the parent
    assert "memo-hit" not in pooled[0][1].counters
    assert pooled[1][1].counters["memo-hit"] > 0
    TRAP_FREE_MEMO.clear()
    serial = _paired(pennant_app, jobs=1)
    for (results, tel), (want, want_tel) in zip(pooled, serial):
        assert results == want
        assert tel.signature() == want_tel.signature()
        assert tel.counters.get("memo-hit") == want_tel.counters.get("memo-hit")
    TRAP_FREE_MEMO.clear()
    engine = CampaignEngine(config=CampaignConfig(
        jobs=2, keep_results=True, telemetry=True
    ))
    cleared = engine.run(pennant_app, N, SEED, LETGO_E, plans=_plans(pennant_app))
    assert cleared.results == pooled[1][0]
    assert "memo-hit" not in engine.telemetry.counters
    assert engine.telemetry.signature() == pooled[1][1].signature()


def test_paired_oracle_holds_on_a_suite_app(hpl_app):
    assert check_paired(hpl_app, 6, SEED) == []


def test_memo_mutant_is_caught_and_shrunk():
    result = mutation_selftest("memo-traps")
    assert result.killed and result.ok
    assert result.shrunk_len == 1 < result.original_len
    assert len(TRAP_FREE_MEMO) == 0
    assert type(TRAP_FREE_MEMO) is TrapFreeMemo


def test_worker_memo_holds_exactly_the_shipped_entries(pennant_app):
    """A worker outlives its shards; each shard must still be served only
    what the parent shipped with it, never what the worker ran before."""
    spec = _app_spec(pennant_app)
    campaign = CampaignConfig(jobs=2)
    batch = list(enumerate(_plans(pennant_app)))
    _, _, stored = _worker_run(spec, None, campaign, batch, [])
    assert stored
    _, payload, _ = _worker_run(spec, LETGO_E, campaign, batch, [])
    assert "memo-hit" not in payload["counters"]
    _, payload, added = _worker_run(spec, LETGO_E, campaign, batch, stored)
    assert payload["counters"]["memo-hit"] == len(stored)
    assert added == []
