"""Campaign engine: ladder/parallel determinism, merge, stats, sharding."""

import pytest

from repro.apps.base import TRAP_FREE_MEMO, MiniApp
from repro.core import LETGO_E
from repro.faultinject import (
    NO_LADDER,
    CampaignConfig,
    CampaignEngine,
    CampaignResult,
    Outcome,
    run_campaign,
    run_injection,
)
from repro.faultinject import engine as engine_mod
from repro.faultinject.engine import _app_spec, _split

N = 12
SEED = 23


def _engine(**knobs):
    return CampaignEngine(config=CampaignConfig(**knobs))


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


@pytest.mark.parametrize("app_fixture", ["pennant_app", "hpl_app"])
@pytest.mark.parametrize("config", [None, LETGO_E], ids=["baseline", "LetGo-E"])
def test_engine_modes_identical(app_fixture, config, request):
    """Serial, ladder, and multiprocess campaigns are indistinguishable."""
    app = request.getfixturevalue(app_fixture)
    naive = _engine(jobs=1, ladder_interval=NO_LADDER, keep_results=True)
    ladder = _engine(jobs=1, keep_results=True)
    fanout = _engine(jobs=3, keep_results=True)
    reference = _fingerprint(naive.run(app, N, SEED, config))
    assert _fingerprint(ladder.run(app, N, SEED, config)) == reference
    TRAP_FREE_MEMO.clear()  # the pool must execute, not be served
    assert _fingerprint(fanout.run(app, N, SEED, config)) == reference
    assert naive.stats.restored == 0
    assert ladder.stats.restored > 0
    assert fanout.stats.jobs == 3


def test_ladder_replays_less_prefix(pennant_app):
    naive = _engine(jobs=1, ladder_interval=NO_LADDER)
    ladder = _engine(jobs=1)
    naive.run(pennant_app, N, SEED, None)
    ladder.run(pennant_app, N, SEED, None)
    assert ladder.stats.fast_forward_steps < naive.stats.fast_forward_steps
    assert ladder.stats.mean_fast_forward <= ladder.stats.ladder_interval


def test_engine_stats_accounting(pennant_app):
    engine = _engine(jobs=2)
    engine.run(pennant_app, N, SEED, LETGO_E)
    stats = engine.stats
    assert stats.n == N
    assert stats.restored + stats.cold_starts == N
    assert sum(stats.per_worker_injections) == N
    assert len(stats.per_worker_seconds) == stats.jobs
    assert stats.injections_per_sec > 0
    assert 0.0 < stats.utilization <= 1.0
    assert "injections" in stats.describe()


def test_merge_shards_equal_unsharded(pennant_app):
    keep = CampaignConfig(keep_results=True)
    whole = run_campaign(pennant_app, 10, seed=SEED, config=LETGO_E, campaign=keep)
    import numpy as np

    from repro.faultinject import plan_injections

    plans = plan_injections(
        np.random.default_rng(SEED), pennant_app.golden.instret, 10
    )
    shards = [
        run_campaign(
            pennant_app, len(chunk), seed=SEED, config=LETGO_E,
            plans=chunk, campaign=keep,
        )
        for chunk in (plans[:4], plans[4:7], plans[7:])
    ]
    merged = CampaignResult.merge(shards)
    assert _fingerprint(merged) == _fingerprint(whole)


def test_merge_validates_input():
    a = CampaignResult("app", "cfg", 1, {Outcome.BENIGN: 1})
    b = CampaignResult("other", "cfg", 1, {Outcome.SDC: 1})
    with pytest.raises(ValueError):
        CampaignResult.merge([])
    with pytest.raises(ValueError):
        CampaignResult.merge([a, b])
    merged = CampaignResult.merge([a, a])
    assert merged.n == 2
    assert merged.counts == {Outcome.BENIGN: 2}


def test_split_contiguous_and_even():
    items = list(range(10))
    chunks = _split(items, 3)
    assert [len(c) for c in chunks] == [4, 3, 3]
    assert [x for chunk in chunks for x in chunk] == items
    assert _split(items, 20) == [[i] for i in items]
    assert _split([], 3) == [[]]


def test_local_app_degrades_to_serial():
    """An un-rederivable app (local class) runs in-process, same results."""

    class TinyApp(MiniApp):
        name = "tiny-local"
        domain = "test"

        @property
        def source(self):
            return (
                "func main() -> int {\n"
                "  var int i; var float s = 0.0;\n"
                "  for (i = 0; i < 40; i = i + 1) { s = s + float(i); }\n"
                "  out(s); out(i); return 0;\n"
                "}\n"
            )

        def acceptance_check(self, output):
            return len(output) == 2 and output[1][1] == 40

        def sdc_slice(self, output):
            return (output[0][1],)

    app = TinyApp()
    assert _app_spec(app) is None
    engine = _engine(jobs=4, keep_results=True)
    result = engine.run(app, 8, SEED, None)
    assert engine.stats.jobs == 1
    reference = _engine(
        jobs=1, ladder_interval=NO_LADDER, keep_results=True
    ).run(app, 8, SEED, None)
    assert _fingerprint(result) == _fingerprint(reference)


def test_registry_app_spec_roundtrip(pennant_app):
    from repro.faultinject.engine import _app_from_spec

    spec = _app_spec(pennant_app)
    assert spec == ("registry", "pennant")
    rebuilt = _app_from_spec(spec)
    assert rebuilt.source == pennant_app.source


def test_plans_length_mismatch_engine(pennant_app):
    import numpy as np

    from repro.faultinject import plan_injections

    plans = plan_injections(
        np.random.default_rng(0), pennant_app.golden.instret, 3
    )
    with pytest.raises(ValueError):
        CampaignEngine().run(pennant_app, 5, 0, None, plans=plans)


def test_workers_receive_the_whole_config(pennant_app, monkeypatch):
    """Pooled workers run with the same CampaignConfig as an in-process
    campaign: non-default backend and wall-clock limit included.

    The fork pool inherits the patched ``run_injection``; a worker that
    lost a field fails its plans, which are then quarantined.
    """

    def checked(app, plan, config=None, *, session, wall_clock_limit, **kwargs):
        if session.process.backend != "interpreter" or wall_clock_limit != 3600.0:
            raise AssertionError("CampaignConfig field lost on the way here")
        return run_injection(
            app, plan, config, session=session,
            wall_clock_limit=wall_clock_limit, **kwargs,
        )

    monkeypatch.setattr(engine_mod, "run_injection", checked)
    monkeypatch.setattr(engine_mod, "RETRY_BACKOFF", 0.0)
    runs = []
    for jobs in (1, 2):
        engine = _engine(
            jobs=jobs,
            backend="interpreter",
            wall_clock_limit=3600.0,
            telemetry=True,
            keep_results=True,
        )
        result = engine.run(pennant_app, 6, SEED, LETGO_E)
        assert engine.stats.jobs == jobs
        assert engine.stats.quarantined == ()
        runs.append((_fingerprint(result), engine.telemetry.signature()))
    assert runs[0] == runs[1]
