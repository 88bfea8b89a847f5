"""Campaign engine: ladder/parallel determinism, merge, stats, sharding."""

import gc
from collections import Counter

import pytest

from repro.apps.base import TRAP_FREE_MEMO, MiniApp
from repro.core import LETGO_E
from repro.faultinject import (
    NO_LADDER,
    CampaignConfig,
    CampaignEngine,
    InjectionPlan,
    InjectionResult,
    Outcome,
    run_injection,
    seeded_plans,
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
    assert "restore" not in naive.telemetry.counters
    assert ladder.telemetry.counters["restore"] > 0
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
    assert stats.executed == N
    assert len(stats.per_worker_seconds) == stats.jobs
    assert stats.injections_per_sec > 0
    assert 0.0 < stats.utilization <= 1.0
    assert "injections" in stats.describe()


def test_split_campaigns_concatenate_to_unsharded(pennant_app):
    """Campaigns over consecutive slices of the plan list, results
    concatenated and counts summed, equal the unsharded campaign."""
    whole = _engine(keep_results=True).run(pennant_app, 10, SEED, LETGO_E)
    plans = [result.plan for result in whole.results]
    parts = [
        _engine(keep_results=True).run(
            pennant_app, len(chunk), SEED, LETGO_E, plans=chunk
        )
        for chunk in (plans[:4], plans[4:7], plans[7:])
    ]
    counts = Counter()
    for part in parts:
        counts.update(part.counts)
    assert sum(part.n for part in parts) == whole.n
    assert counts == whole.counts
    assert [r for part in parts for r in part.results] == whole.results


@pytest.mark.parametrize("mode", ["plain", "journaled", "resumed"])
def test_committed_shards_results_are_not_kept(pennant_app, tmp_path, mode):
    """Without keep_results a campaign holds the results of the shard in
    flight only: at every commit no more than one shard's are alive.  A
    resumed campaign releases the results it read back once it has
    counted them."""
    size, n = 3, 18
    journal = str(tmp_path / "c.journal")
    resumed = 0
    if mode == "resumed":
        _engine(jobs=1, shard_size=size, journal=journal).run(
            pennant_app, n, SEED, LETGO_E
        )
        with open(journal, "rb") as handle:
            lines = handle.readlines()
        resumed = 4 * size  # header plus the first four shards survive
        with open(journal, "wb") as handle:
            handle.writelines(lines[: 1 + resumed // size])
        engine = _engine(jobs=1, shard_size=size, resume=journal)
    else:
        engine = _engine(
            jobs=1, shard_size=size, journal=journal if mode == "journaled" else None
        )
    gc.collect()
    before = sum(isinstance(o, InjectionResult) for o in gc.get_objects())
    live = []

    def on_progress(done, total):
        gc.collect()
        live.append(
            sum(isinstance(o, InjectionResult) for o in gc.get_objects()) - before
        )

    engine.on_progress = on_progress
    result = engine.run(pennant_app, n, SEED, LETGO_E)
    assert sum(result.counts.values()) == n and result.results == []
    assert engine.stats.resumed == resumed
    assert len(live) == (n - resumed) // size
    assert max(live) <= size


def test_split_contiguous_and_even():
    items = list(range(10))
    chunks = _split(items, 3)
    assert [len(c) for c in chunks] == [4, 3, 3]
    assert [x for chunk in chunks for x in chunk] == items
    assert _split(items, 20) == [[i] for i in items]
    assert _split([], 3) == [[]]


def test_default_shards_hold_at_most_a_thousand_plans():
    shards = _engine()._shard_count
    assert engine_mod.MAX_DEFAULT_SHARD == 1000
    # One shard per worker, finer when journaling, as long as each holds
    # at most 1,000 plans.
    assert shards(1000, 1, False) == 1
    assert shards(1001, 1, False) == 2
    assert shards(20_000, 1, False) == 20
    assert shards(20_000, 4, False) == 20
    assert shards(3000, 8, False) == 8
    assert shards(24, 2, True) == 16
    assert shards(5, 2, True) == 5
    assert shards(20_000, 2, True) == 20
    # perfbench's in-process workloads keep their one shard per campaign.
    assert shards(32, 1, False) == 1
    # An explicit shard size is taken as given, above the cap too.
    assert _engine(shard_size=2)._shard_count(24, 2, True) == 12
    assert _engine(shard_size=5000)._shard_count(20_000, 1, False) == 4


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


def test_baseline_gives_each_first_trap_its_default_action(pennant_app):
    """The baseline is LetGo's loop with no signal intercepted: every
    run's first trap is counted once as a default disposition, and none
    as an interception."""
    engine = _engine(telemetry=True)
    engine.run(pennant_app, 30, SEED, None)
    counters = engine.telemetry.counters
    first = {
        key.split(":")[1]: count for key, count in counters.items()
        if key.startswith("first-signal:")
    }
    default = {
        key.split(":")[1]: count for key, count in counters.items()
        if key.startswith("signal:") and key.endswith(":default")
    }
    assert first, "no run trapped"
    assert default == first
    assert not [key for key in counters if key.endswith(":intercept")]


def test_registry_app_spec_roundtrip(pennant_app):
    from repro.faultinject.engine import _app_from_spec

    spec = _app_spec(pennant_app)
    assert spec == ("repro.apps.pennant", "Pennant")
    rebuilt = _app_from_spec(spec)
    assert rebuilt.source == pennant_app.source


def test_plans_length_mismatch_engine(pennant_app):
    plans = seeded_plans(pennant_app.golden.instret, 3, 0)
    with pytest.raises(ValueError):
        CampaignEngine().run(pennant_app, 5, 0, None, plans=plans)


@pytest.mark.parametrize("n", [0, -1])
def test_campaign_needs_at_least_one_run(pennant_app, n):
    # Zero runs would leave P_v and P_v' at 1.0 and P_crash and P_letgo
    # at 0.0, estimated from no data.
    with pytest.raises(ValueError, match="at least one run"):
        CampaignEngine().run(pennant_app, n, 0, LETGO_E)
    with pytest.raises(ValueError, match="at least one run"):
        CampaignEngine().run(pennant_app, n, 0, LETGO_E, plans=[])


def test_workers_receive_the_whole_config(pennant_app, monkeypatch):
    """Pooled workers run with the same CampaignConfig as an in-process
    campaign: non-default backend and ladder interval included.

    The fork pool inherits the patched ``run_injection``; a worker that
    lost a field fails its plans, which are then quarantined.
    """
    interval = pennant_app.default_ladder_interval // 2

    def checked(app, plan, config=None, *, session, ladder, **kwargs):
        if (
            session.process.backend != "interpreter"
            or ladder is None
            or ladder.interval != interval
        ):
            raise AssertionError("CampaignConfig field lost on the way here")
        return run_injection(
            app, plan, config, session=session, ladder=ladder, **kwargs
        )

    monkeypatch.setattr(engine_mod, "run_injection", checked)
    monkeypatch.setattr(engine_mod, "RETRY_BACKOFF", 0.0)
    runs = []
    for jobs in (1, 2):
        engine = _engine(
            jobs=jobs,
            backend="interpreter",
            ladder_interval=interval,
            telemetry=True,
            keep_results=True,
        )
        result = engine.run(pennant_app, 6, SEED, LETGO_E)
        assert engine.stats.jobs == jobs
        assert engine.stats.ladder_interval == interval
        assert engine.stats.quarantined == ()
        runs.append((_fingerprint(result), engine.telemetry.signature()))
    assert runs[0] == runs[1]


# -- hangs: the instruction budget is the one bound -------------------------


class CountedLoopApp(MiniApp):
    """A counted loop, module-level so pooled workers can rebuild it.

    Flipping the sign bit of the counter sends the loop round about
    2**63 more times, far past the budget of ``10 x golden + 10,000``
    instructions.
    """

    name = "counted-loop"
    domain = "test"
    source = """
    func main() -> int {
        var int i;
        var float s = 0.0;
        for (i = 0; i < 200; i = i + 1) { s = s + float(i); }
        out(s);
        out(i);
        return 0;
    }
    """

    def acceptance_check(self, output):
        return len(output) == 2 and output[1][1] == 200

    def sdc_slice(self, output):
        return (output[0][1],)


#: Flips the sign bit of the loop counter ``i`` in the second and third
#: trips round the loop, and a low bit of the first.
_LOOP_PLANS = [
    InjectionPlan(dyn_index=37, bit=63, reg_choice=0.0),
    InjectionPlan(dyn_index=51, bit=63, reg_choice=0.0),
    InjectionPlan(dyn_index=23, bit=0, reg_choice=0.0),
]


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
@pytest.mark.parametrize("backend", ["compiled", "interpreter"])
def test_a_budget_hang_through_the_engine(backend, jobs):
    """A run that outruns the budget is a HANG at every backend and
    ``jobs``; LetGo-E on the same plans is served it from the memo, and
    the engine's result equals a cold run of the plan."""
    app = CountedLoopApp()
    assert _app_spec(app) is not None
    for config in (None, LETGO_E):
        engine = _engine(
            jobs=jobs, backend=backend, telemetry=True, keep_results=True
        )
        result = engine.run(app, len(_LOOP_PLANS), SEED, config, plans=_LOOP_PLANS)
        assert engine.stats.jobs == jobs
        assert engine.stats.quarantined == ()
        cold = [
            run_injection(app, plan, config, backend=backend)
            for plan in _LOOP_PLANS
        ]
        assert result.results == cold
        hangs = result.results[:2]
        assert [r.outcome for r in hangs] == [Outcome.HANG, Outcome.HANG]
        assert all(r.steps == app.max_steps for r in hangs)
        assert all(r.first_signal is None for r in result.results)
        memo_hits = engine.telemetry.counters.get("memo-hit", 0)
        assert memo_hits == (0 if config is None else len(_LOOP_PLANS))
