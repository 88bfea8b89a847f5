"""Golden-run properties of every benchmark application."""

import importlib
import math

import pytest

import repro.analysis
import repro.analysis.profiler
import repro.apps.base
from repro.apps import APP_CLASSES, app_names
from repro.apps.base import MiniApp
from repro.checkpoint import build_ladder
from repro.checkpoint.snapshot import MAX_RUNGS
from repro.faultinject import CampaignEngine


def test_suite_composition():
    assert len(APP_CLASSES) == 6
    assert app_names() == ["lulesh", "clamr", "hpl", "comd", "snap", "pennant"]
    assert app_names(iterative_only=True) == [
        "lulesh",
        "clamr",
        "comd",
        "snap",
        "pennant",
    ]


def test_hpl_is_the_only_direct_method(suite):
    assert not suite["hpl"].iterative
    assert all(app.iterative for name, app in suite.items() if name != "hpl")


def test_goldens_accept_and_match(suite):
    for app in suite.values():
        output = list(app.golden.output)
        assert app.acceptance_check(output), app.name
        assert app.matches_golden(output), app.name


def test_golden_exit_code_zero(suite):
    for app in suite.values():
        assert app.golden.exit_code == 0, app.name


def test_golden_sizes_in_range(suite):
    """Dynamic instruction counts comparable across the suite (Table 2)."""
    for app in suite.values():
        assert 50_000 <= app.golden.instret <= 2_000_000, app.name


def test_golden_deterministic(suite):
    for app in suite.values():
        process = app.load()
        result = process.run(app.max_steps)
        assert result.reason == "exited"
        assert tuple(process.output) == app.golden.output, app.name
        assert process.cpu.instret == app.golden.instret, app.name


def test_max_steps_exceeds_golden(suite):
    for app in suite.values():
        assert app.max_steps > app.golden.instret * 2


def test_describe(suite):
    for app in suite.values():
        text = app.describe()
        assert app.name in text and str(app.golden.instret) in text


def test_domains_match_table2(suite):
    assert suite["lulesh"].domain == "Hydrodynamics"
    assert suite["clamr"].domain == "Adaptive mesh refinement"
    assert suite["hpl"].domain == "Dense linear solver"
    assert suite["comd"].domain == "Classical molecular dynamics"
    assert suite["snap"].domain == "Discrete ordinates transport"
    assert suite["pennant"].domain == "Unstructured mesh physics"


def test_all_functions_discovered(suite):
    """Static analysis sees every compiled function with a frame."""
    for app in suite.values():
        names = {f.name for f in app.functions.functions}
        assert "main" in names and "_start" in names


def test_sdc_slice_nonempty(suite):
    for app in suite.values():
        data = app.sdc_slice(list(app.golden.output))
        assert len(data) >= 10, app.name


class _SumApp(MiniApp):
    """A tiny app for counting golden passes."""

    name = "sum"
    source = """
    func main() -> int {
        var int i;
        var float s = 0.0;
        for (i = 0; i < 5000; i = i + 1) { s = s + float(i) * 0.5; }
        out(s);
        return 0;
    }
    """

    def acceptance_check(self, output):
        return len(output) == 1 and math.isfinite(output[0][1])

    def sdc_slice(self, output):
        return (output[0][1],)


def test_one_golden_pass_per_app(monkeypatch):
    # Empty caches: no earlier test may have run this app's golden pass.
    monkeypatch.setattr(repro.apps.base, "_UNIT_CACHE", {})
    monkeypatch.setattr(repro.apps.base, "_LADDER_CACHE", {})
    calls = []

    def counting_build_ladder(*args, **kwargs):
        calls.append(args[1:])
        return build_ladder(*args, **kwargs)

    def no_profiling(*args, **kwargs):
        raise AssertionError("the campaign path ran a profiling pass")

    # ``repro.checkpoint.snapshot`` the attribute is the snapshot function.
    snapshot_module = importlib.import_module("repro.checkpoint.snapshot")
    monkeypatch.setattr(snapshot_module, "build_ladder", counting_build_ladder)
    monkeypatch.setattr(repro.analysis.profiler, "profile_program", no_profiling)
    monkeypatch.setattr(repro.analysis, "profile_program", no_profiling)
    app = _SumApp()
    assert app.golden.exit_code == 0
    assert app.ladder().total == app.golden.instret
    assert app.default_ladder_interval == app.ladder().interval
    assert CampaignEngine().run(app, 4, seed=3).n == 4
    assert calls == [()]


def test_default_interval_gives_the_default_ladder(suite):
    for app in suite.values():
        assert app.ladder(app.default_ladder_interval) is app.ladder()


def test_default_ladder_geometry(suite):
    for app in suite.values():
        ladder = app.ladder()
        assert MAX_RUNGS // 2 <= len(ladder) < MAX_RUNGS, app.name
        fixed = build_ladder(app.program, interval=ladder.interval)
        assert fixed.rungs == ladder.rungs, app.name
        assert (fixed.total, fixed.output, fixed.exit_code) == (
            ladder.total, ladder.output, ladder.exit_code
        )
