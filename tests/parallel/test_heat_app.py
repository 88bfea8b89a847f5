"""The SPMD heat-diffusion proxy app."""

import math

import pytest

from repro.apps import base as apps_base
from repro.parallel import HeatApp


@pytest.fixture(scope="module")
def heat():
    app = HeatApp(size=4)
    app.golden  # warm
    return app


def test_golden_completes(heat):
    outputs, steps = heat.golden
    assert len(outputs) == 4
    assert steps > 10_000


def test_conservation(heat):
    rank0 = heat.golden_outputs[0]
    total0, totalf = rank0[0][1], rank0[1][1]
    assert math.isclose(total0, heat.expected_total(), rel_tol=1e-12)
    assert math.isclose(totalf, total0, rel_tol=1e-12)


def test_acceptance_passes_golden(heat):
    assert heat.acceptance_check(heat.golden_outputs)
    assert heat.matches_golden(heat.golden_outputs)


def test_acceptance_rejects_malformed(heat):
    outputs = [list(s) for s in heat.golden_outputs]
    assert not heat.acceptance_check(outputs[:-1])        # missing rank
    truncated = [list(s) for s in outputs]
    truncated[2] = truncated[2][:-1]
    assert not heat.acceptance_check(truncated)
    poisoned = [list(s) for s in outputs]
    poisoned[1] = [(k, math.nan) for k, _ in poisoned[1]]
    assert not heat.acceptance_check(poisoned)


def test_acceptance_rejects_conservation_violation(heat):
    outputs = [list(s) for s in heat.golden_outputs]
    kind, totalf = outputs[0][1]
    outputs[0][1] = (kind, totalf * 1.001)
    assert not heat.acceptance_check(outputs)


def test_solution_smooths_over_time(heat):
    """Diffusion flattens the hump: final spread < initial spread."""
    field = heat.sdc_slice(heat.golden_outputs)
    assert max(field) - min(field) < 1.0  # initial profile spans 1.0


def test_solution_symmetric(heat):
    field = heat.sdc_slice(heat.golden_outputs)
    n = len(field)
    asym = max(abs(field[i] - field[n - 1 - i]) for i in range(n))
    assert asym < 1e-9


def test_different_sizes_agree_on_physics():
    """2 ranks and 4 ranks of the same global problem: same totals."""
    two = HeatApp(size=2, n_local=24)
    four = HeatApp(size=4, n_local=12)
    t2 = two.golden_outputs[0][1][1]
    t4 = four.golden_outputs[0][1][1]
    assert math.isclose(t2, t4, rel_tol=1e-9)
    # and the same final field
    f2 = two.sdc_slice(two.golden_outputs)
    f4 = four.sdc_slice(four.golden_outputs)
    assert max(abs(a - b) for a, b in zip(f2, f4)) < 1e-9


def test_one_hang_factor_sets_both_budgets(heat, pennant_app, monkeypatch):
    """Cluster apps and single-process apps share one hang-budget rule."""
    before = (heat.max_steps, pennant_app.max_steps)
    assert before == (
        apps_base.hang_budget(heat.golden_steps),
        apps_base.hang_budget(pennant_app.golden.instret),
    )
    monkeypatch.setattr(apps_base, "HANG_FACTOR", apps_base.HANG_FACTOR * 2)
    after = (heat.max_steps, pennant_app.max_steps)
    assert after == (
        int(heat.golden_steps * apps_base.HANG_FACTOR) + 10_000,
        int(pennant_app.golden.instret * apps_base.HANG_FACTOR) + 10_000,
    )
    assert after[0] > before[0] and after[1] > before[1]
