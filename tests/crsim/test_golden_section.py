"""The golden-section search behind ``optimize_interval``, on analytic functions."""

import pytest

from repro.crsim.optimize import _MAXITER, _golden_section


class Counted:
    """Wraps *f* and counts its evaluations."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def test_interior_minimum():
    f = Counted(lambda x: (x - 3.0) ** 2)
    x, fx = _golden_section(f, 0.0, 10.0, xatol=1e-3, maxiter=_MAXITER)
    assert x == pytest.approx(3.0, abs=2e-3)
    assert fx == f.f(x)
    assert f.calls <= _MAXITER + 2


def test_minimum_at_lower_bound():
    f = Counted(lambda x: x)
    x, fx = _golden_section(f, 2.0, 10.0, xatol=0.01, maxiter=_MAXITER)
    assert 2.0 <= x <= 2.0 + 0.02
    assert fx == x


def test_minimum_at_upper_bound():
    f = Counted(lambda x: -x)
    x, _ = _golden_section(f, 2.0, 10.0, xatol=0.01, maxiter=_MAXITER)
    assert 10.0 - 0.02 <= x <= 10.0


@pytest.mark.parametrize("maxiter", [0, 1, 5, 24])
def test_evaluations_bounded_by_maxiter(maxiter):
    # A tolerance the steps cannot reach: the step budget alone stops it.
    f = Counted(lambda x: (x - 3.0) ** 2)
    x, _ = _golden_section(f, 0.0, 10.0, xatol=1e-12, maxiter=maxiter)
    assert f.calls == maxiter + 2
    assert 0.0 <= x <= 10.0


def test_tolerance_stops_early():
    f = Counted(lambda x: (x - 3.0) ** 2)
    _golden_section(f, 0.0, 10.0, xatol=1.0, maxiter=_MAXITER)
    # 10 * 0.618**k <= 2 after k = 4 steps.
    assert f.calls == 4 + 2
