"""Grid differentiation, cumulative quadrature, Hermite resampling."""

import numpy as np
import pytest

from dualruled import (
    SampledCurve,
    arclength_map,
    derivative,
    grid_derivative,
    integrate_cumulative,
)
from dualruled.errors import DegenerateSpeed, GridTooCoarse, NonUniformGrid, ValidationError
from dualruled.numerics import hermite, slopes


def curve3(u, f):
    vals = np.stack([f(u), np.zeros_like(u), np.zeros_like(u)], axis=-1)
    return SampledCurve(u, vals)


def test_sampled_curve_validation():
    u = np.linspace(0, 1, 9)
    vals = np.zeros((9, 3))
    SampledCurve(u, vals)
    with pytest.raises(GridTooCoarse):
        SampledCurve(u[:8], vals[:8])
    with pytest.raises(ValidationError):
        SampledCurve(u, vals[:5])
    bad = u.copy()
    bad[3] = bad[2]
    with pytest.raises(ValidationError):
        SampledCurve(bad, vals)
    nan_vals = vals.copy()
    nan_vals[0, 0] = np.nan
    with pytest.raises(ValidationError):
        SampledCurve(u, nan_vals)


def test_first_derivative_sin_example():
    u = np.linspace(0.0, 1.0, 1001)
    d = derivative(curve3(u, np.sin), order=1)
    i = 500
    assert abs(u[i] - 0.5) < 1e-12
    assert abs(d.values[i, 0] - np.cos(0.5)) < 1e-10


def test_constant_curve_derivative_is_zero():
    u = np.linspace(0.0, 2.0, 64)
    d = derivative(SampledCurve(u, np.full((64, 3), 3.7)), order=1)
    assert np.max(np.abs(d.values)) < 1e-12


def test_second_derivative_quadratic_example():
    u = np.linspace(0.0, 1.0, 101)
    d = derivative(curve3(u, lambda x: x * x), order=2)
    assert np.max(np.abs(d.values[:, 0] - 2.0)) < 1e-8


def test_non_uniform_grid_rejected():
    u = np.linspace(0.0, 1.0, 32)
    u[5] += 1e-3
    with pytest.raises(NonUniformGrid):
        derivative(curve3(u, np.sin), order=1)


def test_fourth_order_convergence():
    # halving h must cut the error by 16x for a 4th-order stencil; the
    # asserted floor is 12x to absorb rounding
    for f, df in ((np.sin, np.cos), (np.cosh, np.sinh)):
        errs = []
        for n in (129, 257):
            u = np.linspace(0.0, 1.0, n)
            d = grid_derivative(u, f(u))
            errs.append(np.max(np.abs(d - df(u))))
        assert errs[0] / errs[1] >= 12.0


def test_integrate_examples():
    u = np.linspace(0.0, 2.0, 513)
    total = integrate_cumulative(u, np.ones_like(u))
    assert total[0] == 0.0
    assert abs(total[-1] - 2.0) < 1e-12

    u1 = np.linspace(0.0, 1.0, 513)
    lin = integrate_cumulative(u1, u1)
    assert abs(lin[-1] - 0.5) < 1e-10

    const = integrate_cumulative(u, np.full_like(u, 0.2))
    assert abs(const[-1] - 0.4) < 1e-12


def test_derivative_of_cumulative_integral_is_identity():
    # integrands with f''(start) = 0, where the leading trapezoid panel of
    # the parity fix contributes no h^2 boundary term
    u = np.linspace(0.0, 2.0, 512)
    for f in (np.sin(u), u ** 3 / 3.0):
        back = grid_derivative(u, integrate_cumulative(u, f))
        assert np.max(np.abs(back - f)) < 1e-6


def test_cumulative_integral_tracks_antiderivative_between_endpoints():
    u = np.linspace(0.0, 2.0, 1024)
    got = integrate_cumulative(u, np.cos(u))
    assert np.max(np.abs(got - np.sin(u))) < 1e-8


def test_arclength_map_monotone_and_clipped(rng):
    u = np.linspace(0.0, 1.0, 257)
    speed = 1.0 + 0.5 * np.sin(2 * u)
    s, s_uniform, u_at_s = arclength_map(u, speed)
    assert np.all(np.diff(s) > 0)
    assert s_uniform[0] == s[0] and s_uniform[-1] == s[-1]
    assert np.all(u_at_s >= u[0]) and np.all(u_at_s <= u[-1])


def test_arclength_map_rejects_stalled_speed():
    u = np.linspace(0.0, 1.0, 64)
    speed = np.ones_like(u)
    speed[30] = 0.0
    with pytest.raises(DegenerateSpeed) as err:
        arclength_map(u, speed)
    assert "30" in str(err.value)


def test_hermite_reproduces_cubics(rng):
    x = np.sort(rng.uniform(0.0, 2.0, 40))
    xq = rng.uniform(x[0], x[-1], 200)
    coef = np.array([[0.3, -1.2, 0.7, 2.0], [1.0, 0.0, -0.5, 0.25]]).T
    y = np.stack([np.polyval(coef[:, k], x) for k in range(2)], axis=-1)
    dy = np.stack([np.polyval(np.polyder(coef[:, k]), x) for k in range(2)], axis=-1)
    want = np.stack([np.polyval(coef[:, k], xq) for k in range(2)], axis=-1)
    assert np.max(np.abs(hermite(x, y, dy, xq) - want)) < 1e-12
    assert np.max(np.abs(hermite(x, y[:, 0], dy[:, 0], x) - y[:, 0])) < 1e-12


def test_slopes_reproduce_quartics(rng):
    x = np.sort(rng.uniform(0.0, 2.0, 30))
    coef = np.array([0.4, -1.0, 0.5, 2.0, -0.3])
    got = slopes(x, np.stack([np.polyval(coef, x), np.polyval(-coef, x)], axis=-1))
    want = np.polyval(np.polyder(coef), x)
    assert np.max(np.abs(got[:, 0] - want)) < 1e-9
    assert np.max(np.abs(got[:, 1] + want)) < 1e-9
    with pytest.raises(GridTooCoarse):
        slopes(x[:4], x[:4])
