"""Grid differentiation, cumulative quadrature, Hermite resampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dualruled import SampledCurve
from dualruled.errors import GridTooCoarse, NonUniformGrid, ValidationError
from dualruled.numerics import (
    _intervals,
    cumulative_simpson,
    grid_step,
    hermite,
    is_uniform,
    slopes,
    stencil_rows,
)


def test_sampled_curve_validation():
    u = np.linspace(0, 1, 9)
    vals = np.zeros((9, 3))
    SampledCurve(u, vals)
    with pytest.raises(GridTooCoarse):
        SampledCurve(u[:8], vals[:8])
    with pytest.raises(ValidationError):
        SampledCurve(u, vals[:5])
    with pytest.raises(ValidationError, match=r"^SampledCurve needs params \(N,\) and values \(N, 3\)$"):
        SampledCurve(u, vals[:, :2])
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
    d = stencil_rows(np.sin(u), grid_step(u))
    i = 500
    assert abs(u[i] - 0.5) < 1e-12
    assert abs(d[i] - np.cos(0.5)) < 1e-10


def test_constant_curve_derivative_is_zero():
    u = np.linspace(0.0, 2.0, 64)
    d = stencil_rows(np.full((64, 3), 3.7), grid_step(u))
    assert d.shape == (64, 3)
    assert np.max(np.abs(d)) < 1e-12


def test_non_uniform_grid_rejected():
    u = np.linspace(0.0, 1.0, 32)
    u[5] += 1e-3
    assert not is_uniform(u)
    with pytest.raises(NonUniformGrid):
        stencil_rows(np.sin(u), grid_step(u))


@pytest.mark.parametrize("shift,uniform", [(0.0, True), (0.9e-12, True), (1.1e-12, False)])
def test_is_uniform_bounds_each_step(shift, uniform):
    # one step off the mean step by `shift` times the scale max(|u0|, |u-1|, range) = 5
    u = np.linspace(2.0, 5.0, 64)
    u[10:] += 5.0 * shift
    u[11:] -= 5.0 * shift
    assert is_uniform(u) == uniform
    if uniform:
        stencil_rows(np.sin(u), grid_step(u))
    else:
        with pytest.raises(NonUniformGrid):
            cumulative_simpson(np.sin(u), grid_step(u))


def test_fourth_order_convergence():
    # halving h must cut the error by 16x for a 4th-order stencil; the
    # asserted floor is 12x to absorb rounding
    for f, df in ((np.sin, np.cos), (np.cosh, np.sinh)):
        errs = []
        for n in (129, 257):
            u = np.linspace(0.0, 1.0, n)
            d = stencil_rows(f(u), grid_step(u))
            errs.append(np.max(np.abs(d - df(u))))
        assert errs[0] / errs[1] >= 12.0


def test_integrate_examples():
    u = np.linspace(0.0, 2.0, 513)
    total = cumulative_simpson(np.ones_like(u), grid_step(u))
    assert total[0] == 0.0
    assert abs(total[-1] - 2.0) < 1e-12

    u1 = np.linspace(0.0, 1.0, 513)
    lin = cumulative_simpson(u1, grid_step(u1))
    assert abs(lin[-1] - 0.5) < 1e-10

    const = cumulative_simpson(np.full_like(u, 0.2), grid_step(u))
    assert abs(const[-1] - 0.4) < 1e-12


def test_derivative_of_cumulative_integral_is_identity():
    # integrands with f''(start) = 0, where the leading trapezoid panel of
    # the parity fix contributes no h^2 boundary term
    u = np.linspace(0.0, 2.0, 512)
    h = grid_step(u)
    for f in (np.sin(u), u ** 3 / 3.0):
        back = stencil_rows(cumulative_simpson(f, h), h)
        assert np.max(np.abs(back - f)) < 1e-6


def test_cumulative_integral_tracks_antiderivative_between_endpoints():
    u = np.linspace(0.0, 2.0, 1024)
    got = cumulative_simpson(np.cos(u), grid_step(u))
    assert np.max(np.abs(got - np.sin(u))) < 1e-8


def test_hermite_reproduces_cubics(rng):
    x = np.sort(rng.uniform(0.0, 2.0, 40))
    xq = rng.uniform(x[0], x[-1], 200)
    coef = np.array([[0.3, -1.2, 0.7, 2.0], [1.0, 0.0, -0.5, 0.25]]).T
    y = np.stack([np.polyval(coef[:, k], x) for k in range(2)], axis=-1)
    dy = np.stack([np.polyval(np.polyder(coef[:, k]), x) for k in range(2)], axis=-1)
    want = np.stack([np.polyval(coef[:, k], xq) for k in range(2)], axis=-1)
    rows, at = hermite(x, xq)
    assert np.max(np.abs(at(y[rows], dy[rows]) - want)) < 1e-12
    rows, at = hermite(x, x)
    assert rows == slice(0, len(x))
    assert np.max(np.abs(at(y[:, 0], dy[:, 0]) - y[:, 0])) < 1e-12


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, np.ascontiguousarray(a).tobytes()


moderate = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


@st.composite
def resampling_cases(draw):
    n = draw(st.integers(2, 24))
    steps = draw(hnp.arrays(float, n - 1, elements=st.floats(1e-3, 10.0)))
    x = draw(st.floats(-10.0, 10.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    xq = draw(hnp.arrays(float, draw(st.integers(1, 40)),
                         elements=st.floats(float(x[0]) - 1.0, float(x[-1]) + 1.0)))
    shapes = [draw(st.sampled_from([(n,), (n, 1), (n, 3), (n, 6)])) for _ in range(2)]
    fields = [[draw(hnp.arrays(float, shape, elements=moderate)) for _ in range(2)] for shape in shapes]
    return x, xq, fields


@settings(max_examples=200, deadline=None)
@given(resampling_cases())
def test_hermite_resampler_matches_one_shot_formula(case):
    # one resampler, applied to fields of any shape, keeps the bits of the
    # one-shot expression it replaced, on queries in any order and sorted, as a
    # whole and as two blocks, each fed the rows it touches
    x, xq, fields = case

    def one_shot(xq, y, dy):
        i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(x) - 2)
        shape = (-1,) + (1,) * (np.ndim(y) - 1)
        h = (x[i + 1] - x[i]).reshape(shape)
        t = (xq - x[i]).reshape(shape) / h
        return ((1 + 2 * t) * (1 - t) ** 2 * y[i] + t * (1 - t) ** 2 * h * dy[i]
                + t * t * (3 - 2 * t) * y[i + 1] + t * t * (t - 1) * h * dy[i + 1])

    for q in (xq, np.sort(xq)):
        rows, at = hermite(x, q)
        cut = len(q) // 2
        blocks = [hermite(x, part) for part in (q[:cut], q[cut:]) if len(part)]
        for y, dy in fields:
            want = _bits(one_shot(q, y, dy))
            assert _bits(at(y[rows], dy[rows])) == want
            assert _bits(np.concatenate([at_b(y[rows_b], dy[rows_b]) for rows_b, at_b in blocks])) == want


def test_interval_search_gives_the_binary_search_bits(rng):
    # sorted queries merged into the nodes, and queries in any order searched, give
    # searchsorted's intervals: at the nodes, just below them, between them and past
    # the ends, on a uniform and a warped grid, with a nan query in the last interval
    uniform = np.linspace(-1.0, 2.0, 301)
    warped = np.sort(rng.uniform(-1.0, 2.0, 301))
    for x in (uniform, warped):
        xq = np.concatenate([x, x[:-1] + 0.5 * np.diff(x), np.nextafter(x, -np.inf),
                             [-5.0, 7.0, np.inf, -np.inf], rng.uniform(-1.5, 2.5, 500)])
        for q in (xq, np.sort(xq), np.sort(xq)[290:310], xq[:1], np.append(xq, np.nan)):
            want = np.clip(np.searchsorted(x, q, side="right") - 1, 0, len(x) - 2)
            i, x_i, x_next = _intervals(x, q)
            assert np.array_equal(i, want)
            assert _bits(x_i) == _bits(x[want]) and _bits(x_next) == _bits(x[want + 1])
    with pytest.raises(ValueError, match="nodes 10:21"):
        rows, at = hermite(uniform, uniform[10:20])
        at(uniform, uniform)


@st.composite
def stencil_cases(draw):
    n = draw(st.integers(9, 40))
    pad = draw(st.integers(0, 3))
    k = draw(st.sampled_from([None, 1, 3, 4]))
    full = draw(hnp.arrays(float, (n + 2 * pad,) if k is None else (n + 2 * pad, k), elements=moderate))
    view = draw(st.sampled_from(["window", "reversed", "strided", "fortran", "columns"]))
    y = full[pad:pad + n]
    if view == "reversed":
        y = full[::-1][pad:pad + n]
    elif view == "strided":
        y = np.repeat(full, 2, axis=0)[::2][pad:pad + n]
    elif view == "fortran":
        y = np.asfortranarray(full)[pad:pad + n]
    elif view == "columns" and k is not None:
        y = np.repeat(full, 2, axis=1)[pad:pad + n, ::2]
    span = draw(st.floats(0.1, 10.0))
    return np.linspace(0.0, span, n), y


@settings(max_examples=200, deadline=None)
@given(stencil_cases())
def test_grid_derivative_interior_matches_plain_stencil(case):
    # the in-place interior stencil keeps the bits of the one-line expression,
    # also on window slices that are not contiguous
    x, y = case
    h = (x[-1] - x[0]) / (len(x) - 1)
    plain = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    assert _bits(stencil_rows(y, grid_step(x))[2:-2]) == _bits(plain)


def test_slopes_reproduce_quartics(rng):
    x = np.sort(rng.uniform(0.0, 2.0, 30))
    coef = np.array([0.4, -1.0, 0.5, 2.0, -0.3])
    got = slopes(x, np.stack([np.polyval(coef, x), np.polyval(-coef, x)], axis=-1))
    want = np.polyval(np.polyder(coef), x)
    assert np.max(np.abs(got[:, 0] - want)) < 1e-9
    assert np.max(np.abs(got[:, 1] + want)) < 1e-9
    with pytest.raises(GridTooCoarse):
        slopes(x[:4], x[:4])


@pytest.mark.parametrize("shape,order", [((37,), "C"), ((37, 3), "C"), ((37, 3), "F")])
def test_stencil_row_blocks_join_to_the_whole_derivative(rng, shape, order):
    # every block size, the ends and a short last block included; each block
    # also from a window holding only its rows and the samples its stencils read
    x = np.linspace(-1.0, 2.5, shape[0])
    y = np.asarray(rng.normal(size=shape), order=order)
    h, n = grid_step(x), shape[0]
    whole = stencil_rows(y, h)
    for size in range(1, n + 1):
        bounds = [(a, min(a + size, n)) for a in range(0, n, size)]
        assert np.array_equal(np.concatenate([stencil_rows(y, h, a, b) for a, b in bounds]), whole)
        windowed = []
        for a, b in bounds:
            lo, hi = max(a - 2, 0), min(b + 2, n)
            # a window at an end of the grid holds the five samples its end stencils read
            hi = max(hi, 5) if lo == 0 else hi
            lo = min(lo, n - 5) if hi == n else lo
            windowed.append(stencil_rows(y[lo:hi], h, a - lo, b - lo))
        assert np.array_equal(np.concatenate(windowed), whole)


@pytest.mark.parametrize("k", [2, 7])
def test_strided_stencil_is_exact_on_a_quartic(k):
    # the same five-point rules on samples k apart, at step kh: every row, the 2k
    # one-sided rows at each end included, is exact on a quartic
    x = np.linspace(-1.0, 2.0, 61)
    coef = np.array([0.4, -1.0, 0.5, 2.0, -0.3])
    want = np.polyval(np.polyder(coef), x)
    got = stencil_rows(np.stack([np.polyval(coef, x), np.polyval(-2.0 * coef, x)], axis=-1),
                       grid_step(x), k=k)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got[:, 0] - want)) <= 1e-9 * scale
    assert np.max(np.abs(got[:, 1] + 2.0 * want)) <= 2e-9 * scale


@pytest.mark.parametrize("k", [2, 3])
def test_strided_row_blocks_join_to_the_whole_derivative(rng, k):
    # the window contract at stride k: a halo of 2k rows, and the 5k samples at an end
    n = 41
    x = np.linspace(-1.0, 2.5, n)
    y = np.asfortranarray(rng.normal(size=(n, 3)))
    h = grid_step(x)
    whole = stencil_rows(y, h, k=k)
    for size in (1, 2, 5, 9, n):
        bounds = [(a, min(a + size, n)) for a in range(0, n, size)]
        assert np.array_equal(np.concatenate([stencil_rows(y, h, a, b, k) for a, b in bounds]), whole)
        windowed = []
        for a, b in bounds:
            lo, hi = max(a - 2 * k, 0), min(b + 2 * k, n)
            hi = max(hi, 5 * k) if lo == 0 else hi
            lo = min(lo, n - 5 * k) if hi == n else lo
            windowed.append(stencil_rows(y[lo:hi], h, a - lo, b - lo, k))
        assert np.array_equal(np.concatenate(windowed), whole)
