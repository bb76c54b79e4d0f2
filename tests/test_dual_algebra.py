"""Ring arithmetic and analytic-function evaluation on dual numbers."""

import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dualruled import EPS, DualScalar, dual_algebra
from dualruled.dual_algebra import dual_cosh, dual_sinh, dual_sqrt
from dualruled.errors import DivisionByPureDual, DomainError

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def close(x: DualScalar, re, du, tol=1e-12):
    return math.isclose(x.re, re, rel_tol=tol, abs_tol=tol) and math.isclose(
        x.du, du, rel_tol=tol, abs_tol=tol
    )


def test_mul_example():
    assert close(DualScalar(2, 3) * DualScalar(4, 5), 8, 22, tol=0)


def test_epsilon_squares_to_zero():
    z = EPS * EPS
    assert z.re == 0.0 and z.du == 0.0


def test_div_example_and_roundtrip():
    q = DualScalar(1, 2) / DualScalar(2, 1)
    assert close(q, 0.5, 0.75, tol=0)
    back = q * DualScalar(2, 1)
    assert close(back, 1, 2)


def test_division_by_pure_dual_raises():
    with pytest.raises(DivisionByPureDual):
        DualScalar(1, 0) / DualScalar(0, 5)
    with pytest.raises(DivisionByPureDual):
        DualScalar(1.0, 0.0) / DualScalar(np.array([1.0, 0.0]), np.array([0.0, 0.0]))


def _within_forward_error(u: DualScalar, v: DualScalar, scale: DualScalar) -> bool:
    # rounding error of a sum of products is bounded by the sum of the
    # terms' magnitudes, which the same expression on |operands| computes;
    # bounding by the result fails whenever the terms cancel
    return (abs(u.re - v.re) <= 1e-9 * (1 + scale.re)
            and abs(u.du - v.du) <= 1e-9 * (1 + scale.du))


@given(finite, finite, finite, finite, finite, finite)
@example(17.0, 0.0, 986896.0, 0.0, -986895.9999999999, 0.0)
@example(1e6, 999967.0, 999999.0, -999966.0, 9009.0, 0.0)
def test_ring_axioms(a, b, c, d, e, f):
    x, y, z = DualScalar(a, b), DualScalar(c, d), DualScalar(e, f)
    mx, my, mz = (DualScalar(abs(w.re), abs(w.du)) for w in (x, y, z))
    assert (x + y) == (y + x)
    assert (x * y) == (y * x)
    assert _within_forward_error((x + y) + z, x + (y + z), (mx + my) + mz)
    assert _within_forward_error((x * y) * z, x * (y * z), (mx * my) * mz)
    assert _within_forward_error(x * (y + z), x * y + x * z, mx * (my + mz))


@given(finite, finite)
def test_real_part_never_sees_dual_part(a, b):
    x, y = DualScalar(a, b), DualScalar(b, a)
    assert (x * y).re == a * b
    assert (x + y).re == a + b


def test_abs_flips_both_parts_on_negative_real():
    assert abs(DualScalar(-2.0, 3.0)) == DualScalar(2.0, -3.0)
    assert abs(DualScalar(2.0, 3.0)) == DualScalar(2.0, 3.0)
    arr = abs(DualScalar(np.array([-1.0, 1.0]), np.array([5.0, 5.0])))
    assert np.array_equal(arr.re, [1.0, 1.0]) and np.array_equal(arr.du, [-5.0, 5.0])


def test_scalar_mixing_with_plain_floats():
    assert not DualScalar(1.0, 0.0) == DualScalar(1.0, 1.0)
    x = DualScalar(2.0, 3.0)
    assert (1.0 + x) == DualScalar(3.0, 3.0)
    assert (2.0 * x) == DualScalar(4.0, 6.0)
    assert (1.0 / DualScalar(2.0, 1.0)) == DualScalar(0.5, -0.25)


def test_apply_examples():
    assert close(dual_cosh(DualScalar(0, 7)), 1.0, 0.0, tol=0)
    assert close(dual_sqrt(DualScalar(4, 2)), 2.0, 0.5, tol=0)
    s = dual_sinh(DualScalar(1, 0.5))
    assert abs(s.re - 1.175201) < 1e-6 and abs(s.du - 0.771540) < 1e-6


# every dual_* function of the module, by its name without the prefix, so one added
# there is checked here too (test_array_scalar_parity asks DOMAINS for its domain)
FUNCTIONS = {name.removeprefix("dual_"): fn for name, fn in vars(dual_algebra).items()
             if name.startswith("dual_")}


@pytest.mark.parametrize(
    "name,bad",
    [
        ("sqrt", -1.0),
        ("sqrt", 0.0),
        ("arccosh", 1.0),
        ("arccosh", 0.5),
        ("artanh", 1.0),
        ("artanh", -2.0),
    ],
)
def test_domain_errors(name, bad):
    with pytest.raises(DomainError) as err:
        FUNCTIONS[name](DualScalar(bad, 1.0))
    assert name in str(err.value)


DOMAINS = {
    "cosh": (-2.0, 2.0),
    "sinh": (-2.0, 2.0),
    "tanh": (-2.0, 2.0),
    "sqrt": (0.5, 4.0),
    "arccosh": (1.2, 4.0),
    "artanh": (-0.8, 0.8),
}


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_dual_part_is_directional_derivative(name, rng):
    # dual part must track x_star * f'(x); finite differences with error
    # bounded by C*h^2 at both pinned step sizes
    lo, hi = DOMAINS[name]
    xs = rng.uniform(lo, hi, size=200)
    stars = rng.uniform(-2.0, 2.0, size=200)
    fn = FUNCTIONS[name]
    out = fn(DualScalar(xs, stars))
    for h in (1e-4, 1e-5):
        fp = fn(DualScalar(xs + h, np.zeros_like(xs))).re
        fm = fn(DualScalar(xs - h, np.zeros_like(xs))).re
        fd = stars * (fp - fm) / (2 * h)
        bound = 1e3 * (1 + np.abs(stars)) * (1 + np.abs(out.re)) * h * h
        assert np.all(np.abs(out.du - fd) <= bound)


# outer, inner and the domain of the inner argument, by test id; the ids are fixed
# strings, so a row deleted leaves the others' names as they were
COMPOSABLE = {
    "sinh-cosh-dom0": ("sinh", "cosh", (-1.5, 1.5)),
    "sqrt-cosh-dom1": ("sqrt", "cosh", (-1.5, 1.5)),
    "arccosh-cosh-dom2": ("arccosh", "cosh", (1.2, 3.0)),
    "artanh-tanh-dom4": ("artanh", "tanh", (-1.0, 1.0)),
    "tanh-sinh-dom5": ("tanh", "sinh", (-1.5, 1.5)),
    "cosh-artanh-dom6": ("cosh", "artanh", (-0.8, 0.8)),
}


@pytest.mark.parametrize("outer,inner,dom", COMPOSABLE.values(), ids=COMPOSABLE)
def test_chain_rule(outer, inner, dom, rng):
    xs = rng.uniform(dom[0], dom[1], size=500)
    stars = rng.uniform(-3.0, 3.0, size=500)
    f, g = FUNCTIONS[outer], FUNCTIONS[inner]
    got = f(g(DualScalar(xs, stars)))
    inner_val = g(DualScalar(xs, np.ones_like(xs)))
    outer_val = f(DualScalar(inner_val.re, np.ones_like(xs)))
    want_du = stars * inner_val.du * outer_val.du
    scale = 1.0 + np.abs(want_du)
    assert np.all(np.abs(got.du - want_du) <= 1e-12 * scale)
    assert np.all(got.re == outer_val.re)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _assert_per_sample_bits(batch: DualScalar, single: DualScalar, i: int) -> None:
    assert _bits(batch.re[i]) == _bits(single.re) and _bits(batch.du[i]) == _bits(single.du)


def test_array_scalar_parity():
    # one number and a batch take the same code path: every function and
    # operator gives each sample of a batch the bits of the scalar evaluation,
    # with an ndarray operand on either side
    stars = np.array([1.0, -1.0, 0.5, -0.25, 3.0])
    assert sorted(FUNCTIONS) == sorted(DOMAINS)
    for name, fn in FUNCTIONS.items():
        xs = np.linspace(*DOMAINS[name], 5)
        arr = fn(DualScalar(xs, stars))
        for i in range(5):
            _assert_per_sample_bits(arr, fn(DualScalar(xs[i], stars[i])), i)
    xs = np.array([0.5, -1.5, 2.5, 3.0, -0.75])
    ys = np.array([1.25, 3.0, -0.5, 7.0, 0.1])
    arr = DualScalar(xs, stars)
    others = (3, 2.5, np.float64(-1.25), DualScalar(0.75, -2.0))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        by_array = op(arr, ys)
        array_left = op(ys, arr)
        assert isinstance(array_left, DualScalar)
        left = [op(arr, other) for other in others]
        right = [op(other, arr) for other in others]
        for i in range(5):
            one = DualScalar(xs[i], stars[i])
            _assert_per_sample_bits(by_array, op(one, ys[i]), i)
            _assert_per_sample_bits(array_left, op(float(ys[i]), one), i)
            for other, l, r in zip(others, left, right):
                _assert_per_sample_bits(l, op(one, other), i)
                _assert_per_sample_bits(r, op(other, one), i)


def test_scalar_slots_are_0d_float_arrays():
    for x in (DualScalar(2, 3), DualScalar(np.float64(2.0), 3.0), EPS,
              DualScalar(1.0, 2.0) * 3, 1 - DualScalar(1.0, 2.0), dual_sinh(EPS)):
        for slot in (x.re, x.du):
            assert type(slot) is np.ndarray and slot.shape == () and slot.dtype == np.float64


def test_scalar_overflow_raises_like_arrays():
    big = np.array([1e200])
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            DualScalar(big, np.zeros(1)) * DualScalar(big, np.zeros(1))
        with pytest.raises(FloatingPointError):
            DualScalar(1e200, 0.0) * DualScalar(1e200, 0.0)
