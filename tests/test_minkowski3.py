"""Lorentzian primitives: metric, cross product, determinant."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dualruled import det3, lcross, linner
from dualruled.minkowski3 import enorm

moderate = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False, width=64)


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, np.ascontiguousarray(a).tobytes()


@st.composite
def vectors(draw, shape):
    """Float vectors of `shape`, as a plain array or a non-contiguous view."""
    v = draw(hnp.arrays(float, shape, elements=moderate))
    view = draw(st.sampled_from(["plain", "reversed", "fortran", "strided"]))
    if view == "reversed" and v.ndim > 1:
        v = v[::-1]
    elif view == "fortran":
        v = np.asfortranarray(v)
    elif view == "strided":
        v = np.repeat(v, 2, axis=-1)[..., ::2]
    return v


def test_linner_examples():
    assert linner(np.array([1.0, 0, 0]), np.array([1.0, 0, 0])) == -1.0
    assert linner(np.array([0.0, 1, 0]), np.array([0.0, 0, 1])) == 0.0
    assert linner(np.array([1.0, 2, 3]), np.array([4.0, 5, 6])) == 24.0


def test_lcross_examples():
    e0, e1, e2 = np.eye(3)
    assert np.array_equal(lcross(e0, e1), [0, 0, -1])
    assert np.array_equal(lcross(e1, e2), [1, 0, 0])
    a = np.array([2.0, -1.0, 3.0])
    assert np.array_equal(lcross(a, a), [0, 0, 0])


def test_lcross_antisymmetry(rng):
    a = rng.normal(size=(100, 3))
    b = rng.normal(size=(100, 3))
    assert np.array_equal(lcross(a, b), -lcross(b, a))


def test_determinant_identity(rng):
    a, b, c = rng.normal(size=(3, 1000, 3))
    lhs = linner(lcross(a, b), c)
    rhs = -det3(a, b, c)
    scale = np.maximum(1.0, np.abs(rhs))
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-10


def test_frame_closure_canonical():
    e, t, g = np.eye(3)
    assert np.array_equal(lcross(t, e), g)
    assert np.array_equal(lcross(t, g), e)
    assert np.array_equal(lcross(e, g), t)
    assert np.array_equal(-lcross(e, t), g)


def test_frame_closure_on_sampled_frames(constant_surface):
    m = constant_surface
    for got, want in (
        (lcross(m.t, m.e), m.g),
        (lcross(m.t, m.g), m.e),
        (lcross(m.e, m.g), m.t),
    ):
        assert np.max(np.abs(got - want)) < 1e-9


def test_det3_matches_numpy(rng):
    rows = rng.normal(size=(50, 3, 3))
    want = np.linalg.det(rows)
    got = det3(rows[:, 0], rows[:, 1], rows[:, 2])
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want) + 1)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([((7, 3), (7, 3)), ((3,), (7, 3)), ((7, 3), (3,)),
                                   ((3,), (3,)), ((2, 5, 3), (5, 3)), ((1, 3), (4, 3))]))
def test_lcross_matches_stacked_formula(data, shapes):
    # the in-place columns keep the bits of the stacked expression, broadcasting included
    a, b = (data.draw(vectors(shape)) for shape in shapes)
    stacked = np.stack([
        a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
        a[..., 0] * b[..., 2] - a[..., 2] * b[..., 0],
        a[..., 1] * b[..., 0] - a[..., 0] * b[..., 1],
    ], axis=-1)
    assert _bits(lcross(a, b)) == _bits(stacked)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([(9, 3), (3,), (2, 4, 3), (0, 3)]))
def test_enorm_matches_sum_reduction(data, shape):
    v = data.draw(vectors(shape))
    assert _bits(enorm(v)) == _bits(np.sqrt(np.sum(v * v, axis=-1)))
