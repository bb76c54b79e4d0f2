"""Lorentzian primitives: metric, cross product, determinant."""

import numpy as np

from dualruled import det3, lcross, linner, lnorm


def test_linner_examples():
    assert linner(np.array([1.0, 0, 0]), np.array([1.0, 0, 0])) == -1.0
    assert linner(np.array([0.0, 1, 0]), np.array([0.0, 0, 1])) == 0.0
    assert linner(np.array([1.0, 2, 3]), np.array([4.0, 5, 6])) == 24.0


def test_lnorm():
    assert lnorm(np.array([1.0, 0, 0])) == 1.0
    assert lnorm(np.array([0.0, 3, 4])) == 5.0


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
