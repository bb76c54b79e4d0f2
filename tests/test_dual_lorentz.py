"""Dual Lorentzian vectors, line encoding, and dual hyperbolic angles."""

import numpy as np
import pytest

from dualruled import (
    DualScalar,
    DualVec3,
    apply_function,
    decode_line_point,
    dinner,
    dnorm,
    dual_angle,
    encode_line,
    linner,
)
from dualruled.errors import InvalidLine, NotTimelike, NotUnit, NullDirection, ParallelLines
from dualruled.surface_kernel import dual_frame

ORIGIN_X = DualVec3(np.array([1.0, 0.0, 0.0]), np.zeros(3))


def line(direction, point):
    return encode_line(np.asarray(direction, float), np.asarray(point, float))


def skew_pair():
    a = line([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    b = line([np.cosh(1.0), np.sinh(1.0), 0.0], [0.0, 0.0, 2.0])
    return a, b


def test_dinner_unit_line_with_itself():
    got = dinner(ORIGIN_X, ORIGIN_X)
    assert got.re == -1.0 and got.du == 0.0


def test_dinner_skew_example():
    a, b = skew_pair()
    got = dinner(a, b)
    assert abs(got.re - (-1.543081)) < 1e-6
    assert abs(got.du - 2.350402) < 1e-6


def test_dinner_dual_part_vanishes_for_moment_of_own_point(constant_surface):
    m = constant_surface
    e_line = encode_line(m.e[17], m.c[17])
    got = dinner(e_line, e_line)
    assert abs(got.re + 1.0) < 1e-12 and abs(got.du) < 1e-12


def test_dual_frame_gives_central_normal_at_origin_sample(planar_surface):
    # at s = 0 the planar fixture has e = (1,0,0), t = (0,1,0), c = 0, so the
    # dual central normal -e x t must come out as ((0,0,1), (0,0,0))
    _, _, gd = dual_frame(planar_surface)
    assert np.max(np.abs(gd.re[0] - [0.0, 0.0, 1.0])) < 1e-9
    assert np.max(np.abs(gd.du[0])) < 1e-9


def test_dnorm_examples():
    two_x = np.array([2.0, 0.0, 0.0])
    assert dnorm(DualVec3(two_x, np.array([0.0, 1.0, 0.0]))) == DualScalar(2.0, 0.0)
    assert dnorm(DualVec3(two_x, np.array([1.0, 0.0, 0.0]))) == DualScalar(2.0, -1.0)
    unit = DualVec3(np.array([1.0, 0.0, 0.0]), np.array([0.0, -2.0, 0.0]))
    assert dnorm(unit) == DualScalar(1.0, 0.0)


def test_dnorm_rejects_null_direction():
    with pytest.raises(NullDirection):
        dnorm(DualVec3(np.array([1.0, 1.0, 0.0]), np.zeros(3)))
    # a zero direction has no dual norm either, not a nan dual part
    with pytest.raises(NullDirection):
        dnorm(DualVec3(np.zeros(3), np.ones(3)))


def test_encode_examples():
    got = line([1, 0, 0], [0, 0, 2])
    assert np.array_equal(got.re, [1, 0, 0])
    assert np.array_equal(got.du, [0, -2, 0])
    through_origin = line([1, 0, 0], [0, 0, 0])
    assert not np.any(through_origin.du)


def test_encode_moment_is_point_independent():
    a = line([1, 0, 0], [0, 0, 2])
    b = line([1, 0, 0], [5, 0, 2])
    assert np.array_equal(a.du, b.du)


def test_encode_renormalizes_small_drift():
    got = encode_line(np.array([1.0 + 4e-7, 0.0, 0.0]), np.array([0.0, 0.0, 2.0]))
    assert abs(got.re[0] - 1.0) < 1e-9


def test_encode_rejections():
    with pytest.raises(NotTimelike):
        encode_line(np.array([0.5, 1.0, 0.0]), np.zeros(3))
    with pytest.raises(NotUnit):
        encode_line(np.array([1.1, 0.0, 0.0]), np.zeros(3))


def test_decode_examples():
    assert np.array_equal(
        decode_line_point(DualVec3(np.array([1.0, 0, 0]), np.array([0.0, -2, 0]))),
        [0, 0, 2],
    )
    assert np.array_equal(decode_line_point(ORIGIN_X), [0, 0, 0])
    with pytest.raises(InvalidLine):
        decode_line_point(DualVec3(np.array([1.0, 1.0, 0.0]), np.zeros(3)))


def test_decode_rejects_moment_violating_orthogonality():
    with pytest.raises(InvalidLine):
        decode_line_point(DualVec3(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])))


def test_roundtrip_random_lines(rng):
    rap = rng.uniform(0.0, 2.0, size=1000)
    ang = rng.uniform(0.0, 2 * np.pi, size=1000)
    dirs = np.stack(
        [np.cosh(rap), np.sinh(rap) * np.cos(ang), np.sinh(rap) * np.sin(ang)], axis=-1
    )
    pts = rng.uniform(-2.0, 2.0, size=(1000, 3))
    enc = encode_line(dirs, pts)
    dec = decode_line_point(enc)
    # recovered point must sit on the encoded line and reproduce its moment
    back = encode_line(dirs, dec)
    assert np.max(np.abs(back.du - enc.du)) < 1e-10
    offset = dec - pts
    cross = np.cross(offset, dirs)
    assert np.max(np.linalg.norm(cross, axis=-1) / np.linalg.norm(dirs, axis=-1)) < 1e-10


def test_plucker_constraints_hold_for_encoded_lines(rng):
    rap = rng.uniform(0.0, 1.5, size=200)
    dirs = np.stack([np.cosh(rap), np.sinh(rap), np.zeros_like(rap)], axis=-1)
    pts = rng.uniform(-3.0, 3.0, size=(200, 3))
    enc = encode_line(dirs, pts)
    assert np.max(np.abs(linner(enc.re, enc.re) + 1.0)) < 1e-10
    assert np.max(np.abs(linner(enc.re, enc.du))) < 1e-10


def test_dual_angle_parallel_lines_error():
    with pytest.raises(ParallelLines):
        dual_angle(ORIGIN_X, ORIGIN_X)


def test_dual_angle_skew_example():
    a, b = skew_pair()
    got = dual_angle(a, b)
    assert abs(got.re - 1.0) < 1e-9
    assert abs(got.du - (-2.0)) < 1e-9


def test_dual_angle_rejects_non_timelike():
    sp = DualVec3(np.array([0.0, 1.0, 0.0]), np.zeros(3))
    with pytest.raises(NotTimelike):
        dual_angle(ORIGIN_X, sp)


def test_dual_angle_frame_transfer_roundtrip(constant_surface):
    # tilting a ruling by a prescribed dual angle must be recoverable exactly
    m = constant_surface
    ed, td, _ = dual_frame(m)
    theta = DualScalar(0.7, 0.25)
    ch = apply_function("cosh", theta)
    sh = apply_function("sinh", theta)
    for idx in (0, 200, 700):
        a = DualVec3(ed.re[idx], ed.du[idx])
        t = DualVec3(td.re[idx], td.du[idx])
        b = ch * a + sh * t
        got = dual_angle(a, b)
        assert abs(got.re - 0.7) < 1e-9
        assert abs(got.du - 0.25) < 1e-9
