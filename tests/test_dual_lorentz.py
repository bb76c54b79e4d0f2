"""Dual Lorentzian vectors, line encoding, and dual hyperbolic angles."""

import numpy as np
import pytest

from dualruled import (
    DualScalar,
    DualVec3,
    decode_line_point,
    dinner,
    dnorm,
    dual_angle,
    encode_line,
    linner,
)
from dualruled.dual_algebra import dual_cosh, dual_sinh
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


def test_dinner_of_a_line_with_itself_keeps_the_two_call_bits(rng):
    # the dual part of dinner(a, a) is <re, du> taken once and doubled: the bits of
    # <re, du> + <du, re>, on a batch, on one line and on column-major fields
    re, du = rng.normal(size=(2, 257, 3)) * np.array([1.0, 1e-3, 1e3])
    for a in (DualVec3(re, du), DualVec3(re[7], du[7]),
              DualVec3(np.asfortranarray(re), np.asfortranarray(du))):
        got, want = dinner(a, a), (linner(a.re, a.re), linner(a.re, a.du) + linner(a.du, a.re))
        assert np.asarray(got.re).tobytes() == np.asarray(want[0]).tobytes()
        assert np.asarray(got.du).tobytes() == np.asarray(want[1]).tobytes()


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
    # tilting every ruling by a prescribed dual angle must be recoverable, in one call
    ed, td, _ = dual_frame(constant_surface)
    theta = DualScalar(0.7, 0.25)
    got = dual_angle(ed, dual_cosh(theta) * ed + dual_sinh(theta) * td)
    assert got.re.shape == got.du.shape == (1024,)
    assert np.max(np.abs(got.re - 0.7)) < 1e-12
    assert np.max(np.abs(got.du - 0.25)) < 1e-12


N = 48


def line_batch(seed):
    """N lines through points of size up to 3. Their unit future timelike directions
    are scaled to norm deviations 0, 5e-10 and 5e-7 in turn, so encode_line
    renormalizes every third line only."""
    rng = np.random.default_rng(seed)
    rap, ang = rng.uniform(0.0, 2.0, N), rng.uniform(0.0, 2 * np.pi, N)
    unit = np.stack([np.cosh(rap), np.sinh(rap) * np.cos(ang), np.sinh(rap) * np.sin(ang)], axis=-1)
    return unit * np.sqrt(1.0 + np.resize([0.0, 5e-10, 5e-7], N))[:, None], rng.uniform(-3.0, 3.0, (N, 3))


def per_sample_cases():
    a_args = line_batch(1)
    a, b = encode_line(*a_args), encode_line(*line_batch(2))
    k = DualScalar(*np.random.default_rng(3).uniform(-2.0, 2.0, (2, N)))
    return {
        "encode_line": (encode_line, a_args),
        "decode_line_point": (decode_line_point, (a,)),
        "dinner": (dinner, (a, b)),
        "dnorm": (dnorm, (a,)),
        "dual_angle": (dual_angle, (a, b)),
        "line_times_dual": (lambda v, x: v * x, (a, k)),
        "dual_times_line": (lambda x, v: x * v, (k, a)),
        "line_times_array": (lambda v, x: v * x, (a, k.re)),
        "array_times_line": (lambda x, v: x * v, (k.re, a)),
    }


CASES = per_sample_cases()


def row(x, i):
    if isinstance(x, (DualVec3, DualScalar)):
        return type(x)(x.re[i], x.du[i])
    return x[i]


def bits(x):
    """Shapes and bytes of a DualVec3, DualScalar or array: signed zeros count."""
    return [(p.shape, p.tobytes()) for p in ((x.re, x.du) if hasattr(x, "du") else (np.asarray(x),))]


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_batch_gives_the_bits_of_single_calls(name):
    fn, args = CASES[name]
    batch = fn(*args)
    for i in range(N):
        assert bits(row(batch, i)) == bits(fn(*(row(x, i) for x in args))), i


def test_encode_renormalizes_each_line_on_its_own():
    dirs, pts = line_batch(1)
    got = encode_line(dirs, pts)
    assert np.array_equal(got.re[0::3], dirs[0::3]) and np.array_equal(got.re[1::3], dirs[1::3])
    assert np.max(np.abs(linner(got.re[2::3], got.re[2::3]) + 1.0)) < 1e-13


def test_a_real_factor_is_a_dual_number_with_zero_dual_part():
    v = DualVec3(np.array([1.0, -2.0, 0.5]), np.array([0.0, 3.0, -0.0]))
    for k in (-2.0, 3, np.float64(0.5), np.array(-1.5)):
        assert bits(k * v) == bits(v * k) == bits(DualScalar(k, 0.0) * v)
    # (a + eps 0)(v + eps w) = a v + eps (a w + 0 v): a zero moment entry is +0.0
    assert bits((-2.0 * v).du) == bits(np.array([0.0, -6.0, 0.0]))
    with pytest.raises(TypeError):
        v * "2"
