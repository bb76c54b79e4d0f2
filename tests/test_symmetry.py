"""Symmetry laws of the Darboux kernel on disguised sampled input.

The invariants are defined up to the symmetries of the data: a proper
orthochronous Lorentz map with a translation keeps gamma, delta and Delta;
reversing the traversal or negating the director flips the signs of gamma
and delta; a reflection flips gamma and Delta. The input is the disguised
surface of conftest.py (reparameterized, director rescaled, base off the
striction curve), so the laws are checked on the path a user's samples take.
The offset report's verdicts, built by the same angle law, stay the same
under all four transforms.

Bounds: gamma and delta come from second and third derivatives of the
samples, so rounding in the inputs reaches them amplified by about 1/h^2 at
N = 1025; a boost of rapidity zeta also scales the coordinates by up to
e^zeta. Under the map below gamma and delta move by 8.5e-9 and 9.0e-9 and
Delta by 2.0e-12; under reversal by 4.3e-10, 7.8e-10 and 1.1e-12. The bounds
sit about ten times above these. A sign flip of a coordinate or of the
director is exact in floating point, and every kernel operation commutes
with it, so those two laws hold bit for bit.
"""

import numpy as np
import pytest

from conftest import lorentz_map
from dualruled import (
    SampledCurve,
    build_surface,
    consistency_report,
    construct_offset,
    offset_angle_profile,
)

N = 1025
L2 = lorentz_map(0.8, 2.5, 0.3)
B2 = np.array([-0.7, 1.9, 0.2])
REFLECT = np.diag([1.0, 1.0, -1.0])


def model(u, director, base):
    return build_surface(SampledCurve(u, director), SampledCurve(u, base))


def gap(a, b):
    return float(np.max(np.abs(a - b)))


@pytest.fixture(scope="module")
def raw(disguise):
    return disguise.sample(N)


@pytest.fixture(scope="module")
def base_model(raw):
    return model(*raw)


def test_disguised_invariants_are_recovered(disguise, base_model):
    m = base_model
    assert gap(m.gamma, disguise.gamma0) < 1e-7
    assert gap(m.delta, disguise.delta0) < 1e-7
    assert gap(m.Delta, disguise.Delta0) < 1e-10


def test_lorentz_map_and_translation_keep_the_invariants(raw, base_model):
    u, director, base = raw
    m, mapped = base_model, model(u, director @ L2.T, base @ L2.T + B2)
    assert gap(mapped.gamma, m.gamma) < 1e-7
    assert gap(mapped.delta, m.delta) < 1e-7
    assert gap(mapped.Delta, m.Delta) < 1e-10
    assert gap(mapped.e, m.e @ L2.T) < 1e-12
    assert gap(mapped.c, m.c @ L2.T + B2) < 1e-9


def test_reversed_traversal_flips_gamma_and_delta(raw, base_model):
    u, director, base = raw
    m, rev = base_model, model(-u[::-1], director[::-1], base[::-1])
    # the reversed arc-length grid starts at the other end, so sample j meets N-1-j
    assert gap(rev.s_grid - rev.s_grid[0], m.s_grid[-1] - m.s_grid[::-1]) < 1e-12
    assert gap(rev.gamma, -m.gamma[::-1]) < 1e-8
    assert gap(rev.delta, -m.delta[::-1]) < 1e-8
    assert gap(rev.Delta, m.Delta[::-1]) < 1e-10
    assert gap(rev.e, m.e[::-1]) < 1e-8
    assert gap(rev.c, m.c[::-1]) < 1e-8


def test_negated_director_flips_gamma_and_delta(raw, base_model):
    u, director, base = raw
    m, neg = base_model, model(u, -director, base)
    assert np.array_equal(neg.gamma, -m.gamma)
    assert np.array_equal(neg.delta, -m.delta)
    assert np.array_equal(neg.Delta, m.Delta)
    assert np.array_equal(neg.e, -m.e) and np.array_equal(neg.t, -m.t)
    assert np.array_equal(neg.g, m.g) and np.array_equal(neg.c, m.c)


def test_reflection_flips_gamma_and_Delta(raw, base_model):
    u, director, base = raw
    m, ref = base_model, model(u, director @ REFLECT, base @ REFLECT)
    assert np.array_equal(ref.gamma, -m.gamma)
    assert np.array_equal(ref.delta, m.delta)
    assert np.array_equal(ref.Delta, -m.Delta)
    assert np.array_equal(ref.e, m.e @ REFLECT) and np.array_equal(ref.c, m.c @ REFLECT)
    # an improper map reverses the cross product: g -> -R g
    assert np.array_equal(ref.g, -(m.g @ REFLECT))


def verdicts(m):
    """Verdicts and maxima of the offset report at c = 2.5, c* = 0.3 on s in [1, 2]."""
    spec = offset_angle_profile(m, 2.5, 0.3, (1.0, 2.0))
    report = consistency_report(m, spec, construct_offset(m, spec))
    return report.verdicts, report.max_residual


def test_offset_verdicts_survive_the_transforms(raw, base_model):
    # a sign flip makes the same (c, c*) law build a different offset, whose
    # DISCREPANT maxima move; the verdicts and the CONFIRMED agreement stay
    u, director, base = raw
    transformed = {
        "lorentz_and_translation": (u, director @ L2.T, base @ L2.T + B2),
        "reversed": (u, director[::-1], base[::-1]),  # on u, as u[-1] - u[::-1] is u
        "negated_director": (u, -director, base),
        "reflection": (u, director @ REFLECT, base @ REFLECT),
    }
    expected, maxima = verdicts(base_model)
    for name, samples in transformed.items():
        got, got_maxima = verdicts(model(*samples))
        assert got == expected, name
        for key, verdict in got.items():
            if verdict == "CONFIRMED":
                assert max(maxima[key], got_maxima[key]) <= 1e-5, (name, key)
