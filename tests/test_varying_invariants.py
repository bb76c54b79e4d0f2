"""A truth surface whose invariants vary: a formula that lacks a gamma', delta' or
Delta' term, or an oracle fault that shows only where they are nonzero, passes on
every constant-invariant surface."""

import numpy as np
import pytest

from dualruled import (
    SampledCurve,
    build_surface,
    consistency_report,
    construct_offset,
    offset_angle_profile,
)


@pytest.fixture(scope="module")
def model(varying):
    s, e, c = varying.sample(1025)
    return build_surface(SampledCurve(s, e), SampledCurve(s, c))


def test_varying_invariants_are_recovered(varying, model):
    for got, want in zip((model.gamma, model.delta, model.Delta), varying.invariants(model.s_grid)):
        assert np.max(np.abs(got - want)) < 1e-7


def test_varying_surface_has_the_constant_verdicts(model, offset_report):
    # the constant fixture's reference run: c = 3, c* = 0.3, window [1, 2]
    spec = offset_angle_profile(model, 3.0, 0.3, (1.0, 2.0))
    report = consistency_report(model, spec, construct_offset(model, spec))
    assert report.verdicts == offset_report.verdicts


def test_varying_invariants_survive_a_far_from_arc_length_parameter(varying):
    # sampled at u in [0, 1.9] with ds/du from 0.09 to 1.67, the director rescaled and
    # the base moved off the striction curve: the resampler's scalar slopes are the
    # stencil over sigma, and without that division |Delta - Delta(s)| reads 2.4e-6.
    # The misses read 1.4e-6, 4.3e-6 and 3.4e-11
    u = np.linspace(0.0, 1.9, 4097)
    s = u + (0.9 / 2.2) * (np.cos(0.5) - np.cos(2.2 * u + 0.5))
    _, e, c = varying.sample(s * (varying.s_end / s[-1]))
    director = np.exp(0.3 * np.sin(1.3 * u))[:, None] * e
    base = c + (0.2 * np.sin(0.9 * u))[:, None] * e
    m = build_surface(SampledCurve(u, director), SampledCurve(u, base))
    misses = [np.max(np.abs(got - want))
              for got, want in zip((m.gamma, m.delta, m.Delta), varying.invariants(m.s_grid))]
    assert misses[0] < 4e-6
    assert misses[1] < 1.3e-5
    assert misses[2] < 1e-10
