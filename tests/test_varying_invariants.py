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
