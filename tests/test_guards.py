"""Every per-sample guard: exact exception class and message, sample included.

A guard on a boolean condition names its first violating sample; a guard on
a measured value against a limit names its worst sample.
"""

import dataclasses

import numpy as np
import pytest

from dualruled import (
    DualScalar,
    DualVec3,
    SampledCurve,
    apply_function,
    build_surface,
    dnorm,
    synth_constant_invariant,
)
from dualruled.errors import (
    DegenerateIndicatrix,
    DegenerateOffsetIndicatrix,
    DegeneratePoint,
    DomainError,
    FrameDriftExceeded,
    NotTimelikeDirector,
    NullDarbouxAxis,
    NullDirection,
)
from dualruled.mannheim_offset import _closed_form_inputs, construct_offset, offset_angle_profile
from dualruled.surface_kernel import _curvature_elements, _darboux_fields, _model_from_fields


def warped_surface(k, n, a):
    """Director (cosh(ku)(1 + a u^2), sinh(ku), a sin(3ku)), base (0, sin 3u, u) on [0, 1]."""
    u = np.linspace(0.0, 1.0, n)
    director = np.stack([np.cosh(k * u) * (1.0 + a * u * u), np.sinh(k * u),
                         a * np.sin(3 * k * u)], -1)
    base = np.stack([0 * u, np.sin(3 * u), u], -1)
    return build_surface(SampledCurve(u, director), SampledCurve(u, base))


def director_frozen_from_16():
    """The director jumps to the exact unit vector (1.25, 0.75, 0) at sample 16 and stays;
    the indicatrix stalls from sample 18 on, where the 5-point stencil sees only that vector."""
    u = np.linspace(0.0, 1.0, 32)
    director = np.stack([np.cosh(u), np.sinh(u), 0 * u], -1)
    director[16:] = (1.25, 0.75, 0.0)
    base = np.stack([0 * u, 0 * u, u], -1)
    return build_surface(SampledCurve(u, director), SampledCurve(u, base))


def director_kinked_at_20():
    """Chain-rule fields whose director sample 20 is 1 % too long."""
    u = np.linspace(0.0, 1.0, 32)
    fields = _darboux_fields(u, np.stack([np.cosh(u), np.sinh(u), 0 * u], -1),
                             np.stack([0 * u, 0 * u, u], -1))
    fields["e"] = fields["e"].copy()
    fields["e"][20] *= 1.01
    return _model_from_fields(fields)


def flat_offset():
    # gamma = 0: the offset indicatrix speed |gamma sinh(theta)| vanishes everywhere
    m = synth_constant_invariant(0.0, 0.3, 0.2, (0.0, 2.0), 64)
    return construct_offset(m, offset_angle_profile(m, 3.0, 0.3, (1.0, 2.0)))


def closed_forms_on_gamma_step(idx=None):
    # gamma drops to 0 past s = 1.5, inside the window [1, 2]
    m = synth_constant_invariant(0.5, 0.3, 0.2, (0.0, 2.0), 64)
    spec = offset_angle_profile(m, 3.0, 0.3, (1.0, 2.0))
    stepped = dataclasses.replace(m, gamma=np.where(m.s_grid > 1.5, 0.0, 0.5))
    return _closed_form_inputs(stepped, spec, idx)


GUARDS = {
    "renormalize_director": (
        lambda: warped_surface(20.0, 32, 0.0), NotTimelikeDirector,
        "director sample 30 is not timelike: <e,e> = 0.000e+00 (need < 0)"),
    "indicatrix_not_spacelike": (
        lambda: warped_surface(10.0, 9, 0.0), FrameDriftExceeded,
        "indicatrix tangent is not spacelike at sample 0 (<e',e'> = -3.750e+02)"),
    "indicatrix_stall": (
        director_frozen_from_16, DegenerateIndicatrix,
        "indicatrix speed vanishes at sample 18 (<e',e'> = 0.000e+00)"),
    "e_t_orthogonality": (  # the worst sample, not the first one past the limit
        lambda: warped_surface(2.5, 9, 0.3), FrameDriftExceeded,
        "<e,t> = -8.963e-02 at sample 5 exceeds 1e-04"),
    "director_norm_after_resampling": (
        director_kinked_at_20, FrameDriftExceeded,
        "director norm drifted by 2.010e-02 after resampling at sample 20"),
    "frame_orthonormality": (
        lambda: warped_surface(0.5, 32, 0.9), FrameDriftExceeded,
        "frame orthonormality drift at sample 26 exceeds 1e-04"),
    "null_darboux_axis": (
        lambda: _curvature_elements(np.array([0.5, 1.0, 1.0]), 0.0, 0.0), NullDarbouxAxis,
        "|1 - gamma_bar^2| = 0.000e+00 at sample 1 (guard 1e-06); Darboux axis is null"),
    "offset_indicatrix_stall": (
        flat_offset, DegenerateOffsetIndicatrix,
        "gamma = 0.000e+00, sinh(theta) = 3.568e+00 at s = 1.01587: "
        "offset indicatrix speed |gamma*sinh(theta)| vanishes"),
    "closed_forms_window": (
        closed_forms_on_gamma_step, DegeneratePoint,
        "closed forms degenerate at window sample 16: gamma = 0.000e+00, theta = 1.47619"),
    "closed_forms_point": (
        lambda: closed_forms_on_gamma_step(30), DegeneratePoint,
        "closed forms degenerate at window sample 30: gamma = 0.000e+00, theta = 1.03175"),
    "dnorm_null": (
        lambda: dnorm(DualVec3(np.array([[0.0, 1, 0], [1, 1, 0], [1, 0, 1]]), np.zeros((3, 3)))),
        NullDirection, "null direction at sample 1; dual norm undefined"),
    "domain_array": (
        lambda: apply_function("sqrt", DualScalar(np.array([1.0, -2.0, -3.0]), np.zeros(3))),
        DomainError, "sqrt: argument -2.0 outside the real domain"),
    "domain_scalar": (
        lambda: apply_function("arccosh", DualScalar(0.5, 1.0)),
        DomainError, "arccosh: argument 0.5 outside the real domain"),
}


@pytest.mark.parametrize("site", sorted(GUARDS))
def test_guard_message(site):
    trip, cls, message = GUARDS[site]
    with pytest.raises(cls) as info:
        trip()
    assert type(info.value) is cls
    assert str(info.value) == message
