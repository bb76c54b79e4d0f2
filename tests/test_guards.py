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
    build_surface,
    decode_line_point,
    dnorm,
    dual_angle,
    encode_line,
    synth_constant_invariant,
)
from dualruled.dual_algebra import dual_arccosh, dual_sqrt
from dualruled.errors import (
    DegenerateIndicatrix,
    DegenerateLine,
    DegenerateOffsetIndicatrix,
    DegeneratePoint,
    DivisionByPureDual,
    DomainError,
    FrameDriftExceeded,
    InvalidLine,
    NotTimelike,
    NotTimelikeDirector,
    NotUnit,
    NullDarbouxAxis,
    NullDirection,
    ParallelLines,
)
from dualruled.mannheim_offset import _closed_form_inputs, construct_offset, offset_angle_profile
from dualruled.numerics import grid_step
from dualruled.surface_kernel import _curvature_elements, _darboux_fields, _model_from_fields


def warped_surface(k, n, a):
    """Director (cosh(ku)(1 + a u^2), sinh(ku), a sin(3ku)), base (0, sin 3u, u) on [0, 1]."""
    u = np.linspace(0.0, 1.0, n)
    director = np.stack([np.cosh(k * u) * (1.0 + a * u * u), np.sinh(k * u),
                         a * np.sin(3 * k * u)], -1)
    base = np.stack([0 * u, np.sin(3 * u), u], -1)
    return build_surface(SampledCurve(u, director), SampledCurve(u, base))


BOOST = [np.cosh(1.0), np.sinh(1.0), 0.0]


def lines(directions):
    """Lines through the origin with these directions, unchecked."""
    return DualVec3(np.array(directions, dtype=float), np.zeros((len(directions), 3)))


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
                             np.stack([0 * u, 0 * u, u], -1), grid_step(u), 1)
    fields["e"] = fields["e"].copy()
    fields["e"][20] *= 1.01
    return _model_from_fields(fields)


def flat_offset():
    # gamma = 0: the offset indicatrix speed |gamma sinh(theta)| vanishes everywhere, and
    # the kernel's stall guard stops the rebuild
    m = synth_constant_invariant(0.0, 0.3, 0.2, (0.0, 2.0), 64)
    return construct_offset(m, offset_angle_profile(m, 3.0, 0.3, (1.0, 2.0)))


def closed_forms_on_gamma_step():
    # gamma drops to 0 past s = 1.5, inside the window [1, 2]
    m = synth_constant_invariant(0.5, 0.3, 0.2, (0.0, 2.0), 64)
    stepped = dataclasses.replace(m, gamma=np.where(m.s_grid > 1.5, 0.0, 0.5))
    return _closed_form_inputs(offset_angle_profile(stepped, 3.0, 0.3, (1.0, 2.0)))


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
        "offset: indicatrix speed vanishes at sample 0 (<e',e'> = -9.567e-28)"),
    "closed_forms_window": (
        closed_forms_on_gamma_step, DegeneratePoint,
        "closed forms degenerate at window sample 16: gamma = 0.000e+00, theta = 1.47619"),
    "dnorm_null": (
        lambda: dnorm(DualVec3(np.array([[0.0, 1, 0], [1, 1, 0], [1, 0, 1]]), np.zeros((3, 3)))),
        NullDirection, "null direction at sample 1; dual norm undefined"),
    "decode_unit": (  # samples 1 and 2 fail; sample 2 deviates most
        lambda: decode_line_point(DualVec3(np.array([[1.0, 0, 0], [1.5, 0, 0], [2, 0, 0]]),
                                           np.zeros((3, 3)))),
        InvalidLine, "direction not unit timelike (deviation 3.000e+00 at sample 2)"),
    "decode_orthogonality": (
        lambda: decode_line_point(DualVec3(np.tile([1.0, 0, 0], (3, 1)),
                                           np.array([[0.0, 0, 0], [1e-3, 0, 0], [2e-3, 0, 0]]))),
        InvalidLine, "moment not orthogonal to direction (deviation 2.000e-03 at sample 2)"),
    "decode_built_line": (  # a line the program built: lost digits, a degeneracy (exit 3)
        lambda: decode_line_point(DualVec3(np.tile([1.0, 0, 0], (3, 1)),
                                           np.array([[0.0, 0, 0], [1e-3, 0, 0], [2e-3, 0, 0]])),
                                  DegenerateLine),
        DegenerateLine, "moment not orthogonal to direction (deviation 2.000e-03 at sample 2)"),
    "dual_angle_unit": (  # b deviates at sample 1, a more at sample 2: the worse line counts
        lambda: dual_angle(lines([[1.0, 0, 0], [1, 0, 0], [2, 0, 0]]),
                           lines([BOOST, [1.5, 0, 0], [1, 0, 0]])),
        NotTimelike, "dual_angle needs unit timelike directions (deviation 3.000e+00 at sample 2)"),
    "dual_angle_past_oriented": (
        lambda: dual_angle(lines([[1.0, 0, 0]] * 3), lines([BOOST, BOOST, [-1, 0, 0]])),
        NotTimelike, "directions are not both future-oriented timelike at sample 2"),
    "dual_angle_parallel": (
        lambda: dual_angle(lines([[1.0, 0, 0]] * 3), lines([BOOST, [1, 0, 0], [1, 0, 0]])),
        ParallelLines, "sinh(theta) = 0 at sample 1; distance part undefined by the angle formula"),
    "encode_not_timelike": (
        lambda: encode_line(np.array([[1.0, 0, 0], [0.5, 1, 0], [0, 1, 0]]), np.zeros((3, 3))),
        NotTimelike, "line direction sample 1 is not timelike: <d,d> = 7.500e-01 (need < 0)"),
    "encode_not_unit": (
        lambda: encode_line(np.array([[1.0, 0, 0], [1.1, 0, 0], [1.2, 0, 0]]), np.zeros((3, 3))),
        NotUnit, "direction norm deviates by 4.400e-01 at sample 2 (limit 1e-6)"),
    "encode_not_unit_past_a_nan": (  # a NaN sample does not hide a violating one
        lambda: encode_line(np.array([[1.0, np.nan, 0], [1.1, 0, 0]]), np.zeros((2, 3))),
        NotUnit, "direction norm deviates by 2.100e-01 at sample 1 (limit 1e-6)"),
    "division_by_pure_dual": (
        lambda: DualScalar(1.0, 0.0) / DualScalar(np.array([1.0, 0.0, 0.0]), np.zeros(3)),
        DivisionByPureDual, "division by a dual number with zero real part at sample 1"),
    "domain_array": (
        lambda: dual_sqrt(DualScalar(np.array([1.0, -2.0, -3.0]), np.zeros(3))),
        DomainError, "sqrt: argument -2.0 outside the real domain"),
    "domain_scalar": (
        lambda: dual_arccosh(DualScalar(0.5, 1.0)),
        DomainError, "arccosh: argument 0.5 outside the real domain"),
}


@pytest.mark.parametrize("site", sorted(GUARDS))
def test_guard_message(site):
    trip, cls, message = GUARDS[site]
    with pytest.raises(cls) as info:
        trip()
    assert type(info.value) is cls
    assert str(info.value) == message


@pytest.mark.parametrize("site", ["renormalize_director", "indicatrix_not_spacelike", "indicatrix_stall",
                                  "e_t_orthogonality", "director_norm_after_resampling",
                                  "frame_orthonormality", "offset_indicatrix_stall"])
def test_guard_message_in_row_blocks(site, monkeypatch):
    # frame recovery and resampling in row blocks of at most 4 rows: each guard runs on
    # its whole-length vector after its pass, and names the sample the one block names
    from dualruled import surface_kernel

    monkeypatch.setattr(surface_kernel, "ROW_BLOCK", 4)
    test_guard_message(site)
