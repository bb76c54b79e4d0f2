"""Mannheim offset pipeline: angle law, oracle reconstruction, adjudication."""

import dataclasses

import numpy as np
import pytest

from dualruled import (
    SampledCurve,
    build_surface,
    construct_offset,
    consistency_report,
    developability_predicates,
    linner,
    offset_angle_profile,
    offset_closed_forms,
    synth_constant_invariant,
    transfer_derivative_components,
)
from dualruled.errors import (
    DegenerateOffsetIndicatrix,
    DegeneratePoint,
    DegenerateWindow,
    GridTooCoarse,
    MismatchedInputs,
    ValidationError,
)

CONFIRMED_KEYS = {
    "arc_rate",
    "arc_rate_dual",
    "conical_curvature",
    "conical_curvature_dual_re",
    "dist_param_rate_route",
    "curvature_radius_re",
    "sph_radius_cosh_re",
    "sph_radius_sinh",
}
DISCREPANT_KEYS = {
    "conical_curvature_dual_du",
    "curvature_radius_du",
    "dist_param_det_route",
    "drift",
    "offset_distance_constraint",
    "sph_radius_cosh_du",
    "sph_radius_shift",
    "sph_radius_sinh_du",
}


def test_angle_profile_reference(offset_pieces):
    m, spec, _ = offset_pieces
    assert np.max(np.abs(spec.theta - (-spec.s + 3.0))) == 0.0
    assert np.max(np.abs(spec.theta_star - (0.2 * spec.s + 0.3))) < 1e-12
    assert spec.s[-1] == 2.0
    assert spec.theta[-1] == pytest.approx(1.0, abs=1e-14)
    assert spec.theta_star[-1] == pytest.approx(0.7, abs=1e-9)
    # window [1, 2] on the 1024-sample grid starts at the first sample >= 1
    assert len(spec.s) == 512
    assert 1.0 - 1e-12 <= spec.s[0] < 1.0 + 0.002


def test_angle_profile_zero_distribution():
    m = synth_constant_invariant(0.5, 0.3, 0.0, samples=512)
    spec = offset_angle_profile(m, 3.0, 0.3)
    assert np.max(np.abs(spec.theta_star - 0.3)) < 1e-12


def test_angle_profile_window_guards(constant_surface):
    ok = offset_angle_profile(constant_surface, 0.0, 0.1, (0.5, 1.5))
    assert ok.theta.max() < 0.0
    with pytest.raises(DegenerateWindow, match="theta = 0"):
        offset_angle_profile(constant_surface, 0.75, 0.1, (0.5, 1.0))
    with pytest.raises(GridTooCoarse):
        offset_angle_profile(constant_surface, 3.0, 0.1, (1.0, 1.005))
    for reversed_or_empty in ((1.5, 0.5), (1.0, 1.0), (1.0, float("nan"))):
        with pytest.raises(ValidationError, match=r"^window must be \[lo, hi\] with lo < hi, got "):
            offset_angle_profile(constant_surface, 3.0, 0.1, reversed_or_empty)


def test_transfer_director_is_unit_timelike(offset_pieces):
    m, spec, offset = offset_pieces
    e1 = offset.e1_dual
    assert np.max(np.abs(linner(e1.re, e1.re) + 1.0)) < 1e-9
    # tilt at the window end: e1(2) = cosh(1) e(2) + sinh(1) t(2)
    want = np.cosh(1.0) * m.e[-1] + np.sinh(1.0) * m.t[-1]
    assert np.max(np.abs(e1.re[-1] - want)) < 1e-12


def test_offset_orientation_and_gauge(offset_pieces):
    m, spec, offset = offset_pieces
    assert offset.orientation == -1
    sl = spec.window
    # traversal gauge puts the offset tangent on the base central normal
    assert np.max(np.abs(offset.t1 + m.g[sl])) < 1e-4
    assert np.max(offset.mannheim_real_residual) < 1e-4
    assert np.max(offset.mannheim_dual_residual) < 1e-4
    assert offset.mannheim_real_residual[-1] < 1e-5


def test_offset_invariant_laws(offset_pieces):
    m, spec, offset = offset_pieces
    theta = spec.theta
    coth = np.cosh(theta) / np.sinh(theta)
    sl = spec.window
    assert np.max(np.abs(offset.gamma1 + coth)) < 1e-3
    assert offset.gamma1[-1] == pytest.approx(-1.313035, abs=1e-4)
    want_rate = np.abs(m.gamma[sl] * np.sinh(theta))
    assert np.max(np.abs(np.abs(offset.ds1_ds) - want_rate)) < 1e-3
    assert abs(offset.ds1_ds[-1]) == pytest.approx(0.587601, abs=1e-6)
    assert np.max(np.abs(offset.rho1_cosh.re - np.cosh(theta))) < 1e-3
    assert offset.rho1_cosh.re[-1] == pytest.approx(np.cosh(1.0), abs=1e-5)
    assert np.max(np.abs(offset.rho1_cosh.du - np.sinh(theta) * spec.theta_star)) < 1e-3
    assert np.max(np.abs(offset.rho1_star + spec.theta_star)) < 1e-3
    assert offset.rho1_star[-1] == pytest.approx(-0.7, abs=1e-5)
    assert np.all(offset.branch1 == "TimelikeAxis")


def test_offset_causal_character(offset_pieces):
    _, _, offset = offset_pieces
    assert np.max(np.abs(linner(offset.t1, offset.t1) - 1.0)) < 1e-6
    assert np.max(np.abs(linner(offset.g1, offset.g1) - 1.0)) < 1e-6


def test_striction_shift_is_normal_translation(offset_pieces):
    m, spec, offset = offset_pieces
    assert np.max(np.abs(offset.striction_shift_e)) < 1e-4
    assert np.max(np.abs(offset.striction_shift_t)) < 1e-4
    assert np.max(np.abs(offset.striction_shift_g + spec.theta_star)) < 1e-4


def test_closed_form_spots(offset_pieces):
    m, spec, _ = offset_pieces
    cf = offset_closed_forms(m, spec, len(spec.s) - 1)
    assert cf["conical_curvature"] == pytest.approx(-1.313035, abs=1e-5)
    assert cf["drift"] == pytest.approx(-0.650428, abs=1e-5)
    assert cf["conical_curvature_dual_du"] == pytest.approx(-1.011234, abs=1e-5)
    assert cf["curvature_radius_re"] == pytest.approx(1.175201, abs=1e-5)
    assert cf["curvature_radius_du"] == pytest.approx(-0.083533, abs=1e-5)
    assert cf["sph_radius_cosh_re"] == pytest.approx(1.543081, abs=1e-5)
    assert cf["sph_radius_cosh_du"] == pytest.approx(-0.063618, abs=1e-5)
    assert cf["sph_radius_sinh"] == pytest.approx(-1.175201, abs=1e-5)
    assert cf["sph_radius_sinh_du"] == pytest.approx(-cf["curvature_radius_du"], abs=1e-12)
    assert cf["dist_param_rate_route"] == pytest.approx(-1.519125, abs=1e-5)
    assert cf["dist_param_det_route"] == pytest.approx(0.274786, abs=1e-5)
    assert cf["offset_distance_constraint"] == pytest.approx(0.158530, abs=1e-5)
    assert cf["arc_rate"] == pytest.approx(0.587601, abs=1e-5)
    assert cf["arc_rate_dual"].re == pytest.approx(0.587601, abs=1e-5)
    assert cf["arc_rate_dual"].du == pytest.approx(1.010159, abs=1e-5)


def test_closed_forms_reject_degenerate_point(planar_surface):
    spec = offset_angle_profile(planar_surface, 3.0, 0.3, (1.0, 2.0))
    with pytest.raises(DegeneratePoint, match="window sample 0: gamma = "):
        offset_closed_forms(planar_surface, spec, 0)


def test_report_verdict_map(offset_report):
    assert set(offset_report.verdicts) == CONFIRMED_KEYS | DISCREPANT_KEYS
    for key in CONFIRMED_KEYS:
        assert offset_report.verdicts[key] == "CONFIRMED", key
    for key in DISCREPANT_KEYS:
        assert offset_report.verdicts[key] == "DISCREPANT", key


def test_report_residual_magnitudes(offset_report):
    r = offset_report
    assert r.max_residual["conical_curvature"] < 1e-4
    assert r.max_residual["arc_rate"] < 1e-6
    assert r.max_residual["dist_param_rate_route"] < 1e-6
    # the two striction-distance routes disagree by a stable, finite gap
    assert r.residuals["dist_param_det_route"][-1] == pytest.approx(1.793911, abs=1e-4)
    assert r.residuals["offset_distance_constraint"][-1] == pytest.approx(0.541470, abs=1e-4)
    assert r.mannheim_real_max < 1e-4
    assert r.mannheim_dual_max < 1e-4
    assert r.tol == 1e-3


def test_report_window_and_shift(offset_report):
    r = offset_report
    assert r.s[-1] == 2.0
    assert r.theta[-1] == pytest.approx(1.0, abs=1e-14)
    assert r.theta_star[-1] == pytest.approx(0.7, abs=1e-9)
    assert set(r.striction_shift) == {"along_director", "along_tangent", "along_normal"}
    assert np.max(np.abs(r.striction_shift["along_normal"] + r.theta_star)) < 1e-4


def test_report_rejects_foreign_inputs(planar_surface, offset_pieces):
    m, spec, offset = offset_pieces
    with pytest.raises(MismatchedInputs):
        consistency_report(planar_surface, spec, offset)
    with pytest.raises(MismatchedInputs):
        construct_offset(planar_surface, spec)


def test_offset_rejects_vanishing_indicatrix(planar_surface):
    # gamma = 0 on the whole planar fixture, so the tilted indicatrix stalls
    spec = offset_angle_profile(planar_surface, 3.0, 0.3, (1.0, 2.0))
    with pytest.raises(DegenerateOffsetIndicatrix, match="vanishes"):
        construct_offset(planar_surface, spec)


def test_developability_predicates_cases():
    m = synth_constant_invariant(0.5, 0.3, 0.0, samples=512)
    spec = offset_angle_profile(m, 3.0, 0.3)
    got = developability_predicates(m, spec, len(spec.s) - 1)
    assert got["base_developable"] is True
    assert got["offset_developable"] is False
    assert got["offset_developable_target"] == pytest.approx(-0.456956, abs=1e-5)
    assert got["joint_developable"] is True
    assert got["gamma_matches_neg_tanh"] is False

    matched = synth_constant_invariant(-np.tanh(1.0), 0.3, 0.0, samples=512)
    spec2 = offset_angle_profile(matched, 3.0, 0.3)
    got2 = developability_predicates(matched, spec2, len(spec2.s) - 1)
    assert got2["gamma_matches_neg_tanh"] is True
    assert got2["offset_developable"] is True
    assert got2["offset_developable_target"] == pytest.approx(0.3, abs=1e-9)


def test_predicates_reject_degenerate_point(planar_surface):
    spec = offset_angle_profile(planar_surface, 3.0, 0.3, (1.0, 2.0))
    with pytest.raises(DegeneratePoint, match="window sample 0: gamma = "):
        developability_predicates(planar_surface, spec, 0)


def test_transfer_components_vanish_on_mannheim_law(offset_pieces):
    m, spec, _ = offset_pieces
    comp = transfer_derivative_components(m, spec)
    for leg in ("along_director", "along_tangent"):
        assert np.max(np.abs(comp[leg].re)) < 1e-5, leg
        assert np.max(np.abs(comp[leg].du)) < 1e-5, leg
    assert np.max(np.abs(comp["along_normal"].re)) > 1e-2


def test_transfer_components_detect_wrong_slope(offset_pieces):
    m, spec, _ = offset_pieces
    bad = dataclasses.replace(spec, theta=-1.05 * spec.s + 3.0)
    comp = transfer_derivative_components(m, bad)
    for leg in ("along_director", "along_tangent"):
        assert np.max(np.abs(comp[leg].re)) > 1e-3, leg
        assert np.max(np.abs(comp[leg].du)) > 1e-3, leg


def test_wrong_slope_breaks_parallelism(offset_pieces):
    m, spec, _ = offset_pieces
    bad = dataclasses.replace(spec, theta=-1.05 * spec.s + 3.0)
    offset = construct_offset(m, bad)
    assert np.min(offset.mannheim_real_residual) > 1e-3


def test_oracle_on_resampled_surface_at_large_n():
    # the family passed through build_surface: the oracle takes second
    # derivatives of the resampled frame, so it sees every resampling error
    m0 = synth_constant_invariant(0.5, 0.3, 0.2, (0.0, 3.0), 16384)
    m = build_surface(SampledCurve(m0.s_grid, m0.e), SampledCurve(m0.s_grid, m0.c))
    spec = offset_angle_profile(m, 3.0, 0.3, (1.0, 2.0))
    offset = construct_offset(m, spec)
    assert np.max(np.abs(offset.gamma1 + 1.0 / np.tanh(spec.theta))) < 1e-4
