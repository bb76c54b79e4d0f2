"""Darboux kernel tests: fixture recovery, frame residuals, dual apparatus."""

import dataclasses

import numpy as np
import pytest

from dualruled import (
    DualScalar,
    SampledCurve,
    build_surface,
    classify,
    cone_curves,
    dinner,
    dual_apparatus,
    dual_frame,
    dual_frame_residuals,
    frame_residuals,
    grid_derivative,
    hyperbola_curves,
    lcross,
    linner,
    study_residual,
    synth_constant_invariant,
)
from dualruled.errors import (
    DegenerateIndicatrix,
    GammaOutOfRange,
    MismatchedInputs,
    NotTimelikeDirector,
    NullDarbouxAxis,
)


def assert_dual_close(x, re, du, atol):
    assert np.max(np.abs(x.re - re)) < atol
    assert np.max(np.abs(x.du - du)) < atol


def test_planar_fixture_invariants(planar_surface):
    m = planar_surface
    # exact zeros: gamma pairs an xy-plane derivative with a z-axis normal,
    # delta pairs a z-axis striction derivative with an xy-plane director
    assert np.max(np.abs(m.gamma)) == 0.0
    assert np.max(np.abs(m.delta)) == 0.0
    assert np.max(np.abs(m.Delta - 1.0)) < 1e-9
    want_c = np.stack([np.zeros_like(m.s_grid), np.zeros_like(m.s_grid), m.s_grid], axis=-1)
    assert np.max(np.abs(m.c - want_c)) < 1e-9


def test_cone_fixture_invariants(cone_surface):
    m = cone_surface
    assert np.max(np.abs(m.gamma)) == 0.0
    assert np.max(np.abs(m.delta)) == 0.0
    assert np.max(np.abs(m.Delta)) == 0.0
    # constant base differentiates to exactly zero, so the striction curve
    # is the apex with no floating residue at all
    assert np.max(np.abs(m.c - np.array([1.0, 2.0, 3.0]))) < 1e-12
    assert classify(m) == {"developable": True, "cone": True}


def test_constant_fixture_rebuild(constant_surface):
    m = constant_surface
    rebuilt = build_surface(SampledCurve(m.s_grid, m.e), SampledCurve(m.s_grid, m.c))
    assert np.max(np.abs(rebuilt.gamma - 0.5)) < 1e-6
    assert np.max(np.abs(rebuilt.delta - 0.3)) < 1e-6
    assert np.max(np.abs(rebuilt.Delta - 0.2)) < 1e-6
    assert np.max(np.abs(rebuilt.c - m.c)) < 1e-6


def test_synth_family_spots():
    m = synth_constant_invariant(0.5, 0.3, 0.2, s_range=(0.0, 2.0), samples=129)
    assert m.e[0] == pytest.approx([1.154701, 0.0, -0.577350], abs=1e-6)
    assert m.t[0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
    assert m.g[0] == pytest.approx([-0.577350, 0.0, 1.154701], abs=1e-6)
    # striction spot at s = 1 (index 64 on the 129-sample grid)
    A = 1.0 / np.sqrt(0.75)
    B = -0.5 * A
    k = 1.0 / A
    alpha = -0.3 * A + 0.2 * B
    beta = -0.3 * B + 0.2 * A
    want = (alpha / k) * np.array([np.sinh(k), np.cosh(k) - 1.0, 0.0]) + beta * np.array([0.0, 0.0, 1.0])
    assert m.s_grid[64] == 1.0
    assert m.c[64] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("gamma0", [1.0, -1.2])
def test_synth_rejects_gamma_out_of_range(gamma0):
    with pytest.raises(GammaOutOfRange):
        synth_constant_invariant(gamma0, 0.1, 0.1)


def test_frame_residuals_all_fixtures(all_surfaces):
    keys = {
        "unit_director", "unit_tangent", "unit_normal", "orthogonality",
        "frame_closure", "director_ode", "tangent_ode", "normal_ode",
        "striction", "striction_decomposition",
    }
    for name, m in all_surfaces.items():
        r = frame_residuals(m)
        assert set(r) == keys
        worst = max(r.values())
        assert worst < 1e-5, f"{name}: {r}"


def test_striction_derivative_identities(constant_surface, planar_surface):
    for m in (constant_surface, planar_surface):
        dc = grid_derivative(m.s_grid, m.c)
        want = -m.delta[:, None] * m.e + m.Delta[:, None] * m.g
        assert np.max(np.abs(dc - want)) < 1e-9
        # c' x e collapses to -Delta t: the delta term dies against e x e
        assert np.max(np.abs(lcross(dc, m.e) + m.Delta[:, None] * m.t)) < 1e-9


def test_striction_independent_of_base_choice():
    director, base = hyperbola_curves(samples=256)
    shifted = SampledCurve(base.params, base.values + 0.37 * director.values)
    m = build_surface(director, shifted)
    want_c = np.stack([np.zeros_like(m.s_grid), np.zeros_like(m.s_grid), m.s_grid], axis=-1)
    assert np.max(np.abs(m.c - want_c)) < 1e-9


def test_dual_frame_residuals_all_fixtures(all_surfaces):
    for name, m in all_surfaces.items():
        r = dual_frame_residuals(m)
        assert r["director_ode"] < 1e-4, name
        assert r["tangent_ode"] < 1e-4, name
        assert r["normal_ode"] < 1e-4, name
        assert r["director_speed_re"] < 1e-5, name
        assert r["director_speed_du"] < 1e-5, name


def test_study_residual_all_fixtures(all_surfaces):
    for name, m in all_surfaces.items():
        assert study_residual(m) < 1e-6, name


def test_dual_frame_inner_products(constant_surface):
    e_d, t_d, g_d = dual_frame(constant_surface)
    assert_dual_close(dinner(e_d, e_d), -1.0, 0.0, 1e-9)
    assert_dual_close(dinner(t_d, t_d), 1.0, 0.0, 1e-9)
    assert_dual_close(dinner(g_d, g_d), 1.0, 0.0, 1e-9)
    assert_dual_close(dinner(e_d, t_d), 0.0, 0.0, 1e-9)
    assert_dual_close(dinner(e_d, g_d), 0.0, 0.0, 1e-9)
    assert_dual_close(dinner(t_d, g_d), 0.0, 0.0, 1e-9)


def test_apparatus_constant_surface(constant_surface):
    ap = dual_apparatus(constant_surface)
    assert ap.s_bar.re[-1] == pytest.approx(2.0, abs=1e-12)
    assert ap.s_bar.du[-1] == pytest.approx(-0.4, abs=1e-9)
    assert_dual_close(ap.gamma_bar, 0.5, 0.4, 1e-12)
    assert_dual_close(ap.R_bar, 1.154701, 0.307920, 1e-6)
    assert_dual_close(ap.rho_cosh, -1.154701, -0.307920, 1e-6)
    assert_dual_close(ap.rho_sinh, -0.577350, -0.615840, 1e-6)
    assert np.all(ap.darboux_branch == "SpacelikeAxis")
    # assembled gamma_bar must agree with the quotient form
    quotient = DualScalar(0.5, 0.3) / DualScalar(1.0, -0.2)
    assert quotient.re == pytest.approx(0.5, abs=1e-15)
    assert quotient.du == pytest.approx(0.4, abs=1e-15)
    assert np.max(np.abs(ap.gamma_bar.re - quotient.re)) < 1e-12
    assert np.max(np.abs(ap.gamma_bar.du - quotient.du)) < 1e-12


def test_apparatus_algebraic_identities(constant_surface):
    ap = dual_apparatus(constant_surface)
    one_minus = 1.0 - ap.gamma_bar * ap.gamma_bar
    assert_dual_close(ap.R_bar * ap.R_bar * abs(one_minus), 1.0, 0.0, 1e-8)
    hyper = ap.rho_cosh * ap.rho_cosh - ap.rho_sinh * ap.rho_sinh
    assert_dual_close(hyper, 1.0, 0.0, 1e-8)
    # spacelike branch: sinh of the spherical radius carries -gamma_bar R_bar
    assert_dual_close(ap.rho_sinh + ap.gamma_bar * ap.R_bar, 0.0, 0.0, 1e-8)
    axis_norm = dinner(ap.darboux_axis_unit, ap.darboux_axis_unit)
    assert_dual_close(axis_norm, 1.0, 0.0, 1e-8)


def test_apparatus_planar_surface(planar_surface):
    ap = dual_apparatus(planar_surface)
    assert_dual_close(ap.gamma_bar, 0.0, 0.0, 1e-12)
    assert_dual_close(ap.R_bar, 1.0, 0.0, 1e-9)
    assert np.all(ap.darboux_branch == "SpacelikeAxis")
    assert ap.s_bar.du[-1] == pytest.approx(-2.0, abs=1e-9)


def test_apparatus_timelike_branch(constant_surface):
    m = dataclasses.replace(constant_surface, gamma=np.full_like(constant_surface.gamma, 1.5))
    ap = dual_apparatus(m)
    assert np.all(ap.darboux_branch == "TimelikeAxis")
    assert_dual_close(ap.gamma_bar, 1.5, 0.6, 1e-12)
    # roles swap across the branch: cosh takes -gamma_bar R_bar
    assert_dual_close(ap.rho_cosh + ap.gamma_bar * ap.R_bar, 0.0, 0.0, 1e-12)
    assert_dual_close(ap.rho_sinh + ap.R_bar, 0.0, 0.0, 1e-12)
    hyper = ap.rho_cosh * ap.rho_cosh - ap.rho_sinh * ap.rho_sinh
    assert_dual_close(hyper, 1.0, 0.0, 1e-8)


def test_apparatus_null_axis_guard(constant_surface):
    m = dataclasses.replace(constant_surface, gamma=np.ones_like(constant_surface.gamma))
    with pytest.raises(NullDarbouxAxis, match="null"):
        dual_apparatus(m)


def test_classify_cases(planar_surface, cone_surface):
    assert classify(planar_surface) == {"developable": False, "cone": False}
    assert classify(cone_surface) == {"developable": True, "cone": True}
    tangentlike = synth_constant_invariant(0.5, 0.3, 0.0)
    assert classify(tangentlike) == {"developable": True, "cone": False}


def test_build_rejects_spacelike_director():
    u = np.linspace(0.0, 2.0, 64)
    zeros = np.zeros_like(u)
    director = SampledCurve(u, np.stack([np.sinh(u), np.cosh(u), zeros], axis=-1))
    base = SampledCurve(u, np.stack([zeros, zeros, u], axis=-1))
    with pytest.raises(NotTimelikeDirector, match="not timelike"):
        build_surface(director, base)


def test_build_rejects_constant_director():
    u = np.linspace(0.0, 2.0, 64)
    zeros = np.zeros_like(u)
    director = SampledCurve(u, np.stack([1.2 + zeros, zeros, zeros], axis=-1))
    base = SampledCurve(u, np.stack([zeros, zeros, u], axis=-1))
    with pytest.raises(DegenerateIndicatrix):
        build_surface(director, base)


def test_build_rejects_mismatched_grids():
    director, _ = hyperbola_curves(samples=64)
    _, base = hyperbola_curves(s_range=(0.0, 1.0), samples=64)
    with pytest.raises(MismatchedInputs):
        build_surface(director, base)


def test_cone_accepts_custom_director():
    u = np.linspace(0.0, 2.0, 128)
    vals = np.stack([np.cosh(u) * 1.5, np.sinh(u) * 1.5, np.zeros_like(u)], axis=-1)
    director, base = cone_curves(apex=(0.0, 0.0, 1.0), samples=128, director_values=vals)
    m = build_surface(director, base)
    # renormalization erases the 1.5 magnitude before anything downstream
    norms = -m.e[:, 0] ** 2 + m.e[:, 1] ** 2 + m.e[:, 2] ** 2
    assert np.max(np.abs(norms + 1.0)) < 1e-12
    assert np.max(np.abs(m.c - np.array([0.0, 0.0, 1.0]))) < 1e-12
    assert classify(m) == {"developable": True, "cone": True}


def test_reparameterized_input_keeps_frame_orthonormal(constant_family):
    # ds/du = 1 + 0.3 sin 2u: resampling onto arc length is far from the
    # identity, yet the resampled frame stays orthonormal to rounding
    u = np.linspace(0.0, 3.0, 1025)
    e, c = constant_family(u + 0.15 * (1.0 - np.cos(2.0 * u)))
    m = build_surface(SampledCurve(u, 2.0 * e), SampledCurve(u, c + 0.3 * e))
    assert np.max(np.abs(linner(m.e, m.t))) <= 1e-12
    assert np.max(np.abs(linner(m.t, m.t) - 1.0)) <= 1e-12
    assert np.max(np.abs(m.gamma - 0.5)) < 1e-6
    assert np.max(np.abs(m.delta - 0.3)) < 1e-6
    assert np.max(np.abs(m.Delta - 0.2)) < 1e-6
