"""Darboux kernel tests: fixture recovery, frame residuals, dual apparatus."""

import dataclasses
import inspect

import numpy as np
import pytest
from conftest import traced

from dualruled import (
    DualScalar,
    SampledCurve,
    build_surface,
    classify,
    dinner,
    dual_apparatus,
    dual_frame,
    dual_frame_residuals,
    frame_residuals,
    hyperbola_curves,
    lcross,
    linner,
    study_residual,
    synth_constant_invariant,
)
from dualruled import mannheim_offset, surface_kernel
from dualruled.dual_lorentz import DualVec3, dnorm
from dualruled.errors import (
    DegenerateIndicatrix,
    DegenerateLine,
    FrameDriftExceeded,
    GammaOutOfRange,
    GridTooCoarse,
    MismatchedInputs,
    NonUniformGrid,
    NotTimelikeDirector,
    NullDarbouxAxis,
    NullDirection,
)
from dualruled.mannheim_offset import construct_offset, offset_angle_profile
from dualruled.minkowski3 import enorm
from dualruled.numerics import grid_step, is_uniform, stencil_rows, stride
from dualruled.surface_kernel import ROW_BLOCK, RuledSurfaceModel, _darboux_fields, _row_blocks


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
        dc = stencil_rows(m.c, m.h)
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
    assert constant_surface.s_bar.re[-1] == pytest.approx(2.0, abs=1e-12)
    assert constant_surface.s_bar.du[-1] == pytest.approx(-0.4, abs=1e-9)
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


def test_apparatus_planar_surface(planar_surface):
    ap = dual_apparatus(planar_surface)
    assert_dual_close(ap.gamma_bar, 0.0, 0.0, 1e-12)
    assert_dual_close(ap.R_bar, 1.0, 0.0, 1e-9)
    assert np.all(ap.darboux_branch == "SpacelikeAxis")
    assert planar_surface.s_bar.du[-1] == pytest.approx(-2.0, abs=1e-9)


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


def test_build_resamples_onto_arc_length():
    # indicatrix speed 1 + u/2 on u in [0, 2]: arc length 3, so s runs over [0, 3]
    u = np.linspace(0.0, 2.0, 257)
    phi = u + 0.25 * u * u
    zeros = np.zeros_like(u)
    e = np.stack([np.cosh(phi), np.sinh(phi), zeros], axis=-1)
    t = np.stack([np.sinh(phi), np.cosh(phi), zeros], axis=-1)
    m = build_surface(SampledCurve(u, 2.0 * e), SampledCurve(u, np.stack([zeros, zeros, u], axis=-1)))
    assert np.all(np.diff(m.s_grid) > 0) and is_uniform(m.s_grid)
    assert m.s_grid[0] == 0.0 and abs(m.s_grid[-1] - 3.0) < 1e-7  # 4th-order speed error
    # the arc-length map is clipped to the input range, so the end rulings are the input's
    assert np.max(np.abs(m.e[[0, -1]] - e[[0, -1]])) < 1e-12
    assert np.max(np.abs(m.t[[0, -1]] - t[[0, -1]])) < 1e-6


def test_build_rejects_mismatched_grids():
    director, _ = hyperbola_curves(samples=64)
    _, base = hyperbola_curves(s_range=(0.0, 1.0), samples=64)
    with pytest.raises(MismatchedInputs):
        build_surface(director, base)
    # grids of different lengths are unequal too: one check covers both
    _, longer = hyperbola_curves(samples=65)
    with pytest.raises(MismatchedInputs, match="^director and base curve must share one parameter grid$"):
        build_surface(director, longer)


def _hand_built_model(s):
    zeros = np.zeros_like(s)
    e = np.stack([np.cosh(s), np.sinh(s), zeros], axis=-1)
    t = np.stack([np.sinh(s), np.cosh(s), zeros], axis=-1)
    g = np.stack([zeros, zeros, zeros + 1.0], axis=-1)
    return RuledSurfaceModel(s_grid=s, e=e, t=t, g=g, c=0 * e, gamma=zeros, delta=zeros, Delta=zeros)


def test_model_checks_its_grid_when_it_is_made():
    s = np.linspace(0.0, 1.0, 32)
    s[5] += 1e-3
    with pytest.raises(NonUniformGrid):
        _hand_built_model(s)
    with pytest.raises(GridTooCoarse, match="^need at least 9 samples, got 8$"):
        _hand_built_model(np.linspace(0.0, 1.0, 8))
    # the step is the model's, not a constructor argument
    assert "h" not in inspect.signature(RuledSurfaceModel).parameters
    with pytest.raises(ValueError):
        dataclasses.replace(_hand_built_model(np.linspace(0.0, 1.0, 9)), h=0.5)


def test_model_carries_the_step_of_its_grid(constant_surface, planar_surface):
    for m in (constant_surface, planar_surface):
        s = m.s_grid
        assert m.h == (s[-1] - s[0]) / (len(s) - 1)
        # replace builds a new model, and the new model takes its step and stride again
        moved = dataclasses.replace(m, gamma=np.full_like(m.gamma, 0.1))
        assert (moved.h, moved.k) == (m.h, m.k)


def test_cone_accepts_custom_director():
    u = np.linspace(0.0, 2.0, 128)
    # a cone with its own director is a sampled surface with the apex on every base row
    vals = np.stack([np.cosh(u) * 1.5, np.sinh(u) * 1.5, np.zeros_like(u)], axis=-1)
    apex = np.tile([0.0, 0.0, 1.0], (128, 1))
    m = build_surface(SampledCurve(u, vals), SampledCurve(u, apex))
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


def _whole_frame_residuals(m):
    """frame_residuals written out over whole arrays, in one pass."""
    de, dt, dg, dc = (stencil_rows(x, m.h, k=m.k) for x in (m.e, m.t, m.g, m.c))
    gamma, delta, Delta = (x[:, None] for x in (m.gamma, m.delta, m.Delta))

    def mx(v):
        return float(np.max(enorm(v)))
    return {
        "unit_director": float(np.max(np.abs(linner(m.e, m.e) + 1.0))),
        "unit_tangent": float(np.max(np.abs(linner(m.t, m.t) - 1.0))),
        "unit_normal": float(np.max(np.abs(linner(m.g, m.g) - 1.0))),
        "orthogonality": float(np.max(np.abs([linner(m.e, m.t), linner(m.e, m.g), linner(m.t, m.g)]))),
        "frame_closure": mx(m.g + lcross(m.e, m.t)),
        "director_ode": mx(de - m.t),
        "tangent_ode": mx(dt - m.e - gamma * m.g),
        "normal_ode": mx(dg + gamma * m.t),
        "striction": float(np.max(np.abs(linner(dc, m.t)))),
        "striction_decomposition": mx(dc + delta * m.e - Delta * m.g),
    }


def _whole_dual_derivative(m, line):
    """d/ds of a whole dual frame line, and its d/ds_bar form."""
    raw = DualVec3(stencil_rows(line.re, m.h, k=m.k), stencil_rows(line.du, m.h, k=m.k))
    return raw, DualVec3(raw.re, raw.du + m.Delta[:, None] * raw.re)


def _whole_dual_frame_residuals(m):
    """dual_frame_residuals written out over whole arrays, in one pass."""
    e_d, t_d, g_d = dual_frame(m)
    gamma_bar = DualScalar(m.gamma, m.delta + m.gamma * m.Delta)
    raw, de = _whole_dual_derivative(m, e_d)
    dt, dg = (_whole_dual_derivative(m, x)[1] for x in (t_d, g_d))
    speed = dnorm(raw)

    def norms(x):
        return max(float(np.max(enorm(x.re))), float(np.max(enorm(x.du))))
    return {
        "director_ode": norms(de - t_d),
        "tangent_ode": norms(dt - e_d - gamma_bar * g_d),
        "normal_ode": norms(dg + gamma_bar * t_d),
        "director_speed_re": float(np.max(np.abs(speed.re - 1.0))),
        "director_speed_du": float(np.max(np.abs(speed.du + m.Delta))),
    }


def test_row_blocked_residuals_equal_the_whole_array_maxima(disguise):
    # three row blocks; every value is the whole-array maximum bit for bit. The
    # stride is 33, so each dual block builds its lines on 66 rows past each end
    u, director, base = disguise.sample(2 * ROW_BLOCK + 101)
    m = build_surface(SampledCurve(u, director), SampledCurve(u, base))
    assert m.k == 33
    assert frame_residuals(m) == _whole_frame_residuals(m)
    assert dual_frame_residuals(m) == _whole_dual_frame_residuals(m)


def test_short_end_blocks_read_the_rows_of_their_one_sided_stencils(disguise, monkeypatch):
    # at stride 4 a block shorter than 3k = 12 rows at an end of the grid reaches 5k = 20
    # rows into it, past the 2k rows on its far side; every block size gives the one-block dict
    u, director, base = disguise.sample(4097)
    m = build_surface(SampledCurve(u, director), SampledCurve(u, base))
    assert m.k == 4
    whole = dual_frame_residuals(m)
    for rows in (9, 11, 12):
        assert in_blocks(monkeypatch, rows, lambda: dual_frame_residuals(m)) == whole


def test_director_stall_in_a_later_block_names_the_global_sample():
    # the director stands still on rows 16000:16300, inside the second of three
    # blocks: the dual norm of its derivative is undefined from the first row
    # whose stencil, at the model's stride 33, sees only the stall (16000 + 2 * 33)
    n = 2 * ROW_BLOCK + 50
    s = np.linspace(0.0, 1.0, n)
    phi = s.copy()
    phi[16000:16300] = phi[16000]
    zeros = np.zeros_like(s)
    e = np.stack([np.cosh(phi), np.sinh(phi), zeros], axis=-1)
    t = np.stack([np.sinh(phi), np.cosh(phi), zeros], axis=-1)
    g = np.stack([zeros, zeros, zeros + 1.0], axis=-1)
    c = np.stack([zeros, zeros, s], axis=-1)
    m = RuledSurfaceModel(s_grid=s, e=e, t=t, g=g, c=c, gamma=zeros, delta=zeros, Delta=zeros)
    assert m.k == 33
    with pytest.raises(NullDirection) as whole:
        _whole_dual_frame_residuals(m)
    assert str(whole.value) == "null direction at sample 16066; dual norm undefined"
    with pytest.raises(NullDirection) as blocked:
        dual_frame_residuals(m)
    assert str(blocked.value) == str(whole.value)


def bits(value):
    """A value as comparable bytes: arrays by shape, dtype and bytes; dicts and
    records by their fields; anything else as it is."""
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return {f.name: bits(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype, np.ascontiguousarray(value).tobytes()
    return value


def in_blocks(monkeypatch, rows, call):
    """call() with at most `rows` rows per row block."""
    monkeypatch.setattr(surface_kernel, "ROW_BLOCK", rows)
    return call()


def test_frame_recovery_and_resampling_keep_their_bits_in_row_blocks(disguise, monkeypatch):
    # 4097 samples in 16 blocks of 256 or 257 rows, at stride 4, give the bits of one
    # block: each pass reads the whole-length fields of the pass before
    u, director, base = disguise.sample(4097)
    curves = SampledCurve(u, director), SampledCurve(u, base)

    def run():
        fields = _darboux_fields(u, director, base, grid_step(u), stride(len(u)))
        m = build_surface(*curves)
        return bits(fields), bits(m), study_residual(m)

    whole = in_blocks(monkeypatch, len(u), run)
    assert len(_row_blocks(len(u))) == 1
    blocked = in_blocks(monkeypatch, 257, run)
    assert len(_row_blocks(len(u))) == 16
    assert blocked == whole


def test_the_offset_rebuild_keeps_its_bits_in_row_blocks(disguise, monkeypatch):
    # the rebuild recovers the frame on the reversed window, numbered by the caller
    u, director, base = disguise.sample(4097)
    m = build_surface(SampledCurve(u, director), SampledCurve(u, base))
    spec = offset_angle_profile(m, 2.5, 0.3, (1.0, 2.0))
    calls = []
    monkeypatch.setattr(mannheim_offset, "_darboux_fields",
                        lambda *args: calls.append(args) or _darboux_fields(*args))
    construct_offset(m, spec)
    args = calls[0]
    assert args[-1] == range(len(spec.s))[::-1]
    whole = in_blocks(monkeypatch, len(spec.s), lambda: bits(_darboux_fields(*args)))
    blocked = in_blocks(monkeypatch, 257, lambda: bits(_darboux_fields(*args)))
    assert len(_row_blocks(len(spec.s))) > 5
    assert blocked == whole


def test_a_guard_after_the_pass_names_the_one_block_sample(monkeypatch):
    # the director stalls on rows 300:700 (block 2) and is spacelike at row 3900 (block
    # 16), and two rapidity jumps at rows 500 and 3000 drift <e,t>, the later one most:
    # each blocked run raises what the one-block run raises, not the first block's fault
    u = np.linspace(0.0, 2.0, 4097)
    zeros = np.zeros_like(u)
    stalled, jumped = u.copy(), u.copy()
    stalled[300:700] = stalled[300]
    jumped[500:] += 0.05
    jumped[3000:] += 0.2
    spacelike = np.stack([np.cosh(stalled), np.sinh(stalled), zeros], -1)
    spacelike[3900] = (0.0, 1.0, 0.0)
    cases = {  # director, class, and the start of the message: its sample
        "spacelike past a stall": (spacelike, NotTimelikeDirector, "director sample 3900 is not timelike"),
        "stall": (np.stack([np.cosh(stalled), np.sinh(stalled), zeros], -1), DegenerateIndicatrix,
                  "indicatrix speed vanishes at sample 308 "),
        "worst drift in a later block": (np.stack([np.cosh(jumped), np.sinh(jumped), zeros], -1),
                                         FrameDriftExceeded, "<e,t> = 1.180e-01 at sample 2995 "),
    }
    base = np.stack([zeros, zeros, u], -1)
    for director, cls, start in cases.values():
        messages = []
        for rows in (len(u), 257):
            with pytest.raises(cls) as info:
                in_blocks(monkeypatch, rows, lambda: _darboux_fields(u, director, base, grid_step(u), 4))
            assert type(info.value) is cls
            messages.append(str(info.value))
        assert messages[0].startswith(start) and messages[1] == messages[0]


def test_the_study_check_names_its_worst_line_across_blocks(constant_surface, monkeypatch):
    # two directors off unit length, in the first and the last of four blocks: the
    # check runs after the pass and names the worse one, as the one-block run does
    e = constant_surface.e.copy()
    e[10] *= 1.001
    e[1000] *= 1.01
    m = dataclasses.replace(constant_surface, e=e)
    for rows in (len(m), 257):
        with pytest.raises(DegenerateLine) as info:
            in_blocks(monkeypatch, rows, lambda: study_residual(m))
        assert str(info.value) == "direction not unit timelike (deviation 2.010e-02 at sample 1000)"
    assert len(_row_blocks(len(m))) == 4


def test_dual_frame_residuals_memory_peak():
    # on 2^17 samples the whole-array evaluation peaked at 51.0 MB of traced
    # temporaries; row blocks of ROW_BLOCK samples peak at 6.4 MB
    m = synth_constant_invariant(0.5, 0.3, 0.2, (0.0, 2.0), 2**17)
    _, _, peak = traced(lambda: dual_frame_residuals(m))
    assert peak < 12 * 2**20


def stored_arrays(obj) -> list:
    """The arrays a result dataclass stores: its array fields, the parts of its dual
    fields and the values of its dict fields."""
    out = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        parts = value.values() if isinstance(value, dict) else [value]
        for part in parts:
            out += [part] if isinstance(part, np.ndarray) else [
                getattr(part, k) for k in ("re", "du") if hasattr(part, k)]
    return out


def test_axis_kind_is_a_mask_spelled_on_read(constant_surface, offset_pieces):
    # a label is 52 bytes a sample; the apparatus and the offset keep 1 byte and
    # spell the labels on read
    g0 = constant_surface.gamma  # spacelike axis; then timelike, then mixed
    for gamma in (g0, np.full_like(g0, 1.5), np.where(np.arange(g0.size) % 3, 0.5, -1.5)):
        ap = dual_apparatus(dataclasses.replace(constant_surface, gamma=gamma))
        assert all(a.dtype.kind != "U" for a in stored_arrays(ap))
        assert ap.timelike_axis.dtype == bool
        labels = np.where(np.abs(ap.gamma_bar.re) > 1.0, "TimelikeAxis", "SpacelikeAxis")
        assert ap.darboux_branch.dtype == np.dtype("<U13") == labels.dtype
        assert np.array_equal(ap.darboux_branch, labels)
    offset = offset_pieces[2]
    ap1 = offset.apparatus1  # stored_arrays does not descend into a nested record
    assert all(a.dtype.kind != "U" for a in stored_arrays(offset) + stored_arrays(ap1))
    assert ap1.timelike_axis.dtype == bool
    labels = np.where(np.abs(ap1.gamma_bar.re) > 1.0, "TimelikeAxis", "SpacelikeAxis")
    assert ap1.darboux_branch.dtype == np.dtype("<U13")
    assert np.array_equal(ap1.darboux_branch, labels)
    m = synth_constant_invariant(0.5, 0.3, 0.2, (0.0, 2.0), 2**17)
    ap, retained, _ = traced(lambda: dual_apparatus(m))
    # gamma_bar's dual part, R_bar and the mask: 3.1 MiB (gamma_bar's real part is
    # m.gamma); with the radius pair stored it was 7.1 MiB, with the labels 14.5 MiB
    assert retained < 4 * 2**20


def test_frame_recovery_lets_its_temporaries_go(disguise):
    # de, dp, lambda, <e',e'>, <e,t>, dt/ds and dc/ds are block-sized and go after
    # their block: 19.5 float N-vectors at the peak; whole-array passes that let each
    # go after its last read peaked at 23.0, and 37.0 with them held to the end
    n = 16385
    u, director, base = disguise.sample(n)
    _, _, peak = traced(lambda: _darboux_fields(u, director, base, grid_step(u), stride(n)))
    assert peak <= 24 * 8 * n


def test_build_surface_and_apparatus_memory(disguise):
    # frame recovery and the resampler let each field and temporary go after its last
    # use: build_surface peaked at 2.94x its model's array bytes while all chain-rule
    # fields were held, 2.31x while frame recovery held its temporaries, 2.01x with
    # whole-array passes and 1.98x in row blocks;
    # the apparatus keeps gamma_bar's dual part, R_bar and the mask, and computes the
    # radius pair on read (7.15 float N-vectors with the pair stored, 3.15 now)
    u, director, base = disguise.sample(16385)
    curves = SampledCurve(u, director), SampledCurve(u, base)
    m, _, peak = traced(lambda: build_surface(*curves))
    model_bytes = sum(getattr(m, f.name).nbytes for f in dataclasses.fields(m) if f.init)
    assert peak <= 2.1 * model_bytes
    ap, held, _ = traced(lambda: dual_apparatus(m))
    assert held <= 3.5 * 8 * len(m)
    assert {f.name for f in dataclasses.fields(ap)} == {"gamma_bar", "R_bar", "timelike_axis"}


@pytest.mark.parametrize("n,k", [(1024, 1), (1500, 1), (1502, 2), (16385, 16), (131073, 131)])
def test_frame_recovery_takes_its_stride_from_its_grid(n, k):
    # kh is about 1e-3 of the range; k = 1 up to 1500 samples, so N = 1024 keeps its bytes
    assert build_surface(*hyperbola_curves((0.0, 2.0), n)).k == k


def test_disguised_gamma_at_large_n(disguise):
    # gamma is a second derivative of the director: at stride 1 its rounding error,
    # about eps/h^2, reads 6e-5 at this size
    u, director, base = disguise.sample(131073)
    m = build_surface(SampledCurve(u, director), SampledCurve(u, base))
    assert np.max(np.abs(m.gamma - disguise.gamma0)) <= 1e-6


def test_disguised_frame_residuals_at_the_model_stride(disguise):
    # the frame check differentiates at the stride the invariants were measured with
    # (66 here); at stride 1 rounding read 1.3e-6 and 3.9e-6
    u, director, base = disguise.sample(65537)
    residuals = frame_residuals(build_surface(SampledCurve(u, director), SampledCurve(u, base)))
    assert residuals["tangent_ode"] <= 1e-6
    assert residuals["striction_decomposition"] <= 1e-6
