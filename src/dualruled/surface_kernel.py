"""Darboux apparatus of timelike ruled surfaces.

A surface is swept by a timelike unit director e along a base curve p. The
kernel recovers the striction curve c (the tightest base curve), the frame
{e, t, g} with t = de/ds and g = -e x t, and the three scalar invariants:
gamma (conical curvature: rotation speed of the frame about the ruling),
delta (drift: striction motion along the ruling), Delta (distribution
parameter; zero exactly on developables).

Numerically, every derivative is taken on the caller's pristine uniform
grid in the original parameter and converted to arc-length derivatives by
the chain rule. Only after all invariants exist are the fields resampled
onto the uniform arc-length grid the model promises. Interpolating first
and differentiating the interpolant would amplify the interpolation error
by 1/h per derivative order, which is fatal for reconstructed curves with
large moments; values, by contrast, survive resampling at full accuracy.
The resampler is cubic Hermite whose slopes are the frame equations
themselves, so a resampled model obeys its own ODEs to 4th order:
re-differentiating its fields on its own grid gives residuals that fall
about 16x per 4x samples until rounding takes over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual_algebra import DualScalar, apply_function
from .dual_lorentz import DualVec3, decode_line_point, dnorm
from .errors import (
    DegenerateIndicatrix,
    FrameDriftExceeded,
    GammaOutOfRange,
    MismatchedInputs,
    NotTimelikeDirector,
    NullDarbouxAxis,
    guard,
)
from .minkowski3 import det3, lcross, linner
from .numerics import SampledCurve, grid_derivative, hermite, integrate_cumulative

TIMELIKE_AXIS = "TimelikeAxis"
SPACELIKE_AXIS = "SpacelikeAxis"

NULL_AXIS_GUARD = 1e-6
DRIFT_TOL = 1e-4
STALL_FLOOR = 1e-16  # <e',e'> at or below this: the indicatrix stalls (speed <= 1e-8)


@dataclass(frozen=True)
class RuledSurfaceModel:
    """Sampled Darboux data of one timelike ruled surface on an arc-length grid."""

    s_grid: np.ndarray
    e: np.ndarray
    t: np.ndarray
    g: np.ndarray
    c: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    Delta: np.ndarray

    def __len__(self):
        return len(self.s_grid)


@dataclass(frozen=True)
class DualApparatus:
    """Dual-number layer over a model: dual arc length, dual conical curvature,
    curvature radius, and the (cosh, sinh) pair of the dual spherical radius."""

    s_bar: DualScalar
    gamma_bar: DualScalar
    R_bar: DualScalar
    rho_cosh: DualScalar
    rho_sinh: DualScalar
    darboux_branch: np.ndarray
    darboux_axis_unit: DualVec3


def _renormalize_director(e: np.ndarray) -> np.ndarray:
    q = linner(e, e)
    guard(q >= -1e-12, lambda i: NotTimelikeDirector(
        f"director sample {i} is not timelike: <e,e> = {q[i]:.3e} (need < 0)"))
    return e / np.sqrt(-q)[:, None]


def _darboux_fields(u: np.ndarray, e_raw: np.ndarray, p_raw: np.ndarray) -> dict:
    """Frame and invariants per input sample, derivatives via chain rule.

    All fields are indexed by the input grid; 'sigma' is the indicatrix
    speed |de/du| and 's' the running arc length (origin u[0]).
    """
    e = _renormalize_director(np.asarray(e_raw, dtype=float))
    de = grid_derivative(u, e)
    sig2 = linner(de, de)

    def stalled(i):
        value = f"(<e',e'> = {sig2[i]:.3e})"
        if sig2[i] < -1e-12:
            return FrameDriftExceeded(f"indicatrix tangent is not spacelike at sample {i} {value}")
        return DegenerateIndicatrix(f"indicatrix speed vanishes at sample {i} {value}")

    guard(sig2 <= STALL_FLOOR, stalled)
    sigma = np.sqrt(sig2)
    t = de / sigma[:, None]
    et = linner(e, t)
    guard(np.abs(et) - DRIFT_TOL, lambda i: FrameDriftExceeded(
        f"<e,t> = {et[i]:.3e} at sample {i} exceeds {DRIFT_TOL:.0e}"))
    g = -lcross(e, t)
    dp = grid_derivative(u, np.asarray(p_raw, dtype=float))
    lam = -linner(dp, de) / sig2
    c = p_raw + lam[:, None] * e
    dt_ds = grid_derivative(u, t) / sigma[:, None]
    gamma = linner(dt_ds, g)
    dc_ds = grid_derivative(u, c) / sigma[:, None]
    delta = linner(dc_ds, e)
    Delta = det3(dc_ds, e, t)
    s = u[0] + integrate_cumulative(u, sigma)
    return {
        "u": np.asarray(u, dtype=float), "s": s, "sigma": sigma,
        "e": e, "t": t, "g": g, "c": c,
        "gamma": gamma, "delta": delta, "Delta": Delta,
    }


def _model_from_fields(fields: dict) -> RuledSurfaceModel:
    """Resample chain-rule fields onto the uniform arc-length grid.

    Cubic Hermite in u. Frame slopes come from the frame equations times
    sigma = ds/du (de/ds = t, dt/ds = e + gamma g, dc/ds = -delta e + Delta g),
    scalar slopes from the grid, so the resampled frame obeys its own ODEs.
    The map u(s) onto the uniform s grid is cubic Hermite too, with the exact
    slopes du/ds = 1/sigma, clipped to the input range.
    """
    u, s = fields["u"], fields["s"]
    s_uniform = np.linspace(s[0], s[-1], len(u))
    u_at_s = np.clip(hermite(s, u, 1.0 / fields["sigma"], s_uniform), u[0], u[-1])
    e, t, g = fields["e"], fields["t"], fields["g"]
    gamma, delta, Delta = (fields[k][:, None] for k in ("gamma", "delta", "Delta"))

    def resample(name, df_ds=None):
        f = fields[name]
        df = grid_derivative(u, f) if df_ds is None else fields["sigma"][:, None] * df_ds
        return hermite(u, f, df, u_at_s)

    e1 = resample("e", t)
    drift = np.abs(linner(e1, e1) + 1.0)
    guard(drift - DRIFT_TOL, lambda i: FrameDriftExceeded(
        f"director norm drifted by {drift[i]:.3e} after resampling at sample {i}"))
    e1 = e1 / np.sqrt(-linner(e1, e1))[:, None]
    t1 = resample("t", e + gamma * g)
    guard(np.maximum(np.abs(linner(t1, t1) - 1.0), np.abs(linner(e1, t1))) - DRIFT_TOL,
          lambda i: FrameDriftExceeded(
              f"frame orthonormality drift at sample {i} exceeds {DRIFT_TOL:.0e}"))
    t1 = t1 + linner(e1, t1)[:, None] * e1  # drop the e component (<e,e> = -1)
    t1 = t1 / np.sqrt(linner(t1, t1))[:, None]
    return RuledSurfaceModel(
        s_grid=s_uniform, e=e1, t=t1, g=-lcross(e1, t1),  # closure kept exact
        c=resample("c", -delta * e + Delta * g),
        gamma=resample("gamma"), delta=resample("delta"), Delta=resample("Delta"),
    )


def build_surface(director: SampledCurve, base: SampledCurve) -> RuledSurfaceModel:
    """Build the Darboux model of the ruled surface p(u) + v e(u).

    Both curves must share one uniform grid. Directors may carry any
    timelike magnitude; they are renormalized per sample.
    """
    if len(director) != len(base) or not np.array_equal(director.params, base.params):
        raise MismatchedInputs("director and base curve must share one parameter grid")
    fields = _darboux_fields(director.params, director.values, base.values)
    return _model_from_fields(fields)


def synth_constant_invariant(gamma0: float, delta0: float, Delta0: float,
                             s_range=(0.0, 2.0), samples: int = 1024) -> RuledSurfaceModel:
    """Closed-form surface family with constant invariants (needs |gamma0| < 1).

    Director runs on a hyperbola at Lorentz-latitude B = -gamma0*A with
    A = 1/sqrt(1 - gamma0^2); the striction curve mixes a congruent
    hyperbola arc with a linear sweep so that dc/ds = -delta0 e + Delta0 g
    holds identically.
    """
    if not abs(gamma0) < 1.0:
        raise GammaOutOfRange(f"constant-invariant family needs |gamma0| < 1, got {gamma0}")
    A = 1.0 / np.sqrt(1.0 - gamma0 * gamma0)
    B = -gamma0 * A
    k = 1.0 / A
    s = np.linspace(float(s_range[0]), float(s_range[1]), samples)
    zeros = np.zeros_like(s)
    ones = np.ones_like(s)
    e = np.stack([A * np.cosh(k * s), A * np.sinh(k * s), B * ones], axis=-1)
    t = np.stack([np.sinh(k * s), np.cosh(k * s), zeros], axis=-1)
    g = np.stack([B * np.cosh(k * s), B * np.sinh(k * s), A * ones], axis=-1)
    alpha = -delta0 * A + Delta0 * B
    beta = -delta0 * B + Delta0 * A
    c = (alpha / k) * np.stack([np.sinh(k * s), np.cosh(k * s) - 1.0, zeros], axis=-1) \
        + beta * np.stack([zeros, zeros, s], axis=-1)
    return RuledSurfaceModel(
        s_grid=s, e=e, t=t, g=g, c=c,
        gamma=np.full_like(s, gamma0), delta=np.full_like(s, delta0),
        Delta=np.full_like(s, Delta0),
    )


def _gamma_bar(gamma, delta, Delta) -> DualScalar:
    """Dual conical curvature gamma_bar = gamma + eps(delta + gamma Delta)."""
    return DualScalar(gamma, delta + gamma * Delta)


def _curvature_elements(gamma, delta, Delta):
    """gamma_bar, curvature radius and (cosh, sinh) spherical-radius pair.

    Branch splits on |gamma| vs 1: the Darboux axis is timelike outside the
    unit band, spacelike inside. Returns (gamma_bar, R, C, S, branch).
    """
    gamma_bar = _gamma_bar(gamma, delta, Delta)
    gre = np.asarray(gamma, dtype=float)
    margin = np.abs(1.0 - gre * gre)
    guard(margin < NULL_AXIS_GUARD, lambda i: NullDarbouxAxis(
        f"|1 - gamma_bar^2| = {margin.flat[i]:.3e} at sample {i} "
        f"(guard {NULL_AXIS_GUARD:.0e}); Darboux axis is null"))
    one_minus = 1.0 - gamma_bar * gamma_bar
    R = 1.0 / apply_function("sqrt", abs(one_minus))
    mgR = -gamma_bar * R
    mR = -R
    timelike = np.abs(gre) > 1.0
    C = DualScalar(np.where(timelike, mgR.re, mR.re), np.where(timelike, mgR.du, mR.du))
    S = DualScalar(np.where(timelike, mR.re, mgR.re), np.where(timelike, mR.du, mgR.du))
    branch = np.where(timelike, TIMELIKE_AXIS, SPACELIKE_AXIS)
    return gamma_bar, R, C, S, branch


def dual_frame(m: RuledSurfaceModel):
    """Line coordinates of the moving frame: x -> (x, c x x)."""
    return (
        DualVec3(m.e, lcross(m.c, m.e)),
        DualVec3(m.t, lcross(m.c, m.t)),
        DualVec3(m.g, lcross(m.c, m.g)),
    )


def dual_apparatus(m: RuledSurfaceModel) -> DualApparatus:
    """Dual arc length, dual conical curvature, and curvature elements."""
    s_bar = DualScalar(m.s_grid, -integrate_cumulative(m.s_grid, m.Delta))
    gamma_bar, R, C, S, branch = _curvature_elements(m.gamma, m.delta, m.Delta)
    e_d, _, g_d = dual_frame(m)
    return DualApparatus(
        s_bar=s_bar, gamma_bar=gamma_bar, R_bar=R,
        rho_cosh=C, rho_sinh=S, darboux_branch=branch,
        darboux_axis_unit=R * (-1.0 * (gamma_bar * e_d) - g_d),
    )


def classify(m: RuledSurfaceModel, tol: float = 1e-6) -> dict:
    """Developability flags: Delta == 0 flattens; adding delta == 0 gives a cone."""
    developable = bool(np.max(np.abs(m.Delta)) <= tol)
    cone = developable and bool(np.max(np.abs(m.delta)) <= tol)
    return {"developable": developable, "cone": cone}


def frame_residuals(m: RuledSurfaceModel) -> dict:
    """Max residuals of the frame ODEs and striction properties on the model grid.

    On reparameterized input the ODE residuals carry the 4th-order resampling
    error (about 16x smaller per 4x samples); see the module docstring.
    """
    s = m.s_grid
    de = grid_derivative(s, m.e)
    dt = grid_derivative(s, m.t)
    dg = grid_derivative(s, m.g)
    dc = grid_derivative(s, m.c)
    def mx(v):
        return float(np.max(np.sqrt(np.sum(v * v, axis=-1))))
    return {
        "unit_director": float(np.max(np.abs(linner(m.e, m.e) + 1.0))),
        "unit_tangent": float(np.max(np.abs(linner(m.t, m.t) - 1.0))),
        "unit_normal": float(np.max(np.abs(linner(m.g, m.g) - 1.0))),
        "orthogonality": float(np.max(np.abs([linner(m.e, m.t), linner(m.e, m.g), linner(m.t, m.g)]))),
        "frame_closure": mx(m.g + lcross(m.e, m.t)),
        "director_ode": mx(de - m.t),
        "tangent_ode": mx(dt - m.e - m.gamma[:, None] * m.g),
        "normal_ode": mx(dg + m.gamma[:, None] * m.t),
        "striction": float(np.max(np.abs(linner(dc, m.t)))),
        "striction_decomposition": mx(dc + m.delta[:, None] * m.e - m.Delta[:, None] * m.g),
    }


def _dual_fd(x: DualVec3, s: np.ndarray) -> DualVec3:
    return DualVec3(grid_derivative(s, x.re), grid_derivative(s, x.du))


def _d_ds_bar(dx_ds: DualVec3, Delta: np.ndarray) -> DualVec3:
    """d/ds -> d/ds_bar: ds_bar = (1 - eps Delta) ds, whose reciprocal is (1, Delta)."""
    return dx_ds * DualScalar(np.ones_like(Delta), Delta)


def _dual_vec_norms(x: DualVec3) -> float:
    re = float(np.max(np.sqrt(np.sum(x.re * x.re, axis=-1))))
    du = float(np.max(np.sqrt(np.sum(x.du * x.du, axis=-1))))
    return max(re, du)


def dual_frame_residuals(m: RuledSurfaceModel) -> dict:
    """Residuals of the dual frame ODEs, differentiating in dual arc length."""
    e_d, t_d, g_d = dual_frame(m)
    s = m.s_grid
    gamma_bar = _gamma_bar(m.gamma, m.delta, m.Delta)
    raw = _dual_fd(e_d, s)
    de = _d_ds_bar(raw, m.Delta)
    dt = _d_ds_bar(_dual_fd(t_d, s), m.Delta)
    dg = _d_ds_bar(_dual_fd(g_d, s), m.Delta)
    speed = dnorm(raw)
    return {
        "director_ode": _dual_vec_norms(de - t_d),
        "tangent_ode": _dual_vec_norms(dt - e_d - gamma_bar * g_d),
        "normal_ode": _dual_vec_norms(dg + gamma_bar * t_d),
        "director_speed_re": float(np.max(np.abs(speed.re - 1.0))),
        "director_speed_du": float(np.max(np.abs(speed.du + m.Delta))),
    }


def study_residual(m: RuledSurfaceModel) -> float:
    """Max Euclidean distance from decoded ruling points to the model rulings."""
    e_d, _, _ = dual_frame(m)
    q = decode_line_point(e_d)
    rel = q - m.c
    cr = np.cross(rel, m.e)
    dist = np.sqrt(np.sum(cr * cr, axis=-1)) / np.sqrt(np.sum(m.e * m.e, axis=-1))
    return float(np.max(dist))
