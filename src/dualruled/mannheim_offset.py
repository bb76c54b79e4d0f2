"""Mannheim offsets of timelike ruled surfaces, with a formula-free oracle.

An offset surface is generated by tilting each ruling line by a dual
hyperbolic angle (theta, theta_star) inside the frame of the base surface.
The Mannheim condition (offset central tangent parallel to base central
normal) pins the angle law: theta drops linearly in arc length, theta_star
follows the accumulated distribution parameter.

Everything labeled "oracle" here is computed WITHOUT the closed-form
offset identities: the tilted dual director is decoded back to points and
lines, and the offset's frame/invariants are rebuilt from scratch by
surface_kernel. The closed forms are then evaluated separately and
adjudicated against the oracle in a consistency report. Agreement and
disagreement are both findings; the report never reconciles them.

Orientation gauge: the offset indicatrix is traversed so that its arc
length runs against gamma*sinh(theta) (ds1/ds = -gamma*sinh(theta)). In
this gauge the recovered tangent satisfies t1 = -g exactly and the oracle
conical curvature comes out as -coth(theta), matching the confirmed
closed forms sign for sign. Sign-sensitive comparisons elsewhere use
orientation-insensitive residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dual_algebra import DualScalar, apply_function
from .dual_lorentz import DualVec3, decode_line_point, dinner
from .errors import (
    DegenerateOffsetIndicatrix,
    DegeneratePoint,
    DegenerateWindow,
    GridTooCoarse,
    MismatchedInputs,
    ValidationError,
    guard,
)
from .minkowski3 import lcross, linner
from .numerics import MIN_SAMPLES, grid_derivative, integrate_cumulative
from .surface_kernel import (
    STALL_FLOOR,
    RuledSurfaceModel,
    _curvature_elements,
    _d_ds_bar,
    _darboux_fields,
    _dual_fd,
    _gamma_bar,
    dual_frame,
)

SINH_GUARD = 1e-6
GAMMA_GUARD = 1e-6


@dataclass
class OffsetSpec:
    """Offset angle law for one base model, restricted to a working window."""

    c_const: float
    cstar_const: float
    s: np.ndarray
    theta: np.ndarray
    theta_star: np.ndarray
    lo_index: int
    hi_index: int
    source_model: RuledSurfaceModel

    @property
    def window(self) -> slice:
        """The window's samples within the source model's grid."""
        return slice(self.lo_index, self.hi_index)


@dataclass
class OffsetModel:
    """Oracle reconstruction of a Mannheim offset, sampled at the base grid."""

    e1_dual: DualVec3
    s1_grid: np.ndarray
    ds1_ds: np.ndarray
    orientation: int
    t1: np.ndarray
    g1: np.ndarray
    c1: np.ndarray
    gamma1: np.ndarray
    delta1: np.ndarray
    Delta1: np.ndarray
    gamma1_bar: DualScalar
    R1_bar: DualScalar
    rho1_cosh: DualScalar
    rho1_sinh: DualScalar
    rho1_star: np.ndarray
    branch1: np.ndarray
    mannheim_real_residual: np.ndarray
    mannheim_dual_residual: np.ndarray
    striction_shift_e: np.ndarray
    striction_shift_t: np.ndarray
    striction_shift_g: np.ndarray
    source_model: RuledSurfaceModel
    spec: OffsetSpec


@dataclass
class OffsetReport:
    """Per-sample adjudication of the closed-form offset identities."""

    s: np.ndarray
    theta: np.ndarray
    theta_star: np.ndarray
    oracle: dict
    formulas: dict
    residuals: dict
    max_residual: dict
    mean_residual: dict
    verdicts: dict
    striction_shift: dict
    mannheim_real_max: float
    mannheim_dual_max: float
    tol: float


def offset_angle_profile(m: RuledSurfaceModel, c_const: float, cstar_const: float,
                         window: Optional[tuple] = None) -> OffsetSpec:
    """Mannheim angle law on a model: theta = -s + c, theta_star = int(Delta) + c*.

    The distance integral is anchored at the model's grid origin. `window`
    narrows the working range to [lo, hi] in s; the profile must keep
    sinh(theta) away from zero on that range.
    """
    s_full = m.s_grid
    theta_full = -s_full + float(c_const)
    theta_star_full = integrate_cumulative(s_full, m.Delta) + float(cstar_const)
    if window is None:
        lo_i, hi_i = 0, len(s_full)
    else:
        lo, hi = float(window[0]), float(window[1])
        if not lo < hi:
            raise ValidationError(f"window must be [lo, hi] with lo < hi, got [{lo}, {hi}]")
        lo_i = int(np.searchsorted(s_full, lo - 1e-12, side="left"))
        hi_i = int(np.searchsorted(s_full, hi + 1e-12, side="right"))
        if hi_i - lo_i < MIN_SAMPLES:
            raise GridTooCoarse(
                f"window [{lo}, {hi}] holds {hi_i - lo_i} samples; need {MIN_SAMPLES}"
            )
    theta = theta_full[lo_i:hi_i]
    # theta = 0 anywhere in the window kills the offset: catch samples inside
    # the guard band and sign changes that straddle the zero between samples
    small = np.abs(np.sinh(theta)) <= SINH_GUARD
    crosses = (theta.min() < -SINH_GUARD) and (theta.max() > SINH_GUARD)
    if np.any(small) or crosses:
        idx = int(np.argmin(np.abs(theta)))
        raise DegenerateWindow(
            f"theta = 0 crossing: sinh(theta) = {np.sinh(theta[idx]):.3e} near "
            f"s = {s_full[lo_i + idx]:.6g}; shrink the window or change the angle constant"
        )
    return OffsetSpec(
        c_const=float(c_const), cstar_const=float(cstar_const),
        s=s_full[lo_i:hi_i], theta=theta, theta_star=theta_star_full[lo_i:hi_i],
        lo_index=lo_i, hi_index=hi_i, source_model=m,
    )


def _window_frame(m: RuledSurfaceModel, spec: OffsetSpec) -> list:
    """The base dual frame (e, t, g) on the spec's window."""
    w = spec.window
    return [DualVec3(x.re[w], x.du[w]) for x in dual_frame(m)]


def transfer_dual_director(m: RuledSurfaceModel, spec: OffsetSpec) -> DualVec3:
    """Tilt the base ruling lines by the dual angle: e1 = cosh(tb) e + sinh(tb) t."""
    e_d, t_d, _ = _window_frame(m, spec)
    theta_bar = DualScalar(spec.theta, spec.theta_star)
    ch = apply_function("cosh", theta_bar)
    sh = apply_function("sinh", theta_bar)
    return ch * e_d + sh * t_d


def _distance_up_to_sign(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample Euclidean distance from a to whichever of +b, -b is nearer."""
    return np.minimum(np.sqrt(np.sum((a - b) ** 2, axis=-1)), np.sqrt(np.sum((a + b) ** 2, axis=-1)))


def construct_offset(m: RuledSurfaceModel, spec: OffsetSpec) -> OffsetModel:
    """Reconstruct the offset surface from its ruling lines alone.

    The tilted dual director is decoded to a point curve, and the full
    Darboux apparatus of the offset is rebuilt numerically. No closed-form
    offset identity enters this function; its outputs are the oracle.
    """
    if spec.source_model is not m:
        raise MismatchedInputs("spec was built for a different model")
    w = spec.window
    s = m.s_grid[w]
    e, t, g, c = m.e[w], m.t[w], m.g[w], m.c[w]
    e1_dual = transfer_dual_director(m, spec)
    pts = decode_line_point(e1_dual)

    de1 = grid_derivative(s, e1_dual.re)
    guard(linner(de1, de1) <= STALL_FLOOR, lambda i: DegenerateOffsetIndicatrix(
        f"gamma = {m.gamma[w][i]:.3e}, sinh(theta) = {np.sinh(spec.theta[i]):.3e} "
        f"at s = {s[i]:.6g}: offset indicatrix speed |gamma*sinh(theta)| vanishes"))

    # traverse against gamma*sinh(theta) so the Mannheim frame lands on t1 = -g
    mid = len(s) // 2
    drive = m.gamma[w] * np.sinh(spec.theta)
    orient = -1 if drive[mid] > 0 else 1
    back = slice(None, None, orient)
    fields = _darboux_fields(orient * s[back], e1_dual.re[back], pts[back])

    t1, g1, c1, gamma1, delta1, Delta1, s1_grid, sigma1 = (
        fields[k][back] for k in ("t", "g", "c", "gamma", "delta", "Delta", "s", "sigma"))
    gamma1_bar, R1, C1, S1, branch1 = _curvature_elements(gamma1, delta1, Delta1)

    v = c1 - c
    return OffsetModel(
        e1_dual=e1_dual,
        s1_grid=s1_grid, ds1_ds=orient * sigma1, orientation=orient,
        t1=t1, g1=g1, c1=c1, gamma1=gamma1, delta1=delta1, Delta1=Delta1,
        gamma1_bar=gamma1_bar, R1_bar=R1, rho1_cosh=C1, rho1_sinh=S1,
        rho1_star=C1.du / S1.re, branch1=branch1,
        mannheim_real_residual=_distance_up_to_sign(t1, g),
        mannheim_dual_residual=_distance_up_to_sign(lcross(c1, t1), lcross(c, g)),
        striction_shift_e=-linner(v, e), striction_shift_t=linner(v, t),
        striction_shift_g=linner(v, g),
        source_model=m, spec=spec,
    )


def _formula_fields(gamma, delta, Delta, theta, theta_star) -> dict:
    """Closed-form offset quantities, evaluated verbatim from base data.

    Works on scalars or arrays. K is the shared bracket of the dual-part
    formulas. No reconciliation happens here.
    """
    coth = np.cosh(theta) / np.sinh(theta)
    sinh = np.sinh(theta)
    cosh = np.cosh(theta)
    K = (delta - theta_star) * coth + Delta * (1.0 + coth * coth)
    out = {
        "arc_rate": np.abs(gamma * sinh),
        "arc_rate_dual": DualScalar(
            gamma * sinh, gamma * theta_star * cosh + _gamma_bar(gamma, delta, Delta).du * sinh
        ),
        "conical_curvature": -coth,
        "conical_curvature_dual_re": -coth,
        "conical_curvature_dual_du": (1.0 / gamma) * (2.0 * (delta - theta_star) * coth
                                                      + Delta * (1.0 + coth * coth)),
        "drift": (1.0 / gamma) * ((delta - theta_star) * coth + Delta),
        "dist_param_rate_route": -(theta_star * coth + delta / gamma),
        "dist_param_det_route": (1.0 / gamma) * (theta_star - delta - Delta * coth),
        "curvature_radius_re": sinh,
        "curvature_radius_du": -(cosh * sinh * sinh / gamma) * K,
        "sph_radius_cosh_re": cosh,
        "sph_radius_cosh_du": -(sinh ** 3 / gamma) * K,
        "sph_radius_sinh": -sinh,
        "sph_radius_sinh_du": (cosh * sinh * sinh / gamma) * K,
        "sph_radius_shift": (sinh * sinh / gamma) * K,
        "offset_distance_constraint": Delta * coth / (1.0 + gamma * coth),
    }
    return out


def _closed_form_inputs(m: RuledSurfaceModel, spec: OffsetSpec, idx: Optional[int] = None) -> tuple:
    """Base (gamma, delta, Delta, theta, theta_star) on the window, or at window sample idx.

    Raises DegeneratePoint where the closed forms divide by zero:
    |sinh(theta)| <= SINH_GUARD or |gamma| <= GAMMA_GUARD.
    """
    w = spec.window
    values = (m.gamma[w], m.delta[w], m.Delta[w], spec.theta, spec.theta_star)
    if idx is not None:
        values = tuple(x[idx] for x in values)
    gamma, theta = np.atleast_1d(values[0]), np.atleast_1d(values[3])
    small = (np.abs(np.sinh(theta)) <= SINH_GUARD) | (np.abs(gamma) <= GAMMA_GUARD)
    guard(small, lambda i: DegeneratePoint(
        f"closed forms degenerate at window sample {i if idx is None else idx}: "
        f"gamma = {gamma[i]:.3e}, theta = {theta[i]:.6g}"))
    return values


def offset_closed_forms(m: RuledSurfaceModel, spec: OffsetSpec, idx: int) -> dict:
    """Formula bundle at one window sample (floats keyed like the report rows)."""
    raw = _formula_fields(*_closed_form_inputs(m, spec, idx))
    out = {}
    for k, v in raw.items():
        if isinstance(v, DualScalar):
            out[k] = DualScalar(float(v.re), float(v.du))
        else:
            out[k] = float(v)
    return out


def consistency_report(m: RuledSurfaceModel, spec: OffsetSpec, offset: OffsetModel,
                       tol: float = 1e-3) -> OffsetReport:
    """Adjudicate every closed-form offset identity against the oracle.

    Residuals are absolute; `arc_rate` compares magnitudes and
    `arc_rate_dual` is compared up to one global orientation sign. A key is
    CONFIRMED when its max residual stays within tol, else DISCREPANT.
    """
    if offset.source_model is not m or offset.spec is not spec:
        raise MismatchedInputs("report inputs must be the model/spec pair the offset was built from")
    gamma, delta, Delta, theta, theta_star = _closed_form_inputs(m, spec)
    F = _formula_fields(gamma, delta, Delta, theta, theta_star)

    ds1 = offset.ds1_ds
    arc_dual_oracle = DualScalar(ds1, ds1 * (Delta - offset.Delta1))
    oracle = {
        "arc_rate": np.abs(ds1),
        "arc_rate_dual": arc_dual_oracle,
        "conical_curvature": offset.gamma1,
        "conical_curvature_dual_re": offset.gamma1_bar.re,
        "conical_curvature_dual_du": offset.gamma1_bar.du,
        "drift": offset.delta1,
        "dist_param_rate_route": offset.Delta1,
        "dist_param_det_route": offset.Delta1,
        "curvature_radius_re": offset.R1_bar.re,
        "curvature_radius_du": offset.R1_bar.du,
        "sph_radius_cosh_re": offset.rho1_cosh.re,
        "sph_radius_cosh_du": offset.rho1_cosh.du,
        "sph_radius_sinh": offset.rho1_sinh.re,
        "sph_radius_sinh_du": offset.rho1_sinh.du,
        "sph_radius_shift": offset.rho1_star,
        "offset_distance_constraint": spec.theta_star,
    }

    residuals = {}
    for key, f in F.items():
        if key == "arc_rate_dual":
            o = oracle[key]
            plus = np.maximum(np.abs(f.re - o.re), np.abs(f.du - o.du))
            minus = np.maximum(np.abs(f.re + o.re), np.abs(f.du + o.du))
            # one orientation sign for the whole window, whichever fits
            residuals[key] = plus if np.max(plus) <= np.max(minus) else minus
        else:
            residuals[key] = np.abs(f - oracle[key])

    max_residual = {k: float(np.max(v)) for k, v in residuals.items()}
    mean_residual = {k: float(np.mean(v)) for k, v in residuals.items()}
    verdicts = {k: ("CONFIRMED" if max_residual[k] <= tol else "DISCREPANT")
                for k in residuals}
    return OffsetReport(
        s=spec.s, theta=spec.theta, theta_star=spec.theta_star,
        oracle=oracle, formulas=F, residuals=residuals,
        max_residual=max_residual, mean_residual=mean_residual, verdicts=verdicts,
        striction_shift={
            "along_director": offset.striction_shift_e,
            "along_tangent": offset.striction_shift_t,
            "along_normal": offset.striction_shift_g,
        },
        mannheim_real_max=float(np.max(offset.mannheim_real_residual)),
        mannheim_dual_max=float(np.max(offset.mannheim_dual_residual)),
        tol=float(tol),
    )


def developability_predicates(m: RuledSurfaceModel, spec: OffsetSpec, idx: int,
                              tol: float = 1e-6) -> dict:
    """Developability conditions at one window sample.

    Flags: base surface developable; offset developable (distance matches
    -(delta/gamma) tanh(theta), target exposed); base and offset jointly
    developable (theta_star = delta, both locally constant); conical
    curvature matching -tanh(theta).
    """
    gamma, delta, Delta, theta, theta_star = _closed_form_inputs(m, spec, idx)
    ddelta = grid_derivative(m.s_grid, m.delta)[spec.window][idx]
    target = -(delta / gamma) * np.tanh(theta)
    return {
        "base_developable": bool(abs(Delta) <= tol),
        "offset_developable": bool(abs(theta_star - target) <= tol),
        "offset_developable_target": float(target),
        "joint_developable": bool(
            abs(theta_star - delta) <= tol and abs(Delta) <= tol and abs(ddelta) <= tol
        ),
        "gamma_matches_neg_tanh": bool(abs(gamma + np.tanh(theta)) <= tol),
    }


def transfer_derivative_components(m: RuledSurfaceModel, spec: OffsetSpec) -> dict:
    """Components of d(e1_dual)/ds_bar along the base dual frame.

    The Mannheim angle law is equivalent to this derivative being parallel
    to the central normal line: components along the director and tangent
    must vanish. Returned as DualScalar arrays keyed by frame leg.
    """
    e_d, t_d, g_d = _window_frame(m, spec)
    de1 = _d_ds_bar(_dual_fd(transfer_dual_director(m, spec), spec.s), m.Delta[spec.window])
    return {
        "along_director": -1.0 * dinner(de1, e_d),
        "along_tangent": dinner(de1, t_d),
        "along_normal": dinner(de1, g_d),
    }
