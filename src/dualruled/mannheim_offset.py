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
disagreement are both findings; the report never reconciles them. The
paper's developability conditions are evaluated at every window sample from
the same inputs as the closed forms. Every function here works on the whole
window; none evaluates a single sample. An OffsetSpec checks its window once,
when it is made: theta may not reach 0 on it. A degeneracy inside the rebuild
is raised as its own class, prefixed "offset: ", and counts window samples;
a stall, caught by the kernel's one guard, as DegenerateOffsetIndicatrix.

Orientation gauge: the oracle reads its traversal from the tilted lines
alone. It walks the offset indicatrix so that e1' points against the base
central normal g at the window's middle sample. For e1 = cosh(theta) e +
sinh(theta) t with theta' = -1 the frame equations give e1' = gamma
sinh(theta) g, so the arc length runs against gamma*sinh(theta)
(ds1/ds = -gamma*sinh(theta)) and the recovered tangent is t1 = -g. Every
residual is taken in this one gauge, with no sign search: the Mannheim
residuals measure t1 + g and its line, and a formula whose sign disagrees
with the oracle reads DISCREPANT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual_algebra import DualScalar, dual_cosh, dual_sinh
from .dual_lorentz import DualVec3, _frame_line, decode_line_point
from .errors import (
    DegeneracyError,
    DegenerateIndicatrix,
    DegenerateLine,
    DegenerateOffsetIndicatrix,
    DegeneratePoint,
    DegenerateWindow,
    GridTooCoarse,
    MismatchedInputs,
    ValidationError,
    guard,
)
from .minkowski3 import enorm, lcross, linner
from .numerics import MIN_SAMPLES, grid_step, require_squarable, stencil_rows
from .surface_kernel import (
    DEVELOPABLE_TOL,
    DualApparatus,
    RuledSurfaceModel,
    _curvature_elements,
    _darboux_fields,
    _gamma_bar,
)

SINH_GUARD = 1e-6
VERDICT_TOL = 1e-3  # max residual at or below this: CONFIRMED
GAMMA_GUARD = 1e-6


@dataclass(frozen=True)
class OffsetSpec:
    """Offset angle law for one base model on a working window, the slice
    `window` of the model's grid; checked once, when the spec is made."""

    c_const: float
    cstar_const: float
    s: np.ndarray
    theta: np.ndarray
    theta_star: np.ndarray
    window: slice
    source_model: RuledSurfaceModel

    def __post_init__(self):
        # theta = 0 at a sample or between two kills the offset: the window's theta
        # range must miss the band |sinh(theta)| <= SINH_GUARD. No sinh is taken, so
        # a huge |theta| cannot overflow; transfer_dual_director refuses its director
        theta, band = self.theta, np.arcsinh(SINH_GUARD)

        def crossing(_):
            i = np.argmin(np.abs(theta))
            return DegenerateWindow(
                f"theta = 0 crossing: sinh(theta) = {np.sinh(theta[i]):.3e} near s = "
                f"{self.s[i]:.6g}; shrink the window or change the angle constant")

        guard(min(band - theta.min(), theta.max() + band), crossing)


@dataclass
class OffsetModel:
    """Oracle reconstruction of a Mannheim offset, sampled at the base grid; the
    rebuilt frame t1, g1 enters the Mannheim residuals and is not kept, and the
    tilted dual director e1_dual and the striction shift are taken again from
    the spec when read."""

    s1_grid: np.ndarray
    ds1_ds: np.ndarray
    orientation: int
    c1: np.ndarray
    gamma1: np.ndarray
    delta1: np.ndarray
    Delta1: np.ndarray
    apparatus1: DualApparatus  # the offset's curvature elements
    rho1_star: np.ndarray
    mannheim_real_residual: np.ndarray
    mannheim_dual_residual: np.ndarray
    spec: OffsetSpec

    @property
    def e1_dual(self) -> DualVec3:
        """The tilted dual director the offset was rebuilt from."""
        return transfer_dual_director(self.spec)

    @property
    def striction_shift(self) -> dict:
        """Offset minus base striction point, by direction of the base frame."""
        m, w = self.spec.source_model, self.spec.window
        v = self.c1 - m.c[w]
        return {"along_director": -linner(v, m.e[w]), "along_tangent": linner(v, m.t[w]),
                "along_normal": linner(v, m.g[w])}


@dataclass
class OffsetReport:
    """Adjudication of the closed-form offset identities: the formulas per sample,
    and each key's largest and mean residual and its verdict. Everything else is
    taken again from the offset when read: the window and its theta*, the largest
    real Mannheim residual (the dual ones stay on the offset), the oracle values
    and the per-sample residuals. The derived arrays follow the offset as it is
    when they are read; the maxima, means and verdicts, as it was when the report
    was made."""

    formulas: dict
    max_residual: dict
    mean_residual: dict
    verdicts: dict
    offset: OffsetModel

    @property
    def s(self) -> np.ndarray:
        return self.offset.spec.s

    @property
    def theta_star(self) -> np.ndarray:
        return self.offset.spec.theta_star

    @property
    def mannheim_real_max(self) -> float:
        return float(np.max(self.offset.mannheim_real_residual))

    @property
    def oracle(self) -> dict:
        """The oracle's value of each formula key, per window sample."""
        return _oracle_fields(self.offset)


def offset_angle_profile(m: RuledSurfaceModel, c_const: float, cstar_const: float,
                         window: tuple) -> OffsetSpec:
    """Mannheim angle law on a model, theta_bar = c_bar - s_bar: theta = c - s and
    theta_star = c* + int(Delta ds).

    The distance integral is anchored at the model's grid origin, as `m.s_bar`
    is, so theta_bar is taken on the whole grid; the spec keeps copies of its
    window, not views that would hold the whole grid's arrays. `window` is the
    working range [lo, hi] in s, which may overhang the model's s range by less
    than one grid step; (m.s_grid[0], m.s_grid[-1]) is the whole model. A window
    where theta reaches 0 raises DegenerateWindow.
    """
    s_full = m.s_grid
    theta_bar = DualScalar(c_const, cstar_const) - m.s_bar
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValidationError(f"window must be [lo, hi] with lo < hi, got [{lo}, {hi}]")
    # an end a whole step past the grid would hold a sample the grid lacks; a
    # shorter overhang (bounds snapped to mid-cell, quadrature error in s) clips nothing
    if lo <= s_full[0] - m.h or hi >= s_full[-1] + m.h:
        raise ValidationError(
            f"window [{lo}, {hi}] reaches past the model's s range "
            f"[{s_full[0]:.12g}, {s_full[-1]:.12g}]"
        )
    lo_i = int(np.searchsorted(s_full, lo - 1e-12, side="left"))
    hi_i = int(np.searchsorted(s_full, hi + 1e-12, side="right"))
    if hi_i - lo_i < MIN_SAMPLES:
        raise GridTooCoarse(
            f"window [{lo}, {hi}] holds {hi_i - lo_i} samples; need {MIN_SAMPLES}"
        )
    w = slice(lo_i, hi_i)
    return OffsetSpec(
        c_const=float(c_const), cstar_const=float(cstar_const), s=s_full[w],
        theta=theta_bar.re[w].copy(), theta_star=theta_bar.du[w].copy(), window=w, source_model=m,
    )


def transfer_dual_director(spec: OffsetSpec) -> DualVec3:
    """Tilt the base ruling lines by the dual angle: e1 = cosh(tb) e + sinh(tb) t.

    Raises ValidationError at the first window sample where a large |theta|
    or |theta_star| gives the tilted director or its moment an entry whose
    square is not finite.
    """
    m, w = spec.source_model, spec.window
    e_d, t_d = (_frame_line(m.c[w], x[w]) for x in (m.e, m.t))
    theta_bar = DualScalar(spec.theta, spec.theta_star)
    # an overflowing cosh or sinh leaves inf or nan entries, which require_squarable names
    with np.errstate(over="ignore", invalid="ignore"):
        e1 = dual_cosh(theta_bar) * e_d + dual_sinh(theta_bar) * t_d
    require_squarable("offset", director=e1.re, moment=e1.du)
    return e1


def construct_offset(m: RuledSurfaceModel, spec: OffsetSpec) -> OffsetModel:
    """Reconstruct the offset surface from its ruling lines alone.

    The tilted dual director is decoded to a point curve, and the full
    Darboux apparatus of the offset is rebuilt numerically. No closed-form
    offset identity or stored invariant enters; its outputs are the oracle.
    """
    if spec.source_model is not m:
        raise MismatchedInputs("spec was built for a different model")
    w = spec.window
    s = m.s_grid[w]
    g, c = m.g[w], m.c[w]
    e1_dual = transfer_dual_director(spec)
    # the surface's stride, capped at the widest whose one-sided rows (5k samples) fit
    h, k = grid_step(s), min(m.k, len(s) // 5)
    # traverse so that e1' runs against g: the Mannheim frame lands on t1 = -g
    mid = len(s) // 2
    orient = -1 if linner(stencil_rows(e1_dual.re, h, mid, mid + 1, k)[0], g[mid]) > 0 else 1
    back = slice(None, None, orient)
    try:
        pts = decode_line_point(e1_dual, DegenerateLine)
        e1 = e1_dual.re
        del e1_dual  # its moments go once the points are decoded
        # the reflected grid -s[::-1] has the bits of the step of s
        fields = _darboux_fields(orient * s[back], e1[back], pts[back], h, k,
                                 range(len(s))[back])
        del e1, pts
        gamma1, delta1, Delta1, s1_grid, sigma1, t1, c1 = (
            fields[name][back] for name in ("gamma", "delta", "Delta", "s", "sigma", "t", "c"))
        del fields  # the rebuild's e and g, which nothing reads, go with it
        apparatus1 = _curvature_elements(gamma1, delta1, Delta1)
        rho1_sinh = apparatus1.rho_sinh.re
        guard(rho1_sinh == 0.0, lambda i: DegenerateOffsetIndicatrix(
            f"gamma = 0 at sample {i}: sinh(rho) = 0 leaves rho* undefined"))
    except DegeneracyError as exc:
        cls = DegenerateOffsetIndicatrix if isinstance(exc, DegenerateIndicatrix) else type(exc)
        raise cls(f"offset: {exc}") from exc

    # back to the window's order; only the kept c1 is copied column-major again
    c1 = np.asfortranarray(c1)
    return OffsetModel(
        s1_grid=s1_grid, ds1_ds=orient * sigma1, orientation=orient,
        c1=c1, gamma1=gamma1, delta1=delta1, Delta1=Delta1,
        apparatus1=apparatus1, rho1_star=apparatus1.rho_cosh.du / rho1_sinh,
        mannheim_real_residual=enorm(t1 + g),
        mannheim_dual_residual=enorm(lcross(c1, t1) + lcross(c, g)),
        spec=spec,
    )


def _formula_fields(gamma, delta, Delta, theta, theta_star) -> dict:
    """Closed-form offset quantities, evaluated verbatim from base data.

    K is the shared bracket of the dual-part formulas. No reconciliation
    happens here.
    """
    sinh, cosh = np.sinh(theta), np.cosh(theta)
    coth = cosh / sinh
    neg_coth = -coth  # one array for the two keys that read -coth
    K = (delta - theta_star) * coth + Delta * (1.0 + coth * coth)
    out = {
        "arc_rate": np.abs(gamma * sinh),
        "arc_rate_dual": DualScalar(
            gamma * sinh, gamma * theta_star * cosh + _gamma_bar(gamma, delta, Delta).du * sinh
        ),
        "conical_curvature": neg_coth,
        "conical_curvature_dual_re": neg_coth,
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


def _closed_form_inputs(spec: OffsetSpec) -> tuple:
    """Base (gamma, delta, Delta, theta, theta_star) on the spec's window.

    Raises DegeneratePoint where the closed forms divide by zero at
    |gamma| <= GAMMA_GUARD; the spec itself keeps sinh(theta) off zero.
    """
    m, w = spec.source_model, spec.window
    gamma, theta = m.gamma[w], spec.theta
    guard(np.abs(gamma) <= GAMMA_GUARD, lambda i: DegeneratePoint(
        f"closed forms degenerate at window sample {i}: "
        f"gamma = {gamma[i]:.3e}, theta = {theta[i]:.6g}"))
    return gamma, m.delta[w], m.Delta[w], theta, spec.theta_star


def consistency_report(m: RuledSurfaceModel, spec: OffsetSpec, offset: OffsetModel) -> OffsetReport:
    """Adjudicate every closed-form offset identity against the oracle.

    Residuals are absolute and taken in the oracle's gauge; `arc_rate`
    compares magnitudes, and `arc_rate_dual` holds the formula against minus
    the oracle, as ds1/ds = -gamma*sinh(theta) there. A key is CONFIRMED when
    its max residual stays within VERDICT_TOL, else DISCREPANT.
    """
    if offset.spec is not spec or spec.source_model is not m:
        raise MismatchedInputs("report inputs must be the model/spec pair the offset was built from")
    F = _formula_fields(*_closed_form_inputs(spec))
    oracle = _oracle_fields(offset)
    # each key's residual is let go once its max and mean are taken
    max_residual, mean_residual = {}, {}
    for k, f in F.items():
        r = _residual(k, f, oracle[k])
        max_residual[k], mean_residual[k] = float(np.max(r)), float(np.mean(r))
    verdicts = {k: ("CONFIRMED" if max_residual[k] <= VERDICT_TOL else "DISCREPANT")
                for k in F}
    return OffsetReport(formulas=F, max_residual=max_residual, mean_residual=mean_residual,
                        verdicts=verdicts, offset=offset)


def _oracle_fields(offset: OffsetModel) -> dict:
    """The rebuild's value of each formula key on the spec's window."""
    spec = offset.spec
    Delta = spec.source_model.Delta[spec.window]
    ds1, a1 = offset.ds1_ds, offset.apparatus1
    rho1_cosh, rho1_sinh = a1.rho_cosh, a1.rho_sinh
    arc_dual_oracle = DualScalar(ds1, ds1 * (Delta - offset.Delta1))
    return {
        "arc_rate": np.abs(ds1),
        "arc_rate_dual": arc_dual_oracle,
        "conical_curvature": offset.gamma1,
        "conical_curvature_dual_re": a1.gamma_bar.re,
        "conical_curvature_dual_du": a1.gamma_bar.du,
        "drift": offset.delta1,
        "dist_param_rate_route": offset.Delta1,
        "dist_param_det_route": offset.Delta1,
        "curvature_radius_re": a1.R_bar.re,
        "curvature_radius_du": a1.R_bar.du,
        "sph_radius_cosh_re": rho1_cosh.re,
        "sph_radius_cosh_du": rho1_cosh.du,
        "sph_radius_sinh": rho1_sinh.re,
        "sph_radius_sinh_du": rho1_sinh.du,
        "sph_radius_shift": offset.rho1_star,
        "offset_distance_constraint": spec.theta_star,
    }


def formula_residuals(formulas: dict, oracle: dict) -> dict:
    """Each formula key's absolute residual against its oracle value, per sample."""
    return {k: _residual(k, f, oracle[k]) for k, f in formulas.items()}


def _residual(key: str, formula, oracle) -> np.ndarray:
    """Absolute residual of one formula key against its oracle value, per sample."""
    if key == "arc_rate_dual":
        # in the gauge ds1/ds = -gamma*sinh(theta), the formula is minus the oracle
        return np.maximum(np.abs(formula.re + oracle.re), np.abs(formula.du + oracle.du))
    return np.abs(formula - oracle)


def developability_predicates(spec: OffsetSpec) -> dict:
    """Developability conditions at every window sample, as per-sample arrays.

    Flags: base surface developable; offset developable (distance matches
    -(delta/gamma) tanh(theta), target exposed); base and offset jointly
    developable (theta_star = delta, both locally constant); conical
    curvature matching -tanh(theta). Equal means within DEVELOPABLE_TOL.
    """
    gamma, delta, Delta, theta, theta_star = _closed_form_inputs(spec)
    m, w = spec.source_model, spec.window
    ddelta = stencil_rows(m.delta, m.h, w.start, w.stop, m.k)
    target = -(delta / gamma) * np.tanh(theta)
    tol = DEVELOPABLE_TOL
    return {
        "base_developable": np.abs(Delta) <= tol,
        "offset_developable": np.abs(theta_star - target) <= tol,
        "offset_developable_target": target,
        "joint_developable": ((np.abs(theta_star - delta) <= tol) & (np.abs(Delta) <= tol)
                              & (np.abs(ddelta) <= tol)),
        "gamma_matches_neg_tanh": np.abs(gamma + np.tanh(theta)) <= tol,
    }
