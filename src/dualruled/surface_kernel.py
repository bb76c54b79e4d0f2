"""Darboux apparatus of timelike ruled surfaces.

A surface is swept by a timelike unit director e along a base curve p. The
kernel recovers the striction curve c (the tightest base curve), the frame
{e, t, g} with t = de/ds and g = -e x t, and the three scalar invariants:
gamma (conical curvature: rotation speed of the frame about the ruling),
delta (drift: striction motion along the ruling), Delta (distribution
parameter; zero exactly on developables).

Numerically, every derivative is taken on the caller's pristine uniform
grid in the original parameter, at the stride `_darboux_fields` sets from
its length, and converted to arc-length derivatives by the chain rule.
Only after all invariants exist are the fields resampled onto the uniform
arc-length grid the model promises. Interpolating first and
differentiating the interpolant would amplify the interpolation error by
1/h per derivative order, which is fatal for reconstructed curves with
large moments; values, by contrast, survive resampling at full accuracy.
The resampler is cubic Hermite whose slopes are the frame equations
themselves, so a resampled model obeys its own ODEs to 4th order:
re-differentiating its fields on its own grid gives residuals that fall
about 16x per 4x samples until rounding takes over.

Each grid is checked once: the step comes from `numerics.grid_step`, and
every derivative from the one stencil kernel, `numerics.stencil_rows`. A
model checks its arc-length grid when it is made and carries the step as
`h`, so a model whose grid is not uniform, or shorter than MIN_SAMPLES,
never exists, and every reader of the model grid takes `m.h`. The
residual checks (`frame_residuals`, `dual_frame_residuals`) run in row
blocks of at most ROW_BLOCK samples, split evenly, so a model of up to
ROW_BLOCK samples is one block. A block asks the kernel for its own rows,
and the dual check builds its frame lines (x, c x x) only on the block and
the two rows on each side that its stencils read. Every per-sample value
is the one the whole-array expression gives, and the per-block maxima
combine exactly, so each returned value is the whole-array maximum bit for
bit. The blocks keep every temporary small enough for the allocator to
reuse it, instead of faulting tens of MB of fresh pages in per call.

A `DualApparatus` is the curvature-element record of any surface, the base
or its Mannheim offset: `_curvature_elements` makes it from (gamma, delta,
Delta), and `dual_apparatus(m)` is that one call on a model's invariants.
The dual arc length is the model's own (`RuledSurfaceModel.s_bar`). The
kind of each sample's Darboux axis is stored once, as the boolean mask
`timelike_axis` (1 byte a sample). Its labels, TIMELIKE_AXIS and
SPACELIKE_AXIS, are 52 bytes a sample as a '<U13' array, so they are
spelled from the mask only when `darboux_branch` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dual_algebra import DualScalar, apply_function
from .dual_lorentz import DualVec3, _frame_line, decode_line_point, dnorm
from .errors import (
    DegenerateIndicatrix,
    DegenerateLine,
    FrameDriftExceeded,
    GammaOutOfRange,
    MismatchedInputs,
    NotTimelikeDirector,
    NullDarbouxAxis,
    guard,
)
from .minkowski3 import det3, enorm, lcross, linner
from .numerics import (
    SampledCurve,
    cumulative_simpson,
    grid_step,
    hermite,
    require_squarable,
    stencil_rows,
)

TIMELIKE_AXIS = "TimelikeAxis"
SPACELIKE_AXIS = "SpacelikeAxis"

NULL_AXIS_GUARD = 1e-6
DRIFT_TOL = 1e-4
DEVELOPABLE_TOL = 1e-6  # |Delta| (or |delta|) at or below this counts as zero
STALL_FLOOR = 1e-16  # <e',e'> at or below this: the indicatrix stalls (speed <= 1e-8)
ROW_BLOCK = 16384  # most rows per block of the residual checks


@dataclass(frozen=True)
class RuledSurfaceModel:
    """Sampled Darboux data of one timelike ruled surface on a uniform arc-length
    grid; h is the grid's step, checked once when the model is made."""

    s_grid: np.ndarray
    e: np.ndarray
    t: np.ndarray
    g: np.ndarray
    c: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    Delta: np.ndarray
    h: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "h", grid_step(self.s_grid))

    def __len__(self):
        return len(self.s_grid)

    @property
    def s_bar(self) -> DualScalar:
        """Dual arc length s_bar = s - eps int(Delta ds), anchored at the grid origin."""
        return DualScalar(self.s_grid, -cumulative_simpson(self.Delta, self.h))


@dataclass(frozen=True)
class DualApparatus:
    """Curvature elements of one surface, base or offset: dual conical curvature,
    curvature radius, the (cosh, sinh) pair of the dual spherical radius, and
    where the Darboux axis is timelike (|gamma_bar| > 1)."""

    gamma_bar: DualScalar
    R_bar: DualScalar
    rho_cosh: DualScalar
    rho_sinh: DualScalar
    timelike_axis: np.ndarray

    @property
    def darboux_branch(self) -> np.ndarray:
        """The axis kind of each sample as a label, spelled from timelike_axis."""
        return np.where(self.timelike_axis, TIMELIKE_AXIS, SPACELIKE_AXIS)


def _renormalize_director(e: np.ndarray, at) -> np.ndarray:
    q = linner(e, e)
    guard(q >= -1e-12, lambda i: NotTimelikeDirector(
        f"director sample {at[i]} is not timelike: <e,e> = {q[i]:.3e} (need < 0)"))
    return e / np.sqrt(-q)[:, None]


def _darboux_fields(u: np.ndarray, e_raw: np.ndarray, p_raw: np.ndarray, h: float,
                    samples=None) -> dict:
    """Frame and invariants per input sample, derivatives via chain rule.

    u is a uniform grid, h its step (`grid_step(u)`) and k the stencil stride (1
    up to 1500 samples), returned as 'h' and 'k'. All fields are indexed by the
    input grid; 'sigma' is the indicatrix speed |de/du| and 's' the running arc
    length (origin u[0]). The two input curves are copied column-major here unless
    they already are, so every N x 3 field downstream is too (numpy's elementwise
    operations keep their operands' layout). An error names a sample by its entry
    in `samples`, the caller's numbering (by default the input's own order).
    """
    at = range(len(u)) if samples is None else samples
    e = _renormalize_director(np.asfortranarray(e_raw, dtype=float), at)
    # kh ~ 1e-3 of the range: rounding grows like eps/(kh)^d in a d-th derivative. Divisor 4000 left
    # gamma1 misses of 1.2e-3, 2.8e-3 (benchmark seeds 1, 2, n = 16384); 500 moves N = 1024 (k = 2)
    k = max(1, round((len(u) - 1) / 1000))
    de = stencil_rows(e, h, k=k)
    sig2 = linner(de, de)

    def stalled(i):
        value = f"(<e',e'> = {sig2[i]:.3e})"
        if sig2[i] < -1e-12:
            return FrameDriftExceeded(f"indicatrix tangent is not spacelike at sample {at[i]} {value}")
        return DegenerateIndicatrix(f"indicatrix speed vanishes at sample {at[i]} {value}")

    guard(sig2 <= STALL_FLOOR, stalled)
    sigma = np.sqrt(sig2)
    t = de / sigma[:, None]
    et = linner(e, t)
    guard(np.abs(et) - DRIFT_TOL, lambda i: FrameDriftExceeded(
        f"<e,t> = {et[i]:.3e} at sample {at[i]} exceeds {DRIFT_TOL:.0e}"))
    g = -lcross(e, t)
    p = np.asfortranarray(p_raw, dtype=float)
    dp = stencil_rows(p, h, k=k)
    lam = -linner(dp, de) / sig2
    c = p + lam[:, None] * e
    dt_ds = stencil_rows(t, h, k=k) / sigma[:, None]
    gamma = linner(dt_ds, g)
    dc_ds = stencil_rows(c, h, k=k) / sigma[:, None]
    delta = linner(dc_ds, e)
    Delta = det3(dc_ds, e, t)
    s = u[0] + cumulative_simpson(sigma, h)
    return {
        "u": np.asarray(u, dtype=float), "h": h, "k": k, "s": s, "sigma": sigma,
        "e": e, "t": t, "g": g, "c": c,
        "gamma": gamma, "delta": delta, "Delta": Delta,
    }


def _model_from_fields(fields: dict) -> RuledSurfaceModel:
    """Resample chain-rule fields onto the uniform arc-length grid.

    Cubic Hermite in u. Frame slopes come from the frame equations times
    sigma = ds/du (de/ds = t, dt/ds = e + gamma g, dc/ds = -delta e + Delta g),
    scalar slopes from the grid at its stride, so the resampled frame obeys its own ODEs.
    The map u(s) onto the uniform s grid is cubic Hermite too, with the exact
    slopes du/ds = 1/sigma, clipped to the input range.
    """
    u, s = fields["u"], fields["s"]
    s_uniform = np.linspace(s[0], s[-1], len(u))
    u_at_s = np.clip(hermite(s, s_uniform)(u, 1.0 / fields["sigma"]), u[0], u[-1])
    at = hermite(u, u_at_s)  # one basis for all six fields
    e, t, g = fields["e"], fields["t"], fields["g"]
    gamma, delta, Delta = (fields[k][:, None] for k in ("gamma", "delta", "Delta"))

    def resample(name, df_ds=None):
        f, sigma = fields[name], fields["sigma"][:, None]
        df = stencil_rows(f, fields["h"], k=fields["k"]) if df_ds is None else sigma * df_ds
        return at(f, df)

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
    timelike magnitude; they are renormalized per sample. Every entry of
    both must square to a finite number, as every Lorentz product squares it.
    """
    if not np.array_equal(director.params, base.params):
        raise MismatchedInputs("director and base curve must share one parameter grid")
    require_squarable("sampled", director=director.values, base=base.values)
    u = director.params
    fields = _darboux_fields(u, director.values, base.values, grid_step(u))
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
    # each field is stacked as 3 rows and transposed: column-major, like every field
    with np.errstate(over="ignore", invalid="ignore"):  # require_squarable names the sample
        ch, sh = np.cosh(k * s), np.sinh(k * s)
        e = np.stack([A * ch, A * sh, B * ones]).T
        t = np.stack([sh, ch, zeros]).T
        g = np.stack([B * ch, B * sh, A * ones]).T
        alpha = -delta0 * A + Delta0 * B
        beta = -delta0 * B + Delta0 * A
        c = (alpha / k) * np.stack([sh, ch - 1.0, zeros]).T + beta * np.stack([zeros, zeros, s]).T
    require_squarable("constant_invariant", e=e, t=t, g=g, c=c)
    return RuledSurfaceModel(
        s_grid=s, e=e, t=t, g=g, c=c,
        gamma=np.full_like(s, gamma0), delta=np.full_like(s, delta0),
        Delta=np.full_like(s, Delta0),
    )


def _gamma_bar(gamma, delta, Delta) -> DualScalar:
    """Dual conical curvature gamma_bar = gamma + eps(delta + gamma Delta)."""
    return DualScalar(gamma, delta + gamma * Delta)


def _curvature_elements(gamma, delta, Delta) -> DualApparatus:
    """The DualApparatus of invariants (gamma, delta, Delta): gamma_bar, curvature
    radius and (cosh, sinh) spherical-radius pair.

    Branch splits on |gamma| vs 1: the Darboux axis is timelike outside the
    unit band, spacelike inside.
    """
    gamma_bar = _gamma_bar(gamma, delta, Delta)
    gre = gamma_bar.re
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
    return DualApparatus(gamma_bar, R, C, S, timelike)


def dual_frame(m: RuledSurfaceModel):
    """Line coordinates of the moving frame: x -> (x, c x x)."""
    return tuple(_frame_line(m.c, x) for x in (m.e, m.t, m.g))


def dual_apparatus(m: RuledSurfaceModel) -> DualApparatus:
    """Curvature elements of the model's surface."""
    return _curvature_elements(m.gamma, m.delta, m.Delta)


def classify(m: RuledSurfaceModel) -> dict:
    """Developability flags: Delta == 0 flattens; adding delta == 0 gives a cone."""
    developable = bool(np.max(np.abs(m.Delta)) <= DEVELOPABLE_TOL)
    cone = developable and bool(np.max(np.abs(m.delta)) <= DEVELOPABLE_TOL)
    return {"developable": developable, "cone": cone}


def _row_blocks(n: int) -> list:
    """Bounds (a, b) of the fewest near-equal row blocks of at most ROW_BLOCK rows."""
    k = -(-n // ROW_BLOCK)
    return [(n * i // k, n * (i + 1) // k) for i in range(k)]


def _block_maxima(blocks: list) -> dict:
    """Per-key maximum over the blocks' dicts of maxima. np.max keeps a NaN, as the
    maximum over the whole array does, so every value is that maximum's."""
    return {key: float(np.max([block[key] for block in blocks])) for key in blocks[0]}


def frame_residuals(m: RuledSurfaceModel) -> dict:
    """Max residuals of the frame ODEs and striction properties on the model grid.

    On reparameterized input the ODE residuals carry the 4th-order resampling
    error (about 16x smaller per 4x samples); see the module docstring.
    """
    return _block_maxima([_frame_block(m, a, b) for a, b in _row_blocks(len(m))])


def _frame_block(m: RuledSurfaceModel, a: int, b: int) -> dict:
    e, t, g = m.e[a:b], m.t[a:b], m.g[a:b]
    gamma, delta, Delta = (x[a:b, None] for x in (m.gamma, m.delta, m.Delta))
    de, dt, dg, dc = (stencil_rows(x, m.h, a, b) for x in (m.e, m.t, m.g, m.c))

    def mx(v):
        return np.max(enorm(v))
    return {
        "unit_director": np.max(np.abs(linner(e, e) + 1.0)),
        "unit_tangent": np.max(np.abs(linner(t, t) - 1.0)),
        "unit_normal": np.max(np.abs(linner(g, g) - 1.0)),
        "orthogonality": np.max(np.abs([linner(e, t), linner(e, g), linner(t, g)])),
        "frame_closure": mx(g + lcross(e, t)),
        "director_ode": mx(de - t),
        "tangent_ode": mx(dt - e - gamma * g),
        "normal_ode": mx(dg + gamma * t),
        "striction": np.max(np.abs(linner(dc, t))),
        "striction_decomposition": mx(dc + delta * e - Delta * g),
    }


def _dual_fd(x: DualVec3, h: float, rows: slice) -> DualVec3:
    return DualVec3(stencil_rows(x.re, h, rows.start, rows.stop),
                    stencil_rows(x.du, h, rows.start, rows.stop))


def _d_ds_bar(dx_ds: DualVec3, Delta: np.ndarray) -> DualVec3:
    """d/ds -> d/ds_bar: ds_bar = (1 - eps Delta) ds, whose reciprocal is (1, Delta),
    so x' becomes (x', x'* + Delta x')."""
    return DualVec3(dx_ds.re, dx_ds.du + Delta[:, None] * dx_ds.re)


def _dual_vec_norms(x: DualVec3) -> float:
    return max(float(np.max(enorm(x.re))), float(np.max(enorm(x.du))))


def dual_frame_residuals(m: RuledSurfaceModel) -> dict:
    """Residuals of the dual frame ODEs, differentiating in dual arc length."""
    return _block_maxima([_dual_frame_block(m, a, b) for a, b in _row_blocks(len(m))])


def _dual_frame_block(m: RuledSurfaceModel, a: int, b: int) -> dict:
    # the frame lines are built on the block and the two rows on each side
    # that its stencils read; `rows` is the block within them
    lo, hi = max(a - 2, 0), min(b + 2, len(m))
    rows = slice(a - lo, b - lo)
    e_l, t_l, g_l = (_frame_line(m.c[lo:hi], x[lo:hi]) for x in (m.e, m.t, m.g))
    e_d, t_d, g_d = (DualVec3(x.re[rows], x.du[rows]) for x in (e_l, t_l, g_l))
    Delta = m.Delta[a:b]
    gamma_bar = _gamma_bar(m.gamma[a:b], m.delta[a:b], Delta)
    raw = _dual_fd(e_l, m.h, rows)
    de = _d_ds_bar(raw, Delta)
    dt, dg = (_d_ds_bar(_dual_fd(x, m.h, rows), Delta) for x in (t_l, g_l))
    speed = dnorm(raw, start=a)
    return {
        "director_ode": _dual_vec_norms(de - t_d),
        "tangent_ode": _dual_vec_norms(dt - e_d - gamma_bar * g_d),
        "normal_ode": _dual_vec_norms(dg + gamma_bar * t_d),
        "director_speed_re": np.max(np.abs(speed.re - 1.0)),
        "director_speed_du": np.max(np.abs(speed.du + Delta)),
    }


def study_residual(m: RuledSurfaceModel) -> float:
    """Max Euclidean distance from decoded ruling points to the model rulings."""
    q = decode_line_point(_frame_line(m.c, m.e), DegenerateLine)
    # lcross is the Euclidean cross product with two components negated, which
    # its Euclidean length does not see
    dist = enorm(lcross(q - m.c, m.e)) / enorm(m.e)
    return float(np.max(dist))
