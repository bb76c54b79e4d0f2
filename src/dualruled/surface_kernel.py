"""Darboux apparatus of timelike ruled surfaces.

A surface is swept by a timelike unit director e along a base curve p. The
kernel recovers the striction curve c (the tightest base curve), the frame
{e, t, g} with t = de/ds and g = -e x t, and the three scalar invariants:
gamma (conical curvature: rotation speed of the frame about the ruling),
delta (drift: striction motion along the ruling), Delta (distribution
parameter; zero exactly on developables).

Numerically, every derivative is taken on the caller's pristine uniform
grid in the original parameter, at the surface's stride `stride(N)`, and
converted to arc-length derivatives by the chain rule.
Only after all invariants exist are the fields resampled onto the uniform
arc-length grid the model promises. Interpolating first and
differentiating the interpolant would amplify the interpolation error by
1/h per derivative order, which is fatal for reconstructed curves with
large moments; values, by contrast, survive resampling at full accuracy.
The resampler is cubic Hermite in arc length whose slopes are the frame
equations themselves (e' = t, t' = e + gamma g, c' = -delta e + Delta g)
and, for the invariants, the stencil over sigma = ds/du, so a resampled
model obeys its own ODEs to 4th order: re-differentiating its fields on its
own grid gives residuals that fall about 16x per 4x samples until rounding
takes over.

Each grid is checked once: the step comes from `numerics.grid_step`, and
every derivative from the one stencil kernel, `numerics.stencil_rows`. A
model checks its arc-length grid when it is made and carries the step as
`h` and its stride as `k`, so a model whose grid is not uniform, or
shorter than MIN_SAMPLES, never exists, and every reader takes `m.h` and
differentiates at `m.k`, the stride its invariants were taken at.

Row blocks. Every pass over a whole field runs in the same near-equal row
blocks of at most ROW_BLOCK samples (`_row_blocks`), so a grid of up to
ROW_BLOCK samples is one block: frame recovery (`_darboux_fields`, three
passes: e; then sigma, t and c; then g, gamma, delta and Delta), the
resampler (`_model_from_fields`: each block of the arc-length grid makes
its own Hermite map and reads only the input rows it touches), and the
checks (`frame_residuals`, `dual_frame_residuals`, `study_residual`). A
block asks the stencil kernel for its own rows of a whole-length field,
which reads the 2k rows past each end (5k at an end of the grid), so
frame recovery's nested stencils reach 4k rows past a block without any
row being computed twice; the dual check builds its frame lines (x, c x
x) only on the rows its stencils read. Every per-sample value is the one
the whole-array expression gives, and the per-block maxima combine
exactly, so each output is the whole-array one bit for bit. Each guard of
these passes runs after its pass, on a whole-length vector of
the quantity it checks, in the order of the whole-array code, so it names
the sample and the value that code names (`errors.guard` names the worst
sample, not the first failing block's); a pass that a guard follows runs
under np.errstate, as rows past a failed guard may hold nan or inf. The
blocks keep every temporary small enough for the allocator to reuse it,
instead of faulting tens of MB of fresh pages in per call.

A `DualApparatus` is the curvature-element record of any surface, the base
or its Mannheim offset: `_curvature_elements` makes it from (gamma, delta,
Delta), and `dual_apparatus(m)` is that one call on a model's invariants.
The dual arc length is the model's own (`RuledSurfaceModel.s_bar`). The
kind of each sample's Darboux axis is stored once, as the boolean mask
`timelike_axis` (1 byte a sample). Its labels, TIMELIKE_AXIS and
SPACELIKE_AXIS, are 52 bytes a sample as a '<U13' array, so they are
spelled from the mask only when `darboux_branch` is read. The (cosh, sinh)
pair of the dual spherical radius is -gamma_bar R_bar or -R_bar by axis
kind, so it too is computed when read (`rho_cosh`, `rho_sinh`): the record
stores gamma_bar, R_bar and the mask, and a reader that takes both parts
of one binds it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dual_algebra import DualScalar, dual_sqrt
from .dual_lorentz import DualVec3, _frame_line, _guard_line, _line_deviations, dnorm
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
from .minkowski3 import det3, enorm, enorm2, lcross, linner
from .numerics import (
    SampledCurve,
    cumulative_simpson,
    grid_step,
    hermite,
    require_squarable,
    stencil_rows,
    stride,
)

TIMELIKE_AXIS = "TimelikeAxis"
SPACELIKE_AXIS = "SpacelikeAxis"

NULL_AXIS_GUARD = 1e-6
DRIFT_TOL = 1e-4
DEVELOPABLE_TOL = 1e-6  # |Delta| (or |delta|) at or below this counts as zero
STALL_FLOOR = 1e-16  # <e',e'> at or below this: the indicatrix stalls (speed <= 1e-8)
ROW_BLOCK = 16384  # most rows per block of every pass over a whole field


@dataclass(frozen=True)
class RuledSurfaceModel:
    """Sampled Darboux data of one timelike ruled surface on a uniform arc-length
    grid; h is its step and k its stencil stride, both set once when it is made."""

    s_grid: np.ndarray
    e: np.ndarray
    t: np.ndarray
    g: np.ndarray
    c: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    Delta: np.ndarray
    h: float = field(init=False)
    k: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "h", grid_step(self.s_grid))
        object.__setattr__(self, "k", stride(len(self.s_grid)))

    def __len__(self):
        return len(self.s_grid)

    @property
    def s_bar(self) -> DualScalar:
        """Dual arc length s_bar = s - eps int(Delta ds), anchored at the grid origin."""
        return DualScalar(self.s_grid, -cumulative_simpson(self.Delta, self.h))


@dataclass(frozen=True)
class DualApparatus:
    """Curvature elements of one surface, base or offset: dual conical curvature,
    curvature radius and where the Darboux axis is timelike (|gamma_bar| > 1).
    The (cosh, sinh) pair of the dual spherical radius is computed on read."""

    gamma_bar: DualScalar
    R_bar: DualScalar
    timelike_axis: np.ndarray

    @property
    def darboux_branch(self) -> np.ndarray:
        """The axis kind of each sample as a label, spelled from timelike_axis."""
        return np.where(self.timelike_axis, TIMELIKE_AXIS, SPACELIKE_AXIS)

    @property
    def rho_cosh(self) -> DualScalar:
        """cosh of the dual spherical radius: -gamma_bar R_bar where the axis is
        timelike, -R_bar where it is spacelike."""
        return self._radius_part(self.timelike_axis)

    @property
    def rho_sinh(self) -> DualScalar:
        """sinh of the dual spherical radius: -R_bar where the axis is timelike,
        -gamma_bar R_bar where it is spacelike."""
        return self._radius_part(~self.timelike_axis)

    def _radius_part(self, gamma_side: np.ndarray) -> DualScalar:
        """-gamma_bar R_bar where gamma_side holds, -R_bar elsewhere."""
        mgR = -self.gamma_bar * self.R_bar
        mR = -self.R_bar
        return DualScalar(np.where(gamma_side, mgR.re, mR.re), np.where(gamma_side, mgR.du, mR.du))


def _darboux_fields(u: np.ndarray, e_raw: np.ndarray, p_raw: np.ndarray, h: float, k: int,
                    samples=None) -> dict:
    """Frame and invariants per input sample, derivatives via chain rule.

    u is a uniform grid, h its step (`grid_step(u)`) and k the stencil stride the
    caller chose, returned as 'h' and 'k'. All fields are indexed by the
    input grid; 'sigma' is the indicatrix speed |de/du| and 's' the running arc
    length (origin u[0]). Every N x 3 field is column-major. An error names a
    sample by its entry in `samples`, the caller's numbering (by default the
    input's own order).

    Three passes over the row blocks: the unit director e; then sigma, t and c,
    whose stencils read e and p; then g, gamma, delta and Delta, whose stencils read
    t and c. A block's stencils read the whole-length fields of the pass before,
    so no row is computed twice, and its temporaries are block-sized. Each guard
    runs on a whole-length vector of its quantity after the pass that fills it,
    in the order of the plain expressions, so it names the sample and value they
    name; the two passes that guards follow run under np.errstate, as rows past a
    failed guard may hold nan or inf.
    """
    at = range(len(u)) if samples is None else samples
    n = len(u)
    blocks = _row_blocks(n)
    e = np.empty((n, 3), order="F")
    q, tol = np.empty(n), np.empty(n)
    with np.errstate(all="ignore"):
        for a, b in blocks:
            x = np.asarray(e_raw[a:b], dtype=float)
            q[a:b] = linner(x, x)
            # max(1e-12 min(|e|^2, 1), 2^-51 |e|^2): the rounding of <e,e> grows like 2^-53 |e|^2;
            # 1e-12 |e|^2 as 1e-12 (<e,e> + 2 e0^2), with no square or sum that can overflow
            w = 1e-12 * q[a:b] + 2e-12 * x[:, 0] * x[:, 0]
            np.maximum(np.minimum(w, 1e-12), 2.0**-51 * 1e12 * w, out=tol[a:b])
            np.divide(x, np.sqrt(-q[a:b])[:, None], out=e[a:b])

    def not_timelike(i):
        need = "0" if q[i] >= 0 else f"-max(1e-12 min(|e|^2, 1), 2^-51 |e|^2) = {-tol[i]:.3e}"
        return NotTimelikeDirector(f"director sample {at[i]} is not timelike: <e,e> = {q[i]:.3e} (need < {need})")

    guard(q >= -tol, not_timelike)
    del q, tol
    p = np.asarray(p_raw, dtype=float)
    sig2, sigma, et = np.empty(n), np.empty(n), np.empty(n)
    t, c = np.empty((n, 3), order="F"), np.empty((n, 3), order="F")
    with np.errstate(all="ignore"):
        for a, b in blocks:
            de = stencil_rows(e, h, a, b, k)
            sig2[a:b] = linner(de, de)
            np.sqrt(sig2[a:b], out=sigma[a:b])
            np.divide(de, sigma[a:b, None], out=t[a:b])
            et[a:b] = linner(e[a:b], t[a:b])
            lam = linner(stencil_rows(p, h, a, b, k), de)
            np.negative(lam, out=lam)
            lam /= sig2[a:b]
            np.add(p[a:b], lam[:, None] * e[a:b], out=c[a:b])
            del de, lam

    def stalled(i):
        value = f"(<e',e'> = {sig2[i]:.3e})"
        if sig2[i] < -1e-12:
            return FrameDriftExceeded(f"indicatrix tangent is not spacelike at sample {at[i]} {value}")
        return DegenerateIndicatrix(f"indicatrix speed vanishes at sample {at[i]} {value}")

    guard(sig2 <= STALL_FLOOR, stalled)
    guard(np.abs(et) - DRIFT_TOL, lambda i: FrameDriftExceeded(
        f"<e,t> = {et[i]:.3e} at sample {at[i]} exceeds {DRIFT_TOL:.0e}"))
    del sig2, et, p
    g, gamma, delta, Delta = np.empty((n, 3), order="F"), np.empty(n), np.empty(n), np.empty(n)
    for a, b in blocks:
        e_b, t_b, sig = e[a:b], t[a:b], sigma[a:b, None]
        np.negative(lcross(e_b, t_b), out=g[a:b])
        gamma[a:b] = linner(stencil_rows(t, h, a, b, k) / sig, g[a:b])
        dc_ds = stencil_rows(c, h, a, b, k) / sig
        delta[a:b] = linner(dc_ds, e_b)
        Delta[a:b] = det3(dc_ds, e_b, t_b)
        del dc_ds
    s = u[0] + cumulative_simpson(sigma, h)
    return {
        "h": h, "k": k, "s": s, "sigma": sigma,
        "e": e, "t": t, "g": g, "c": c,
        "gamma": gamma, "delta": delta, "Delta": Delta,
    }


def _model_from_fields(fields: dict) -> RuledSurfaceModel:
    """Resample chain-rule fields onto the uniform arc-length grid.

    Cubic Hermite in s, from the chain-rule arc lengths fields['s'] to the
    uniform grid. Frame slopes are the frame equations (de/ds = t, dt/ds = e +
    gamma g, dc/ds = -delta e + Delta g), scalar slopes the stencil at the
    grid's stride divided by sigma = ds/du, so the resampled frame obeys its
    own ODEs.

    Each row block of the s grid makes its own map and reads only the input
    rows its intervals touch; the slopes are made on those rows alone.
    `fields` is consumed: e1, t1 and c1 are resampled in this order, a pass
    over the blocks each (t1 is checked and projected in a pass of its own),
    each field leaves the dict after its last use, sigma goes after the
    scalars, and g1 is taken last, so the chain-rule fields are let go while
    the model's are made. The two guards run on whole-length vectors after the
    pass that fills them, as in `_darboux_fields`.
    """
    s, sigma = fields.pop("s"), fields.pop("sigma")
    n, h, k = len(s), fields["h"], fields["k"]
    s_uniform = np.linspace(s[0], s[-1], n)
    # (a, b, rows, at): block a:b of the grid and its map from the input rows
    maps = [(a, b, *hermite(s, s_uniform[a:b])) for a, b in _row_blocks(n)]
    del s

    def slope(rows, x, y):
        """x y on rows, column-major: the first term of a frame slope."""
        return np.multiply(x, y, out=np.empty((rows.stop - rows.start, 3), order="F"))

    e, t, g = fields["e"], fields.pop("t"), fields["g"]
    e1, drift = np.empty((n, 3), order="F"), np.empty(n)
    with np.errstate(all="ignore"):
        for a, b, rows, at in maps:
            x = at(e[rows], t[rows], e1[a:b])  # de/ds = t
            q = linner(x, x)
            drift[a:b] = np.abs(q + 1.0)
            x /= np.sqrt(-q)[:, None]
            del x, q  # each block's temporaries go before the next block's are made
    guard(drift - DRIFT_TOL, lambda i: FrameDriftExceeded(
        f"director norm drifted by {drift[i]:.3e} after resampling at sample {i}"))
    del drift
    gamma, t1 = fields["gamma"], np.empty((n, 3), order="F")
    for a, b, rows, at in maps:  # dt/ds = e + gamma g
        dt = slope(rows, gamma[rows, None], g[rows])
        dt += e[rows]
        at(t[rows], dt, t1[a:b])
        del dt
    del t, gamma
    # the check and the projection take a pass of their own, so the guard's vector
    # is never held beside a block's slopes
    ortho = np.empty(n)
    with np.errstate(all="ignore"):
        for a, b, *_ in maps:
            x = t1[a:b]
            et = linner(e1[a:b], x)
            drift = linner(x, x)
            drift -= 1.0
            np.maximum(np.abs(drift, out=drift), np.abs(et), out=ortho[a:b])
            del drift
            for col, e_col in zip(x.T, e1[a:b].T):  # drop the e component (<e,e> = -1)
                col += et * e_col
            del et
            x /= np.sqrt(linner(x, x))[:, None]
    guard(ortho - DRIFT_TOL, lambda i: FrameDriftExceeded(
        f"frame orthonormality drift at sample {i} exceeds {DRIFT_TOL:.0e}"))
    del ortho
    c, delta, Delta = fields.pop("c"), fields["delta"], fields["Delta"]
    c1 = np.empty((n, 3), order="F")
    for a, b, rows, at in maps:  # dc/ds = -delta e + Delta g
        dc = slope(rows, -delta[rows, None], e[rows])
        for col, g_col in zip(dc.T, g[rows].T):
            col += Delta[rows] * g_col
        at(c[rows], dc, c1[a:b])
        del dc
    del fields["e"], fields["g"], e, g, c, delta, Delta

    def resample(name):
        f = fields.pop(name)
        out = np.empty(n)
        for a, b, rows, at in maps:
            at(f[rows], stencil_rows(f, h, rows.start, rows.stop, k) / sigma[rows], out[a:b])
        return out

    gamma1, delta1, Delta1 = resample("gamma"), resample("delta"), resample("Delta")
    del sigma
    g1 = np.empty((n, 3), order="F")
    for a, b, *_ in maps:
        np.negative(lcross(e1[a:b], t1[a:b]), out=g1[a:b])  # g = -e x t: closure kept exact
    return RuledSurfaceModel(s_grid=s_uniform, e=e1, t=t1, g=g1, c=c1,
                             gamma=gamma1, delta=delta1, Delta=Delta1)


def build_surface(director: SampledCurve, base: SampledCurve) -> RuledSurfaceModel:
    """Build the Darboux model of the ruled surface p(u) + v e(u).

    Both curves must share one uniform grid. Directors may carry any timelike
    magnitude; they are renormalized per sample. A director sample is timelike
    where <e,e> < -max(1e-12 min(|e|^2, 1), 2^-51 |e|^2), with |e|^2 its
    squared Euclidean size: below unit size the bound scales with the
    director, so no director is refused for being small, and it stays above
    the rounding of <e,e>, about 2^-53 |e|^2. Every entry of both must square
    to a finite number, as every Lorentz product squares it.
    """
    if not np.array_equal(director.params, base.params):
        raise MismatchedInputs("director and base curve must share one parameter grid")
    require_squarable("sampled", director=director.values, base=base.values)
    u = director.params
    fields = _darboux_fields(u, director.values, base.values, grid_step(u), stride(len(u)))
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
    radius and axis kind, from which the record computes the (cosh, sinh)
    spherical-radius pair when it is read.

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
    R = 1.0 / dual_sqrt(abs(one_minus))
    return DualApparatus(gamma_bar, R, np.abs(gre) > 1.0)


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
    de, dt, dg, dc = (stencil_rows(x, m.h, a, b, m.k) for x in (m.e, m.t, m.g, m.c))
    return {
        "unit_director": np.max(np.abs(linner(e, e) + 1.0)),
        "unit_tangent": np.max(np.abs(linner(t, t) - 1.0)),
        "unit_normal": np.max(np.abs(linner(g, g) - 1.0)),
        "orthogonality": np.max(np.abs([linner(e, t), linner(e, g), linner(t, g)])),
        "frame_closure": _max_enorm(g + lcross(e, t)),
        "director_ode": _max_enorm(de - t),
        "tangent_ode": _max_enorm(dt - e - gamma * g),
        "normal_ode": _max_enorm(dg + gamma * t),
        "striction": np.max(np.abs(linner(dc, t))),
        "striction_decomposition": _max_enorm(dc + delta * e - Delta * g),
    }


def _dual_fd(x: DualVec3, h: float, rows: slice, k: int) -> DualVec3:
    return DualVec3(stencil_rows(x.re, h, rows.start, rows.stop, k),
                    stencil_rows(x.du, h, rows.start, rows.stop, k))


def _d_ds_bar(dx_ds: DualVec3, Delta: np.ndarray) -> DualVec3:
    """d/ds -> d/ds_bar: ds_bar = (1 - eps Delta) ds, whose reciprocal is (1, Delta),
    so x' becomes (x', x'* + Delta x')."""
    return DualVec3(dx_ds.re, dx_ds.du + Delta[:, None] * dx_ds.re)


def _max_enorm(v: np.ndarray) -> float:
    """The largest Euclidean length of the rows of v: the square root of the largest
    sum of squares, as sqrt is correctly rounded and monotone."""
    return np.sqrt(np.max(enorm2(v)))


def _dual_vec_norms(x: DualVec3) -> float:
    return max(float(_max_enorm(x.re)), float(_max_enorm(x.du)))


def dual_frame_residuals(m: RuledSurfaceModel) -> dict:
    """Residuals of the dual frame ODEs, differentiating in dual arc length."""
    return _block_maxima([_dual_frame_block(m, a, b) for a, b in _row_blocks(len(m))])


def _dual_frame_block(m: RuledSurfaceModel, a: int, b: int) -> dict:
    # the frame lines are built on the rows the block's stencils read, 2k past each
    # end and 5k at an end of the grid; `rows` is the block within them
    lo, hi = max(min(a, len(m) - 3 * m.k) - 2 * m.k, 0), min(max(b, 3 * m.k) + 2 * m.k, len(m))
    rows = slice(a - lo, b - lo)
    e_l, t_l, g_l = (_frame_line(m.c[lo:hi], x[lo:hi]) for x in (m.e, m.t, m.g))
    e_d, t_d, g_d = (DualVec3(x.re[rows], x.du[rows]) for x in (e_l, t_l, g_l))
    Delta = m.Delta[a:b]
    gamma_bar = _gamma_bar(m.gamma[a:b], m.delta[a:b], Delta)
    raw = _dual_fd(e_l, m.h, rows, m.k)
    de = _d_ds_bar(raw, Delta)
    dt, dg = (_d_ds_bar(_dual_fd(x, m.h, rows, m.k), Delta) for x in (t_l, g_l))
    speed = dnorm(raw, start=a)
    return {
        "director_ode": _dual_vec_norms(de - t_d),
        "tangent_ode": _dual_vec_norms(dt - e_d - gamma_bar * g_d),
        "normal_ode": _dual_vec_norms(dg + gamma_bar * t_d),
        "director_speed_re": np.max(np.abs(speed.re - 1.0)),
        "director_speed_du": np.max(np.abs(speed.du + Delta)),
    }


def study_residual(m: RuledSurfaceModel) -> float:
    """Max Euclidean distance from decoded ruling points to the model rulings.

    Each row block decodes its own lines; the line checks of `decode_line_point`
    run on whole-length vectors after the pass, so a failure names its sample.
    """
    n = len(m)
    unit_dev, ortho_dev, ortho_excess = np.empty(n), np.empty(n), np.empty(n)
    dist = []
    with np.errstate(all="ignore"):
        for a, b in _row_blocks(n):
            c, e = m.c[a:b], m.e[a:b]
            line = _frame_line(c, e)
            unit_dev[a:b], ortho_dev[a:b], ortho_excess[a:b] = _line_deviations(line)
            q = lcross(line.re, line.du)
            # lcross is the Euclidean cross product with two components negated, which
            # its Euclidean length does not see
            dist.append(np.max(enorm(lcross(q - c, e)) / enorm(e)))
    _guard_line(unit_dev, ortho_dev, ortho_excess, DegenerateLine)
    return float(np.max(dist))
