"""Grid calculus for the oracle pipeline: derivatives, cumulative quadrature,
cubic Hermite resampling.

Differentiation and quadrature need grids that pass `is_uniform`, the one
uniformity rule of the package. Differentiation is 4th order: five-point
stencils on samples k apart, central inside and one-sided on the 2k samples
at each end, so the derivative lives on the same grid as the data.

Each grid is checked once: `grid_step(x)` runs the uniformity rule and
returns the step, and the two kernels take that step, `stencil_rows(y, h,
a, b, k)` for rows a:b of the derivative and `cumulative_simpson(f, h)` for
the quadrature. The surface model runs `grid_step` on its arc-length grid
when it is made and carries the step as `h`, so its readers never check
the grid again. `stencil_rows` is the one stencil implementation: a caller
that works in row blocks (the residual checks of the surface kernel) asks
it for one block at a time, and the blocks put together are bit for bit
the whole-grid derivative.

Resampling is one cubic Hermite evaluator, `hermite(x, xq)`. It finds the
intervals and the four basis weights of one map x -> xq once and returns a
resampler that applies them to any number of fields, each with its slopes:
the frame equations in the surface kernel, `slopes` (4th order on any
grid) for raw non-uniform samples.

The stencils and the resampler write into their output buffer in place but
keep the operation order of the plain expressions, so every result is bit
for bit what those expressions give.

Layout: N x k fields are stored column-major (Fortran order), so each
component is one contiguous length-N vector; the surface kernel converts
its inputs once where they enter. Every function here accepts either
layout, and what it allocates follows the kernel's: the stencil and
quadrature buffers take the layout of their input, and the resampler and
`slopes` return column-major arrays, gathering one component at a time.

Quadrature note: the cumulative Simpson rule seeds odd-index values with a
single trapezoid over the first interval. That leaves an O(h^3 f''(x0))
constant on odd samples which interior difference stencils cancel exactly
but boundary stencils do not; differentiating a cumulative integral is
therefore cleanest when f''(x0) = 0. Tests respect this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridTooCoarse, NonUniformGrid, ValidationError, guard

MIN_SAMPLES = 9
MAX_SAMPLES = 2**20  # analyze peaks at 715 MB RSS at this size (measured; see README)
ENTRY_LIMIT = float(np.sqrt(np.finfo(float).max))  # the largest entry whose square is finite


@dataclass(frozen=True)
class SampledCurve:
    """A curve sampled on a strictly increasing parameter grid."""

    params: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "values", values)
        if params.ndim != 1 or values.ndim != 2 or values.shape[1] != 3:
            raise ValidationError("SampledCurve needs params (N,) and values (N, 3)")
        if len(params) != len(values):
            raise ValidationError(f"length mismatch: {len(params)} params vs {len(values)} values")
        if len(params) < MIN_SAMPLES:
            raise GridTooCoarse(f"need at least {MIN_SAMPLES} samples, got {len(params)}")
        if not np.all(np.isfinite(params)) or not np.all(np.isfinite(values)):
            raise ValidationError("non-finite sample data")
        if np.any(np.diff(params) <= 0):
            raise ValidationError("params must be strictly increasing")


def require_squarable(kind: str, **fields: np.ndarray) -> None:
    """Raise ValidationError at the first sample of an N x 3 field with an entry that
    is not finite or whose square overflows. Every Lorentz product squares the
    entries, so such a field is unusable; the message names the field as `kind`
    (a fixture, sampled input, the offset) and the keyword."""
    for name, values in fields.items():
        # the largest |entry| per sample, a column at a time (a NaN stays NaN): a
        # reduction over a last axis of 3 is ~20x slower on row-major input
        big = np.abs(values[..., 0])
        for k in (1, 2):
            np.maximum(big, np.abs(values[..., k]), out=big)

        def error(i):
            what = "an entry is nan" if np.isnan(big.flat[i]) else (
                f"|entry| = {big.flat[i]:.3e} exceeds {ENTRY_LIMIT:.3e}, the largest whose square is finite")
            return ValidationError(f"{kind} field {name} is out of range at sample {i}: {what}")

        guard(~(big <= ENTRY_LIMIT), error)


def is_uniform(x: np.ndarray) -> bool:
    """Whether every step of x is within 1e-12 of the mean step, relative to the
    largest of |x[0]|, |x[-1]| and the range."""
    x = np.asarray(x, dtype=float)
    h = (x[-1] - x[0]) / (len(x) - 1)
    tol = 1e-12 * max(abs(x[0]), abs(x[-1]), x[-1] - x[0])
    return not np.any(np.abs(np.diff(x) - h) > tol)


def grid_step(x: np.ndarray) -> float:
    """The step of a uniform grid x of at least MIN_SAMPLES points: the one check
    a caller runs per grid before handing the step to the kernels below."""
    if len(x) < MIN_SAMPLES:
        raise GridTooCoarse(f"need at least {MIN_SAMPLES} samples, got {len(x)}")
    if not is_uniform(x):
        raise NonUniformGrid("grid spacing varies beyond 1e-12 relative; resample first")
    return (x[-1] - x[0]) / (len(x) - 1)


def stencil_rows(y: np.ndarray, h: float, a: int = 0, b: int | None = None, k: int = 1) -> np.ndarray:
    """Rows a:b of the derivative of samples y (along axis 0) at grid step h, stride k.

    Interior rows read y[a-2k:b+2k]; the one-sided stencils go to rows [0, 2k)
    and [n-2k, n) of y only, and read the 5k samples at their end (4k past
    their row). So y may be a window of a longer grid: rows a:b are then window
    rows, and the window must hold the 2k samples on each side of them that the
    grid has, and the 5k samples at an end of the grid that they reach. Every
    row gets the bits it gets in the whole-grid derivative.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    b = n if b is None else b
    out = np.empty_like(y[a:b])
    # a rule's rows i:j get sum(w * y[row + m k]) / 12kh over its terms (w, m), in order, in place
    rules = (
        (2 * k, n - 2 * k, ((-8, -1), (1, -2), (8, 1), (-1, 2))),
        (0, k, ((-25, 0), (48, 1), (-36, 2), (16, 3), (-3, 4))),
        (k, 2 * k, ((-3, -1), (-10, 0), (18, 1), (-6, 2), (1, 3))),
        (n - 2 * k, n - k, ((3, 1), (10, 0), (-18, -1), (6, -2), (-1, -3))),
        (n - k, n, ((25, 0), (-48, -1), (36, -2), (-16, -3), (3, -4))),
    )
    for i, j, ((w, m), *terms) in rules:
        i, j = max(i, a), min(j, b)
        if i < j:
            rows = out[i - a:j - a]
            np.multiply(y[i + m * k:j + m * k], w, out=rows)
            for w, m in terms:  # r - |w| y is r + w y, and a unit w needs no product
                y_m = y[i + m * k:j + m * k]
                (np.subtract if w < 0 else np.add)(rows, y_m if abs(w) == 1 else abs(w) * y_m, out=rows)
            rows /= 12 * k * h
    return out


def cumulative_simpson(f: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of samples f (along axis 0) at grid step h.

    Composite Simpson on sample pairs; the first interval is a trapezoid so
    odd-index entries exist (value at the grid start is 0).
    """
    f = np.asarray(f, dtype=float)
    out = np.zeros_like(f)
    out[1] = h * (f[0] + f[1]) / 2.0
    panels = h / 3.0 * (f[:-2] + 4.0 * f[1:-1] + f[2:])
    out[2::2] = np.cumsum(panels[0::2], axis=0)
    out[3::2] = out[1] + np.cumsum(panels[1::2], axis=0)
    return out


def slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """dy/dx at the nodes of any increasing grid: the derivative of the Lagrange
    fit through the five nearest samples, exact on quartics. y is (N,) or (N, k)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 5:
        raise GridTooCoarse(f"need at least 5 samples for slopes, got {len(x)}")
    idx = np.clip(np.arange(len(x)) - 2, 0, len(x) - 5)[:, None] + np.arange(5)
    r = x[:, None] - x[idx]
    out = np.zeros(y.shape, order="F")
    for j in range(5):
        others = [k for k in range(5) if k != j]
        # L_j'(x) = sum_l prod_{k != j, l} (x - x_k) / prod_{k != j} (x_j - x_k)
        num = sum(np.prod(r[:, [k for k in others if k != l]], axis=1) for l in others)
        w = num / np.prod(r[:, others] - r[:, [j]], axis=1)
        out += w.reshape((-1,) + (1,) * (y.ndim - 1)) * np.take(y.T, idx[:, j], axis=-1).T
    return out


def hermite(x: np.ndarray, xq: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Cubic Hermite resampling from increasing nodes x to the points xq.

    Returns `at(y, dy)`: the interpolant of values y and slopes dy at the nodes,
    evaluated at xq. y and dy are (N,) or (N, k). The intervals and basis
    weights depend on x and xq only, so they are found once per map.
    """
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(x) - 2)
    j = i + 1
    h = x[j] - x[i]
    t = (xq - x[i]) / h
    weights = ((1 + 2 * t) * (1 - t) ** 2, t * (1 - t) ** 2 * h,
               t * t * (3 - 2 * t), t * t * (t - 1) * h)

    def at(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        dy = np.asarray(dy, dtype=float)
        shape = (-1,) + (1,) * (y.ndim - 1)
        # ((w00 y_i + w10 dy_i) + w01 y_j) + w11 dy_j, one term at a time. Each
        # gather runs along the last axis of the transposed views, one component
        # into one contiguous column; i and j are in range, and mode="clip" lets
        # take write into the column-major buffers unbuffered
        out = np.empty(i.shape + y.shape[1:], order="F")
        np.take(y.T, i, axis=-1, out=out.T, mode="clip")
        out *= weights[0].reshape(shape)
        term = np.empty_like(out)
        for v, k, w in zip((dy, y, dy), (i, j, j), weights[1:]):
            np.take(v.T, k, axis=-1, out=term.T, mode="clip")
            term *= w.reshape(shape)
            out += term
        return out

    return at
