"""Grid calculus for the oracle pipeline: derivatives, cumulative quadrature,
cubic Hermite resampling.

Differentiation and quadrature assume uniform grids. Differentiation is
4th order: classic five-point central stencils inside, one-sided stencils
of matching order on the two samples at each end, so the derivative lives
on the same grid as the data.

Resampling is one cubic Hermite evaluator, `hermite`, fed with slopes:
the frame equations in the surface kernel, `slopes` (4th order on any
grid) for raw non-uniform samples.

Quadrature note: the cumulative Simpson rule seeds odd-index values with a
single trapezoid over the first interval. That leaves an O(h^3 f''(x0))
constant on odd samples which interior difference stencils cancel exactly
but boundary stencils do not; differentiating a cumulative integral is
therefore cleanest when f''(x0) = 0. Tests respect this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpeed, GridTooCoarse, NonUniformGrid, ValidationError

MIN_SAMPLES = 9


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

    def __len__(self):
        return len(self.params)


def _uniform_step(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    d = np.diff(x)
    h = (x[-1] - x[0]) / (len(x) - 1)
    tol = 1e-12 * max(abs(x[0]), abs(x[-1]), x[-1] - x[0])
    if np.any(np.abs(d - h) > tol):
        raise NonUniformGrid("grid spacing varies beyond 1e-12 relative; resample first")
    return h


def grid_derivative(x: np.ndarray, y: np.ndarray, order: int = 1) -> np.ndarray:
    """Differentiate samples y(x) on a uniform grid, 4th-order accurate.

    y may be (N,) or (N, k); differentiation runs along axis 0.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < MIN_SAMPLES:
        raise GridTooCoarse(f"need at least {MIN_SAMPLES} samples, got {n}")
    h = _uniform_step(x)
    out = np.empty_like(y)
    if order == 1:
        out[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
        out[0] = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / (12 * h)
        out[1] = (-3 * y[0] - 10 * y[1] + 18 * y[2] - 6 * y[3] + y[4]) / (12 * h)
        out[-1] = (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4] + 3 * y[-5]) / (12 * h)
        out[-2] = (3 * y[-1] + 10 * y[-2] - 18 * y[-3] + 6 * y[-4] - y[-5]) / (12 * h)
    elif order == 2:
        h2 = h * h
        out[2:-2] = (-y[:-4] + 16 * y[1:-3] - 30 * y[2:-2] + 16 * y[3:-1] - y[4:]) / (12 * h2)
        out[0] = (45 * y[0] - 154 * y[1] + 214 * y[2] - 156 * y[3] + 61 * y[4] - 10 * y[5]) / (12 * h2)
        out[1] = (10 * y[0] - 15 * y[1] - 4 * y[2] + 14 * y[3] - 6 * y[4] + y[5]) / (12 * h2)
        out[-1] = (45 * y[-1] - 154 * y[-2] + 214 * y[-3] - 156 * y[-4] + 61 * y[-5] - 10 * y[-6]) / (12 * h2)
        out[-2] = (10 * y[-1] - 15 * y[-2] - 4 * y[-3] + 14 * y[-4] - 6 * y[-5] + y[-6]) / (12 * h2)
    else:
        raise ValidationError(f"order must be 1 or 2, got {order}")
    return out


def derivative(curve: SampledCurve, order: int = 1) -> SampledCurve:
    """Derivative of a SampledCurve on its own grid."""
    return SampledCurve(curve.params, grid_derivative(curve.params, curve.values, order))


def integrate_cumulative(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Cumulative integral of samples f(x) on a uniform grid.

    Composite Simpson on sample pairs; the first interval is a trapezoid so
    odd-index entries exist (value at the grid start is 0).
    """
    f = np.asarray(f, dtype=float)
    if f.shape[0] < MIN_SAMPLES:
        raise GridTooCoarse(f"need at least {MIN_SAMPLES} samples, got {f.shape[0]}")
    h = _uniform_step(x)
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
    out = np.zeros_like(y)
    for j in range(5):
        others = [k for k in range(5) if k != j]
        # L_j'(x) = sum_l prod_{k != j, l} (x - x_k) / prod_{k != j} (x_j - x_k)
        num = sum(np.prod(r[:, [k for k in others if k != l]], axis=1) for l in others)
        w = num / np.prod(r[:, others] - r[:, [j]], axis=1)
        out += w.reshape((-1,) + (1,) * (y.ndim - 1)) * y[idx[:, j]]
    return out


def hermite(x: np.ndarray, y: np.ndarray, dy: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolant of values y and slopes dy at increasing nodes x,
    evaluated at xq. y and dy are (N,) or (N, k)."""
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(x) - 2)
    shape = (-1,) + (1,) * (np.ndim(y) - 1)
    h = (x[i + 1] - x[i]).reshape(shape)
    t = (xq - x[i]).reshape(shape) / h
    return ((1 + 2 * t) * (1 - t) ** 2 * y[i] + t * (1 - t) ** 2 * h * dy[i]
            + t * t * (3 - 2 * t) * y[i + 1] + t * t * (t - 1) * h * dy[i + 1])


def arclength_map(params: np.ndarray, speed: np.ndarray):
    """Arc length along the grid and the inverse map on a uniform s-grid.

    Returns (s_at_params, s_uniform, params_at_s_uniform). The s origin is
    params[0], so a unit-speed curve maps to itself. The inverse map is the
    cubic Hermite interpolant with the exact slopes du/ds = 1/speed.
    """
    params = np.asarray(params, dtype=float)
    speed = np.asarray(speed, dtype=float)
    low = speed <= 1e-8
    if np.any(low):
        idx = int(np.argmax(low))
        raise DegenerateSpeed(f"speed {speed[idx]:.3e} at sample {idx} (limit 1e-8)")
    s = params[0] + integrate_cumulative(params, speed)
    s_uniform = np.linspace(s[0], s[-1], len(params))
    u_at_s = np.clip(hermite(s, params, 1.0 / speed, s_uniform), params[0], params[-1])
    return s, s_uniform, u_at_s
