"""Dual Lorentzian vectors and the line geometry built on them.

A DualVec3 is a pair (direction, moment). When the direction is unit
timelike and the moment is Lorentz-orthogonal to it, the pair is the
Plucker encoding of a directed timelike line: moment = point x direction
for any point on the line. The dual angle between two such lines packs the
hyperbolic angle between directions (real part) and the signed distance
along the common perpendicular (dual part).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .dual_algebra import DualScalar, apply_function
from .errors import InvalidLine, NotTimelike, NotUnit, NullDirection, ParallelLines, guard
from .minkowski3 import lcross, linner, lnorm

LINE_TOL = 1e-6


def _col(x):
    # append a trailing axis so per-sample scalars broadcast against (..., 3)
    x = np.asarray(x, dtype=float)
    return x[..., None] if x.ndim >= 1 else x


@dataclass(frozen=True)
class DualVec3:
    re: np.ndarray
    du: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "re", np.asarray(self.re, dtype=float))
        object.__setattr__(self, "du", np.asarray(self.du, dtype=float))

    def __add__(self, other: "DualVec3") -> "DualVec3":
        return DualVec3(self.re + other.re, self.du + other.du)

    def __sub__(self, other: "DualVec3") -> "DualVec3":
        return DualVec3(self.re - other.re, self.du - other.du)

    def __mul__(self, k: Union[DualScalar, float, int]) -> "DualVec3":
        # (a + eps b)(v + eps w) = a v + eps (a w + b v)
        if isinstance(k, DualScalar):
            a, b = _col(k.re), _col(k.du)
            return DualVec3(a * self.re, a * self.du + b * self.re)
        return DualVec3(k * self.re, k * self.du)

    __rmul__ = __mul__


@dataclass(frozen=True)
class DualAngle:
    theta: float
    theta_star: float


def dinner(a: DualVec3, b: DualVec3) -> DualScalar:
    """Dual Lorentzian inner product: (<a,b>, <a,b*> + <a*,b>)."""
    return DualScalar(linner(a.re, b.re), linner(a.re, b.du) + linner(a.du, b.re))


def dnorm(a: DualVec3) -> DualScalar:
    """Dual norm (||re||, <re, du>/||re||). Undefined for null directions."""
    q = linner(a.re, a.re)
    null = np.abs(q) <= 1e-9 * np.maximum(1.0, np.sum(a.re * a.re, axis=-1))
    guard(null, lambda i: NullDirection(f"null direction at sample {i}; dual norm undefined"))
    n = lnorm(a.re)
    return DualScalar(n, linner(a.re, a.du) / n)


def encode_line(direction: np.ndarray, point: np.ndarray) -> DualVec3:
    """Plucker-encode the directed line through `point` with timelike `direction`.

    The direction must satisfy <d, d> = -1 within 1e-9; if it is within
    1e-6 it is silently renormalized, beyond that NotUnit is raised.
    """
    direction = np.asarray(direction, dtype=float)
    point = np.asarray(point, dtype=float)
    q = linner(direction, direction)
    if np.any(q >= 0):
        raise NotTimelike("line direction must be timelike (<d,d> < 0)")
    dev = np.abs(q + 1.0)
    if np.any(dev > 1e-9):
        if np.any(dev > 1e-6):
            raise NotUnit(f"direction norm deviates by {float(np.max(dev)):.3e} (limit 1e-6)")
        direction = direction / _col(np.sqrt(-q))
    return DualVec3(direction, lcross(point, direction))


def decode_line_point(a: DualVec3) -> np.ndarray:
    """Recover a point on the line encoded by a unit timelike DualVec3.

    Returns re x du, the point obtained by dropping the perpendicular from
    the origin (Lorentz-orthogonally). Raises InvalidLine when the unit or
    orthogonality constraints are violated beyond LINE_TOL.
    """
    unit_dev = np.abs(linner(a.re, a.re) + 1.0)
    moment_scale = np.maximum(1.0, np.sqrt(np.sum(a.du * a.du, axis=-1)))
    ortho_dev = np.abs(linner(a.re, a.du))
    if np.any(unit_dev > LINE_TOL):
        raise InvalidLine(f"direction not unit timelike (max deviation {float(np.max(unit_dev)):.3e})")
    if np.any(ortho_dev > LINE_TOL * moment_scale):
        raise InvalidLine(f"moment not orthogonal to direction (max deviation {float(np.max(ortho_dev)):.3e})")
    return lcross(a.re, a.du)


def dual_angle(a: DualVec3, b: DualVec3) -> DualAngle:
    """Dual hyperbolic angle between two unit timelike lines.

    theta >= 0 comes from arccosh(-<a, b>); theta_star = -dual/sinh(theta)
    carries the line distance with an orientation sign.
    """
    for v in (a, b):
        dev = abs(float(linner(v.re, v.re)) + 1.0)
        if dev > 1e-9:
            raise NotTimelike(f"dual_angle needs unit timelike directions (deviation {dev:.3e})")
    d = dinner(a, b)
    v = -float(d.re)
    if v < 1.0 - 1e-9:
        raise NotTimelike("directions are not both future-oriented timelike")
    if v <= 1.0 + 1e-12:
        raise ParallelLines("sinh(theta) = 0; distance part undefined by the angle formula")
    ang = apply_function("arccosh", DualScalar(v, -float(d.du)))
    return DualAngle(float(ang.re), float(ang.du))
