"""Dual Lorentzian vectors and the line geometry built on them.

A DualVec3 is a pair (direction, moment). When the direction is unit
timelike and the moment is Lorentz-orthogonal to it, the pair is the
Plucker encoding of a directed timelike line: moment = point x direction
for any point on the line, built only by `_frame_line`. The dual angle between
two such lines packs the hyperbolic angle between directions (real part) and
the signed distance along the common perpendicular (dual part). A line and a
batch of lines take one code path: row i of a batch has the bits of row i alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual_algebra import DualScalar, dual_arccosh
from .errors import InvalidLine, KernelError, NotTimelike, NotUnit, NullDirection, ParallelLines, guard
from .minkowski3 import enorm, enorm2, lcross, linner

LINE_TOL = 1e-6


@dataclass(frozen=True)
class DualVec3:
    re: np.ndarray
    du: np.ndarray

    # an ndarray factor on the left defers to __rmul__, as with DualScalar
    __array_ufunc__ = None

    def __post_init__(self):
        object.__setattr__(self, "re", np.asarray(self.re, dtype=float))
        object.__setattr__(self, "du", np.asarray(self.du, dtype=float))

    def __add__(self, other: "DualVec3") -> "DualVec3":
        return DualVec3(self.re + other.re, self.du + other.du)

    def __sub__(self, other: "DualVec3") -> "DualVec3":
        return DualVec3(self.re - other.re, self.du - other.du)

    def __mul__(self, k) -> "DualVec3":
        # (a + eps b)(v + eps w) = a v + eps (a w + b v); a real factor is b = 0
        k = DualScalar._coerce(k)
        if k is None:
            return NotImplemented
        # a trailing axis lets per-sample scalars broadcast against (..., 3)
        a, b = k.re[..., None], k.du[..., None]
        return DualVec3(a * self.re, a * self.du + b * self.re)

    __rmul__ = __mul__


def dinner(a: DualVec3, b: DualVec3) -> DualScalar:
    """Dual Lorentzian inner product: (<a,b>, <a,b*> + <a*,b>). For b = a the dual
    part is 2 <a,a*>, taken as x + x: <a*,a> forms the products of <a,a*>, so x + x
    has the bits of the sum of the two."""
    cross = linner(a.re, b.du)
    return DualScalar(linner(a.re, b.re), cross + (cross if b is a else linner(a.du, b.re)))


def dnorm(a: DualVec3, start: int = 0) -> DualScalar:
    """Dual norm (||re||, <re, du>/||re||). Undefined for null directions.

    `start` is the number of a's first sample in the caller's numbering, for
    a caller that passes one row block of a longer field; the error names
    the sample by that numbering.
    """
    d = dinner(a, a)  # (<re, re>, 2 <re, du>)
    null = np.abs(d.re) <= 1e-9 * np.maximum(1.0, enorm2(a.re))
    guard(null, lambda i: NullDirection(f"null direction at sample {start + i}; dual norm undefined"))
    n = np.sqrt(np.abs(d.re))
    return DualScalar(n, d.du / (2.0 * n))


def _frame_line(point: np.ndarray, x: np.ndarray) -> DualVec3:
    """Line coordinates of the direction x through point: (x, point x x)."""
    return DualVec3(x, lcross(point, x))


def encode_line(direction: np.ndarray, point: np.ndarray) -> DualVec3:
    """Plucker-encode the directed line through `point` with timelike `direction`.

    The direction must satisfy <d, d> = -1 within 1e-9; each line within
    1e-6 is silently renormalized on its own, and beyond that NotUnit is raised.
    """
    direction = np.asarray(direction, dtype=float)
    q = linner(direction, direction)
    guard(q >= 0, lambda i: NotTimelike(
        f"line direction sample {i} is not timelike: <d,d> = {q.flat[i]:.3e} (need < 0)"))
    dev = np.abs(q + 1.0)
    guard(dev - 1e-6, lambda i: NotUnit(
        f"direction norm deviates by {dev.flat[i]:.3e} at sample {i} (limit 1e-6)"))
    direction = np.where((dev > 1e-9)[..., None], direction / np.sqrt(-q)[..., None], direction)
    return _frame_line(point, direction)


def decode_line_point(a: DualVec3, error: type[KernelError] = InvalidLine) -> np.ndarray:
    """Recover a point on the line encoded by a unit timelike DualVec3.

    Returns re x du, the point obtained by dropping the perpendicular from
    the origin (Lorentz-orthogonally). Raises `error` (InvalidLine) when the
    unit or orthogonality constraints are violated beyond LINE_TOL. A caller
    that built the line itself passes DegenerateLine: there a violation is
    lost digits, not bad input.
    """
    _guard_line(*_line_deviations(a), error)
    return lcross(a.re, a.du)


def _line_deviations(a: DualVec3) -> tuple:
    """The line constraints of `decode_line_point` per sample: the unit deviation
    |<re,re> + 1|, the orthogonality deviation |<re,du>| and that deviation's
    excess over LINE_TOL max(1, |du|)."""
    d = dinner(a, a)  # (<re, re>, 2 <re, du>)
    ortho_dev = np.abs(d.du) / 2.0
    return np.abs(d.re + 1.0), ortho_dev, ortho_dev - LINE_TOL * np.maximum(1.0, enorm(a.du))


def _guard_line(unit_dev, ortho_dev, ortho_excess, error: type[KernelError]) -> None:
    """Raise `error` where the `_line_deviations` of some lines exceed their limits:
    first the unit check, then the orthogonality check, each at its worst sample."""
    guard(unit_dev - LINE_TOL, lambda i: error(
        f"direction not unit timelike (deviation {unit_dev.flat[i]:.3e} at sample {i})"))
    guard(ortho_excess, lambda i: error(
        f"moment not orthogonal to direction (deviation {ortho_dev.flat[i]:.3e} at sample {i})"))


def dual_angle(a: DualVec3, b: DualVec3) -> DualScalar:
    """Dual hyperbolic angle (theta, theta_star) between unit timelike lines, one pair or a batch.

    theta >= 0 comes from arccosh(-<a, b>); theta_star = -dual/sinh(theta)
    carries the line distance with an orientation sign.
    """
    dev = np.maximum(np.abs(dinner(a, a).re + 1.0), np.abs(dinner(b, b).re + 1.0))
    guard(dev - 1e-9, lambda i: NotTimelike(
        f"dual_angle needs unit timelike directions (deviation {dev.flat[i]:.3e} at sample {i})"))
    v = -dinner(a, b)
    guard(v.re < 1.0 - 1e-9, lambda i: NotTimelike(
        f"directions are not both future-oriented timelike at sample {i}"))
    guard(v.re <= 1.0 + 1e-12, lambda i: ParallelLines(
        f"sinh(theta) = 0 at sample {i}; distance part undefined by the angle formula"))
    return dual_arccosh(v)
