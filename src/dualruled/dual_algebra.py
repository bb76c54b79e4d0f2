"""Dual-number arithmetic: pairs a + eps*b with eps^2 = 0.

The real part carries the value, the dual part carries a first derivative
(screw calculus reads it as the moment/translation component). Arithmetic
never feeds the dual part back into the real part, so the real slots of any
computation are exactly what plain float arithmetic would have produced.

Both slots are float arrays of matching shape, 0-d for a single number, so
one number and a batch of samples take the same code path; all operators
broadcast like numpy does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivisionByPureDual, DomainError, guard


@dataclass(frozen=True, eq=False)
class DualScalar:
    re: np.ndarray
    du: np.ndarray

    # numpy defers every operator with a DualScalar to its reflected method,
    # so an ndarray on the left gives one DualScalar, not an object array
    __array_ufunc__ = None

    def __post_init__(self):
        object.__setattr__(self, "re", np.asarray(self.re, dtype=float))
        object.__setattr__(self, "du", np.asarray(self.du, dtype=float))

    @staticmethod
    def _coerce(x):
        if isinstance(x, DualScalar):
            return x
        if isinstance(x, (int, float, np.floating, np.integer, np.ndarray)):
            return DualScalar(x, np.zeros_like(x, dtype=float))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualScalar(self.re + o.re, self.du + o.du)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualScalar(self.re - o.re, self.du - o.du)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualScalar(o.re - self.re, o.du - self.du)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualScalar(self.re * o.re, self.re * o.du + self.du * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        guard(o.re == 0.0, lambda i: DivisionByPureDual(
            f"division by a dual number with zero real part at sample {i}"))
        return DualScalar(self.re / o.re, (self.du * o.re - self.re * o.du) / (o.re * o.re))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return DualScalar(-self.re, -self.du)

    def __abs__(self):
        # sign taken from the real part and applied to both slots, matching
        # the composition rule for f(x) = |x| away from re = 0
        s = np.where(self.re > 0, 1.0, -1.0)
        return DualScalar(s * self.re, s * self.du)

    # equality exact on both parts
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return np.array_equal(self.re, o.re) and np.array_equal(self.du, o.du)

    def __repr__(self):
        return f"DualScalar({self.re!r}, {self.du!r})"


EPS = DualScalar(0.0, 1.0)


def _domain_check(name: str, x: DualScalar, ok) -> None:
    guard(~ok, lambda i: DomainError(
        f"{name}: argument {float(x.re.flat[i])!r} outside the real domain"))


def _pair(x: DualScalar, value, deriv) -> DualScalar:
    return DualScalar(value, x.du * deriv)


def dual_cosh(x: DualScalar) -> DualScalar:
    return _pair(x, np.cosh(x.re), np.sinh(x.re))


def dual_sinh(x: DualScalar) -> DualScalar:
    return _pair(x, np.sinh(x.re), np.cosh(x.re))


def dual_tanh(x: DualScalar) -> DualScalar:
    c = np.cosh(x.re)
    return _pair(x, np.tanh(x.re), 1.0 / (c * c))


def dual_sqrt(x: DualScalar) -> DualScalar:
    _domain_check("sqrt", x, x.re > 0.0)
    r = np.sqrt(x.re)
    return DualScalar(r, x.du / (2.0 * r))


def dual_arccosh(x: DualScalar) -> DualScalar:
    _domain_check("arccosh", x, x.re > 1.0)
    return _pair(x, np.arccosh(x.re), 1.0 / np.sqrt(x.re * x.re - 1.0))


def dual_artanh(x: DualScalar) -> DualScalar:
    _domain_check("artanh", x, np.abs(x.re) < 1.0)
    return _pair(x, np.arctanh(x.re), 1.0 / (1.0 - x.re * x.re))

