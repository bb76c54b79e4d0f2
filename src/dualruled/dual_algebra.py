"""Dual-number arithmetic: pairs a + eps*b with eps^2 = 0.

The real part carries the value, the dual part carries a first derivative
(screw calculus reads it as the moment/translation component). Arithmetic
never feeds the dual part back into the real part, so the real slots of any
computation are exactly what plain float arithmetic would have produced.

Both slots accept floats or numpy arrays of matching shape; all operators
broadcast like numpy does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DivisionByPureDual, DomainError, guard

Number = Union[float, int, np.ndarray]


@dataclass(frozen=True, eq=False)
class DualScalar:
    re: Number
    du: Number

    def __post_init__(self):
        object.__setattr__(self, "re", np.asarray(self.re, dtype=float) if isinstance(self.re, np.ndarray) else float(self.re))
        object.__setattr__(self, "du", np.asarray(self.du, dtype=float) if isinstance(self.du, np.ndarray) else float(self.du))

    @staticmethod
    def _coerce(x):
        if isinstance(x, DualScalar):
            return x
        if isinstance(x, np.ndarray):
            return DualScalar(x, np.zeros_like(np.asarray(x, dtype=float)))
        if isinstance(x, (int, float, np.floating, np.integer)):
            return DualScalar(x, 0.0)
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
        if np.any(np.asarray(o.re) == 0.0):
            raise DivisionByPureDual("division by a dual number with zero real part")
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
        if isinstance(self.re, np.ndarray):
            s = np.where(self.re > 0, 1.0, -1.0)
            return DualScalar(s * self.re, s * self.du)
        s = 1.0 if self.re > 0 else -1.0
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
    guard(~np.asarray(ok), lambda i: DomainError(name, float(np.asarray(x.re).flat[i])))


def _pair(x: DualScalar, value, deriv) -> DualScalar:
    return DualScalar(value, x.du * deriv)


_REGISTRY: dict[str, Callable[[DualScalar], DualScalar]] = {}


def _register(name):
    def deco(fn):
        _REGISTRY[name] = fn
        return fn
    return deco


@_register("cosh")
def dual_cosh(x: DualScalar) -> DualScalar:
    return _pair(x, np.cosh(x.re), np.sinh(x.re))


@_register("sinh")
def dual_sinh(x: DualScalar) -> DualScalar:
    return _pair(x, np.sinh(x.re), np.cosh(x.re))


@_register("tanh")
def dual_tanh(x: DualScalar) -> DualScalar:
    c = np.cosh(x.re)
    return _pair(x, np.tanh(x.re), 1.0 / (c * c))


@_register("coth")
def dual_coth(x: DualScalar) -> DualScalar:
    _domain_check("coth", x, np.asarray(x.re) != 0.0)
    s = np.sinh(x.re)
    return _pair(x, np.cosh(x.re) / s, -1.0 / (s * s))


@_register("sqrt")
def dual_sqrt(x: DualScalar) -> DualScalar:
    ok = np.asarray(x.re) > 0.0
    _domain_check("sqrt", x, ok)
    r = np.sqrt(x.re)
    return DualScalar(r, x.du / (2.0 * r))


@_register("arccosh")
def dual_arccosh(x: DualScalar) -> DualScalar:
    ok = np.asarray(x.re) > 1.0
    _domain_check("arccosh", x, ok)
    return _pair(x, np.arccosh(x.re), 1.0 / np.sqrt(x.re * x.re - 1.0))


@_register("artanh")
def dual_artanh(x: DualScalar) -> DualScalar:
    ok = np.abs(np.asarray(x.re)) < 1.0
    _domain_check("artanh", x, ok)
    return _pair(x, np.arctanh(x.re), 1.0 / (1.0 - x.re * x.re))


FUNCTION_NAMES = tuple(sorted(_REGISTRY))


def apply_function(name: str, x: DualScalar) -> DualScalar:
    """Evaluate a named analytic function on a DualScalar: (f(a), b*f'(a))."""
    try:
        fn = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"no dual function named {name!r}; have {FUNCTION_NAMES}") from None
    return fn(x)
