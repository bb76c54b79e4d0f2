"""Minkowski 3-space primitives with metric signature (-, +, +).

Vectors are numpy arrays whose last axis has length 3; every function
broadcasts over leading axes. Index 0 is the timelike coordinate.

Layout: the kernel stores every N x 3 field column-major (Fortran order),
so each of the three components is one contiguous length-N vector and the
per-component products here run over contiguous memory. The functions
accept either layout and give the same bits for both; the one array they
allocate, the result of `lcross`, is column-major.
"""

from __future__ import annotations

import numpy as np


def linner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lorentzian inner product -a0*b0 + a1*b1 + a2*b2, taken as (a1*b1 - a0*b0) +
    a2*b2: -x + y is y - x bit for bit, and no negated copy is made."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = a[..., 1] * b[..., 1]
    out -= a[..., 0] * b[..., 0]
    out += a[..., 2] * b[..., 2]
    return out


def lcross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lorentzian cross product.

    Components (a1*b2 - a2*b1, a0*b2 - a2*b0, a1*b0 - a0*b1) in 0-based
    indices; chosen so that linner(lcross(a, b), c) = -det(a, b, c).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), order="F")
    # each column is written in place; one scratch buffer takes the subtrahends
    sub = np.empty(out.shape[:-1], order="F")
    for k, (p, q) in enumerate(((1, 2), (0, 2), (1, 0))):
        np.multiply(a[..., p], b[..., q], out=out[..., k])
        np.multiply(a[..., q], b[..., p], out=sub)
        out[..., k] -= sub
    return out


def enorm2(v: np.ndarray) -> np.ndarray:
    """Squared Euclidean length over the last axis, v0^2 + v1^2 + v2^2 summed left
    to right: the bits of np.sum(v * v, axis=-1) without the reduction."""
    v = np.asarray(v, dtype=float)
    out = v[..., 0] * v[..., 0]
    out += v[..., 1] * v[..., 1]
    out += v[..., 2] * v[..., 2]
    return out


def enorm(v: np.ndarray) -> np.ndarray:
    """Euclidean length over the last axis: the bits of np.sqrt(np.sum(v * v, axis=-1))."""
    return np.sqrt(enorm2(v))


def det3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Determinant of the 3x3 matrix with rows a, b, c."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    return (
        a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
        - a[..., 1] * (b[..., 0] * c[..., 2] - b[..., 2] * c[..., 0])
        + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0])
    )

