"""Minkowski 3-space primitives with metric signature (-, +, +).

Vectors are numpy arrays whose last axis has length 3; every function
broadcasts over leading axes. Index 0 is the timelike coordinate.
"""

from __future__ import annotations

import numpy as np


def linner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lorentzian inner product -a0*b0 + a1*b1 + a2*b2."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return -a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def lcross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lorentzian cross product.

    Components (a1*b2 - a2*b1, a0*b2 - a2*b0, a1*b0 - a0*b1) in 0-based
    indices; chosen so that linner(lcross(a, b), c) = -det(a, b, c).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.stack(
        [
            a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
            a[..., 0] * b[..., 2] - a[..., 2] * b[..., 0],
            a[..., 1] * b[..., 0] - a[..., 0] * b[..., 1],
        ],
        axis=-1,
    )


def lnorm(a: np.ndarray) -> np.ndarray:
    """Lorentzian norm sqrt(|<a, a>|)."""
    return np.sqrt(np.abs(linner(a, a)))


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

