"""Built-in sample surfaces used by tests and the CLI fixture kinds.

Each synthesized curve is stacked as 3 rows and transposed, so its values
are column-major like every N x 3 field of the kernel, and every curve is
checked by `require_squarable` before it is used.
"""

from __future__ import annotations

import numpy as np

from .numerics import SampledCurve, require_squarable


def hyperbola_curves(s_range=(0.0, 2.0), samples: int = 1024):
    """Planar unit-speed hyperbolic director with a straight base curve.

    Gives gamma = delta = 0 and distribution parameter 1 everywhere; the
    striction curve coincides with the base axis.
    """
    u = np.linspace(float(s_range[0]), float(s_range[1]), samples)
    zeros = np.zeros_like(u)
    with np.errstate(over="ignore"):  # require_squarable names the sample
        director = np.stack([np.cosh(u), np.sinh(u), zeros]).T
    base = np.stack([zeros, zeros, u]).T
    require_squarable("planar_hyperbola", director=director, base=base)
    return SampledCurve(u, director), SampledCurve(u, base)


def cone_curves(apex=(1.0, 2.0, 3.0), s_range=(0.0, 2.0), samples: int = 1024):
    """All rulings through one fixed apex point (delta = Delta = 0), along the
    hyperbolic director; another director goes in as `SampledCurve`s, the
    apex on every base row."""
    u = np.linspace(float(s_range[0]), float(s_range[1]), samples)
    with np.errstate(over="ignore"):  # require_squarable names the sample
        director = np.stack([np.cosh(u), np.sinh(u), np.zeros_like(u)]).T
    base = np.tile(np.asarray(apex, dtype=float)[:, None], samples).T
    require_squarable("cone", director=director, base=base)
    return SampledCurve(u, director), SampledCurve(u, base)
