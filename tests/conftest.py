import tracemalloc

import numpy as np
import pytest

from dualruled import (
    build_surface,
    cone_curves,
    hyperbola_curves,
    synth_constant_invariant,
)
from dualruled.mannheim_offset import (
    consistency_report,
    construct_offset,
    offset_angle_profile,
)

APEX = (1.0, 2.0, 3.0)


def traced(call):
    """call() under tracemalloc: its result, then the bytes it leaves allocated and
    its peak, both counted over what was allocated before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - base, peak - base


@pytest.fixture(scope="session")
def planar_surface():
    # hyperbolic indicatrix in a plane: gamma = 0, delta = 0, Delta = 1, c = base
    return build_surface(*hyperbola_curves((0.0, 2.0), 1024))


@pytest.fixture(scope="session")
def constant_surface():
    # closed-form family with gamma, delta, Delta = 0.5, 0.3, 0.2
    return synth_constant_invariant(0.5, 0.3, 0.2, (0.0, 2.0), 1024)


@pytest.fixture(scope="session")
def cone_surface():
    return build_surface(*cone_curves(APEX, (0.0, 2.0), 1024))


def family(gamma0, delta0, Delta0):
    """Closed-form director e(s) and striction curve c(s) of the constant-invariant
    family (gamma0, delta0, Delta0), |gamma0| < 1, at arbitrary arc lengths s."""
    A = 1.0 / np.sqrt(1.0 - gamma0 * gamma0)
    B, k = -gamma0 * A, 1.0 / A
    alpha, beta = -delta0 * A + Delta0 * B, -delta0 * B + Delta0 * A

    def sample(s):
        ch, sh, zeros = np.cosh(k * s), np.sinh(k * s), np.zeros_like(s)
        e = np.stack([A * ch, A * sh, B + zeros], axis=-1)
        c = np.stack([alpha / k * sh, alpha / k * (ch - 1.0), beta * s], axis=-1)
        return e, c

    return sample


@pytest.fixture(scope="session")
def constant_family():
    """The (0.5, 0.3, 0.2) family at any grid of arc lengths s."""
    return family(0.5, 0.3, 0.2)


def lorentz_map(zeta, a, b):
    """Rotation by b about the timelike axis, then a boost of rapidity zeta along
    x1, then a rotation by a: proper and orthochronous in signature (-, +, +)."""
    def rot(angle):
        m = np.eye(3)
        m[1:, 1:] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        return m

    boost = np.eye(3)
    boost[:2, :2] = [[np.cosh(zeta), np.sinh(zeta)], [np.sinh(zeta), np.cosh(zeta)]]
    return rot(a) @ boost @ rot(b)


class Disguise:
    """A member of the constant-invariant family as a user would sample it: moved
    by a proper orthochronous Lorentz map L and a translation b, traversed in a
    parameter u with ds/du = 1 + 0.3 sin(2.2 u + 0.5), the director rescaled by
    exp(0.3 sin(1.3 u + 0.2)), and the base curve moved off the striction curve
    along the ruling by 0.1 + 0.35 sin(0.9 u + 1.1)."""

    gamma0, delta0, Delta0 = 0.45, 0.25, 0.3
    L = lorentz_map(0.6, 0.7, 2.1)
    b = np.array([0.8, -1.3, 0.4])
    u_end = 2.0

    def s(self, u):
        return u + (0.3 / 2.2) * (np.cos(0.5) - np.cos(2.2 * u + 0.5))

    def sample(self, n):
        """Grid u (n,), director (n, 3) and base (n, 3): the raw samples."""
        u = np.linspace(0.0, self.u_end, n)
        e, c = family(self.gamma0, self.delta0, self.Delta0)(self.s(u))
        e, c = e @ self.L.T, c @ self.L.T + self.b
        rho = np.exp(0.3 * np.sin(1.3 * u + 0.2))
        lam = 0.1 + 0.35 * np.sin(0.9 * u + 1.1)
        return u, rho[:, None] * e, c + lam[:, None] * e


@pytest.fixture(scope="session")
def disguise():
    return Disguise()


class Varying:
    """A surface whose invariants vary: gamma = 0.5 + 0.15 sin 1.3s, delta = 0.3 +
    0.1 cos 0.9s and Delta = 0.2 + 0.1 sin(0.7s + 0.4) on s in [0, 2]. The frame
    equations de/ds = t, dt/ds = e + gamma g, dg/ds = -gamma t and dc/ds = -delta e +
    Delta g are integrated by classical RK4, SUBSTEPS steps between samples, from e = (1, 0, 0),
    t = (0, 1, 0), g = (0, 0, 1) and c = 0 at s = 0; the samples are e and c at n arc lengths."""

    s_end, SUBSTEPS = 2.0, 4

    @staticmethod
    def invariants(s):
        return (0.5 + 0.15 * np.sin(1.3 * s), 0.3 + 0.1 * np.cos(0.9 * s),
                0.2 + 0.1 * np.sin(0.7 * s + 0.4))

    def rate(self, s, y):
        gamma, delta, Delta = self.invariants(s)
        e, t, g, _ = y
        return np.array([t, e + gamma * g, -gamma * t, -delta * e + Delta * g])

    def sample(self, s):
        """Arc lengths s (n,), director e (n, 3) and striction curve c (n, 3): at s
        uniform arc lengths on [0, s_end] for an int s, else at the increasing arc
        lengths s, which start at 0."""
        s = np.linspace(0.0, self.s_end, s) if np.ndim(s) == 0 else np.asarray(s, dtype=float)
        y = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        out = [y]
        for s0, s1 in zip(s[:-1], s[1:]):
            h = (s1 - s0) / self.SUBSTEPS
            for k in range(self.SUBSTEPS):
                x = s0 + k * h
                k1 = self.rate(x, y)
                k2 = self.rate(x + h / 2, y + (h / 2) * k1)
                k3 = self.rate(x + h / 2, y + (h / 2) * k2)
                k4 = self.rate(x + h, y + h * k3)
                y = y + (h / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out.append(y)
        out = np.array(out)
        return s, out[:, 0], out[:, 3]


@pytest.fixture(scope="session")
def varying():
    return Varying()


@pytest.fixture(scope="session")
def all_surfaces(planar_surface, constant_surface, cone_surface):
    return {
        "planar": planar_surface,
        "constant": constant_surface,
        "cone": cone_surface,
    }


@pytest.fixture(scope="session")
def offset_pieces(constant_surface):
    # reference Mannheim run: window s in [1, 2], c = 3, c* = 0.3
    spec = offset_angle_profile(constant_surface, 3.0, 0.3, (1.0, 2.0))
    offset = construct_offset(constant_surface, spec)
    return constant_surface, spec, offset


@pytest.fixture(scope="session")
def offset_report(offset_pieces):
    m, spec, offset = offset_pieces
    return consistency_report(m, spec, offset)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)
