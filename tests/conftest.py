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


@pytest.fixture(scope="session")
def constant_family():
    """Closed-form director e(s) and striction curve c(s) of the (0.5, 0.3, 0.2)
    constant-invariant family at arbitrary arc lengths s (any grid)."""
    A = 1.0 / np.sqrt(0.75)
    B, k = -0.5 * A, 1.0 / A
    alpha, beta = -0.3 * A + 0.2 * B, -0.3 * B + 0.2 * A

    def sample(s):
        ch, sh, zeros = np.cosh(k * s), np.sinh(k * s), np.zeros_like(s)
        e = np.stack([A * ch, A * sh, B + zeros], axis=-1)
        c = np.stack([alpha / k * sh, alpha / k * (ch - 1.0), beta * s], axis=-1)
        return e, c

    return sample


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
