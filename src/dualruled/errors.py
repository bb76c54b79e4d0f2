"""Exception taxonomy for the kernel.

Two families matter to callers: ValidationError (the input is malformed or
out of contract) and DegeneracyError (the input is formally fine but the
geometry collapses somewhere: null axes, stalled indicatrices, vanishing
windows). The CLI maps them to distinct exit codes, so every raise site
should pick the family deliberately.

Per-sample checks raise through guard(excess, error), which names one
sample: a boolean mask names its first violating sample, a float excess
(measured value minus its limit) names its worst one.
"""

from __future__ import annotations

import numpy as np


def guard(excess, error) -> None:
    """Raise error(i) at the flat index i where excess is largest, if that value is positive."""
    excess = np.asarray(excess)
    i = int(np.argmax(excess))
    if excess.flat[i] > 0:
        raise error(i)


class KernelError(Exception):
    """Base class for everything raised on purpose by this package."""


class ValidationError(KernelError):
    """Input violates a documented precondition."""


class DegeneracyError(KernelError):
    """Numerically degenerate configuration (not a user mistake per se)."""


class DivisionByPureDual(DegeneracyError, ZeroDivisionError):
    """Division by a dual number with zero real part (a zero divisor)."""


class DomainError(DegeneracyError, ValueError):
    """Argument outside the real domain of an analytic function."""

    def __init__(self, func: str, value: float):
        self.func = func
        self.value = value
        super().__init__(f"{func}: argument {value!r} outside the real domain")


class NullDirection(DegeneracyError):
    """Direction part of a dual vector is null; its norm is not invertible."""


class NotTimelike(ValidationError):
    """A direction required to be timelike is not."""


class NotUnit(ValidationError):
    """A direction is timelike but too far from unit norm to renormalize."""


class InvalidLine(ValidationError):
    """Dual vector violates the line constraints (unit direction, orthogonal moment)."""


class ParallelLines(DegeneracyError):
    """Dual angle requested between parallel lines; the distance part is undefined."""


class GridTooCoarse(ValidationError):
    """Fewer samples than the stencil/window machinery needs."""


class NonUniformGrid(ValidationError):
    """Operation requires uniform spacing; resample first."""


class NotTimelikeDirector(ValidationError):
    """Director sample fails the timelike requirement."""


class DegenerateIndicatrix(DegeneracyError):
    """Indicatrix speed collapses; the director curve is (locally) a point."""


class FrameDriftExceeded(DegeneracyError):
    """Orthonormality of the computed frame drifted beyond tolerance (grid too coarse)."""


class GammaOutOfRange(ValidationError):
    """Constant-invariant synthesis requires |gamma| < 1."""


class NullDarbouxAxis(DegeneracyError):
    """|1 - gamma_bar^2| below guard band; curvature elements blow up."""


class DegenerateWindow(DegeneracyError):
    """Offset angle profile vanishes (sinh theta = 0) inside the working window."""


class DegenerateOffsetIndicatrix(DegeneracyError):
    """Offset indicatrix speed vanishes (gamma*sinh(theta) = 0 somewhere)."""


class DegeneratePoint(DegeneracyError):
    """Closed-form evaluation requested at a sample where the formulas degenerate."""


class MismatchedInputs(ValidationError):
    """Objects from different pipelines were combined."""


class ConfigError(ValidationError):
    """Malformed surface configuration."""
