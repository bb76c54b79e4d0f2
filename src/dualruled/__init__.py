"""Dual Darboux frames and Mannheim offsets of timelike ruled surfaces.

The kernel works in Minkowski 3-space with metric signature (-, +, +).
A ruled surface is a timelike unit director curve plus a base curve; the
package recovers its striction curve, Darboux frame, and the three scalar
invariants, lifts everything through the E. Study line-to-dual-vector
correspondence, and builds Mannheim offsets whose closed-form invariants
are adjudicated against an independently reconstructed offset surface.
"""

from .dual_algebra import EPS, DualScalar
from .dual_lorentz import (
    DualVec3,
    decode_line_point,
    dinner,
    dnorm,
    dual_angle,
    encode_line,
)
from .errors import DegeneracyError, KernelError, ValidationError
from .fixtures import cone_curves, hyperbola_curves
from .mannheim_offset import (
    consistency_report,
    construct_offset,
    developability_predicates,
    offset_angle_profile,
)
from .minkowski3 import det3, lcross, linner
from .numerics import SampledCurve
from .serialize import dumps_canonical
from .surface_kernel import (
    build_surface,
    classify,
    dual_apparatus,
    dual_frame,
    dual_frame_residuals,
    frame_residuals,
    study_residual,
    synth_constant_invariant,
)

__version__ = "0.1.0"

__all__ = [
    "DegeneracyError",
    "DualScalar",
    "DualVec3",
    "EPS",
    "KernelError",
    "SampledCurve",
    "ValidationError",
    "build_surface",
    "classify",
    "cone_curves",
    "consistency_report",
    "construct_offset",
    "decode_line_point",
    "det3",
    "developability_predicates",
    "dinner",
    "dnorm",
    "dual_angle",
    "dual_apparatus",
    "dual_frame",
    "dual_frame_residuals",
    "dumps_canonical",
    "encode_line",
    "frame_residuals",
    "hyperbola_curves",
    "lcross",
    "linner",
    "offset_angle_profile",
    "study_residual",
    "synth_constant_invariant",
]
