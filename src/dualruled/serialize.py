"""Deterministic JSON: sorted keys, fixed-width floats, no platform drift.

Reports must be byte-identical across runs and machines, so floats are
printed in 12-significant-digit scientific notation instead of repr's
shortest roundtrip (which can differ between libm builds for the same
value history). Non-finite numbers are rejected outright. A dual number
is written as the object {"du": ..., "re": ...}. A 1-D or 2-D float array
is written in one %-format pass, and a 1-D string array in one join over
its quoted labels, both with the bytes of the per-item path.
"""

from __future__ import annotations

import json

import numpy as np

from .dual_algebra import DualScalar
from .errors import ValidationError


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValidationError(f"non-finite value {x!r} in report payload")
    return f"{x:.11e}"


def _emit_float_array(a: np.ndarray, pad: str, inner: str) -> str:
    """Format a 1-D or 2-D float array with one template, as the per-item path would."""
    finite = np.isfinite(a)
    if not finite.all():
        _fmt_float(float(a[~finite][0]))  # raises, naming the first non-finite value in C order
    if a.ndim == 2:
        cell = inner + "  "
        row = "[\n" + cell + (",\n" + cell).join(["%.11e"] * a.shape[1]) + "\n" + inner + "]"
    else:
        row = "%.11e"
    template = "[\n" + inner + (",\n" + inner).join([row] * a.shape[0]) + "\n" + pad + "]"
    return template % tuple(a.ravel().tolist())


def _emit_str_array(a: np.ndarray, pad: str, inner: str) -> str:
    """Format a 1-D string array, quoting each distinct label once."""
    items = a.tolist()
    quoted = {x: json.dumps(x) for x in set(items)}
    return "[\n" + inner + (",\n" + inner).join(map(quoted.__getitem__, items)) + "\n" + pad + "]"


def _emit(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            return _emit(obj.item(), indent)
        if obj.dtype.kind == "f" and obj.ndim <= 2 and obj.size > 0:
            return _emit_float_array(obj, pad, inner)
        if obj.dtype.kind == "U" and obj.ndim == 1 and obj.size > 0:
            return _emit_str_array(obj, pad, inner)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValidationError(f"JSON object keys must be strings, got {key!r}")
            parts.append(f"{inner}{json.dumps(key)}: {_emit(obj[key], indent + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not items:
            return "[]"
        parts = [f"{inner}{_emit(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, DualScalar):
        return _emit({"du": obj.du, "re": obj.re}, indent)
    raise ValidationError(f"cannot serialize {type(obj).__name__} deterministically")


def dumps_canonical(obj) -> str:
    """Render a report object to canonical JSON text (with trailing newline)."""
    return _emit(obj, 0) + "\n"
