"""Deterministic JSON: sorted keys, fixed-width floats, no platform drift.

Reports must be byte-identical across runs and machines, so floats are
printed in 12-significant-digit scientific notation instead of repr's
shortest roundtrip (which can differ between libm builds for the same
value history). Every float is written with the bytes of Python's
"%.11e" % float(v). Non-finite numbers are rejected outright. A dual
number is written as the object {"du": ..., "re": ...}, and a 1-D string
array in one join over its quoted labels.

A 1-D or 2-D float array goes through a numpy digit kernel, in blocks of
8192 values: it scales each value to a 12-digit integer mantissa in long
double, rounds it, and looks up the digit bytes in small tables. A value
whose rounding the working precision cannot decide (the digits past the
twelfth, as a fraction of the last digit, lie within 64 * eps * 1e12 of
one half, exact ties included), or that is out of range after one
exponent correction, is formatted by Python instead, so the bytes are the
same where long double is only double.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .dual_algebra import DualScalar
from .errors import ValidationError


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValidationError(f"non-finite value {x!r} in report payload")
    return f"{x:.11e}"


# In the working precision, sc = |v| * 10**(11 - E) is within about eps * 1e12
# of its exact value (one rounding of a correctly rounded power, one of the
# product), so trunc(sc) + (frac > 1/2) is the correctly rounded 12-digit
# mantissa unless frac lies within _BAND_EPS * eps * 1e12 of 1/2 or sc is out
# of [1e11, 1e12) after one exponent step.
_WORK = np.longdouble
_BAND_EPS = 64
_BLOCK = 8192  # values per pass, which caps the kernel's transient memory
_WORDS = 5  # a number is 20 bytes, "-d.d|dddd|dddd|dde-|ddd", zero-padded, as 4-byte words
_E_LO, _E_HI = -330, 310  # decimal exponents of float64 values, with margin
_P_LO = 11 - _E_HI  # the first power of ten in the table


def _words(texts) -> np.ndarray:
    """Each text as zero-padded 4-byte words, one row per text."""
    texts = [t.encode() for t in texts]
    width = -(-max(map(len, texts)) // 4) * 4
    return np.array([list(t.ljust(width, b"\0")) for t in texts], np.uint8).view(np.uint32)


@functools.cache
def _byte_words() -> tuple:
    """The kernel's words: sign, lead digit, point and next digit; four digits;
    the last two digits, e and the exponent's sign; the exponent's digits."""

    def word(*columns):  # one 4-byte word per row of the byte columns
        return np.stack(np.broadcast_arrays(*columns), axis=-1).astype(np.uint8).view(np.uint32)[..., 0]

    zero, i = ord("0"), np.arange(100)
    sign = np.array([[0], [ord("-")]])
    lead = word(sign, zero + i // 10, ord("."), zero + i % 10).ravel()
    k = np.arange(10000)
    quad = word(zero + k // 1000, zero + k // 100 % 10, zero + k // 10 % 10, zero + k % 10)
    last = word(zero + i // 10, zero + i % 10, ord("e"), np.array([[ord("+")], [ord("-")]])).ravel()
    e = np.abs(np.arange(_E_LO, _E_HI + 1))
    two = word(zero + e // 10, zero + e % 10, 0, 0)
    three = word(zero + e // 100, zero + e // 10 % 10, zero + e % 10, 0)
    exponent = np.where(e >= 100, three, two)
    return lead, quad, last, exponent


@functools.cache
def _powers(work) -> tuple:
    """Powers of ten 10**_P_LO, ... in work, and the kernel's rounding band."""
    # parsed from text, so each power is correctly rounded (inf past the range of work)
    powers = np.array([f"1e{p}" for p in range(_P_LO, 12 - _E_LO)], dtype=work)
    return powers, _BAND_EPS * float(np.finfo(work).eps) * 1e12


def _decimal(x: np.ndarray) -> tuple:
    """12-digit mantissa m, decimal exponent e and certainty of each float64 of x.

    Where the kernel is certain, "%.11e" % v has the digits of m and the exponent e;
    zeros are certain with m = e = 0. Elsewhere m = e = 0 and v needs Python's formatter.
    """
    powers, band = _powers(_WORK)
    zero = x == 0
    ax = np.abs(x)
    ax[zero] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    ax = ax.astype(_WORK)
    with np.errstate(over="ignore", invalid="ignore"):  # inf powers where work is double
        sc = ax * powers[11 - _P_LO - e]
        step = (sc >= 1e12).astype(np.int64) - (sc < 1e11)  # log10 rounded across a power of ten
        if step.any():
            e += step
            sc = ax * powers[11 - _P_LO - e]
        whole = sc.astype(np.int64)
        frac = (sc - whole).astype(np.float64)
    decided = (whole >= 10**11) & (whole < 10**12) & (np.abs(frac - 0.5) >= band) & ~zero
    m = np.where(decided, whole + (frac > 0.5), 0)
    carry = m == 10**12
    m[carry] = 10**11
    return m, np.where(decided, e + carry, 0), decided | zero


def _format_block(x: np.ndarray, cells: np.ndarray) -> None:
    """Write "%.11e" % v for each float64 v of x into the first words of its row of cells."""
    lead, quad, last, exponent = _byte_words()
    m, e, certain = _decimal(x)
    head, upper, lower = m // 10**10, m // 10**6, m // 100  # floor division by a constant is fast
    cells[:, 0] = lead[head + 100 * np.signbit(x)]
    cells[:, 1] = quad[upper - head * 10**4]
    cells[:, 2] = quad[lower - upper * 10**4]
    cells[:, 3] = last[m - lower * 100 + 100 * (e < 0)]
    cells[:, 4] = exponent[e - _E_LO]
    for i in np.flatnonzero(~certain):
        text = b"%.11e" % float(x[i])
        row = cells[i, :_WORDS].view(np.uint8)
        row[:] = 0
        row[: len(text)] = list(text)


def _emit_float_array(a: np.ndarray, pad: str, inner: str) -> str:
    """Format a 1-D or 2-D float array with the digit kernel, as the per-item path would."""
    finite = np.isfinite(a)
    if not finite.all():
        _fmt_float(float(a[~finite][0]))  # raises, naming the first non-finite value in C order
    if a.ndim == 2:
        cell = inner + "  "
        head = "[\n" + inner + "[\n" + cell
        seps = [",\n" + cell, "\n" + inner + "],\n" + inner + "[\n" + cell, "\n" + inner + "]\n" + pad + "]"]
        cols = a.shape[1]
    else:
        head = "[\n" + inner
        seps = ["", ",\n" + inner, "\n" + pad + "]"]
        cols = 1
    # after each number its separator: within a row, after a row, after the last number
    seps = _words(seps)
    flat = a.ravel()
    block = min(max(_BLOCK // cols, 1) * cols, flat.size)  # whole rows, so every block has one layout
    cells = np.zeros((block, _WORDS + seps.shape[1]), np.uint32)
    cells[:, _WORDS:] = seps[(np.arange(block) % cols == cols - 1).astype(np.intp)]
    parts = [head]
    for start in range(0, flat.size, block):
        x = flat[start : start + block].astype(np.float64, copy=False)
        if start + x.size == flat.size:
            cells = cells[: x.size]
            cells[-1, _WORDS:] = seps[2]
        _format_block(x, cells)
        parts.append(cells.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


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
