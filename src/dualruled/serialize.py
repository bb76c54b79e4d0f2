"""Deterministic text: canonical JSON reports and the number rows of OBJ meshes.

Reports must be byte-identical across runs and machines, so floats are
printed in 12-significant-digit scientific notation instead of repr's
shortest roundtrip (which can differ between libm builds for the same
value history). Every float is written with the bytes of Python's
"%.11e" % float(v). Non-finite numbers are rejected outright. A dual
number is written as the object {"du": ..., "re": ...}.

Text goes to a sink: `dump_canonical(obj, write)` passes the bytes to
write(piece) one piece after another, so a caller can stream a report into
a file, and `dumps_canonical(obj)` is the same emitter into a list, joined.
Number arrays go in blocks of 8192 values and string arrays in blocks of
8192 labels, so no array's text is ever whole in memory.

One numpy digit kernel formats every number array, in three modes, each
with the bytes of a Python %-format:
- "%.11e", the floats of a 1-D or 2-D JSON array: each value is scaled to a
  12-digit integer mantissa in float64;
- "%.9f", OBJ vertex coordinates: each value below 1e8 is scaled by 10**9
  in float64;
- "%d", OBJ face indices: integers below 10**8, as they are.
The kernel rounds the scaled value and looks up the digit bytes in small
tables, built on first use. With u = 2**-53, a scaled value sc is within
2u * sc of its exact value: each power of ten is parsed from text (at most
half an ulp off) and the product adds at most half an ulp more ("%.9f"
multiplies by the exact 10**9, so only the product rounds). A value whose
rounding float64 cannot decide (the fraction of sc lies within
4 * eps * sc = 8u * sc of one half, exact ties included), or that is out of
the mode's range, is formatted by Python instead, so the bytes are always
Python's. That band covers every fraction once sc reaches about 5.6e14:
an OBJ coordinate with |x| >= 5.6e5 always takes the Python path, as does
a JSON float below about 1e-297, whose power of ten overflows float64.
`write_rows(a, fmt, prefix, write)` writes the rows of a 2-D array as OBJ
lines "prefix n n n".
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


_BAND_EPS = 4
_BLOCK = 8192  # values per pass, which caps the kernel's transient memory
_E_LO, _E_HI = -330, 310  # decimal exponents of float64 values, with margin
_P_LO = 11 - _E_HI  # the first power of ten in the table


def _words(texts) -> np.ndarray:
    """Each text as zero-padded 4-byte words, one row per text."""
    texts = [t.encode() for t in texts]
    width = -(-max(map(len, texts)) // 4) * 4
    return np.array([list(t.ljust(width, b"\0")) for t in texts], np.uint8).view(np.uint32)


@functools.cache
def _tables() -> dict:
    """The kernel's words: up to four text bytes each, zero-padded."""

    def word(*columns):  # one 4-byte word per row of the byte columns
        return np.stack(np.broadcast_arrays(*columns), axis=-1).astype(np.uint8).view(np.uint32)[..., 0]

    zero, i, k = ord("0"), np.arange(100), np.arange(10000)
    digits = (k // 1000, k // 100 % 10, k // 10 % 10, k % 10)
    quad = word(*(zero + d for d in digits))  # four digits, with leading zeros
    # k without leading zeros; "0" for 0 in `low`, nothing in `high`
    plain = word(*(np.where(k >= 10 ** (3 - j), zero + d, 0) for j, d in enumerate(digits[:3])), zero + digits[3])
    e = np.abs(np.arange(_E_LO, _E_HI + 1))
    signs = np.array([[ord("+")], [ord("-")]])
    return {
        # "%.11e": sign, lead digit, point and next digit; four digits, twice;
        # the last two digits, e and the exponent's sign; the exponent's digits
        "lead": word(np.array([[0], [ord("-")]]), zero + i // 10, ord("."), zero + i % 10).ravel(),
        "quad": quad,
        "last": word(zero + i // 10, zero + i % 10, ord("e"), signs).ravel(),
        "exponent": np.where(e >= 100, word(zero + e // 100, zero + e // 10 % 10, zero + e % 10, 0),
                             word(zero + e // 10, zero + e % 10, 0, 0)),
        # "%d" and the integer part of "%.9f": minus sign; the high four digits; the low four
        "minus": word(ord("-"), 0, 0, 0),
        "high": np.where(k > 0, plain, 0),
        "low": np.concatenate([quad, plain]),  # quad after a high part, plain without one
        # the fraction of "%.9f": point and first digit, then two quads
        "point": word(ord("."), zero + np.arange(10), 0, 0),
    }


@functools.cache
def _powers() -> np.ndarray:
    """Powers of ten 10**_P_LO, ... in float64."""
    # parsed from text, so each power is correctly rounded (inf past the range of float64)
    return np.array([f"1e{p}" for p in range(_P_LO, 12 - _E_LO)], dtype=np.float64)


def _round(sc: np.ndarray) -> tuple:
    """Each nonnegative finite float64 sc rounded to an integer, and whether float64
    decides that rounding (elsewhere the result is junk)."""
    with np.errstate(invalid="ignore"):  # inf and nan sc are never decided
        whole = sc.astype(np.int64)
    frac = sc - whole
    band = _BAND_EPS * np.finfo(np.float64).eps * sc
    return whole + (frac > 0.5), np.abs(frac - 0.5) > band


def _decimal(x: np.ndarray) -> tuple:
    """12-digit mantissa m, decimal exponent e and certainty of each float64 of x.

    Where the kernel is certain, "%.11e" % v has the digits of m and the exponent e;
    zeros are certain with m = e = 0. Elsewhere m = e = 0 and v needs Python's formatter.
    """
    powers = _powers()
    zero = x == 0
    ax = np.abs(x)
    ax[zero] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # inf powers below about 1e-297
        sc = ax * powers[11 - _P_LO - e]
        step = (sc >= 1e12).astype(np.int64) - (sc < 1e11)  # log10 rounded across a power of ten
        if step.any():
            e += step
            sc = ax * powers[11 - _P_LO - e]
        m, decided = _round(sc)
        decided &= (sc >= 1e11) & (sc < 1e12) & ~zero
    m = np.where(decided, m, 0)
    carry = m == 10**12
    m[carry] = 10**11
    return m, np.where(decided, e + carry, 0), decided | zero


def _scientific(x: np.ndarray) -> tuple:
    """The "%.11e" words of each float of x, and where they are certain."""
    x = x.astype(np.float64, copy=False)
    finite = np.isfinite(x)
    if not finite.all():
        _fmt_float(float(x[~finite][0]))  # raises, naming the first non-finite value
    t = _tables()
    m, e, certain = _decimal(x)
    head, upper, lower = m // 10**10, m // 10**6, m // 100  # floor division by a constant is fast
    return [t["lead"][head + 100 * np.signbit(x)], t["quad"][upper - head * 10**4],
            t["quad"][lower - upper * 10**4], t["last"][m - lower * 100 + 100 * (e < 0)],
            t["exponent"][e - _E_LO]], certain


def _integer_words(n: np.ndarray, negative: np.ndarray) -> list:
    """The words of "%d" for integers 0 <= n < 10**8, with a minus sign where negative."""
    t = _tables()
    high = n // 10**4
    return [np.where(negative, t["minus"], 0), t["high"][high], t["low"][n - high * 10**4 + 10**4 * (high == 0)]]


def _integer(x: np.ndarray) -> tuple:
    """The "%d" words of each integer of x, and where they are certain."""
    certain = (x > -(10**8)) & (x < 10**8)
    return _integer_words(np.where(certain, np.abs(x), 0), x < 0), certain


def _fixed(x: np.ndarray) -> tuple:
    """The "%.9f" words of each float of x, and where they are certain."""
    x = x.astype(np.float64, copy=False)
    ax = np.abs(x)
    in_range = ax < 1e8  # not nan or inf
    ax[~in_range] = 0.0
    m, decided = _round(ax * 10**9)
    whole = m // 10**9
    fraction = m - whole * 10**9
    top, middle = fraction // 10**8, fraction // 10**4
    t = _tables()
    return _integer_words(whole, np.signbit(x)) + [
        t["point"][top], t["quad"][middle - top * 10**4], t["quad"][fraction - middle * 10**4],
    ], decided & in_range


_MODES = {"%.11e": (_scientific, 5), "%.9f": (_fixed, 6), "%d": (_integer, 3)}


def _write_numbers(a: np.ndarray, fmt: str, head: str, seps: tuple, write) -> None:
    """Write head, then each number of the 2-D array a in fmt followed by its separator:
    seps[0] within a row, seps[1] after a row, seps[2] after the last number."""
    words, width = _MODES[fmt]
    rows, cols = a.shape
    seps = _words(seps)
    per = max(_BLOCK // cols, 1)  # whole rows, so every block has one layout
    cells = np.zeros((min(per, rows) * cols, width + seps.shape[1]), np.uint32)
    cells[:, width:] = seps[(np.arange(len(cells)) % cols == cols - 1).astype(np.intp)]
    write(head.encode())
    for start in range(0, rows, per):
        x = a[start : start + per].ravel()
        if start + per >= rows:
            cells = cells[: x.size]
            cells[-1, width:] = seps[2]
        columns, certain = words(x)
        for j, column in enumerate(columns):
            cells[:, j] = column
        uncertain = np.flatnonzero(~certain).tolist()
        cells[uncertain, :width] = 0
        text = cells.tobytes()
        if uncertain:  # Python's text goes where the row's number words were
            row, at, pieces = cells.shape[1] * 4, 0, []
            for i in uncertain:
                pieces += (text[at : i * row], fmt.encode() % x[i].item())
                at = i * row
            pieces.append(text[at:])
            text = b"".join(pieces)
        write(text.translate(None, b"\0"))


def write_rows(a: np.ndarray, fmt: str, prefix: str, write) -> None:
    """Write each row of the 2-D array a as the line "prefix n n ...", its numbers in fmt
    ("%.9f" for floats, "%d" for integers), through write(bytes)."""
    if a.size:
        _write_numbers(a, fmt, prefix + " ", (" ", "\n" + prefix + " ", "\n"), write)


def _emit_float_array(a: np.ndarray, pad: str, inner: str, write) -> None:
    """Write a 1-D or 2-D float array with the digit kernel, as the per-item path would."""
    if a.ndim == 2:
        cell = inner + "  "
        head = "[\n" + inner + "[\n" + cell
        seps = (",\n" + cell, "\n" + inner + "],\n" + inner + "[\n" + cell, "\n" + inner + "]\n" + pad + "]")
    else:
        head = "[\n" + inner
        seps = ("", ",\n" + inner, "\n" + pad + "]")
        a = a.reshape(-1, 1)
    _write_numbers(a, "%.11e", head, seps, write)


def _emit_str_array(a: np.ndarray, pad: str, inner: str, write) -> None:
    """Write a 1-D string array, quoting each distinct label of a block once."""
    sep = ",\n" + inner
    write(("[\n" + inner).encode())
    for start in range(0, a.size, _BLOCK):
        items = a[start : start + _BLOCK].tolist()
        quoted = {x: json.dumps(x) for x in set(items)}
        write(((sep if start else "") + sep.join(map(quoted.__getitem__, items))).encode())
    write(("\n" + pad + "]").encode())


def _emit(obj, indent: int, write) -> None:
    """Write obj as canonical JSON at nesting depth indent, through write(bytes)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            return _emit(obj.item(), indent, write)
        if obj.dtype.kind == "f" and obj.ndim <= 2 and obj.size > 0:
            return _emit_float_array(obj, pad, inner, write)
        if obj.dtype.kind == "U" and obj.ndim == 1 and obj.size > 0:
            return _emit_str_array(obj, pad, inner, write)
    if isinstance(obj, dict):
        if not obj:
            return write(b"{}")
        for n, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValidationError(f"JSON object keys must be strings, got {key!r}")
            write(f"{',' if n else '{'}\n{inner}{json.dumps(key)}: ".encode())
            _emit(obj[key], indent + 1, write)
        return write(f"\n{pad}}}".encode())
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = obj.tolist() if isinstance(obj, np.ndarray) else obj
        if not len(items):
            return write(b"[]")
        for n, v in enumerate(items):
            write(f"{',' if n else '['}\n{inner}".encode())
            _emit(v, indent + 1, write)
        return write(f"\n{pad}]".encode())
    if isinstance(obj, DualScalar):
        return _emit({"du": obj.du, "re": obj.re}, indent, write)
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        text = "true" if obj else "false"
    elif isinstance(obj, (int, np.integer)):
        text = str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        text = _fmt_float(float(obj))
    elif isinstance(obj, str):
        text = json.dumps(obj)
    elif obj is None:
        text = "null"
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__} deterministically")
    write(text.encode())


def dump_canonical(obj, write) -> None:
    """Write a report object as canonical JSON text (with trailing newline) through
    write(bytes), one piece after another."""
    _emit(obj, 0, write)
    write(b"\n")


def dumps_canonical(obj) -> str:
    """Render a report object to canonical JSON text (with trailing newline)."""
    parts = []
    dump_canonical(obj, parts.append)
    return b"".join(parts).decode("ascii")
