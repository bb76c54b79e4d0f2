"""Deterministic text: canonical JSON reports and the number rows of OBJ meshes.

Floats are printed in 12-significant-digit scientific notation, with the
bytes of Python's "%.11e" % float(v), instead of repr's shortest roundtrip,
so a report is byte-identical across runs. Across machines it is identical
only where numpy's float64 kernels give the same bits: numpy's AVX-512
cosh, sinh and tanh differ from its other kernels in the last bit, and the
stencils magnify that into printed digits. Non-finite numbers are rejected
outright, naming the first in row-major order. A dual number is written as
the object {"du": ..., "re": ...}.

Text goes to a sink: `dump_canonical(obj, write)` passes the bytes to
write(piece) one bytes-like piece after another, so a caller can stream a
report into a file, and `dumps_canonical(obj)` is the same emitter into a
list, joined. Number arrays go in blocks of 8192 values and string arrays
in blocks of 8192 labels, so no array's text is ever whole in memory.

One numpy row writer formats every number array, in three modes, each
with the bytes of a Python %-format:
- "%.11e", the floats of a 1-D or 2-D JSON array: each value is scaled to a
  12-digit integer mantissa in float64;
- "%.9f", OBJ vertex coordinates: each value below 1e8 is scaled by 10**9
  in float64;
- "%d", OBJ face indices: integers below 10**8, as they are.
The writer rounds the scaled value and looks up the digit bytes in small
tables, built on first use. With u = 2**-53, a scaled value sc is within
2u * sc of its exact value: each power of ten is parsed from text (at most
half an ulp off) and the product adds at most half an ulp more ("%.9f"
multiplies by the exact 10**9, so only the product rounds). A value whose
rounding float64 cannot decide (the fraction of sc lies within a band of
one half, exact ties included: 4 * eps * sc = 8u * sc for "%.9f", and
4 * eps * 1e12 for "%.11e", whose sc is below 1e12), or that is out of the
mode's range (for "%.11e" a three-digit exponent, a log10 that misses its
power of ten, or a carry into a 13th digit), is formatted by Python
instead, so the bytes are always Python's. The band covers every fraction
once sc reaches about 5.6e14: an OBJ coordinate with |x| >= 5.6e5 always
takes the Python path.

A block of rows is one byte array of fixed-width rows, made by repeating a
row that holds the separators. Each number's field is as wide as the
widest text of its column in the block, and the writer puts each table
word of a number at its byte offset. Where every text fills its field, as
in every "%.11e" column of one sign, the block's bytes are its text, and
they go to the sink as they are. Where one is narrower (a positive number
beside a negative one, an integer part narrower than its column's widest),
nulls fill the field and one pass deletes them. A text from Python goes
into its field where it fits, and is spliced in otherwise.
`write_rows(a, fmt, prefix, write)` writes the rows of a 2-D array as OBJ
lines "prefix n n n".

The one reader of number text, `read_array(text)`, turns a JSON array of
numbers, of depth 1 or 2 with rows of equal length, into a float64 array
whose values have the bits of Python's float() of each number, the bits
json gives. It returns None where it declines, and the caller lets json
read the text. One pass over pieces of the text finds the events of each
(separators, points, exponent marks, the ends of numbers), reads its
numbers into the output and adds its separators, with a "0" for each
number, to the skeleton, whose one comparison decides the array's shape;
the digits are read 8 at a time (fast_float's parse_eight_digits_unrolled,
Lemire 2021); m * 10**q is one exact float64 operation where m <= 2**53
and |q| <= 22 (Clinger 1990) and a double-double product with an error
bound elsewhere. A number is settled by its significant digits and its
rounding: its digits, at most 24 with leading zeros, must make an m below
10**19, and the bound must decide the rounding. Any number that is not
settled sends the whole array to json, as do any other byte, any other
shape, a value that is not finite and an integer of more than 15 digits
(json's int).
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


_BAND_EPS = 4  # the rounding band, in float64 eps (2**-52) of the scaled value (or of its bound)
_BLOCK = 8192  # values per pass, which caps the writer's transient memory
_E_LO, _E_HI = -330, 310  # decimal exponents of float64 values, with margin


@functools.cache
def _tables() -> dict:
    """The writer's words: text bytes at fixed places, null where a text is shorter."""

    def word(*columns):  # the byte columns side by side, one 2-, 4- or 8-byte word per row
        b = np.stack(np.broadcast_arrays(*columns), axis=-1).astype(np.uint8)
        return b.view(f"u{b.shape[-1]}")[..., 0]

    zero, k = ord("0"), np.arange(10000)
    digits = [zero + d for d in (k // 1000, k // 100 % 10, k // 10 % 10, k % 10)]
    quad = word(*digits)  # four digits, with leading zeros
    # k right-aligned: nulls before its first digit, "0" for 0
    plain = word(*(np.where(k >= 10 ** (3 - j), d, 0) for j, d in enumerate(digits[:3])), digits[3])
    e = np.arange(_E_LO, _E_HI + 1)
    e2 = np.where(np.abs(e) < 100, e, 0)  # "e+00" past two digits, where only a zero is certain
    return {
        # "%.11e": the lead digit, point, next three digits and three junk bytes; four
        # digits; e, the exponent's sign and its two digits, at e - _E_LO
        "lead": word(digits[0], ord("."), *digits[1:], 0, 0, 0),
        "quad": quad,
        "exponent": word(ord("e"), np.where(e2 < 0, ord("-"), ord("+")), zero + abs(e2) // 10, zero + abs(e2) % 10),
        # an integer below 10**8, right-aligned in two words: its high four digits, its low four
        "high": np.where(k > 0, plain, 0),
        "low": np.concatenate([quad, plain]),  # quad after a high part, plain without one
        # the fraction of "%.9f": point and first digit
        "point": word(ord("."), zero + np.arange(10)),
    }


@functools.cache
def _powers() -> np.ndarray:
    """10**(11 - e) in float64 for each decimal exponent e = _E_LO, ..., _E_HI, and 0 where
    e has three digits, so that every value with such an exponent is undecided."""
    # parsed from text, so each power is correctly rounded
    return np.array([f"1e{11 - e}" if abs(e) < 100 else "0" for e in range(_E_LO, _E_HI + 1)], dtype=np.float64)


def _round(sc: np.ndarray, band) -> tuple:
    """Each nonnegative finite float64 sc rounded to an integer (as a float64), and whether
    float64 decides that rounding: whether sc lies farther than band from a half."""
    m = np.rint(sc)
    d = sc - m
    return m, np.abs(d, out=d) < 0.5 - band


def _decimal(x: np.ndarray) -> tuple:
    """12-digit mantissa m, index at = e - _E_LO of the decimal exponent e, and certainty of
    each float64 of x.

    Where the writer is certain, "%.11e" % v has the digits of m and the two-digit exponent
    e; zeros are certain with m = 0. Elsewhere m = 0 and v needs Python's formatter:
    float64 cannot decide its rounding (the band is 4 eps of 1e12, above every scaled
    value), log10 missed its power of ten, the rounding carries into a 13th digit, or its
    exponent has three digits.
    """
    sc = np.maximum(np.abs(x), 1e-300)  # a zero gets a three-digit exponent, and is certain below
    at = np.log10(sc)
    at -= _E_LO  # positive, so the cast below is the floor
    at = at.astype(np.intp)
    sc *= _powers().take(at)
    m, decided = _round(sc, _BAND_EPS * 2.0**-52 * 1e12)
    decided &= m > 1e11
    decided &= m < 1e12
    m *= decided
    return m.astype(np.int64), at, decided | (x == 0)


def _scientific(x: np.ndarray) -> tuple:
    """The "%.11e" layout of a float64 block (see _write_numbers): 17 bytes after any sign."""
    m, at, certain = _decimal(x)
    t = _tables()
    lead, upper = m // 10**8, m // 10**4  # floor division by a constant is fast
    # in this order the lead's junk bytes are overwritten by the next word
    words = [(0, t["lead"].take(lead)), (5, t["quad"].take(upper - lead * 10**4)),
             (9, t["quad"].take(m - upper * 10**4)), (13, t["exponent"].take(at))]
    return np.signbit(x), 17, False, words, certain


def _integer_part(n: np.ndarray) -> tuple:
    """The words of integers 0 <= n < 10**8 that end at offset `width` of a text as wide as
    the widest integer of its column, that width, and whether its column has a narrower
    integer (whose text begins with nulls)."""
    t = _tables()
    high = n // 10**4
    width, narrow = (np.array([len(str(v)) for v in f(axis=1).tolist()]) for f in (n.max, n.min))
    low = t["low"][n - high * 10**4 + 10**4 * (high == 0)]
    return [(width - 8, t["high"][high]), (width - 4, low)], width, narrow < width


def _integer(x: np.ndarray) -> tuple:
    """The "%d" layout of a block (see _write_numbers)."""
    certain = (x > -(10**8)) & (x < 10**8)
    words, width, nulls = _integer_part(np.where(certain, np.abs(x), 0))
    return x < 0, width, nulls, words, certain


def _fixed(x: np.ndarray) -> tuple:
    """The "%.9f" layout of a block (see _write_numbers)."""
    x = x.astype(np.float64, copy=False)
    ax = np.abs(x)
    in_range = ax < 1e8  # not nan or inf
    ax[~in_range] = 0.0
    sc = ax * 10**9
    m, decided = _round(sc, _BAND_EPS * 2.0**-52 * sc)
    m = m.astype(np.int64)
    integer = m // 10**9
    fraction = m - integer * 10**9
    top, middle = fraction // 10**8, fraction // 10**4
    words, width, nulls = _integer_part(integer)
    t = _tables()
    return np.signbit(x), width + 10, nulls, words + [
        (width, t["point"][top]), (width + 2, t["quad"][middle - top * 10**4]),
        (width + 6, t["quad"][fraction - middle * 10**4]),
    ], decided & in_range


_MODES = {"%.11e": _scientific, "%.9f": _fixed, "%d": _integer}


def _write_numbers(a: np.ndarray, fmt: str, head: str, seps: tuple, write) -> None:
    """Write head, then each number of the 2-D array a in fmt followed by its separator:
    seps[0] within a row, seps[1] after a row, seps[2] after the last number.

    A block of rows of a is written as a byte array with one row per row of a. In it each
    number has a field as wide as its column's text in the block, which starts with a byte
    for the minus sign where the column has a negative number: "-" where all are negative,
    and null or "-" where some are. The mode of fmt takes the block with a row per column
    of a and gives: where a number is negative; the width of each column's text after the
    sign; whether a column's text may begin with nulls; each number's words with their
    offsets in the text, in the order that they are written (of a word at a negative
    offset only the bytes in the text are written); and where its text is certain. Where
    no field may hold a null, the block's bytes are its text; otherwise one pass deletes
    the nulls. Python's text of an uncertain number goes into its field where it fits, and
    is spliced in otherwise.
    """
    rows, cols = a.shape
    fmt_b, sep, row_end = fmt.encode(), seps[0].encode(), seps[1].encode()
    per = max(_BLOCK // cols, 1)  # whole rows, so every block has one layout
    write(head.encode())
    for start in range(0, rows, per):
        x = np.ascontiguousarray(a[start : start + per].T)  # a row per column: fast column reductions
        neg, width, nulls, words, certain = _MODES[fmt](x)
        signed, negative = neg.any(axis=1), neg.all(axis=1)
        padded = (nulls | (signed & ~negative)).tolist()  # fields that may hold a null
        width, signed, negative = (width + signed).tolist(), signed.tolist(), negative.tolist()
        row, field = b"", []  # a row of the block: signs of negative columns, separators
        for j in range(cols):
            field.append(len(row))
            row += (b"-" if negative[j] else b"\0" * signed[j]) + bytes(width[j] - signed[j])
            row += sep if j < cols - 1 else row_end
        n = x.shape[1]
        text = bytearray(row) * n
        buf = np.frombuffer(text, np.uint8).reshape(n, len(row))
        for j in range(cols):
            begin = field[j] + signed[j]  # where the text after the sign starts
            for at, w in words:  # in order: a later word overwrites the junk bytes of an earlier one
                at = at if isinstance(at, int) else int(at[j])
                if at >= 0:
                    buf[:, begin + at : begin + at + w.itemsize].view(w.dtype)[:, 0] = w[j]
                else:  # only the bytes of the word that fall in the text, one by one
                    for b in range(-at, w.itemsize):
                        buf[:, begin + at + b] = w[j].view(np.uint8)[b :: w.itemsize]
            if signed[j] and not negative[j]:
                buf[:, field[j]] = neg[j] * np.uint8(ord("-"))
        uncertain = np.flatnonzero(~certain)
        if uncertain.size:
            view, splices = memoryview(text), []
            for i, v in zip(uncertain.tolist(), x.ravel()[uncertain].tolist()):
                j, r = divmod(i, n)
                number, lo = fmt_b % v, r * len(row) + field[j]
                if len(number) == width[j] or (len(number) < width[j] and padded[j]):
                    view[lo : lo + width[j]] = number.rjust(width[j], b"\0")
                else:
                    splices.append((lo, lo + width[j], number))
            if splices:  # in the order of the text
                pieces, done = [], 0
                for lo, hi, number in sorted(splices):
                    pieces += (view[done:lo], number)
                    done = hi
                pieces.append(view[done:])
                text = b"".join(pieces)
        if any(padded):
            text = text.replace(b"\0", b"")
        write(memoryview(text)[: len(text) - (len(row_end) if start + per >= rows else 0)])
    write(seps[2].encode())


def write_rows(a: np.ndarray, fmt: str, prefix: str, write) -> None:
    """Write each row of the 2-D array a as the line "prefix n n ...", its numbers in fmt
    ("%.9f" for floats, "%d" for integers), through write(bytes)."""
    if a.size:
        _write_numbers(a, fmt, prefix + " ", (" ", "\n" + prefix + " ", "\n"), write)


def _emit_float_array(a: np.ndarray, pad: str, inner: str, write) -> None:
    """Write a 1-D or 2-D float array with the row writer, as the per-item path would."""
    if a.ndim == 2:
        cell = inner + "  "
        head = "[\n" + inner + "[\n" + cell
        seps = (",\n" + cell, "\n" + inner + "],\n" + inner + "[\n" + cell, "\n" + inner + "]\n" + pad + "]")
    else:
        head = "[\n" + inner
        seps = ("", ",\n" + inner, "\n" + pad + "]")
        a = a.reshape(-1, 1)
    with np.errstate(over="ignore"):  # the writer works in float64: a long double past its range is inf
        a = a.astype(np.float64, copy=False)
    finite = np.isfinite(a)
    if not finite.all():
        _fmt_float(float(a[~finite][0]))  # raises, naming the first non-finite value in row-major order
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


# The reader's byte classes: the bytes of a number have odd classes (digits and signs, its
# point, its exponent mark), JSON whitespace and the separators even ones
_SPACE, _DIGIT, _COMMA, _POINT, _OPEN, _EXPONENT, _CLOSE, _OTHER = range(8)
_Q_LO, _Q_HI = -280, 280  # the exponents q of m * 10**q that the double-double product takes
_ZEROS = 0x3030303030303030  # eight "0" bytes in a little-endian word


@functools.cache
def _reader_tables() -> dict:
    """The reader's byte classes and skeleton bytes, the masks that keep the last j of 24 bytes,
    and the powers of ten that float64 holds exactly."""
    classes = bytearray([_OTHER]) * 256
    for chars, c in ((b" \t\n\r", _SPACE), (b"0123456789-+", _DIGIT), (b",", _COMMA), (b".", _POINT),
                     (b"[", _OPEN), (b"eE", _EXPONENT), (b"]", _CLOSE)):
        for b in chars:
            classes[b] = c
    return {
        "classes": bytes(classes),
        # each event class's byte of the skeleton, "0" for a number's first, and the classes without one
        "skeleton": (bytes.maketrans(bytes([_DIGIT, _COMMA, _OPEN, _CLOSE]), b"0,[]"),
                     bytes([_SPACE, _POINT, _EXPONENT])),
        # the 24 bytes of three words, each byte kept (0xff) or not: row j keeps the last j
        "keep": np.array([[0] * (24 - j) + [255] * j for j in range(25)], dtype=np.uint8).view("V24")[:, 0],
        "exact": np.array([float(10**k) for k in range(23)]),
    }


@functools.cache
def _ten(q: int) -> tuple:
    """10**q as hi + lo, from exact integer arithmetic: hi is 10**q correctly rounded and lo
    is 10**q - hi correctly rounded; then Dekker's halves of hi."""
    num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
    hi = num / den  # an int quotient is correctly rounded
    a, b = hi.as_integer_ratio()
    return (hi, (num * b - a * den) / (den * b), *_halves(hi))


def _tens(q: np.ndarray) -> np.ndarray:
    """The four rows of _ten at each q in [_Q_LO, _Q_HI], each exponent built once."""
    present = np.zeros(_Q_HI - _Q_LO + 1, bool)
    present[q - _Q_LO] = True
    table = np.zeros((4, len(present)))
    for k in np.flatnonzero(present).tolist():
        table[:, k] = _ten(k + _Q_LO)
    return table.take(q - _Q_LO, axis=1)


def _halves(a):
    """Dekker's split of float64 a into hi + lo, each with at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _product(m: np.ndarray, q: np.ndarray) -> tuple:
    """m * 10**q rounded to float64, for integers 0 < m < 10**19 and _Q_LO <= q <= _Q_HI, and
    whether float64 decides that rounding.

    With a + a_lo = m exactly and hi + lo the pair of _tens, Dekker's product gives
    a * hi = p + e exactly, and s + err = p + e + a * lo + a_lo * hi exactly. The terms
    left out and the rounding of the small ones are below 16 u**2 * s, with u = 2**-53, so
    the exact product lies well within bound = 2**-96 * s = 1024 u**2 * s of s + err, also
    after err +- bound is rounded. Rounding is monotone: where s + (err + bound) and
    s + (err - bound) both round to s, so does every value in between, ties included.
    """
    hi, lo, bh, bl = _tens(q)
    a = m.astype(np.float64)
    a_lo = (m - a.astype(np.uint64)).view(np.int64).astype(np.float64)  # exact: |a_lo| <= 2**10
    p = a * hi
    ah, al = _halves(a)
    t = ((ah * bh - p) + ah * bl + al * bh) + al * bl + (a * lo + a_lo * hi)
    s = p + t
    err = t - (s - p)  # exact, as |p| >= |t|
    bound = s * 2.0**-96
    return s, (s + (err + bound) == s) & (s + (err - bound) == s)


def _digit_words(words: np.ndarray, keep: np.ndarray) -> tuple:
    """The value of each little-endian word of eight digit bytes, its bytes outside keep read
    as "0" (fast_float's parse_eight_digits_unrolled), and whether a row of words of
    digit and sign bytes holds no sign."""
    w = (words ^ _ZEROS) & keep  # a digit d is now the byte d, "+" and "-" are 0x1B and 0x1D
    signs = w[:, 0]
    for column in w.T[1:]:
        signs = signs | column
    w = w * 10 + (w >> 8)  # pairs of digits in the even bytes
    w = ((w & 0x000000FF000000FF) * 0x000F424000000064
         + ((w >> 16) & 0x000000FF000000FF) * 0x0000271000000001) >> 32
    return w, (signs & 0xF0F0F0F0F0F0F0F0) == 0


def _read_numbers(text: bytes, events: np.ndarray, kinds: np.ndarray, first: np.ndarray, last: np.ndarray):
    """The float64 value of each number of text that starts at event first and ends at event
    last (see read_array); None where one is not settled or is an integer of more than 15
    digits.

    A number -?I(.F)?([eE][-+]?X)? is m * 10**q with m the integer of the digits of I and F.
    Its events between its start and its end are its point, then its exponent mark. Its
    digits are read 8 at a time from its text with the points deleted: three words that
    end at the end of F hold m, and one that ends at the end of X holds the exponent.
    Where m <= 2**53 and |q| <= 22 the value is one float64 multiply or divide of exact
    operands (Clinger's fast path); elsewhere it is the double-double _product. A number
    with more than 24 digits in I and F (its leading zeros among them), an m of 10**19 or
    more, more than 8 digits in X, any other exponent, a text that is not a JSON number, or
    a rounding that float64 cannot decide is not settled.
    """
    raw = np.frombuffer(text, np.uint8)
    start, end = events.take(first), events.take(last)
    inner = last - first - 1
    point = kinds.take(first + 1) == _POINT
    exponent = inner - point  # 1 where the last event inside is the exponent mark
    mark = last - exponent  # the event where the mantissa ends
    ok = (exponent <= 1) & (kinds.take(mark) != _POINT) & (kinds.take(first) == _DIGIT)
    exponent = exponent > 0
    mantissa_end = events.take(mark)
    neg = raw.take(start) == ord("-")
    dot = events.take(first + 1)  # the mantissa's end where it has no point
    int_len = dot - start - neg
    if ((inner == 0) & (int_len > 15)).any():
        return None  # json makes an int, and numpy casts it
    frac_len = mantissa_end - dot - point
    digits = int_len + frac_len  # leading zeros and all
    ok &= ((int_len >= 1) & (frac_len >= point) & (digits <= 24)
           & ((int_len == 1) | (raw.take(start + neg) != ord("0"))))

    # the block's text without points, after 24 "0" bytes that stand in for the digits
    # left of a word's number; a word may end at each byte
    lo = int(start[0])
    chunk = (b"0" * 24 + text[lo : int(end[-1])]).replace(b".", b"")
    shift = np.cumsum(point) + (lo - 24)  # the points up to a number's own, one if it has one
    keep = _reader_tables()["keep"]
    tails = np.ndarray((len(chunk) - 23,), "V24", chunk, strides=(1,))  # the 24 bytes from each byte
    at = np.minimum(mantissa_end - shift, len(chunk)) - 24  # a number of two points overshoots
    part, no_sign = _digit_words(*(a.view("<u8").reshape(-1, 3) for a in (tails[at], keep[np.minimum(digits, 24)])))
    ok &= no_sign & (part[:, 0] < 1000)  # m < 10**19
    m = (part[:, 0] * 10**8 + part[:, 1]) * 10**8 + part[:, 2]
    q = -frac_len
    if exponent.any():
        sign = raw.take(mantissa_end + 1, mode="clip")
        signed = (sign == ord("-")) | (sign == ord("+"))
        exp_len = np.where(exponent, end - mantissa_end - 1 - signed, 0)
        ok &= (exp_len <= 8) & (exp_len >= exponent)
        at = np.minimum(end - shift, len(chunk)) - 24
        e, no_sign = _digit_words(*(a.view("<u8").reshape(-1, 3)[:, 2:] for a in (tails[at], keep[np.clip(exp_len, 0, 8)])))
        ok &= no_sign
        e = e[:, 0].astype(np.int64)
        q += np.where(sign == ord("-"), -e, e)

    near = np.minimum(np.abs(q), 22)
    tens = _reader_tables()["exact"].take(near)
    x = m.astype(np.float64)
    x = np.where(q >= 0, x * tens, x / tens)
    settled = ok & ((m <= 2**53) & (near == np.abs(q)) | (m == 0))
    far = ok & ~settled & (q >= _Q_LO) & (q <= _Q_HI)
    if far.any():
        s, sure = _product(np.where(far, m, 1), np.where(far, q, 0))
        x = np.where(far, s, x)
        settled |= far & sure
    if not settled.all():
        return None
    neg &= ~((inner == 0) & (m == 0))  # -0 is json's int 0
    return np.negative(x, out=x, where=neg)


def read_array(text: bytes) -> np.ndarray | None:
    """The float64 array of the JSON array text, which starts with "[" and ends with "]", of
    numbers, of depth 1 or of depth 2 with rows of equal length, each value with the bits
    of Python's float() of its number; None where json must read the text.

    One pass over pieces of about _BLOCK * 16 bytes that end after a comma: one
    bytes.translate classes a piece (any byte other than JSON whitespace, "[", "]", "," and
    the bytes of numbers declines), and one numpy pass finds its events, each separator,
    point and exponent mark and each byte where a number starts or ends. Its numbers go into
    the output, one more than the text's commas (see _read_numbers), and its separators,
    with a "0" for each number, extend the skeleton, whose one comparison with "[0,...,0]"
    or "[[0,...,0],...,[0,...,0]]" decides the depth and the shape. The reader declines an
    empty array, an integer of more than 15 digits (json's int, cast by numpy), and any
    number that it does not settle: one that is not finite, is not a JSON number, or whose
    rounding float64 cannot decide.
    """
    if text[:1] != b"[" or text[-1:] != b"]":
        return None
    tables = _reader_tables()
    out = np.empty(text.count(b",") + 1)
    skeleton, n, at = bytearray(b"["), 0, 1
    while at < len(text):
        stop = text.find(b",", at + 16 * _BLOCK) + 1 or len(text)
        classes = np.frombuffer(text[at - 1 : stop].translate(tables["classes"]), np.uint8)  # from the byte before
        if classes.max() == _OTHER:
            return None
        number = (classes & 1).view(bool)
        marks = number[1:] != number[:-1]
        marks |= classes[1:] > _DIGIT
        i = np.flatnonzero(marks)
        kinds, after_number = classes[1:].take(i), number.take(i)
        del classes, number, marks  # only the piece's events are read from here on
        skeleton += kinds.tobytes().translate(*tables["skeleton"])
        odd = (kinds & 1).view(bool)
        first, last = np.flatnonzero(odd & ~after_number), np.flatnonzero(after_number & ~odd)
        if len(first):
            block = _read_numbers(text, i + at, kinds, first, last)
            if block is None or n + len(block) > len(out):  # more numbers than commas and one
                return None
            out[n : n + len(block)] = block
            n += len(block)
        at = stop
    deep = skeleton[1:2] == b"["
    cols = skeleton.find(b"]") // 2 if deep else n  # a first row "[[0,...,0]" ends at 2 cols + 1
    rows = n // cols if deep and cols > 0 else 1
    # the length first: the expected text is built only as long as the skeleton
    if n != len(out) or rows * cols != n or len(skeleton) != 2 * n + 1 + 2 * rows * deep:
        return None
    row = b"[" + b"0," * (cols - 1) + b"0]"
    if skeleton != (b"[" + (row + b",") * (rows - 1) + row + b"]" if deep else row):
        return None
    return out.reshape((rows, cols) if deep else n)
