"""Canonical JSON writer: fixed float width, sorted keys, hard rejections; the number reader."""

import decimal
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dualruled import DualScalar, dumps_canonical, serialize
from dualruled.errors import ValidationError


def test_float_format_and_sorted_keys():
    text = dumps_canonical({"b": 1.5, "a": 2.0})
    assert text == '{\n  "a": 2.00000000000e+00,\n  "b": 1.50000000000e+00\n}\n'


def test_nested_arrays_and_indent():
    text = dumps_canonical({"v": np.array([1.0, 0.25])})
    assert text == '{\n  "v": [\n    1.00000000000e+00,\n    2.50000000000e-01\n  ]\n}\n'


def test_scalar_kinds():
    text = dumps_canonical({"flag": True, "n": 3, "x": None, "s": "ok"})
    parsed = json.loads(text)
    assert parsed == {"flag": True, "n": 3, "x": None, "s": "ok"}
    # bool must never fall through to the integer branch
    assert '"flag": true' in text
    assert '"n": 3' in text


def test_numpy_scalars_and_empty_containers():
    text = dumps_canonical({"a": np.float64(0.1), "b": np.int64(7), "c": {}, "d": []})
    assert '"a": 1.00000000000e-01' in text
    assert '"b": 7' in text
    assert '"c": {}' in text
    assert '"d": []' in text
    assert text.endswith("\n")


def test_roundtrips_through_stdlib_parser():
    payload = {"m": {"z": [1e-300, 2.5e300, -0.0], "y": [[1.0], [2.0]]}, "k": "v"}
    parsed = json.loads(dumps_canonical(payload))
    assert parsed["m"]["z"] == [1e-300, 2.5e300, 0.0]
    assert parsed["m"]["y"] == [[1.0], [2.0]]


def test_rejections():
    with pytest.raises(ValidationError, match="non-finite"):
        dumps_canonical({"x": float("nan")})
    with pytest.raises(ValidationError, match="non-finite"):
        dumps_canonical({"x": np.inf})
    with pytest.raises(ValidationError, match="non-finite value inf"):  # past the range of float64
        dumps_canonical({"x": np.array([1.0, np.longdouble("1e400"), 2.0])})
    with pytest.raises(ValidationError, match="keys must be strings"):
        dumps_canonical({1: "x"})
    with pytest.raises(ValidationError, match="deterministically"):
        dumps_canonical({"x": object()})


def test_zero_dimensional_array_is_its_scalar():
    assert dumps_canonical({"x": np.array(1.5)}) == dumps_canonical({"x": 1.5})
    assert dumps_canonical({"n": np.array(7), "s": np.array("ok")}) == dumps_canonical({"n": 7, "s": "ok"})
    with pytest.raises(ValidationError, match="non-finite value nan"):
        dumps_canonical({"x": np.array(np.nan)})


def test_determinism():
    payload = {"a": np.linspace(0.0, 1.0, 17), "b": {"c": 0.1 + 0.2}}
    assert dumps_canonical(payload) == dumps_canonical(payload)


def test_dual_scalar_is_an_object_of_its_parts():
    text = dumps_canonical({"x": DualScalar(np.array([1.0]), np.array([0.5]))})
    assert text == dumps_canonical({"x": {"re": np.array([1.0]), "du": np.array([0.5])}})
    assert dumps_canonical(DualScalar(2.0, 0.25)) == (
        '{\n  "du": 2.50000000000e-01,\n  "re": 2.00000000000e+00\n}\n'
    )


_EDGES = {
    np.float64: [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1.7976931348623157e308, -3.1e307,
                 1e-300, 9.999999999995e-301, 0.5, -1.0],
    np.float32: [0.0, -0.0, 1e-45, -1e-40, 1.1754944e-38, 3.4028235e38, -1e38, 0.5, -1.0],
}


@st.composite
def float_arrays(draw):
    """Float arrays as reports hold them, with views and non-finite values injected in some draws."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    # in one draw of five, a few thousand rows: 2-D arrays of them cross the kernel's block boundary
    big = draw(st.integers(0, 4)) == 0
    n = draw(st.integers(2 * serialize._BLOCK // 5, serialize._BLOCK // 2) if big else st.integers(1, 9))
    shape = draw(st.sampled_from([(n,), (n, 3), (n, draw(st.integers(1, 5)))]))
    width = 64 if dtype is np.float64 else 32
    elements = st.floats(width=width, allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGES[dtype])
    a = draw(hnp.arrays(dtype, shape, elements=elements))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    view = draw(st.sampled_from(["plain", "reversed", "transposed", "strided"]))
    if view == "reversed":
        a = a[::-1]
    elif view == "transposed":
        a = a.T
    elif view == "strided":
        a = a[::2]
    return a


def _outcome(payload):
    try:
        return dumps_canonical(payload)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@settings(max_examples=300, deadline=None)
@given(float_arrays())
def test_float_array_bytes_match_the_list_path(a):
    # a Python list takes the element-by-element path, which is the reference for arrays
    fast, reference = _outcome({"x": a, "y": [1.0]}), _outcome({"x": a.tolist(), "y": [1.0]})
    assert fast == reference
    assert fast.startswith("ValidationError: non-finite value") == (not np.all(np.isfinite(a)))


@pytest.mark.parametrize("a", [
    np.zeros(0), np.zeros((0, 3)), np.zeros((3, 0)), np.arange(8.0).reshape(2, 2, 2),
    np.arange(4, dtype=np.int64), np.array(["left", "right"]), np.array([True, False]),
    np.where(np.arange(1000) % 3 == 0, "TimelikeAxis", "SpacelikeAxis"),
], ids=["empty", "no_rows", "empty_rows", "3d", "int", "str", "bool", "str_labels"])
def test_other_arrays_match_the_list_path(a):
    assert dumps_canonical({"x": a}) == dumps_canonical({"x": a.tolist()})


def _per_item(a):
    """A top-level float array as "%.11e" % float(v), one element at a time."""
    return "[\n  " + ",\n  ".join("%.11e" % float(v) for v in a.ravel().tolist()) + "\n]\n"


def _kernel_cases():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, size=120_000, dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(1, 2**52, size=2000, dtype=np.uint64).view(np.float64)
    ties = rng.integers(10**11, 10**12, size=1000) + 0.5  # 13 digits ending in an exact 5
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, 123456789012.5, 123456789013.5,
             9999999999995000.0, 0.5]
    return np.concatenate([bits[np.isfinite(bits)], subnormal, ties, -ties, powers,
                           np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), edges])


@pytest.mark.parametrize("dtype", [np.longdouble, np.float64], ids=["long_double", "double"])
def test_digit_kernel_matches_the_per_item_format(dtype):
    # the kernel works in float64; a long double array of the same values takes it too
    values = _kernel_cases()
    assert values.size > 10 * serialize._BLOCK
    assert dumps_canonical(values.astype(dtype)) == _per_item(values)
    _, _, certain = serialize._decimal(values)
    exact_ties = (values % 1 == 0.5) & (np.abs(values) >= 1e11) & (np.abs(values) < 1e12)
    assert exact_ties.sum() >= 2000 and not certain[exact_ties].any()
    bits32 = np.random.default_rng(7).integers(0, 2**32, size=20_000, dtype=np.uint64).astype(np.uint32)
    floats32 = bits32.view(np.float32)
    floats32 = floats32[np.isfinite(floats32)]
    assert dumps_canonical(floats32) == _per_item(floats32)
    rows = values[: 3 * (serialize._BLOCK // 3 + 7)].reshape(-1, 3).astype(dtype)  # crosses a block boundary
    for a in (rows, rows[::-1], floats32[: rows.size].reshape(-1, 3)):
        assert dumps_canonical({"x": a}) == dumps_canonical({"x": a.tolist()})
    # blocks of one sign are their text, with no null-strip pass; Python's text of an
    # exact tie goes into its field, and one with a three-digit exponent is spliced in
    rng = np.random.default_rng(20261021)
    size = np.abs(values)
    exponents = 10.0 ** rng.uniform(-300, 300, size=3000)
    # positive: exact ties, three-digit exponents and plain values, shuffled
    shuffled = rng.permutation(np.concatenate([size[exact_ties], exponents, size[: serialize._BLOCK]]))
    positive = size[: serialize._BLOCK].copy()
    positive[17] = -0.0  # one minus sign in a positive block
    for a in (size, -size, shuffled, -shuffled, positive):
        assert dumps_canonical(a.astype(dtype)) == _per_item(a)
    for n in (serialize._BLOCK - 1, serialize._BLOCK, serialize._BLOCK + 1):
        for a in (size[:n], -shuffled[:n], values[:n]):
            assert dumps_canonical(a.astype(dtype)) == _per_item(a)
    for n in (serialize._BLOCK // 3, serialize._BLOCK // 3 + 1):  # one block of rows, and one more row
        # columns of one sign each, of either sign, and of both signs
        for columns in ([shuffled[:n], -size[:n], values[:n]], [-shuffled[:n], size[:n], -size[:n]]):
            a = np.stack(columns, axis=1)
            assert dumps_canonical({"x": a.astype(dtype)}) == dumps_canonical({"x": a.tolist()})
    # the whole array is checked first; the error names its first non-finite value in row-major order
    bad = rows.copy()
    bad[5, 2], bad[9, 0] = np.inf, np.nan
    with pytest.raises(ValidationError, match="non-finite value inf"):
        dumps_canonical({"x": bad})
    pieces = []
    with pytest.raises(ValidationError, match="non-finite value nan"):
        serialize.dump_canonical({"x": bad.T}, pieces.append)
    assert b"".join(pieces) == b'{\n  "x": '  # no number of the array was written


def _json_floats(text: bytes):
    """json's reading of a JSON array of numbers as float64, or None where json raises or
    gives no number array (ragged rows, strings, booleans alone, integers past int64)."""
    try:
        a = np.asarray(json.loads(text))
    except ValueError:
        return None
    return a.astype(float) if a.dtype.kind in "iuf" else None


def _reads_json_bits(text: bytes) -> bool:
    """Whether the reader takes text; where it does, its array is json's, bit for bit."""
    got = serialize.read_array(text)
    if got is None:
        return False
    want = _json_floats(text)
    assert want is not None, text[:80]
    assert got.dtype == np.float64 and got.flags.c_contiguous and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), text[:80]
    return True


def _near_halfway(x: float, digits: int) -> str:
    """The exact decimal expansion of the midpoint of x > 0 and the next float64, cut after
    `digits` significant digits, with a final 5."""
    mid = (Fraction(x) + Fraction(float(np.nextafter(x, np.inf)))) / 2
    with decimal.localcontext() as ctx:
        ctx.prec = 1200  # every midpoint of two float64 has fewer digits
        exact = (decimal.Decimal(mid.numerator) / decimal.Decimal(mid.denominator)).as_tuple()
    kept = "".join(map(str, exact.digits[:digits])) + "5"
    return f"{kept[0]}.{kept[1:]}e{len(exact.digits) + exact.exponent - 1}"


_FORMATS = ["%r", "%.17g"] + [f"%.{k}{c}" for k in range(21) for c in "feE"]


@st.composite
def _number_texts(draw):
    kind = draw(st.sampled_from(["float", "digits", "halfway", "edge"]))
    if kind == "float":
        x = draw(st.floats(allow_nan=False, allow_infinity=False))
        fmt = draw(st.sampled_from(_FORMATS))
        return repr(x) if fmt == "%r" else fmt % x
    if kind == "digits":  # up to 25 digits, leading zeros and all
        text = draw(st.sampled_from(["", "-"])) + draw(st.text("0123456789", min_size=1, max_size=25))
        if draw(st.booleans()):
            text += "." + draw(st.text("0123456789", min_size=1, max_size=25))
        if draw(st.booleans()):
            text += draw(st.sampled_from(["e", "E"])) + draw(st.sampled_from(["", "+", "-"]))
            text += draw(st.text("0123456789", min_size=1, max_size=4))
        return text
    if kind == "halfway":
        return _near_halfway(draw(st.floats(min_value=1e-300, max_value=1e300)), draw(st.integers(16, 19)))
    return draw(st.sampled_from(["0", "-0", "-0.0", "0.0", "0e0", "-0E-0", "123456789012345",
                                 "-999999999999999", "1234567890123456", "1e5", "1E5", "1e+5",
                                 "1E-5", "-2.5e-3", "1e400", "1e-400", "9007199254740993.0"]))


@st.composite
def _number_arrays(draw):
    numbers = draw(st.lists(_number_texts(), min_size=1, max_size=24))
    sep = draw(st.sampled_from([", ", ",", ",\n  "]))
    cols = draw(st.integers(0, 3))  # 0: depth 1
    if cols and len(numbers) >= cols:
        rows = [numbers[i : i + cols] for i in range(0, len(numbers) - cols + 1, cols)]
        text = "[" + sep.join("[" + sep.join(row) + "]" for row in rows) + "]"
    else:
        text = "[" + sep.join(numbers) + "]"
    text = bytearray(text.encode())
    for _ in range(draw(st.integers(0, 2))):  # structural damage
        at = draw(st.integers(0, len(text) - 1))
        token = draw(st.sampled_from([bytes([b]) for b in b" \n,[]0159.eE-+x\xff"]
                                     + [b"],[", b"][", b"[[", b"]]", b",,", b"0 0"]))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            text[at:at] = token
        elif edit == "replace":
            text[at : at + 1] = token
        elif len(text) > 2:
            del text[at]
    return bytes(text)


@settings(max_examples=400, deadline=None)
@given(_number_arrays())
def test_reader_gives_json_bits_or_declines(text):
    with np.errstate(all="raise", under="ignore"):  # as the CLI runs it
        _reads_json_bits(text)


def test_reader_on_adversarial_arrays():
    rng = np.random.default_rng(20261022)
    x = rng.normal(size=3 * serialize._BLOCK + 7) * 10.0 ** rng.integers(-20, 20, size=3 * serialize._BLOCK + 7)
    # near-halfway decimals of 17 to 19 digits that float64 products settle, and exact
    # ties, powers of two and edges, some of which only Python's float() settles
    halfway = [_near_halfway(v, int(k)) for v, k in zip(np.abs(x[:2000]).tolist(), rng.integers(16, 19, size=2000))]
    edges = ["0", "-0", "-0.0", "0e0", "-0e-5", "123456789012345", "-123456789012345", "1e22", "1e23",
             "9007199254740993.0", "9007199254740992.5", "4.9e-324", "2.2250738585072014e-308",
             "1.7976931348623157e308", "1E+2", "1e-2", "0.1", "0.30000000000000004", "8.98846567431158e307"]
    # "%.17g" writes a value from 1e16 as an integer, which json reads as an int; the
    # array with the edges goes to json whole, the others are read
    for numbers, settled in (([repr(v) for v in x.tolist()], True),
                             (["%.17g" % v for v in (x[:5000] / 1e6).tolist()], True),
                             (["%.15e" % v for v in x[:5000].tolist()], True),
                             (halfway + edges + [repr(v) for v in x[:300].tolist()], False)):
        numbers = numbers[: len(numbers) // 3 * 3]
        for sep in (", ", ",", ",\n  "):
            rows = (sep.join(numbers[i : i + 3]) for i in range(0, len(numbers), 3))
            for text in ("[" + sep.join(numbers) + "]", "[[" + ("]" + sep + "[").join(rows) + "]]"):
                assert _reads_json_bits(text.encode()) or not settled
    # damage across piece edges, where the skeleton of one piece meets the next: at the
    # comma that ends the first piece and at a comma inside the third, of four or more
    text = json.dumps(x[: x.size // 3 * 3].reshape(-1, 3).tolist()).encode()
    ends = [text.find(b",", 1 + 16 * serialize._BLOCK)]
    ends.append(text.find(b",", ends[0] + 1 + 16 * serialize._BLOCK))
    assert text.find(b",", ends[1] + 1 + 16 * serialize._BLOCK) > 0  # a fourth piece
    for at in (ends[0], text.find(b",", ends[1] + 1 + 8 * serialize._BLOCK)):
        for damaged in [text[:at] + token + text[at + 1 :] for token in (b"", b"]", b" ", b",,")] + [
                text[: at + 1] + token + text[at + 1 :] for token in (b"0 ", b"],[", b"][")]:
            assert _reads_json_bits(damaged) == (_json_floats(damaged) is not None), (at, damaged[at - 5 : at + 8])
    # each near-halfway decimal alone, beside 1.5: the products settle nearly all of them
    assert sum(_reads_json_bits(f"[{h}, 1.5]".encode()) for h in halfway) >= 0.9 * len(halfway)
    # json's path: not a JSON array of numbers, not finite, json's int, or no float64 array
    for text in ["[]", "[[]]", "[[], []]", "[1,]", "[,1]", "[1 2]", "[1,,2]", "[[1], [2, 3]]", "[[[1]]]",
                 "[1, [2]]", "[[1], 2]", "[NaN]", "[Infinity]", "[-Infinity]", "[1e400]", "[1.]", "[.5]",
                 "[01]", "[+1]", "[-]", "[1_0]", "[true]", "[null]", '["1"]', "[1234567890123456]",
                 "[-1234567890123456]", "[1e]", "[1e+]", "[1.e5]", "[1.2.3]", "[1e5.3]", "[1e5e5]", "[--1]",
                 "[1-2]", "[0x10]", "[1]]", "[[1]", " [1]", "[1] ", "[\f1]", "[1\xa0]"]:
        assert serialize.read_array(text.encode("latin-1")) is None, text


@pytest.mark.parametrize("scale", [10.0**k for k in range(-4, 7)])
def test_reader_reads_repr_in_every_decade(scale):
    # repr writes 17 significant digits at most, and from 1e-4 to 1e-2 "0.00" or "0.000"
    # before them: leading zeros add no significant digit, so every decade is read
    rng = np.random.default_rng(20261023)
    v = scale * rng.uniform(1.0, 10.0, size=(3 * serialize._BLOCK + 7, 3)) * rng.choice([-1.0, 1.0], size=3)
    for a in (v[:, 0], v):
        assert _reads_json_bits(json.dumps(a.tolist()).encode())


@pytest.mark.parametrize("number", ["4.9e-324", "9007199254740993.0", "1e-400", "1.7976931348623157e308",
                                    "12345678901234567890.5", "0.1000000000000000000000001"])
def test_one_unsettled_number_sends_the_array_to_json(number):
    # a subnormal, an exact tie, an exponent past the products' range, m of 10**19 or
    # more, more than 24 digits: json reads the array, whatever the other 999 numbers are
    numbers = [repr(v) for v in np.random.default_rng(20261024).normal(size=1000).tolist()]
    numbers[500] = number
    text = ("[" + ", ".join(numbers) + "]").encode()
    assert serialize.read_array(text) is None
    assert _json_floats(text) is not None


def test_reader_memory_follows_its_output():
    # one pass over the pieces: besides its output the reader holds the skeleton, about
    # 2 bytes a number, and one piece of text with its events
    import tracemalloc

    text = json.dumps(np.random.default_rng(20261025).normal(size=(65536, 3)).tolist()).encode()
    serialize._reader_tables()  # the lazy tables are not the reader's
    tracemalloc.start()
    try:
        out = serialize.read_array(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (65536, 3)
    assert peak <= 4 * out.nbytes


def _rows(a, fmt, prefix):
    parts = []
    serialize.write_rows(a, fmt, prefix, parts.append)
    return b"".join(parts).decode("ascii")


def _fixed_cases():
    rng = np.random.default_rng(20261019)
    lo, hi = np.array([1e-12, 1e6]).view(np.int64)
    bits = rng.integers(lo, hi, size=60_000).view(np.float64)  # every bit pattern in [1e-12, 1e6]
    ties = (2 * rng.integers(0, 2**29, size=3000) + 1) / 1024.0  # odd multiples of 2**-10
    tiny = [-0.0, 0.0, -5e-324, -1e-300, -1e-12, -4.9e-10, -5e-10, -5.1e-10, 4.9e-10, 5e-10]
    past = [1e8, -1e8, np.nextafter(1e8, 0.0), 123456789.5, 1e15, -1e20, 1.7976931348623157e308,
            np.nan, np.inf, -np.inf]
    values = np.concatenate([bits, -bits[::7], ties, -ties, 1 / 1024.0 + np.zeros(1), tiny, past])
    return values[: values.size // 3 * 3].reshape(-1, 3), ties


@pytest.mark.parametrize("dtype", [np.longdouble, np.float64], ids=["long_double", "double"])
def test_fixed_and_integer_modes_match_python(dtype):
    # the OBJ modes of the digit kernel, held to "%.9f" and "%d" as CPython prints them
    rows, ties = _fixed_cases()
    assert rows.size > 5 * serialize._BLOCK
    assert _rows(rows.astype(dtype), "%.9f", "v") == "".join("v %.9f %.9f %.9f\n" % tuple(r) for r in rows.tolist())
    certain = serialize._fixed(ties[None])[-1]  # one column
    assert not certain.any()  # exact ties at the 10th decimal go to Python
    assert _rows(np.array([[-0.0, -1e-12, -4e-10]]), "%.9f", "v") == "v -0.000000000 -0.000000000 -0.000000000\n"
    rng = np.random.default_rng(5)
    ints = np.concatenate([rng.integers(10 ** (d - 1), 10**d, size=3000) for d in range(1, 9)]
                          + [[0, 9, 10, 9999, 10000, 99999999, 10**8, 10**9, -1, -(10**8), 2**62]])
    ints = ints[: ints.size // 3 * 3].reshape(-1, 3)
    assert _rows(ints, "%d", "f") == "".join("f %d %d %d\n" % tuple(r) for r in ints.tolist())
    assert _rows(np.zeros((0, 3)), "%.9f", "v") == ""


def test_obj_mesh_matches_the_percent_template(tmp_path):
    # the mesh the export wrote before the digit kernel, across a block boundary
    from dualruled.cli import _write_obj

    rng = np.random.default_rng(11)
    points, e = rng.normal(scale=30.0, size=(2 * serialize._BLOCK // 9, 3)), rng.normal(size=(2 * serialize._BLOCK // 9, 3))
    points[:5] = [[0.5 / 1024, -0.0, 1e-12], [-3e-10, 2.5, 1e7], [123.0000000005, -7.0, 0.0],
                  [1e8, -1e9, 1e-300], [np.pi, -np.e, 1 / 3]]
    path = tmp_path / "mesh.obj"
    _write_obj(str(path), points, e, -1.0, 2.0, 5)
    vs = np.linspace(-1.0, 2.0, 5)
    verts = (points[:, None, :] + vs[None, :, None] * e[:, None, :]).ravel()
    a = (np.arange(len(points) - 1)[:, None] * 5 + np.arange(1, 5)).ravel()
    faces = np.stack([a, a + 5, a + 6, a, a + 6, a + 1], axis=-1).ravel()
    text = (("v %.9f %.9f %.9f\n" * (len(verts) // 3)) % tuple(verts.tolist())
            + ("f %d %d %d\nf %d %d %d\n" * len(a)) % tuple(faces.tolist()))
    assert verts.size > serialize._BLOCK and faces.size > serialize._BLOCK
    assert path.read_bytes() == text.encode()


def test_streaming_a_report_holds_no_array_text(tmp_path):
    # a 2**17 x 3 float array is 9 MB of text; the stream holds one block of it at a time
    import tracemalloc

    payload = {"x": np.random.default_rng(3).normal(size=(2**17, 3)), "y": np.arange(5.0)}
    serialize._tables(), serialize._powers()  # the lazy tables are not the stream's
    path = tmp_path / "x.json"
    tracemalloc.start()
    try:
        with open(path, "wb") as fh:
            serialize.dump_canonical(payload, fh.write)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert path.read_text() == dumps_canonical(payload)
