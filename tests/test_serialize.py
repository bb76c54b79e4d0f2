"""Canonical JSON writer: fixed float width, sorted keys, hard rejections."""

import json

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
    _, certain = serialize._fixed(ties)
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
    assert peak < 4 * 2**20
    assert path.read_text() == dumps_canonical(payload)
