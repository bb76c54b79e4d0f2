"""Canonical JSON writer: fixed float width, sorted keys, hard rejections."""

import json

import numpy as np
import pytest

from dualruled import DualScalar, dumps_canonical
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


def test_determinism():
    payload = {"a": np.linspace(0.0, 1.0, 17), "b": {"c": 0.1 + 0.2}}
    assert dumps_canonical(payload) == dumps_canonical(payload)


def test_dual_scalar_is_an_object_of_its_parts():
    text = dumps_canonical({"x": DualScalar(np.array([1.0]), np.array([0.5]))})
    assert text == dumps_canonical({"x": {"re": np.array([1.0]), "du": np.array([0.5])}})
    assert dumps_canonical(DualScalar(2.0, 0.25)) == (
        '{\n  "du": 2.50000000000e-01,\n  "re": 2.00000000000e+00\n}\n'
    )
