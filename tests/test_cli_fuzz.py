"""Fuzzed configs and flags through cli.main: every run ends in exit 0, 2 or 3.

A nonzero exit prints one stderr line and leaves no output file behind, and a
number slot holding a JSON string or boolean is refused with exit 2. Sizes stay
small: at most 64 surface samples and 4 mesh samples per ruling.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from dualruled.cli import KINDS, main

NUMBERS = st.one_of(
    st.floats(-4.0, 4.0),
    st.integers(-3, 64),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308]),
)
JUNK = st.one_of(
    st.sampled_from(["12", "0.5", "64", "nan", "", "abc"]),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.lists(st.one_of(st.integers(-2, 2), st.booleans(), st.text(max_size=2)), max_size=4),
    st.lists(st.lists(st.one_of(st.floats(-1.0, 1.0), st.booleans()), max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])


def rarely(draw) -> bool:
    """True for at most about one draw in ten."""
    return draw(st.sampled_from([False] * 9 + [True]))


def spelled(value, as_bool: bool):
    """A number or (nested) list of numbers with every number as str(x), or as x != 0."""
    if isinstance(value, list):
        return [spelled(v, as_bool) for v in value]
    return bool(value) if as_bool else str(value)


def _leaves(value):
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _text_or_flag(value) -> bool:
    """Whether a number slot holds a string or boolean, a list with a string, or only booleans."""
    if isinstance(value, (str, bool)):
        return True
    leaves = list(_leaves(value)) if isinstance(value, list) else []
    # numpy upcasts booleans mixed with numbers, so only an all-boolean list is refused
    return any(isinstance(x, str) for x in leaves) or (
        bool(leaves) and all(isinstance(x, bool) for x in leaves))


def _reads_text_or_flag(cfg) -> bool:
    # a config the parser refuses before its number slots exits 2 anyway
    if not (isinstance(cfg, dict) and cfg.get("kind") in KINDS
            and isinstance(cfg.get("params", {}), dict)):
        return False
    kind, params = cfg["kind"], cfg.get("params", {})
    slots = {"constant_invariant": ("gamma", "delta", "Delta"), "cone": ("apex", "director"),
             "sampled": ("u", "director", "base")}.get(kind, ())
    values = [cfg.get("samples")] + [params.get(k) for k in slots]
    if kind != "sampled":
        values.append(cfg.get("s_range"))
    return any(_text_or_flag(v) for v in values)


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(KINDS))
    cfg = {"name": draw(st.text(max_size=4)), "kind": kind, "samples": draw(st.integers(5, 64))}
    if kind == "constant_invariant":
        # gamma off zero, or the offset indicatrix stalls (exit 3)
        cfg["params"] = {"gamma": draw(st.floats(0.1, 0.9)), "delta": draw(st.floats(-1.0, 1.0)),
                         "Delta": draw(st.floats(-1.0, 1.0))}
    elif kind == "cone":
        cfg["params"] = {"apex": draw(st.lists(NUMBERS, min_size=3, max_size=3))}
    elif kind == "sampled":
        n = draw(st.integers(2, 40))
        u = np.linspace(0.0, draw(st.floats(0.2, 1.0)), n)
        if draw(st.booleans()):  # a non-uniform grid, resampled by the CLI
            u = u + 0.2 * (u[-1] - u[0]) * np.sin(np.pi * u / u[-1]) / np.pi
        k = draw(st.floats(0.1, 0.5))
        cfg["params"] = {
            "u": u.tolist(),
            "director": np.stack([np.cosh(u), np.sinh(u), k * u], axis=-1).tolist(),
            "base": np.stack([0 * u, np.sin(u), u], axis=-1).tolist(),
        }
        if draw(st.booleans()):
            del cfg["samples"]  # the array length
    if kind != "sampled":
        lo = draw(st.floats(-1.0, 0.0))
        cfg["s_range"] = [lo, lo + draw(st.floats(0.5, 2.5))]
    params = cfg.get("params", {})
    # spell one number slot as JSON text or booleans, which float() and numpy would read
    where, slot = draw(st.sampled_from([(cfg, k) for k in ("samples", "s_range") if k in cfg]
                                       + [(params, k) for k in params]))
    if rarely(draw) or rarely(draw):
        where[slot] = spelled(where[slot], draw(st.booleans()))
    # replace some slots with junk or out-of-range numbers
    slots = [(cfg, k) for k in ("name", "kind", "params", "samples", "s_range")]
    for where, slot in slots + [(params, k) for k in params]:
        if rarely(draw):
            where[slot] = draw(st.one_of(JUNK, NUMBERS))
    return draw(JUNK) if rarely(draw) and rarely(draw) else cfg


def float_flag(draw, finite=st.floats(-4.0, 4.0)) -> str:
    return repr(draw(NON_FINITE if rarely(draw) else finite))


@st.composite
def commands(draw):
    command = draw(st.sampled_from(["analyze", "offset", "export"]))
    if command == "analyze":
        return ["analyze"]
    argv = [command]
    if command == "export":
        argv += [f"--v-min={float_flag(draw, st.floats(-2.0, 0.5))}",
                 f"--v-max={float_flag(draw, st.floats(0.0, 2.0))}",
                 f"--v-samples={draw(st.integers(-1, 4))}"]
        if not draw(st.booleans()):
            return argv
        argv.append("--offset")
    # c > 3.5 keeps theta = c - s off zero on every drawn s range
    angle = st.one_of(st.floats(3.5, 8.0), st.floats(-4.0, 4.0))
    for flag in ("c", "cstar"):
        if command == "offset" or not rarely(draw):
            argv.append(f"--{flag}={float_flag(draw, angle)}")
    # no window or both bounds, mostly; one bound alone is a flag error
    both = ("s-lo", "s-hi")
    window = draw(st.sampled_from([(), both, (), both, ("s-lo",), ("s-hi",)]))
    if window == both:
        argv += [f"--s-lo={float_flag(draw, st.floats(0.0, 0.2))}",
                 f"--s-hi={float_flag(draw, st.floats(-1.0, 1.0))}"]
    elif window:
        argv.append(f"--{window[0]}={float_flag(draw)}")
    if command == "offset" and draw(st.booleans()):
        argv.append("--verify=VERIFY")
    return argv


@settings(max_examples=250, deadline=None, derandomize=True)
@given(configs(), commands())
def test_fuzzed_configs_and_flags_end_cleanly(cfg, argv):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out_dir = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        os.mkdir(out_dir)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        argv = [a.replace("VERIFY", os.path.join(out_dir, "verify.json")) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--input", cfg_path, "--output", os.path.join(out_dir, "out")])
        assert code in (0, 2, 3)
        if code:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            assert os.listdir(out_dir) == []
        else:
            assert err.getvalue() == ""
        if _reads_text_or_flag(cfg):
            assert code == 2, err.getvalue()
