"""Valid configs near each numerical guard, through cli.main: exit 0 or 3, never 2.

Exit 2 means the input is wrong; the configs drawn here are all valid, so a
guard that trips on them must report a degeneracy (exit 3). They sit near
the guards: |gamma| close to 1, tiny Delta, theta = c - s near 0 in the
window, and sampled curves traversed at a steep reparameterization. A
nonzero exit prints one stderr line and leaves no output file behind. Sizes
stay small: at most 64 surface samples.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from conftest import family
from hypothesis import given, settings, strategies as st

from dualruled.cli import build_model, main, parse_config
from dualruled.errors import KernelError
from dualruled.numerics import MIN_SAMPLES


@st.composite
def invariants(draw):
    if draw(st.booleans()):  # |gamma| = 1 - 10^U(-9, -1)
        gamma = draw(st.sampled_from([1.0, -1.0])) * (1.0 - 10.0 ** draw(st.floats(-9.0, -1.0)))
    else:
        gamma = draw(st.floats(-0.95, 0.95))
    Delta = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(-1.0, 1.0)))
    return gamma, draw(st.floats(-1.0, 1.0)), Delta


@st.composite
def configs(draw):
    gamma, delta, Delta = draw(invariants())
    if draw(st.booleans()):
        return {"name": "near", "kind": "constant_invariant", "samples": draw(st.integers(24, 64)),
                "params": {"gamma": gamma, "delta": delta, "Delta": Delta}}
    # the same family in a steep parameter x: s = 2 (e^{kx} - 1) / (e^k - 1)
    x = np.linspace(0.0, 1.0, draw(st.integers(24, 64)))
    k = draw(st.floats(1.0, 6.0))
    e, c = family(gamma, delta, Delta)(2.0 * np.expm1(k * x) / np.expm1(k))
    return {"name": "steep", "kind": "sampled", "params": {
        "u": x.tolist(), "director": (draw(st.floats(0.5, 3.0)) * e).tolist(), "base": c.tolist()}}


def window(draw, cfg) -> list:
    """No window, or one of at least MIN_SAMPLES samples of the model's s grid."""
    try:
        s = build_model(parse_config(cfg)).s_grid
    except KernelError:  # the run itself ends on this error
        return []
    if not draw(st.booleans()):
        return []
    lo = draw(st.integers(0, len(s) - MIN_SAMPLES))
    hi = draw(st.integers(lo + MIN_SAMPLES - 1, len(s) - 1))
    return [f"--s-lo={float(s[lo])!r}", f"--s-hi={float(s[hi])!r}"]


@st.composite
def runs(draw):
    cfg = draw(configs())
    command = draw(st.sampled_from(["analyze", "offset", "export"]))
    if command == "analyze":
        return cfg, ["analyze"]
    # theta = c - s on s in about [0, 2]: near 0 for c near the window, cosh(theta) finite
    c = draw(st.one_of(st.floats(-2.0, 4.0), st.floats(-8.0, 10.0)))
    argv = [f"--c={c!r}", f"--cstar={draw(st.floats(-1.0, 1.0))!r}", *window(draw, cfg)]
    if command == "offset":
        return cfg, ["offset", *argv, "--verify=VERIFY"]
    return cfg, ["export", "--offset", "--v-min=-1", "--v-max=1", "--v-samples=3", *argv]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(runs())
def test_valid_configs_near_the_guards_never_exit_2(run):
    cfg, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out_dir = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        os.mkdir(out_dir)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        argv = [a.replace("VERIFY", os.path.join(out_dir, "verify.json")) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--input", cfg_path, "--output", os.path.join(out_dir, "out")])
        assert code in (0, 3), err.getvalue()
        if code:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            assert os.listdir(out_dir) == []
        else:
            assert err.getvalue() == ""
