"""Column-major storage of every N x 3 field, and its independence from the input layout.

The kernel stores each N x 3 field column-major, so each of the three
components is one contiguous vector; these tests fail when a change brings
row-major fields back. The layout must never show in a result: the whole
oracle pipeline gives the same bits from C-ordered, column-major, reversed
and strided inputs.
"""

import numpy as np
import pytest

from dualruled import (
    SampledCurve,
    build_surface,
    cone_curves,
    consistency_report,
    construct_offset,
    dual_apparatus,
    dual_frame,
    dual_frame_residuals,
    frame_residuals,
    hyperbola_curves,
    offset_angle_profile,
    study_residual,
    synth_constant_invariant,
)

FIELDS = ("e", "t", "g", "c")


def column_major(*arrays):
    return all(a.ndim == 2 and a.shape[1] == 3 and a.flags.f_contiguous for a in arrays)


def layouts(a):
    """The same values as a C-ordered, column-major, reversed and strided array."""
    c = np.ascontiguousarray(a)
    reversed_ = np.ascontiguousarray(c[::-1])[::-1]
    strided = np.repeat(c, 2, axis=0)[::2]
    return {"C": c, "F": np.asfortranarray(c), "reversed": reversed_, "strided": strided}


@pytest.mark.parametrize("layout", ["C", "F", "reversed", "strided"])
def test_build_surface_stores_fields_column_major(disguise, layout):
    u, director, base = disguise.sample(257)
    m = build_surface(SampledCurve(u, layouts(director)[layout]),
                      SampledCurve(u, layouts(base)[layout]))
    assert column_major(*(getattr(m, k) for k in FIELDS))


@pytest.mark.parametrize("make", [
    lambda: synth_constant_invariant(0.5, 0.3, 0.2, (0.0, 2.0), 257),
    lambda: build_surface(*cone_curves((1.0, 2.0, 3.0), (0.0, 2.0), 257)),
    lambda: build_surface(*hyperbola_curves((0.0, 2.0), 257)),
], ids=["constant_invariant", "cone", "planar_hyperbola"])
def test_fixture_surfaces_are_column_major(make):
    m = make()
    assert column_major(*(getattr(m, k) for k in FIELDS))
    lines = dual_frame(m)
    assert column_major(*(x.re for x in lines), *(x.du for x in lines))


def test_fixture_curves_are_column_major():
    for director, base in (hyperbola_curves((0.0, 2.0), 64), cone_curves((1.0, 2.0, 3.0), (0.0, 2.0), 64)):
        assert column_major(director.values, base.values)


def test_offset_fields_are_column_major(offset_pieces):
    _, _, offset = offset_pieces
    assert offset.orientation == -1  # the rebuild ran on the reversed window
    assert column_major(offset.c1, offset.e1_dual.re, offset.e1_dual.du)


def pipeline(u, director, base):
    """Every array of one oracle pipeline (as the benchmark runs it), by name."""
    m = build_surface(SampledCurve(u, director), SampledCurve(u, base))
    app = dual_apparatus(m)
    spec = offset_angle_profile(m, 2.5, 0.3, (m.s_grid[len(u) // 4], m.s_grid[3 * len(u) // 4]))
    off = construct_offset(m, spec)
    rep = consistency_report(m, spec, off)
    out = {k: getattr(m, k) for k in ("s_grid", *FIELDS, "gamma", "delta", "Delta")}
    duals = {"s_bar": m.s_bar}
    duals.update({k: getattr(app, k) for k in ("gamma_bar", "R_bar", "rho_cosh", "rho_sinh")})
    for k, v in duals.items():
        out[f"app.{k}.re"], out[f"app.{k}.du"] = v.re, v.du
    out.update({f"frame.{k}": v for k, v in frame_residuals(m).items()})
    out.update({f"dual.{k}": v for k, v in dual_frame_residuals(m).items()})
    out["study"] = study_residual(m)
    out.update({"theta": spec.theta, "theta_star": spec.theta_star, "e1.re": off.e1_dual.re,
                "e1.du": off.e1_dual.du})
    out.update({f"offset.{k}": getattr(off, k) for k in (
        "s1_grid", "ds1_ds", "c1", "gamma1", "delta1", "Delta1", "rho1_star",
        "mannheim_real_residual", "mannheim_dual_residual")})
    for group in ("oracle", "formulas", "residuals"):
        for k, v in getattr(rep, group).items():
            parts = {"re": v.re, "du": v.du} if hasattr(v, "du") else {"": v}
            out.update({f"{group}.{k}.{p}": a for p, a in parts.items()})
    return {k: np.asarray(v) for k, v in out.items()}


def test_oracle_pipeline_bits_do_not_depend_on_input_layout(disguise):
    u, director, base = disguise.sample(4097)
    runs = {name: pipeline(u, d, b)
            for (name, d), b in zip(layouts(director).items(), layouts(base).values())}
    want = runs.pop("C")
    for name, got in runs.items():
        assert got.keys() == want.keys()
        for key in want:
            same = got[key].shape == want[key].shape and got[key].tobytes() == want[key].tobytes()
            assert same, (name, key)
