"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances here are contractual; do not loosen them to make a
failing build green.
"""

import dataclasses
import json

import numpy as np
import pytest

from dualruled import (
    DualScalar,
    EPS,
    construct_offset,
    det3,
    dual_angle,
    dual_apparatus,
    dual_frame_residuals,
    encode_line,
    decode_line_point,
    frame_residuals,
    lcross,
    linner,
)
from dualruled.cli import main
from dualruled.dual_algebra import dual_artanh, dual_cosh, dual_sinh, dual_tanh
from dualruled.mannheim_offset import formula_residuals

FIXTURE_INVARIANTS = {
    "planar": (0.0, 0.0, 1.0),
    "constant": (0.5, 0.3, 0.2),
    "cone": (0.0, 0.0, 0.0),
}


def test_criterion_01_dual_ring_and_chain_rule(rng):
    n = 10_000
    def draw():
        return DualScalar(rng.uniform(-1e3, 1e3, n), rng.uniform(-1e3, 1e3, n))
    a, b, c = draw(), draw(), draw()

    def close(x, y, tol):
        scale = 1.0 + np.maximum(np.abs(y.re), np.abs(y.du))
        assert np.max(np.abs(x.re - y.re) / scale) < tol
        assert np.max(np.abs(x.du - y.du) / scale) < tol

    close((a + b) + c, a + (b + c), 1e-12)
    close((a * b) * c, a * (b * c), 1e-12)
    close(a * (b + c), a * b + a * c, 1e-12)
    ab, ba = a + b, b + a
    assert np.array_equal(ab.re, ba.re) and np.array_equal(ab.du, ba.du)
    pq, qp = a * b, b * a
    assert np.array_equal(pq.re, qp.re) and np.array_equal(pq.du, qp.du)
    eps2 = EPS * EPS
    assert eps2.re == 0.0 and eps2.du == 0.0

    # chain rule at scale: artanh(tanh(x)) is the identity in both parts
    x = DualScalar(rng.uniform(-0.95, 0.95, n), rng.uniform(-3.0, 3.0, n))
    close(dual_artanh(dual_tanh(x)), x, 1e-12)
    y = DualScalar(rng.uniform(-2.0, 2.0, n), rng.uniform(-3.0, 3.0, n))
    ch, sh = dual_cosh(y), dual_sinh(y)
    close(ch * ch - sh * sh, DualScalar(np.ones(n), np.zeros(n)), 1e-12)

    # dual parts are derivatives: central differences converge at O(h^2)
    pts = rng.uniform(-1.5, 1.5, 200)
    seed = DualScalar(pts, np.ones_like(pts))
    real_fn = {"sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh}
    dual_fn = {"sinh": dual_sinh, "cosh": dual_cosh, "tanh": dual_tanh}

    def fd_err(name, h):
        du = dual_fn[name](seed).du
        num = (real_fn[name](pts + h) - real_fn[name](pts - h)) / (2.0 * h)
        return np.max(np.abs(num - du))

    ratio = fd_err("sinh", 1e-2) / fd_err("sinh", 1e-3)
    assert 25.0 < ratio < 400.0
    for name in real_fn:
        for h in (1e-4, 1e-5):
            out = dual_fn[name](seed)
            bound = 1e3 * (1.0 + np.max(np.abs(out.du))) * h * h
            assert fd_err(name, h) < bound, (name, h)
    print("\n[acceptance] criterion 1: PASS")


def test_criterion_02_cross_determinant_identity(rng):
    a = rng.uniform(-5.0, 5.0, (1000, 3))
    b = rng.uniform(-5.0, 5.0, (1000, 3))
    c = rng.uniform(-5.0, 5.0, (1000, 3))
    lhs = linner(lcross(a, b), c)
    rhs = -det3(a, b, c)
    scale = np.maximum(1.0, np.abs(rhs))
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-10
    print("\n[acceptance] criterion 2: PASS")


def test_criterion_03_frame_pipeline(all_surfaces):
    for name, m in all_surfaces.items():
        assert len(m) == 1024, name
        r = frame_residuals(m)
        assert max(r.values()) < 1e-5, (name, r)
        g0, d0, D0 = FIXTURE_INVARIANTS[name]
        assert np.max(np.abs(m.gamma - g0)) < 1e-6, name
        assert np.max(np.abs(m.delta - d0)) < 1e-6, name
        assert np.max(np.abs(m.Delta - D0)) < 1e-6, name
    print("\n[acceptance] criterion 3: PASS")


def test_criterion_04_dual_frame_derivatives(all_surfaces):
    for name, m in all_surfaces.items():
        r = dual_frame_residuals(m)
        assert r["director_ode"] < 1e-4, name
        assert r["tangent_ode"] < 1e-4, name
        assert r["normal_ode"] < 1e-4, name
        assert r["director_speed_re"] < 1e-5, name
        assert r["director_speed_du"] < 1e-5, name
    print("\n[acceptance] criterion 4: PASS")


def test_criterion_05_dual_apparatus_identities(all_surfaces):
    for name, m in all_surfaces.items():
        ap = dual_apparatus(m)
        unit = ap.R_bar * ap.R_bar * (1.0 - ap.gamma_bar * ap.gamma_bar)
        assert np.max(np.abs(unit.re - 1.0)) < 1e-8, name
        assert np.max(np.abs(unit.du)) < 1e-8, name
        hyper = ap.rho_cosh * ap.rho_cosh - ap.rho_sinh * ap.rho_sinh
        assert np.max(np.abs(hyper.re - 1.0)) < 1e-8, name
        assert np.max(np.abs(hyper.du)) < 1e-8, name
    ap = dual_apparatus(all_surfaces["constant"])
    assert np.max(np.abs(ap.gamma_bar.re - 0.5)) < 1e-5
    assert np.max(np.abs(ap.gamma_bar.du - 0.4)) < 1e-5
    assert np.max(np.abs(ap.R_bar.re - 1.154701)) < 1e-5
    assert np.max(np.abs(ap.R_bar.du - 0.307920)) < 1e-5
    print("\n[acceptance] criterion 5: PASS")


def test_criterion_06_study_roundtrip(rng):
    n = 1000
    r = rng.uniform(0.0, 2.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    v = np.stack([np.cosh(r), np.sinh(r) * np.cos(phi), np.sinh(r) * np.sin(phi)], axis=-1)
    p = rng.uniform(-2.0, 2.0, (n, 3))
    lines = encode_line(v, p)
    q = decode_line_point(lines)
    # decoded point must sit on the original line (Euclidean distance)
    rel = q - p
    cr = np.cross(rel, v)
    dist = np.sqrt(np.sum(cr * cr, axis=-1)) / np.sqrt(np.sum(v * v, axis=-1))
    assert np.max(dist) < 1e-10
    again = encode_line(v, q)
    assert np.max(np.abs(again.du - lines.du)) < 1e-10
    assert np.max(np.abs(again.re - lines.re)) < 1e-10

    one = encode_line(np.array([1.0, 0.0, 0.0]), np.zeros(3))
    other = encode_line(np.array([np.cosh(1.0), np.sinh(1.0), 0.0]), np.array([0.0, 0.0, 2.0]))
    ang = dual_angle(one, other)
    assert abs(ang.re - 1.0) < 1e-9
    assert abs(abs(ang.du) - 2.0) < 1e-9
    print("\n[acceptance] criterion 6: PASS")


def test_criterion_07_mannheim_parallelism(offset_pieces):
    m, spec, offset = offset_pieces
    assert np.max(offset.mannheim_real_residual) < 1e-4
    bad_spec = dataclasses.replace(spec, theta=-1.05 * spec.s + 3.0)
    broken = construct_offset(m, bad_spec)
    assert np.min(broken.mannheim_real_residual) > 1e-3
    print("\n[acceptance] criterion 7: PASS")


def test_criterion_08_confirmed_offset_laws(offset_pieces):
    m, spec, offset = offset_pieces
    theta = spec.theta
    coth = np.cosh(theta) / np.sinh(theta)
    sl = spec.window
    assert np.max(np.abs(offset.gamma1 + coth)) < 1e-3
    assert offset.gamma1[-1] == pytest.approx(-1.313035, abs=1e-4)
    rate = np.abs(m.gamma[sl] * np.sinh(theta))
    assert np.max(np.abs(np.abs(offset.ds1_ds) - rate)) < 1e-3
    assert abs(offset.ds1_ds[-1]) == pytest.approx(0.587601, abs=1e-6)
    assert np.max(np.abs(offset.apparatus1.rho_cosh.re - np.cosh(theta))) < 1e-3
    print("\n[acceptance] criterion 8: PASS")


def test_criterion_09_consistency_report(offset_report):
    r = offset_report
    assert len(r.verdicts) == 16
    residuals = formula_residuals(r.formulas, r.oracle)
    for key, res in residuals.items():
        assert len(np.asarray(res if not isinstance(res, DualScalar) else res.re)) == len(r.s), key
    assert r.s[-1] == 2.0
    assert r.theta_star[-1] == pytest.approx(0.7, abs=1e-5)
    assert r.formulas["dist_param_rate_route"][-1] == pytest.approx(-1.519125, abs=1e-5)
    assert r.formulas["dist_param_det_route"][-1] == pytest.approx(0.274786, abs=1e-5)
    assert residuals["dist_param_det_route"][-1] == pytest.approx(1.793911, abs=1e-5)
    assert r.formulas["offset_distance_constraint"][-1] == pytest.approx(0.158530, abs=1e-5)
    assert r.verdicts["conical_curvature"] == "CONFIRMED"
    assert r.verdicts["dist_param_rate_route"] == "CONFIRMED"
    assert r.verdicts["dist_param_det_route"] == "DISCREPANT"
    assert r.verdicts["offset_distance_constraint"] == "DISCREPANT"
    print("\n[acceptance] criterion 9: PASS")


def test_criterion_10_cli_determinism_and_errors(tmp_path, capsys):
    configs = {
        "planar": {"name": "planar", "kind": "planar_hyperbola",
                   "s_range": [0.0, 2.0], "samples": 1024},
        "constant": {"name": "constant", "kind": "constant_invariant",
                     "params": {"gamma": 0.5, "delta": 0.3, "Delta": 0.2},
                     "s_range": [0.0, 2.0], "samples": 1024},
        "cone": {"name": "cone", "kind": "cone", "params": {"apex": [1.0, 2.0, 3.0]},
                 "s_range": [0.0, 2.0], "samples": 1024},
    }
    paths = {}
    for name, data in configs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data))
        paths[name] = str(p)

    for name in configs:
        a1, a2 = tmp_path / f"{name}-r1.json", tmp_path / f"{name}-r2.json"
        assert main(["analyze", "--input", paths[name], "--output", str(a1)]) == 0
        assert main(["analyze", "--input", paths[name], "--output", str(a2)]) == 0
        assert a1.read_bytes() == a2.read_bytes(), name

    o1, o2 = tmp_path / "o1.json", tmp_path / "o2.json"
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    base_argv = ["offset", "--input", paths["constant"], "--c", "3", "--cstar", "0.3",
                 "--s-lo", "1", "--s-hi", "2"]
    assert main(base_argv + ["--output", str(o1), "--verify", str(v1)]) == 0
    assert main(base_argv + ["--output", str(o2), "--verify", str(v2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    assert v1.read_bytes() == v2.read_bytes()

    m1, m2 = tmp_path / "m1.obj", tmp_path / "m2.obj"
    exp_argv = ["export", "--input", paths["planar"], "--v-min", "-1", "--v-max", "1",
                "--v-samples", "2"]
    assert main(exp_argv + ["--output", str(m1)]) == 0
    assert main(exp_argv + ["--output", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()
    lines = m1.read_text().splitlines()
    assert len(lines) == 1024 * 2 + 2 * 1023
    assert lines[0] == "v -1.000000000 0.000000000 0.000000000"

    # documented failure modes, in exit-code order
    u = np.linspace(0.0, 2.0, 64)
    null_cfg = tmp_path / "null.json"
    null_cfg.write_text(json.dumps({
        "name": "null", "kind": "sampled",
        "params": {"u": u.tolist(),
                   "director": np.stack([1 + 0.1 * u, 1 + 0.1 * u, 0 * u], axis=-1).tolist(),
                   "base": np.stack([0 * u, 0 * u, u], axis=-1).tolist()},
    }))
    sink = str(tmp_path / "sink.json")
    assert main(["analyze", "--input", str(null_cfg), "--output", sink]) == 2
    assert capsys.readouterr().err.startswith("NotTimelikeDirector:")

    assert main(["offset", "--input", paths["planar"], "--c", "3", "--cstar", "0.3",
                 "--s-lo", "1", "--s-hi", "2", "--output", sink]) == 3
    assert capsys.readouterr().err.startswith("DegenerateOffsetIndicatrix:")

    assert main(["offset", "--input", paths["constant"], "--c", "0.75", "--cstar", "0.1",
                 "--s-lo", "0.5", "--s-hi", "1.0", "--output", sink]) == 3
    assert capsys.readouterr().err.startswith("DegenerateWindow:")
    print("\n[acceptance] criterion 10: PASS")
