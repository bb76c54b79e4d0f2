"""Independent checks of the program's outputs.

Nothing here calls the program: the metric, the frame closed forms and the
paper's offset formulas are evaluated from what the generator knows
(gamma0, delta0, Delta0, the transform, the angle constants). Every check
records a named failure instead of raising, so one operation reports all
of its misses at once.

Tolerances (absolute unless marked relative), and why:
- value 1e-5: zeroth-derivative output (frame vectors, striction curve,
  the s grid, OBJ vertices); disguised input at N = 1024 recovers them to
  6e-7, and OBJ vertices carry 9 decimals.
- invariant max(1e-4, 3e-13 N^2): gamma, delta, Delta, gamma_bar, the
  curvature radius, theta*. These are second derivatives of the samples,
  whose rounding error grows like eps / h^2; uniform disguised input meets
  8e-6 at N <= 16384 and 2e-4 at N = 131072, non-uniform input misses by
  0.05 to 0.3.
- theta 1e-10: theta = -s + c is exact; JSON keeps 12 significant digits.
- arc rate 1e-6, Mannheim 1e-6: the undisguised family meets 6e-10 and
  5e-8 at N = 131072.
- offset curvature {1024: 1e-5, 16384: 1e-3, 131072: 5e-2}: at least ten
  times the worst miss of the undisguised family at that N over seeds 0-5
  (8.9e-7, 9.4e-5, 3.6e-3).
- formulas, relative 10 x invariant: the program evaluates the closed
  forms from its recovered invariants, which carry the invariant error
  times factors up to 1/gamma0^2.
- unit 1e-6: OBJ ruling directions are unit timelike and rulings straight
  to the 9 printed decimals.
"""

from __future__ import annotations

import hashlib

import numpy as np

OFFSET_CURVATURE_TOL = {1024: 1e-5, 16384: 1e-3, 131072: 5e-2}


def tolerances(n: int) -> dict:
    invariant = max(1e-4, 3e-13 * n * n)
    return {
        "value": 1e-5,
        "invariant": invariant,
        "theta": 1e-10,
        "arc_rate": 1e-6,
        "mannheim": 1e-6,
        "offset_curvature": OFFSET_CURVATURE_TOL[n],
        "formula_rel": 10 * invariant,
        "unit": 1e-6,
    }


def lin(a, b):
    """Lorentz inner product, signature (-, +, +), over the last axis."""
    return -a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Checker:
    """Collects the failed checks of one operation."""

    def __init__(self, n: int):
        self.tol = tolerances(n)
        self.failures = []

    def ok(self, name: str, cond: bool, detail: str = "") -> None:
        if not cond:
            self.failures.append(f"{name}: {detail}")

    def close(self, name: str, got, want, tol: float, rel: bool = False) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.failures.append(f"{name}: shape {got.shape} != {want.shape}")
            return
        err = np.abs(got - want)
        if rel:
            err = err / np.maximum(1.0, np.abs(want))
        worst = float(np.max(err)) if err.size else 0.0
        if not worst <= tol:   # also catches NaN
            self.failures.append(f"{name}: error {worst:.3e} > {tol:.0e}")


def _dual(x):
    return np.asarray(x["re"], dtype=float), np.asarray(x["du"], dtype=float)


# -- analyze ---------------------------------------------------------------

def check_model(ck: Checker, truth, n: int, s_end: float, samples: dict,
                gamma_bar, radius, classification: dict, cone: bool) -> None:
    """Frame, striction curve, invariants and dual apparatus of one surface.

    `samples` holds s, e, t, g, c, gamma, delta, Delta as arrays;
    `gamma_bar` and `radius` are (re, du) pairs; `classification` may be
    None where the caller has no flags to check.
    """
    tol = ck.tol
    s = np.asarray(samples["s"], dtype=float)
    ck.ok("sample_count", len(s) == n, f"{len(s)} != {n}")
    if len(s) != n:
        return
    ck.close("s_grid", s, np.linspace(0.0, s_end, n), tol["value"])
    e_w, t_w, g_w, c_w = truth.frame(s)
    vec = {k: np.asarray(samples[k], dtype=float) for k in ("e", "t", "g", "c")}
    for key, want in (("e", e_w), ("t", t_w), ("g", g_w), ("c", c_w)):
        ck.close(f"frame_{key}", vec[key], want, tol["value"])
    e, t, g = vec["e"], vec["t"], vec["g"]
    ck.close("unit_e", lin(e, e), -np.ones(n), tol["value"])
    ck.close("unit_t", lin(t, t), np.ones(n), tol["value"])
    ck.close("unit_g", lin(g, g), np.ones(n), tol["value"])
    for name, a, b in (("e.t", e, t), ("e.g", e, g), ("t.g", t, g)):
        ck.close(f"orthogonal_{name}", lin(a, b), np.zeros(n), tol["value"])
    g0, d0, D0 = truth.gamma0, truth.delta0, truth.Delta0
    ck.close("gamma", samples["gamma"], np.full(n, g0), tol["invariant"])
    ck.close("delta", samples["delta"], np.full(n, d0), tol["invariant"])
    ck.close("Delta", samples["Delta"], np.full(n, D0), tol["invariant"])
    gb_re, gb_du = gamma_bar
    ck.close("gamma_bar_re", gb_re, np.full(n, g0), tol["invariant"])
    ck.close("gamma_bar_du", gb_du, np.full(n, d0 + g0 * D0), tol["invariant"])
    ck.close("curvature_radius_re", radius[0], np.full(n, 1.0 / np.sqrt(abs(1.0 - g0 * g0))),
             tol["invariant"])
    if classification is not None:
        want = {"developable": D0 == 0.0, "cone": cone}
        ck.ok("classification", classification == want, f"{classification} != {want}")


def check_analyze_report(ck: Checker, truth, n: int, s_end: float, report: dict,
                         cone: bool = False) -> None:
    app = report["dual_apparatus"]
    check_model(ck, truth, n, s_end, report["samples"], _dual(app["gamma_bar"]),
                _dual(app["curvature_radius"]), report["classification"], cone)


# -- offset ----------------------------------------------------------------

def paper_formulas(gamma, delta, Delta, theta, theta_star) -> dict:
    """The paper's closed forms for the Mannheim offset, as the README states them.

    Dual-valued entries are (re, du) pairs.
    """
    sh, ch = np.sinh(theta), np.cosh(theta)
    coth = ch / sh
    K = (delta - theta_star) * coth + Delta * (1.0 + coth * coth)
    return {
        "arc_rate": np.abs(gamma * sh),
        "arc_rate_dual": (gamma * sh, gamma * theta_star * ch + (delta + gamma * Delta) * sh),
        "conical_curvature": -coth,
        "conical_curvature_dual_re": -coth,
        "conical_curvature_dual_du": (2.0 * (delta - theta_star) * coth
                                      + Delta * (1.0 + coth * coth)) / gamma,
        "drift": ((delta - theta_star) * coth + Delta) / gamma,
        "dist_param_rate_route": -(theta_star * coth + delta / gamma),
        "dist_param_det_route": (theta_star - delta - Delta * coth) / gamma,
        "curvature_radius_re": sh,
        "curvature_radius_du": -(ch * sh * sh / gamma) * K,
        "sph_radius_cosh_re": ch,
        "sph_radius_cosh_du": -(sh ** 3 / gamma) * K,
        "sph_radius_sinh": -sh,
        "sph_radius_sinh_du": (ch * sh * sh / gamma) * K,
        "sph_radius_shift": (sh * sh / gamma) * K,
        "offset_distance_constraint": Delta * coth / (1.0 + gamma * coth),
    }


def window_grid(s_end: float, n: int, window: tuple) -> np.ndarray:
    """The samples of the uniform s grid inside the window."""
    s = np.linspace(0.0, s_end, n)
    return s[(s >= window[0]) & (s <= window[1])]


def check_offset(ck: Checker, truth, n: int, s_end: float, window: tuple, c_const: float,
                 cstar: float, profile: dict, recovered: dict, mannheim_real_max: float) -> None:
    """Angle law, arc rate, offset conical curvature and Mannheim residual."""
    tol = ck.tol
    s = np.asarray(profile["s"], dtype=float)
    want_s = window_grid(s_end, n, window)
    ck.ok("window_samples", len(s) == len(want_s), f"{len(s)} != {len(want_s)}")
    if len(s) != len(want_s):
        return
    ck.close("window_s", s, want_s, tol["value"])
    theta = c_const - s
    ck.close("theta", profile["theta"], theta, tol["theta"])
    ck.close("theta_star", profile["theta_star"], cstar + truth.Delta0 * s, tol["invariant"])
    ck.close("arc_rate", np.abs(np.asarray(recovered["ds1_ds"], dtype=float)),
             np.abs(truth.gamma0 * np.sinh(theta)), tol["arc_rate"])
    ck.close("offset_conical_curvature", recovered["gamma1"], -1.0 / np.tanh(theta),
             tol["offset_curvature"])
    ck.ok("mannheim_real", mannheim_real_max <= tol["mannheim"],
          f"{mannheim_real_max:.3e} > {tol['mannheim']:.0e}")


def check_formulas(ck: Checker, truth, c_const: float, cstar: float, s, formulas: dict) -> None:
    """The report's formula block against the closed forms re-evaluated here."""
    s = np.asarray(s, dtype=float)
    want = paper_formulas(truth.gamma0, truth.delta0, truth.Delta0,
                          c_const - s, cstar + truth.Delta0 * s)
    ck.ok("formula_keys", set(formulas) == set(want), f"{sorted(set(formulas) ^ set(want))}")
    for key, w in want.items():
        if key not in formulas:
            continue
        got = formulas[key]
        if isinstance(w, tuple):
            got_re, got_du = _dual(got)
            ck.close(f"formula_{key}_re", got_re, w[0], ck.tol["formula_rel"], rel=True)
            ck.close(f"formula_{key}_du", got_du, w[1], ck.tol["formula_rel"], rel=True)
        else:
            ck.close(f"formula_{key}", got, w, ck.tol["formula_rel"], rel=True)


# -- export ----------------------------------------------------------------

def parse_obj(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    v_lines, f_lines = [], []
    for line in text.splitlines():
        (v_lines if line.startswith("v ") else f_lines).append(line[2:])
    verts = np.array(" ".join(v_lines).split(), dtype=float).reshape(-1, 3)
    faces = np.array(" ".join(f_lines).split(), dtype=np.int64).reshape(-1, 3)
    return verts, faces


def expected_faces(rulings: int, m: int) -> np.ndarray:
    i, j = np.meshgrid(np.arange(rulings - 1), np.arange(m - 1), indexing="ij")
    a = (i * m + j + 1).ravel()
    b = ((i + 1) * m + j + 1).ravel()
    c = ((i + 1) * m + j + 2).ravel()
    d = (i * m + j + 2).ravel()
    return np.stack([np.stack([a, b, c], -1), np.stack([a, c, d], -1)], axis=1).reshape(-1, 3)


def check_mesh_shape(ck: Checker, verts, faces, rulings: int, m: int) -> bool:
    ck.ok("vertex_count", len(verts) == rulings * m, f"{len(verts)} != {rulings * m}")
    ck.ok("face_count", len(faces) == 2 * (rulings - 1) * (m - 1),
          f"{len(faces)} != {2 * (rulings - 1) * (m - 1)}")
    if ck.failures:
        return False
    ck.ok("face_indices", np.array_equal(faces, expected_faces(rulings, m)))
    return True


def check_surface_mesh(ck: Checker, truth, n: int, s_end: float, path: str,
                       v_range: tuple, m: int) -> None:
    verts, faces = parse_obj(path)
    if not check_mesh_shape(ck, verts, faces, n, m):
        return
    e, _, _, c = truth.frame(np.linspace(0.0, s_end, n))
    v = np.linspace(v_range[0], v_range[1], m)
    want = c[:, None, :] + v[None, :, None] * e[:, None, :]
    ck.close("surface_vertices", verts, want.reshape(-1, 3), ck.tol["value"])


def check_offset_mesh(ck: Checker, truth, n: int, s_end: float, window: tuple, c_const: float,
                      cstar: float, path: str, v_range: tuple, m: int) -> None:
    """Offset rulings: straight, unit timelike, and on the closed-form offset lines.

    The offset ruling through sample s has direction cosh(theta) e + sinh(theta) t
    and passes through c - theta* g (the dual tilt about the central normal).
    """
    verts, faces = parse_obj(path)
    s = window_grid(s_end, n, window)
    if not check_mesh_shape(ck, verts, faces, len(s), m):
        return
    tol = ck.tol
    p = verts.reshape(len(s), m, 3)
    v = np.linspace(v_range[0], v_range[1], m)
    d = (p[:, -1] - p[:, 0]) / (v[-1] - v[0])
    ck.close("ruling_unit_timelike", lin(d, d), -np.ones(len(s)), tol["unit"])
    foot = p[:, 0] - v[0] * d
    straight = foot[:, None, :] + v[None, :, None] * d[:, None, :]
    ck.close("ruling_straight", p, straight, tol["unit"])
    e, t, g, c = truth.frame(s)
    theta = c_const - s
    theta_star = cstar + truth.Delta0 * s
    direction = np.cosh(theta)[:, None] * e + np.sinh(theta)[:, None] * t
    ck.close("ruling_direction", d, direction, tol["value"])
    # distance (Euclidean, along the chord) from the closed-form line point to the ruling
    q = c - theta_star[:, None] * g - foot
    along = np.sum(q * d, axis=-1) / np.sum(d * d, axis=-1)
    ck.close("ruling_line", q - along[:, None] * d, np.zeros_like(q), tol["value"])


# -- error path --------------------------------------------------------------

def check_error_exit(ck: Checker, code: int, want_code: int, stderr: str, output_exists: bool) -> None:
    ck.ok("exit_code", code == want_code, f"{code} != {want_code}")
    lines = stderr.rstrip("\n").split("\n")
    ck.ok("stderr_one_line", len(lines) == 1 and lines[0] != "", f"{len(lines)} lines")
    ck.ok("no_output_file", not output_exists)
