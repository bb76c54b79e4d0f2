"""Command line front end.

Three subcommands: `analyze` runs the Darboux pipeline on a configured
surface and writes a JSON report; `offset` constructs a Mannheim offset
(optionally adjudicating the closed forms into a second report); `export`
writes an OBJ mesh of the surface or its offset.

Exit codes: 0 success, 2 validation problem (bad config, non-timelike
data, floating-point overflow, unwritable output path), 3 numeric
degeneracy (stalled indicatrix, null axis, vanishing window). Every
output is built before any file is written, so a nonzero exit leaves no
output file. A DISCREPANT verdict in the consistency report is a finding,
not a failure; it exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneracyError, ValidationError
from .fixtures import cone_curves, hyperbola_curves
from .mannheim_offset import (
    construct_offset,
    consistency_report,
    offset_angle_profile,
)
from .numerics import MIN_SAMPLES, SampledCurve, hermite, is_uniform, slopes
from .serialize import dumps_canonical
from .surface_kernel import (
    RuledSurfaceModel,
    build_surface,
    classify,
    dual_apparatus,
    dual_frame_residuals,
    frame_residuals,
    study_residual,
    synth_constant_invariant,
)

DEFAULT_SAMPLES = 1024

KINDS = ("constant_invariant", "planar_hyperbola", "cone", "sampled")


@dataclass
class SurfaceConfig:
    name: str
    kind: str
    params: dict
    s_range: tuple
    samples: int


def _coerce(value, convert, what: str):
    """convert(value), turning a value that does not fit into a one-line ConfigError."""
    try:
        out = convert(value)
        if np.all(np.isfinite(out)):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{what}, got {value!r:.60}")


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _integer(value) -> int:
    n = int(value)
    if n != float(value):  # int() would truncate 1024.5 silently
        raise ValueError(value)
    return n


def _number_param(params: dict, key: str) -> float:
    if key not in params:
        raise ConfigError(f"constant_invariant needs params.{key}")
    return _coerce(params[key], float, f"params.{key} must be a number")


def parse_config(data: dict, samples_override=None) -> SurfaceConfig:
    """Check a config in a fixed order and convert the params its kind reads."""
    if not isinstance(data, dict):
        raise ConfigError("surface config must be a JSON object")
    try:
        name = data["name"]
        kind = data["kind"]
    except KeyError as missing:
        raise ConfigError(f"config missing required field {missing}")
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}; expected one of {KINDS}")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")

    if kind == "sampled":
        for key in ("u", "director", "base"):
            if key not in params:
                raise ConfigError(f"sampled surface needs params.{key}")
        u = _coerce(params["u"], _floats, "params.u must be an array of numbers")
        if u.ndim != 1 or np.any(np.diff(u) <= 0):
            raise ConfigError("params.u must be strictly increasing")
        if u.size == 0:
            raise ConfigError("params.u must not be empty")
        for key in ("director", "base"):
            if _coerce(params[key], len, f"params.{key} must be an array") != len(u):
                raise ConfigError("u/director/base arrays must have equal length")
        s_range = (float(u[0]), float(u[-1]))
    else:
        s_range = _coerce(data.get("s_range", (0.0, 2.0)), lambda r: tuple(map(float, r)),
                          "s_range must be [lo, hi] numbers")
        if len(s_range) != 2 or not s_range[0] < s_range[1]:
            raise ConfigError(f"s_range must be [lo, hi] with lo < hi, got {list(s_range)}")
    # flag, then config, then the default; a source that is not used is not read
    samples = samples_override if samples_override is not None else data.get("samples")
    if samples is None:
        samples = len(u) if kind == "sampled" else DEFAULT_SAMPLES
    samples = _coerce(samples, _integer, "samples must be an integer")
    if samples < MIN_SAMPLES:
        raise ConfigError(f"samples must be at least {MIN_SAMPLES}, got {samples}")

    if kind == "constant_invariant":
        params = {key: _number_param(params, key) for key in ("gamma", "delta", "Delta")}
    elif kind == "cone":
        apex = _coerce(params.get("apex", (1.0, 2.0, 3.0)), _floats, "cone apex must be a 3-vector")
        if apex.shape != (3,):
            raise ConfigError("cone apex must be a 3-vector")
        director = params.get("director")
        if director is not None:
            director = _coerce(director, _floats, "cone director must be an array of numbers")
            if director.shape != (samples, 3):
                raise ConfigError(
                    f"cone director must be samples x 3 = {samples} x 3, got {list(director.shape)}"
                )
        params = {"apex": apex, "director": director}
    elif kind == "sampled":
        director, base = (_coerce(params[k], _floats, f"params.{k} must be an array of numbers")
                          for k in ("director", "base"))
        if director.shape != (len(u), 3) or base.shape != (len(u), 3):
            raise ConfigError("director/base must be N x 3 arrays")
        params = {"u": u, "director": director, "base": base}
    else:
        params = {}
    return SurfaceConfig(name=str(name), kind=str(kind), params=params,
                         s_range=s_range, samples=samples)


def load_config(path: str, samples_override=None) -> SurfaceConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    return parse_config(data, samples_override)


def build_model(cfg: SurfaceConfig) -> RuledSurfaceModel:
    p = cfg.params
    if cfg.kind == "constant_invariant":
        return synth_constant_invariant(p["gamma"], p["delta"], p["Delta"], cfg.s_range, cfg.samples)
    if cfg.kind == "planar_hyperbola":
        return build_surface(*hyperbola_curves(cfg.s_range, cfg.samples))
    if cfg.kind == "cone":
        return build_surface(*cone_curves(p["apex"], cfg.s_range, cfg.samples, p["director"]))
    # sampled
    u, director, base = p["u"], p["director"], p["base"]
    if not (len(u) == cfg.samples and is_uniform(u)):
        # one Hermite pass over both curves: the Lagrange slope weights depend only on u
        curves = np.hstack([director, base])
        grid = np.linspace(u[0], u[-1], cfg.samples)
        director, base = np.hsplit(hermite(u, curves, slopes(u, curves), grid), 2)
        u = grid
    return build_surface(SampledCurve(u, director), SampledCurve(u, base))


def _analyze_payload(cfg: SurfaceConfig, model: RuledSurfaceModel, tol: float) -> dict:
    app = dual_apparatus(model)
    residuals = dict(frame_residuals(model))
    residuals.update({f"dual_{k}": v for k, v in dual_frame_residuals(model).items()})
    residuals["study_decode"] = study_residual(model)
    return {
        "classification": classify(model, tol),
        "dual_apparatus": {
            "branch": app.darboux_branch,
            "curvature_radius": app.R_bar,
            "gamma_bar": app.gamma_bar,
            "rho_cosh": app.rho_cosh,
            "rho_sinh": app.rho_sinh,
            "s_bar": app.s_bar,
        },
        "name": cfg.name,
        "residual_maxima": residuals,
        "samples": {
            "Delta": model.Delta,
            "c": model.c,
            "delta": model.delta,
            "e": model.e,
            "g": model.g,
            "gamma": model.gamma,
            "s": model.s_grid,
            "t": model.t,
        },
        "tolerance": tol,
    }


def _write_outputs(outputs: dict) -> None:
    """Write {path: text} through temporary files renamed into place once all are
    written, so a failure leaves no output behind; OSError becomes a ConfigError."""
    tmps = {path: f"{path}.{os.getpid()}.tmp" for path in outputs}
    try:
        for path, text in outputs.items():
            with open(tmps[path], "w", encoding="utf-8") as fh:
                fh.write(text)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except OSError as exc:
        for tmp in tmps.values():
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_analyze(args) -> int:
    cfg = load_config(args.input, args.samples)
    model = build_model(cfg)
    _write_outputs({args.output: dumps_canonical(_analyze_payload(cfg, model, args.tol))})
    return 0


def _offset_pieces(args):
    cfg = load_config(args.input, args.samples)
    model = build_model(cfg)
    window = None if args.s_lo is None else (args.s_lo, args.s_hi)
    spec = offset_angle_profile(model, args.c, args.cstar, window)
    offset = construct_offset(model, spec)
    return cfg, model, spec, offset


def cmd_offset(args) -> int:
    cfg, model, spec, offset = _offset_pieces(args)
    payload = {
        "c_const": spec.c_const,
        "cstar_const": spec.cstar_const,
        "mannheim": {
            "dual_max": float(np.max(offset.mannheim_dual_residual)),
            "real_max": float(np.max(offset.mannheim_real_residual)),
        },
        "name": cfg.name,
        "orientation": offset.orientation,
        "profile": {
            "s": spec.s,
            "theta": spec.theta,
            "theta_star": spec.theta_star,
        },
        "recovered": {
            "Delta1": offset.Delta1,
            "branch": offset.branch1,
            "delta1": offset.delta1,
            "ds1_ds": offset.ds1_ds,
            "gamma1": offset.gamma1,
            "s1": offset.s1_grid,
        },
        "striction_shift_maxima": {
            "along_director": float(np.max(np.abs(offset.striction_shift_e))),
            "along_normal": float(np.max(np.abs(offset.striction_shift_g))),
            "along_tangent": float(np.max(np.abs(offset.striction_shift_t))),
        },
        "window": {
            "hi": float(spec.s[-1]),
            "lo": float(spec.s[0]),
            "samples": int(len(spec.s)),
        },
    }
    outputs = {args.output: dumps_canonical(payload)}
    if args.verify:
        report = consistency_report(model, spec, offset, args.tol)
        verify_payload = {
            "formulas": report.formulas,
            "mannheim": {
                "dual_max": report.mannheim_dual_max,
                "real_max": report.mannheim_real_max,
            },
            "max_residual": report.max_residual,
            "mean_residual": report.mean_residual,
            "name": cfg.name,
            "oracle": report.oracle,
            "residuals": report.residuals,
            "s": report.s,
            "striction_shift": report.striction_shift,
            "theta": report.theta,
            "theta_star": report.theta_star,
            "tol": report.tol,
            "verdicts": report.verdicts,
        }
        outputs[args.verify] = dumps_canonical(verify_payload)
    _write_outputs(outputs)
    return 0


def _write_obj(path: str, points: np.ndarray, e: np.ndarray,
               v_min: float, v_max: float, v_samples: int) -> None:
    vs = np.linspace(v_min, v_max, v_samples)
    # vertex (i, j) = points[i] + vs[j] e[i], row-major, 1-based in the faces
    verts = (points[:, None, :] + vs[None, :, None] * e[:, None, :]).ravel()
    m = v_samples
    a = (np.arange(len(points) - 1)[:, None] * m + np.arange(1, m)).ravel()
    # each grid cell (a, a+m, a+m+1, a+1) becomes two triangles
    faces = np.stack([a, a + m, a + m + 1, a, a + m + 1, a + 1], axis=-1).ravel()
    text = (("v %.9f %.9f %.9f\n" * (len(verts) // 3)) % tuple(verts.tolist())
            + ("f %d %d %d\nf %d %d %d\n" * len(a)) % tuple(faces.tolist()))
    _write_outputs({path: text})


def cmd_export(args) -> int:
    if args.offset:
        _, _, _, offset = _offset_pieces(args)
        points, e = offset.c1, offset.e1_dual.re
    else:
        cfg = load_config(args.input, args.samples)
        model = build_model(cfg)
        points, e = model.c, model.e
    _write_obj(args.output, points, e, args.v_min, args.v_max, args.v_samples)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualruled",
        description="Darboux apparatus and Mannheim offsets of timelike ruled surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="build the surface and write a JSON report")
    pa.add_argument("--input", required=True, help="surface config JSON")
    pa.add_argument("--output", required=True, help="report JSON path")
    pa.add_argument("--samples", type=int, default=None, help="override sample count")
    pa.add_argument("--tol", type=float, default=1e-6, help="classification tolerance")
    pa.set_defaults(fn=cmd_analyze)

    po = sub.add_parser("offset", help="construct a Mannheim offset (optionally verify formulas)")
    po.add_argument("--input", required=True)
    po.add_argument("--c", type=float, required=True, help="offset angle constant")
    po.add_argument("--cstar", type=float, required=True, help="offset distance constant")
    po.add_argument("--output", required=True, help="offset summary JSON path")
    po.add_argument("--verify", default=None, help="also write the consistency report here")
    po.add_argument("--tol", type=float, default=1e-3, help="verdict tolerance")
    po.add_argument("--s-lo", type=float, default=None, help="window lower bound in s")
    po.add_argument("--s-hi", type=float, default=None, help="window upper bound in s")
    po.add_argument("--samples", type=int, default=None)
    po.set_defaults(fn=cmd_offset)

    pe = sub.add_parser("export", help="write an OBJ mesh of the surface or its offset")
    pe.add_argument("--input", required=True)
    pe.add_argument("--v-min", type=float, required=True)
    pe.add_argument("--v-max", type=float, required=True)
    pe.add_argument("--v-samples", type=int, required=True)
    pe.add_argument("--output", required=True)
    pe.add_argument("--offset", action="store_true", help="export the Mannheim offset instead")
    pe.add_argument("--c", type=float, default=None)
    pe.add_argument("--cstar", type=float, default=None)
    pe.add_argument("--s-lo", type=float, default=None)
    pe.add_argument("--s-hi", type=float, default=None)
    pe.add_argument("--samples", type=int, default=None)
    pe.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # every check on the flags alone, before the config is read
        for flag in ("c", "cstar", "s_lo", "s_hi", "tol", "v_min", "v_max"):
            if (value := getattr(args, flag, None)) is not None:
                _coerce(value, float, f"--{flag.replace('_', '-')} must be a finite number")
        export = args.command == "export"
        if export and args.offset and (args.c is None or args.cstar is None):
            raise ConfigError("--offset export needs --c and --cstar")
        if args.command != "analyze" and (args.s_lo is None) != (args.s_hi is None):
            raise ConfigError("--s-lo and --s-hi must be given together")
        if export and not args.v_min < args.v_max:
            raise ConfigError(f"need v-min < v-max, got [{args.v_min}, {args.v_max}]")
        if export and args.v_samples < 2:
            raise ConfigError(f"need at least 2 ruling samples, got {args.v_samples}")
        with np.errstate(all="raise", under="ignore"):
            return args.fn(args)
    except (ValidationError, FloatingPointError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
