"""Command line front end.

Three subcommands: `analyze` runs the Darboux pipeline on a configured
surface and writes a JSON report; `offset` constructs a Mannheim offset
(optionally adjudicating the closed forms into a second report); `export`
writes an OBJ mesh of the surface or its offset.

The sample count is the config's "samples", else the length of a sampled
surface's arrays, else 1024, within [MIN_SAMPLES, MAX_SAMPLES]. The
tolerances are fixed (DEVELOPABLE_TOL, VERDICT_TOL); each report writes its
tolerance next to the residual maxima behind its verdicts.

Exit codes: 0 success, 2 validation problem (bad config, non-timelike
data, floating-point overflow, unwritable output path, oversized input
or mesh), 3 numeric degeneracy (stalled indicatrix, null axis, vanishing
window). Every number of every output is computed before any file is
opened; only then is the text streamed, block by block, into temporary
files that are renamed into place once all are written. On any failure,
an interrupt included, the temporary files are removed, so a nonzero exit
leaves no output file. A DISCREPANT verdict in the consistency report
is a finding, not a failure; it exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneracyError, ValidationError
from .fixtures import cone_curves, hyperbola_curves
from .mannheim_offset import (
    VERDICT_TOL,
    construct_offset,
    consistency_report,
    formula_residuals,
    offset_angle_profile,
)
from .numerics import MAX_SAMPLES, MIN_SAMPLES, SampledCurve, hermite, is_uniform, slopes
from .serialize import dump_canonical, write_rows
from .surface_kernel import (
    DEVELOPABLE_TOL,
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


def _number(value) -> float:
    if isinstance(value, (str, bool)):  # float() would read "0.5" and false
        raise TypeError(value)
    return float(value)


def _floats(value) -> np.ndarray:
    out = np.asarray(value)
    if out.dtype.kind not in "iuf":  # strings, booleans, null, objects
        raise TypeError(value)
    return out.astype(float, copy=False)


def _integer(value) -> int:
    n = int(value)
    if n != _number(value):  # int() would truncate 1024.5 and read "64" and true
        raise ValueError(value)
    return n


def _number_param(params: dict, key: str) -> float:
    if key not in params:
        raise ConfigError(f"constant_invariant needs params.{key}")
    return _coerce(params[key], _number, f"params.{key} must be a number")


def parse_config(data: dict) -> SurfaceConfig:
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
        s_range = _coerce(data.get("s_range", (0.0, 2.0)),
                          lambda r: tuple(map(float, _floats(r).tolist())),
                          "s_range must be [lo, hi] numbers")
        if len(s_range) != 2 or not s_range[0] < s_range[1]:
            raise ConfigError(f"s_range must be [lo, hi] with lo < hi, got {list(s_range)}")
    samples = data.get("samples")
    if samples is None:
        samples = len(u) if kind == "sampled" else DEFAULT_SAMPLES
    samples = _coerce(samples, _integer, "samples must be an integer")
    if samples < MIN_SAMPLES:
        raise ConfigError(f"samples must be at least {MIN_SAMPLES}, got {samples}")
    if samples > MAX_SAMPLES:
        raise ConfigError(f"samples must be at most {MAX_SAMPLES}, got {samples}")

    if kind == "constant_invariant":
        params = {key: _number_param(params, key) for key in ("gamma", "delta", "Delta")}
    elif kind == "cone":
        if "director" in params:
            raise ConfigError("a cone takes no params.director; give such a surface as kind sampled")
        apex = _coerce(params.get("apex", (1.0, 2.0, 3.0)), _floats, "cone apex must be a 3-vector")
        if apex.shape != (3,):
            raise ConfigError("cone apex must be a 3-vector")
        params = {"apex": apex}
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


def load_config(path: str) -> SurfaceConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}")
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests too deeply: {exc}")
    except ValueError as exc:  # an integer past CPython's digit limit for int(str)
        raise ConfigError(f"config {path} is not readable JSON: {exc}")
    return parse_config(data)


def build_model(cfg: SurfaceConfig) -> RuledSurfaceModel:
    p = cfg.params
    if cfg.kind == "constant_invariant":
        return synth_constant_invariant(p["gamma"], p["delta"], p["Delta"], cfg.s_range, cfg.samples)
    if cfg.kind == "planar_hyperbola":
        return build_surface(*hyperbola_curves(cfg.s_range, cfg.samples))
    if cfg.kind == "cone":
        return build_surface(*cone_curves(p["apex"], cfg.s_range, cfg.samples))
    # sampled
    u, director, base = p["u"], p["director"], p["base"]
    if not (len(u) == cfg.samples and is_uniform(u)):
        curves = np.hstack([director, base])  # one Hermite pass over both curves
        dy = slopes(u, curves)  # before hermite: slopes refuses fewer than 5 samples
        grid = np.linspace(u[0], u[-1], cfg.samples)
        rows, at = hermite(u, grid)  # the grid spans u: its intervals touch every node
        director, base = np.hsplit(at(curves[rows], dy[rows]), 2)
        u = grid
    return build_surface(SampledCurve(u, director), SampledCurve(u, base))


def _analyze_payload(cfg: SurfaceConfig, model: RuledSurfaceModel) -> dict:
    app = dual_apparatus(model)
    residuals = dict(frame_residuals(model))
    residuals.update({f"dual_{k}": v for k, v in dual_frame_residuals(model).items()})
    residuals["study_decode"] = study_residual(model)
    return {
        "classification": classify(model),
        "dual_apparatus": {
            "branch": app.darboux_branch,
            "curvature_radius": app.R_bar,
            "gamma_bar": app.gamma_bar,
            "rho_cosh": app.rho_cosh,
            "rho_sinh": app.rho_sinh,
            "s_bar": model.s_bar,
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
        "tolerance": DEVELOPABLE_TOL,
    }


def _write_outputs(outputs: dict) -> None:
    """Stream {path: emit} into files: emit(write) passes a file's bytes to write, into
    a temporary file, and the temporary files are renamed into place once all are
    written. On any exception every temporary file is removed, so a failure leaves no
    output behind; OSError becomes a ConfigError."""
    for path in outputs:  # os.replace would refuse it only after the earlier renames
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: Is a directory")
    tmps = {path: f"{path}.{os.getpid()}.tmp" for path in outputs}
    try:
        for path, emit in outputs.items():
            with open(tmps[path], "wb") as fh:
                emit(fh.write)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps.values():
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def cmd_analyze(args) -> int:
    cfg = load_config(args.input)
    model = build_model(cfg)
    _write_outputs({args.output: functools.partial(dump_canonical, _analyze_payload(cfg, model))})
    return 0


def _offset_pieces(args):
    cfg = load_config(args.input)
    model = build_model(cfg)
    s = model.s_grid
    window = (s[0], s[-1]) if args.s_lo is None else (args.s_lo, args.s_hi)
    spec = offset_angle_profile(model, args.c, args.cstar, window)
    return cfg, spec, construct_offset(model, spec)


def cmd_offset(args) -> int:
    cfg, spec, offset = _offset_pieces(args)
    shift = offset.striction_shift  # derived on read: bound once for both files
    mannheim = {
        "dual_max": float(np.max(offset.mannheim_dual_residual)),
        "real_max": float(np.max(offset.mannheim_real_residual)),
    }
    payload = {
        "c_const": spec.c_const,
        "cstar_const": spec.cstar_const,
        "mannheim": mannheim,
        "name": cfg.name,
        "orientation": offset.orientation,
        "profile": {
            "s": spec.s,
            "theta": spec.theta,
            "theta_star": spec.theta_star,
        },
        "recovered": {
            "Delta1": offset.Delta1,
            "branch": offset.apparatus1.darboux_branch,
            "delta1": offset.delta1,
            "ds1_ds": offset.ds1_ds,
            "gamma1": offset.gamma1,
            "s1": offset.s1_grid,
        },
        "striction_shift_maxima": {k: float(np.max(np.abs(v))) for k, v in shift.items()},
        "window": {
            "hi": float(spec.s[-1]),
            "lo": float(spec.s[0]),
            "samples": int(len(spec.s)),
        },
    }
    outputs = {args.output: functools.partial(dump_canonical, payload)}
    if args.verify:
        report = consistency_report(spec.source_model, spec, offset)
        oracle = report.oracle  # derived on read: bound once for both dicts
        verify_payload = {
            "formulas": report.formulas,
            "mannheim": mannheim,
            "max_residual": report.max_residual,
            "mean_residual": report.mean_residual,
            "name": cfg.name,
            "oracle": oracle,
            "residuals": formula_residuals(report.formulas, oracle),
            "s": spec.s,
            "striction_shift": shift,
            "theta": spec.theta,
            "theta_star": spec.theta_star,
            "tol": VERDICT_TOL,
            "verdicts": report.verdicts,
        }
        outputs[args.verify] = functools.partial(dump_canonical, verify_payload)
    _write_outputs(outputs)
    return 0


def _write_obj(path: str, points: np.ndarray, e: np.ndarray,
               v_min: float, v_max: float, v_samples: int) -> None:
    if len(points) * v_samples > 8 * MAX_SAMPLES:
        raise ConfigError(f"mesh of {len(points)} rulings x {v_samples} v-samples "
                          f"exceeds {8 * MAX_SAMPLES} vertices")
    vs = np.linspace(v_min, v_max, v_samples)
    # vertex (i, j) = points[i] + vs[j] e[i], row-major, 1-based in the faces
    verts = (points[:, None, :] + vs[None, :, None] * e[:, None, :]).reshape(-1, 3)
    m = v_samples
    a = (np.arange(len(points) - 1)[:, None] * m + np.arange(1, m)).ravel()
    # each grid cell (a, a+m, a+m+1, a+1) becomes two triangles
    faces = np.stack([a, a + m, a + m + 1, a, a + m + 1, a + 1], axis=-1).reshape(-1, 3)

    def emit(write):
        write_rows(verts, "%.9f", "v", write)
        write_rows(faces, "%d", "f", write)

    _write_outputs({path: emit})


def cmd_export(args) -> int:
    if args.offset:
        _, _, offset = _offset_pieces(args)
        points, e = offset.c1, offset.e1_dual.re
    else:
        model = build_model(load_config(args.input))
        points, e = model.c, model.e
    _write_obj(args.output, points, e, args.v_min, args.v_max, args.v_samples)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a flag error is one line, as every other ConfigError
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dualruled",
        description="Darboux apparatus and Mannheim offsets of timelike ruled surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="build the surface and write a JSON report")
    pa.add_argument("--input", required=True, help="surface config JSON")
    pa.add_argument("--output", required=True, help="report JSON path")
    pa.set_defaults(fn=cmd_analyze)

    po = sub.add_parser("offset", help="construct a Mannheim offset (optionally verify formulas)")
    po.add_argument("--input", required=True)
    po.add_argument("--c", type=float, required=True, help="offset angle constant")
    po.add_argument("--cstar", type=float, required=True, help="offset distance constant")
    po.add_argument("--output", required=True, help="offset summary JSON path")
    po.add_argument("--verify", default=None, help="also write the consistency report here")
    po.add_argument("--s-lo", type=float, default=None, help="window lower bound in s")
    po.add_argument("--s-hi", type=float, default=None, help="window upper bound in s")
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
    pe.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # every check on the flags alone, before the config is read
        for flag in ("c", "cstar", "s_lo", "s_hi", "v_min", "v_max"):
            if (value := getattr(args, flag, None)) is not None:
                _coerce(value, float, f"--{flag.replace('_', '-')} must be a finite number")
        export = args.command == "export"
        if export and args.offset and (args.c is None or args.cstar is None):
            raise ConfigError("--offset export needs --c and --cstar")
        if export and not args.offset and any(
                getattr(args, flag) is not None for flag in ("c", "cstar", "s_lo", "s_hi")):
            raise ConfigError("--c, --cstar, --s-lo and --s-hi need --offset")
        if args.command != "analyze" and (args.s_lo is None) != (args.s_hi is None):
            raise ConfigError("--s-lo and --s-hi must be given together")
        verify = getattr(args, "verify", None)
        if verify is not None and os.path.realpath(verify) == os.path.realpath(args.output):
            raise ConfigError(f"--verify and --output name the same file: {verify}")
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
