"""CLI surface: config parsing, subcommands, OBJ grammar, exit codes."""

import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from dualruled.cli import (
    DEFAULT_SAMPLES,
    build_model,
    load_config,
    main,
    parse_config,
)
from dualruled.errors import ConfigError
from dualruled.numerics import MAX_SAMPLES

CONSTANT_PARAMS = {"gamma": 0.5, "delta": 0.3, "Delta": 0.2}


def write_cfg(tmp_path, fname, data):
    p = tmp_path / fname
    p.write_text(json.dumps(data))
    return str(p)


def constant_cfg(samples=128):
    return {"name": "constant", "kind": "constant_invariant",
            "params": dict(CONSTANT_PARAMS), "s_range": [0.0, 2.0], "samples": samples}


def planar_cfg(samples=128):
    return {"name": "planar", "kind": "planar_hyperbola",
            "s_range": [0.0, 2.0], "samples": samples}


U16 = np.linspace(0.0, 1.0, 16)


def hyperbola_params(u):
    """Params of a sampled planar hyperbola: director (cosh u, sinh u, 0), base (0, 0, u)."""
    zeros = np.zeros_like(u)
    return {"u": u.tolist(), "director": np.stack([np.cosh(u), np.sinh(u), zeros], axis=-1).tolist(),
            "base": np.stack([zeros, zeros, u], axis=-1).tolist()}


def test_parse_config_roundtrip():
    cfg = parse_config(constant_cfg())
    assert cfg.name == "constant"
    assert cfg.kind == "constant_invariant"
    assert cfg.params == CONSTANT_PARAMS
    assert all(type(v) is float for v in cfg.params.values())
    assert cfg.samples == 128
    assert cfg.s_range == (0.0, 2.0)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("name"),
    lambda d: d.pop("kind"),
    lambda d: d.update(kind="torus"),
    lambda d: d.update(samples=8),
    lambda d: d.update(s_range=[2.0, 0.0]),
    lambda d: d.update(s_range=[0.0]),
    lambda d: d.update(params=[1, 2]),
])
def test_parse_config_rejections(mutate):
    data = constant_cfg()
    mutate(data)
    with pytest.raises(ConfigError):
        parse_config(data)


def test_sampled_kind_validation():
    u = np.linspace(0.0, 2.0, 16)
    good = {
        "name": "s", "kind": "sampled",
        "params": {"u": u.tolist(),
                   "director": np.stack([np.cosh(u), np.sinh(u), 0 * u], axis=-1).tolist(),
                   "base": np.stack([0 * u, 0 * u, u], axis=-1).tolist()},
    }
    cfg = parse_config(good)
    assert cfg.samples == 16
    assert cfg.s_range == (0.0, 2.0)

    for breaker in (
        lambda d: d["params"].pop("u"),
        lambda d: d["params"].update(u=u[::-1].tolist()),
        lambda d: d["params"].update(director=good["params"]["director"][:-1]),
    ):
        data = json.loads(json.dumps(good))
        breaker(data)
        with pytest.raises(ConfigError):
            parse_config(data)


def test_samples_precedence():
    # the config's "samples", then the default; parsing allocates nothing, so probing the bound is free
    data = {"name": "x", "kind": "planar_hyperbola"}
    assert parse_config(data).samples == DEFAULT_SAMPLES
    assert parse_config({**data, "samples": None}).samples == DEFAULT_SAMPLES
    assert parse_config({**data, "samples": 33}).samples == 33
    assert parse_config({**data, "samples": MAX_SAMPLES}).samples == MAX_SAMPLES
    with pytest.raises(ConfigError, match=f"^samples must be at most {MAX_SAMPLES}, "
                                          f"got {MAX_SAMPLES + 1}$"):
        parse_config({**data, "samples": MAX_SAMPLES + 1})


@pytest.mark.parametrize("source", ["config", "default"])
def test_samples_floor_exit_2(tmp_path, capsys, source):
    if source == "config":
        data = {**planar_cfg(), "samples": 8}
    else:  # the default for a sampled surface is its array length
        u = np.linspace(0.0, 1.0, 8)
        data = {"name": "s", "kind": "sampled", "params": {
            "u": u.tolist(), "director": [[1.0, 0.0, 0.0]] * 8, "base": [[0.0, 0.0, 0.0]] * 8}}
    out = tmp_path / "r.json"
    assert main(["analyze", "--input", write_cfg(tmp_path, "p.json", data), "--output", str(out)]) == 2
    assert capsys.readouterr().err == "ConfigError: samples must be at least 9, got 8\n"
    assert not out.exists()


def test_load_config_errors(tmp_path, capsys):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    # text that is not UTF-8, nesting deeper than the decoder's recursion limit, and
    # an integer longer than CPython converts from text (where it has that limit)
    unreadable = {"utf16.json": (b'\xff\xfe{"name": "x"}', "is not UTF-8 text: "),
                  "deep.json": (b"[" * 100000 + b"]" * 100000, "nests too deeply: ")}
    if hasattr(sys, "get_int_max_str_digits"):
        unreadable["long.json"] = (b'{"samples": ' + b"9" * 5000 + b"}", "is not readable JSON: ")
    out = tmp_path / "out.json"
    for name, (data, message) in unreadable.items():
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=f"config {re.escape(str(path))} {message}"):
            load_config(str(path))
        assert main(["analyze", "--input", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ConfigError: config {path} {message}") and err.count("\n") == 1
        assert not out.exists()


def test_build_model_param_errors():
    with pytest.raises(ConfigError, match="constant_invariant needs"):
        build_model(parse_config({"name": "x", "kind": "constant_invariant",
                                  "params": {"gamma": 0.5}, "samples": 16}))
    with pytest.raises(ConfigError, match="apex"):
        build_model(parse_config({"name": "x", "kind": "cone",
                                  "params": {"apex": [1, 2]}, "samples": 16}))
    with pytest.raises(ConfigError, match="director must be"):
        build_model(parse_config({"name": "x", "kind": "cone",
                                  "params": {"director": [[1, 0, 0]] * 5}, "samples": 16}))


@pytest.mark.parametrize("data,error", [
    ({"name": "x", "kind": "constant_invariant", "params": {"gamma": "abc", "delta": 0.2, "Delta": 0.1}},
     "ConfigError"),
    ({"name": "x", "kind": "planar_hyperbola", "samples": "many"}, "ConfigError"),
    ({"name": "x", "kind": "planar_hyperbola", "samples": 64.5}, "ConfigError"),
    ({"name": "x", "kind": "cone", "params": {"apex": 5}}, "ConfigError"),
    ({"name": "x", "kind": "planar_hyperbola", "s_range": [0, "z"]}, "ConfigError"),
    ({"name": "x", "kind": "sampled",
      "params": {"u": [0.0, 1.0, 2.0], "director": 5, "base": [[0.0, 0.0, 0.0]] * 3}}, "ConfigError"),
    ({"name": "x", "kind": "sampled", "params": {"u": [], "director": [], "base": []}}, "ConfigError"),
    # cosh(520) is finite but its square overflows: refused where the field is made
    ({**constant_cfg(), "s_range": [0, 600]}, "ValidationError"),
    # a number slot refuses JSON strings and booleans, which float() and numpy would read
    ({**planar_cfg(), "s_range": "12"}, "ConfigError"),
    ({**planar_cfg(), "samples": "64"}, "ConfigError"),
    ({**constant_cfg(), "params": {**CONSTANT_PARAMS, "gamma": "0.5"}}, "ConfigError"),
    ({**constant_cfg(), "params": {**CONSTANT_PARAMS, "delta": False}}, "ConfigError"),
    ({"name": "x", "kind": "cone", "samples": 64, "params": {"apex": ["1", "2", "3"]}}, "ConfigError"),
    ({"name": "x", "kind": "sampled", "params": dict(hyperbola_params(U16), u=[str(x) for x in U16])},
     "ConfigError"),
    ({**planar_cfg(), "s_range": [False, True]}, "ConfigError"),
    ({"name": "x", "kind": "sampled", "params": dict(hyperbola_params(U16), director=np.ones((16, 2)).tolist())},
     "ConfigError"),
    # the slopes that resample one sample check for their 5 before the Hermite map divides 0 by 0
    ({"name": "x", "kind": "sampled", "samples": 16,
      "params": {"u": [0.0], "director": [[1, 0, 0]], "base": [[0, 0, 0]]}}, "GridTooCoarse"),
], ids=["gamma", "samples", "fractional_samples", "apex", "s_range", "director", "empty_u", "overflow",
        "s_range_string", "samples_string", "gamma_string", "delta_false", "apex_strings",
        "u_strings", "s_range_booleans", "director_two_columns", "one_sample_resampled"])
def test_malformed_config_values_exit_2(tmp_path, capsys, data, error):
    out = tmp_path / "r.json"
    assert main(["analyze", "--input", write_cfg(tmp_path, "bad.json", data), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("data,field,sample", [
    # A cosh(0.866 s) is finite, but from s = 410 its square overflows
    ({**constant_cfg(), "s_range": [0, 600]}, "constant_invariant field e", 87),
    # cosh(s) itself overflows from s = 710.5; its square from s = 355.4
    ({**planar_cfg(), "s_range": [0, 800]}, "planar_hyperbola field director", 57),
], ids=["constant_invariant", "planar_hyperbola"])
@pytest.mark.parametrize("command", ["analyze", "offset", "export"])
def test_overflowing_synthesized_field_exit_2(tmp_path, capsys, data, field, sample, command):
    out = tmp_path / "r.out"
    flags = {"analyze": [], "offset": ["--c", "3", "--cstar", "0.3"],
             "export": ["--v-min", "-1", "--v-max", "1", "--v-samples", "3"]}[command]
    assert main([command, "--input", write_cfg(tmp_path, "big.json", data), *flags,
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ValidationError: {field} is out of range at sample {sample}: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "big.json"]


@pytest.mark.parametrize("c,detail", [
    # cosh(theta) itself overflows, and inf * 0 leaves a nan entry
    ("800", "an entry is nan"),
    # cosh(theta) is finite, but the tilted director's square overflows
    ("400", "|entry| = 3.015e+173 exceeds 1.341e+154, the largest whose square is finite"),
])
def test_overflowing_angle_law_exit_2(tmp_path, capsys, c, detail):
    out = tmp_path / "offset.json"
    assert main(["offset", "--input", write_cfg(tmp_path, "c.json", constant_cfg()), "--c", c,
                 "--cstar", "0.3", "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"ValidationError: offset field director is out of range at sample 0: {detail}\n")
    assert not out.exists()


@pytest.mark.parametrize("cstar,detail", [
    # the moment carries theta_star (sinh(theta) e + cosh(theta) t): finite, but its
    # square overflows
    ("1e200", "|entry| = 1.157e+201 exceeds 1.341e+154, the largest whose square is finite"),
    # theta_star times the frame overflows, and inf - inf leaves a nan entry
    ("1e308", "an entry is nan"),
], ids=["square_overflows", "nan"])
def test_overflowing_tilted_moment_exit_2(tmp_path, capsys, cstar, detail):
    out, verify = tmp_path / "offset.json", tmp_path / "verify.json"
    assert main(["offset", "--input", write_cfg(tmp_path, "c.json", constant_cfg()), "--c", "3",
                 "--cstar", cstar, "--output", str(out), "--verify", str(verify)]) == 2
    assert capsys.readouterr().err == (
        f"ValidationError: offset field moment is out of range at sample 0: {detail}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_overflowing_sampled_input_exit_2(tmp_path, capsys):
    u = np.linspace(0.0, 1.0, 64)
    params = hyperbola_params(u)
    params["director"] = (1e200 * np.array(params["director"])).tolist()
    data = {"name": "huge", "kind": "sampled", "params": params}
    out = tmp_path / "r.json"
    assert main(["analyze", "--input", write_cfg(tmp_path, "huge.json", data), "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "ValidationError: sampled field director is out of range at sample 0: |entry| = 1.000e+200 "
        "exceeds 1.341e+154, the largest whose square is finite\n")
    assert not out.exists()


def test_no_output_file_after_late_degeneracy(tmp_path, capsys):
    # the offset summary is ready before consistency_report finds gamma below its guard
    cfg = constant_cfg(1024)
    cfg["params"]["gamma"] = 5e-7
    out, verify = tmp_path / "offset.json", tmp_path / "verify.json"
    assert main(["offset", "--input", write_cfg(tmp_path, "g.json", cfg), "--c", "3", "--cstar", "0.3",
                 "--s-lo", "1", "--s-hi", "2", "--output", str(out), "--verify", str(verify)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("DegeneratePoint: ") and err.count("\n") == 1
    assert not out.exists() and not verify.exists()


def _offset_argv(tmp_path, out, verify):
    return ["offset", "--input", write_cfg(tmp_path, "c.json", constant_cfg(256)), "--c", "3",
            "--cstar", "0.3", "--s-lo", "1", "--s-hi", "2", "--output", str(out), "--verify", str(verify)]


@pytest.mark.parametrize("fault", ["nan", "interrupt"])
def test_failure_mid_stream_leaves_no_file(tmp_path, capsys, monkeypatch, fault):
    # the verify report is streamed after the --output file is whole; a NaN in it, or an
    # interrupt while it is written, removes both temporary files and keeps the old output
    from dataclasses import replace

    from dualruled import cli

    out, verify = tmp_path / "offset.json", tmp_path / "verify.json"
    out.write_bytes(b"old bytes\n")
    real_report, real_dump = cli.consistency_report, cli.dump_canonical
    listings = []

    def report_with_nan(*args):
        report = real_report(*args)
        return replace(report, mean_residual={**report.mean_residual, "arc_rate": np.nan})

    def dump(obj, write):
        listings.append(sorted(p.name for p in tmp_path.iterdir()))
        if fault == "interrupt" and len(listings) == 2:
            write(b"{\n")
            raise KeyboardInterrupt
        real_dump(obj, write)

    monkeypatch.setattr(cli, "consistency_report", report_with_nan)
    monkeypatch.setattr(cli, "dump_canonical", dump)
    if fault == "nan":
        assert main(_offset_argv(tmp_path, out, verify)) == 2
        assert capsys.readouterr().err == "ValidationError: non-finite value nan in report payload\n"
    else:
        with pytest.raises(KeyboardInterrupt):
            main(_offset_argv(tmp_path, out, verify))
    tmp_out = [name for name in listings[1] if name.startswith("offset.json.") and name.endswith(".tmp")]
    assert len(listings) == 2 and len(tmp_out) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "offset.json"]
    assert out.read_bytes() == b"old bytes\n"


def test_lost_digits_in_a_built_line_exit_3(tmp_path, capsys):
    # near a null Darboux axis the tilted director the program built loses its unit length:
    # a numeric degeneracy, not bad input
    cfg = {"name": "near_null", "kind": "constant_invariant",
           "params": {"gamma": 0.999999999, "delta": 0, "Delta": 0}}
    out = tmp_path / "offset.json"
    assert main(["offset", "--input", write_cfg(tmp_path, "n.json", cfg), "--c", "3", "--cstar", "0.3",
                 "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"DegenerateLine: offset: direction not unit timelike \(deviation \S+ at sample \d+\)\n", err)
    assert not out.exists()


def test_offset_null_axis_names_the_offset(tmp_path, capsys):
    # theta = 8 - s on the default config: the offset's axis nears the null cone,
    # |1 - coth^2 theta| = 1/sinh^2 theta, while the base's stays far from it
    cfg = {"name": "x", "kind": "constant_invariant", "params": dict(CONSTANT_PARAMS)}
    out = tmp_path / "offset.json"
    assert main(["offset", "--input", write_cfg(tmp_path, "c.json", cfg), "--c", "8", "--cstar", "0.3",
                 "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        "NullDarbouxAxis: offset: |1 - gamma_bar^2| = 3.236e-07 at sample 0 (guard 1e-06); "
        "Darboux axis is null\n")
    assert not out.exists()


@pytest.mark.parametrize("c, line", [
    ("8", "FrameDriftExceeded: offset: <e,t> = 1.197e-04 at sample 0 exceeds 1e-04"),
    ("9", "FrameDriftExceeded: offset: <e,t> = 3.248e-04 at sample 0 exceeds 1e-04"),
    ("14", "DegenerateLine: offset: direction not unit timelike (deviation 2.441e-04 at sample 4)"),
], ids=["c8", "c9", "c14"])
def test_offset_rebuild_failure_names_the_offset(tmp_path, capsys, c, line):
    # whole window at 128 samples: the rebuild runs the window backwards, yet its
    # errors count window samples (sample 0 has the largest theta = c - s)
    out = tmp_path / "offset.json"
    assert main(["offset", "--input", write_cfg(tmp_path, "c.json", constant_cfg(128)), "--c", c,
                 "--cstar", "0.3", "--output", str(out)]) == 3
    assert capsys.readouterr().err == line + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_offset_with_a_flat_axis_exit_3(tmp_path, capsys):
    # a planar director (gamma = 0) on a steep grid of 29 samples: the stencil error of
    # the tilted director passes the stall check, and the rebuilt offset has gamma = 0
    # exactly, where sinh(rho) = 0 leaves rho* = cosh(rho).du / sinh(rho).re undefined
    x = np.linspace(0.0, 1.0, 29)
    data = {"name": "flat", "kind": "sampled",
            "params": dict(hyperbola_params(2.0 * np.expm1(x) / np.expm1(1.0)), u=x.tolist())}
    out = tmp_path / "offset.json"
    assert main(["offset", "--input", write_cfg(tmp_path, "f.json", data), "--c", "-1", "--cstar", "0",
                 "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        "DegenerateOffsetIndicatrix: offset: gamma = 0 at sample 0: sinh(rho) = 0 leaves rho* undefined\n")
    assert not out.exists()


def test_window_past_the_s_range_exit_2(tmp_path, capsys):
    out = tmp_path / "offset.json"
    assert main(["offset", "--input", write_cfg(tmp_path, "c.json", constant_cfg(256)), "--c", "3",
                 "--cstar", "0.3", "--s-lo", "-5", "--s-hi", "1.5", "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "ValidationError: window [-5.0, 1.5] reaches past the model's s range [0, 2]\n")
    assert not out.exists()


@pytest.mark.parametrize("bad", ["output", "verify", "output_dir", "verify_dir"])
def test_unwritable_output_path_exit_2(tmp_path, capsys, bad):
    # a path inside a missing directory, or an existing directory: tmp_path itself
    flag, _, directory = bad.partition("_")
    paths = {"output": tmp_path / "offset.json", "verify": tmp_path / "verify.json"}
    paths[flag] = tmp_path if directory else tmp_path / "no_such_dir" / "out.json"
    assert main(["offset", "--input", write_cfg(tmp_path, "c.json", constant_cfg()), "--c", "3",
                 "--cstar", "0.3", "--s-lo", "1", "--s-hi", "2",
                 "--output", str(paths["output"]), "--verify", str(paths["verify"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: cannot write ") and err.count("\n") == 1
    if directory:
        assert err == f"ConfigError: cannot write {tmp_path}: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("argv,samples,message", [
    (["analyze"], 1e18, f"samples must be at most {MAX_SAMPLES}, got {10**18}"),
    (["export", "--v-min", "0", "--v-max", "1", "--v-samples", str(10**18)], 64,
     f"mesh of 64 rulings x {10**18} v-samples exceeds {8 * MAX_SAMPLES} vertices"),
], ids=["samples", "v_samples"])
def test_oversized_request_exit_2(tmp_path, capsys, argv, samples, message):
    # both are refused before anything is allocated; numpy would refuse 1e18 at once anyway
    data = {**planar_cfg(), "samples": samples}
    out = tmp_path / "out"
    assert main([*argv, "--input", write_cfg(tmp_path, "p.json", data), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"ConfigError: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json"]


@pytest.mark.parametrize("verify", ["x.json", "./x.json"], ids=["same_string", "dot_spelling"])
def test_verify_naming_the_output_file_exit_2(tmp_path, capsys, verify):
    # one file would get both reports: the summary would be lost, or half the renames fail
    out, verify = f"{tmp_path}/x.json", f"{tmp_path}/{verify}"
    assert main(["offset", "--input", write_cfg(tmp_path, "c.json", constant_cfg(256)), "--c", "3",
                 "--cstar", "0.3", "--output", out, "--verify", verify]) == 2
    assert capsys.readouterr().err == f"ConfigError: --verify and --output name the same file: {verify}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_near_uniform_sampled_grid_is_resampled(tmp_path):
    # linspace(2, 5, 1024) written to 12 significant digits: every point is within
    # 5e-12 of the uniform grid, but steps vary by 1e-11, beyond the uniform-grid rule
    u = np.array([float(f"{x:.11e}") for x in np.linspace(2.0, 5.0, 1024)])
    zeros = np.zeros_like(u)
    cfg = {"name": "near", "kind": "sampled",
           "params": {"u": u.tolist(),
                      "director": np.stack([np.cosh(u), np.sinh(u), zeros], axis=-1).tolist(),
                      "base": np.stack([zeros, zeros, u], axis=-1).tolist()}}
    out = tmp_path / "r.json"
    assert main(["analyze", "--input", write_cfg(tmp_path, "near.json", cfg), "--output", str(out)]) == 0
    samples = json.loads(out.read_text())["samples"]
    assert np.max(np.abs(np.array(samples["Delta"]) - 1.0)) < 1e-8
    assert np.max(np.abs(samples["gamma"])) < 1e-8


FLOAT_FLAG_COMMANDS = {
    "offset": ["offset", "--c", "3", "--cstar", "0.3", "--s-lo", "1", "--s-hi", "2"],
    "export": ["export", "--offset", "--c", "3", "--cstar", "0.3", "--s-lo", "1", "--s-hi", "2",
               "--v-min", "0", "--v-max", "1", "--v-samples", "3"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag,command", [
    ("--c", "export"), ("--cstar", "export"), ("--s-lo", "offset"), ("--s-hi", "offset"),
    ("--v-min", "export"), ("--v-max", "export"),
])
def test_non_finite_float_flag_exit_2(tmp_path, capsys, flag, command, value):
    argv = list(FLOAT_FLAG_COMMANDS[command])
    i = argv.index(flag)
    argv[i:i + 2] = [f"{flag}={value}"]  # "=" keeps argparse from reading "-inf" as an option
    argv += ["--input", write_cfg(tmp_path, "c.json", constant_cfg(256)),
             "--output", str(tmp_path / "out")]
    if command == "offset":
        argv += ["--verify", str(tmp_path / "verify.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"ConfigError: {flag} must be a finite number, got {value}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("argv,message", [
    (["offset", "--c", "3", "--cstar", "0.3", "--s-lo", "1"],
     "--s-lo and --s-hi must be given together"),
    (["export", "--v-min", "1", "--v-max", "-1", "--v-samples", "5"],
     "need v-min < v-max, got [1.0, -1.0]"),
    (["export", "--v-min", "0", "--v-max", "1", "--v-samples", "1"],
     "need at least 2 ruling samples, got 1"),
    (["export", "--offset", "--c", "3", "--v-min", "0", "--v-max", "1", "--v-samples", "3"],
     "--offset export needs --c and --cstar"),
], ids=["s_lo_alone", "v_range", "v_samples", "offset_without_cstar"])
def test_flag_errors_come_before_the_config(tmp_path, capsys, argv, message):
    # the config does not exist: a bad flag is reported before it is read
    out = tmp_path / "out"
    assert main([*argv, "--input", str(tmp_path / "missing.json"), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"ConfigError: {message}\n"
    assert not out.exists()


def test_build_model_resamples_nonuniform_input():
    w = np.linspace(0.0, 2.0, 200)
    u = w + 0.05 * np.sin(np.pi * w)
    director = np.stack([np.cosh(u), np.sinh(u), np.zeros_like(u)], axis=-1)
    base = np.stack([np.zeros_like(u), np.zeros_like(u), u], axis=-1)
    cfg = parse_config({
        "name": "warped", "kind": "sampled",
        "params": {"u": u.tolist(), "director": director.tolist(), "base": base.tolist()},
        "samples": 256,
    })
    m = build_model(cfg)
    assert len(m) == 256
    assert np.max(np.abs(m.gamma)) < 1e-4
    assert np.max(np.abs(m.delta)) < 1e-4
    assert np.max(np.abs(m.Delta - 1.0)) < 1e-4


@pytest.mark.parametrize("grid", ["smooth", "jittered"])
def test_build_model_nonuniform_recovers_invariants(constant_family, grid):
    n = 1024
    x = np.linspace(0.0, 1.0, n)
    if grid == "smooth":
        u = 3.0 * (x + 0.1 * np.sin(2 * np.pi * x) / (2 * np.pi))
    else:
        jitter = np.random.default_rng(5).uniform(-0.45, 0.45, n - 2)
        u = 3.0 * (x + np.concatenate([[0.0], jitter, [0.0]]) / (n - 1))
    e, c = constant_family(u)
    m = build_model(parse_config({
        "name": grid, "kind": "sampled",
        "params": {"u": u.tolist(), "director": e.tolist(), "base": c.tolist()},
    }))
    assert np.max(np.abs(m.gamma - 0.5)) < 1e-5
    assert np.max(np.abs(m.delta - 0.3)) < 1e-5
    assert np.max(np.abs(m.Delta - 0.2)) < 1e-5


def test_import_adds_only_numpy():
    # counted against the interpreter's own start-up modules, which its site may extend
    code = ("import sys; top = lambda: {name.split('.')[0] for name in sys.modules}; "
            "start = top(); import dualruled, dualruled.cli; "
            "print(' '.join(sorted(top() - start - set(sys.stdlib_module_names))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert set(out.stdout.split()) <= {"dualruled", "numpy"}


def test_analyze_deterministic(tmp_path):
    cfg_path = write_cfg(tmp_path, "c.json", constant_cfg())
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["analyze", "--input", cfg_path, "--output", str(out1)]) == 0
    assert main(["analyze", "--input", cfg_path, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert set(report) == {"classification", "dual_apparatus", "name",
                           "residual_maxima", "samples", "tolerance"}
    assert report["name"] == "constant"
    assert report["classification"] == {"developable": False, "cone": False}
    assert len(report["samples"]["s"]) == 128
    assert report["dual_apparatus"]["branch"][0] == "SpacelikeAxis"
    gb = report["dual_apparatus"]["gamma_bar"]
    assert gb["re"][0] == pytest.approx(0.5, abs=1e-9)
    assert gb["du"][0] == pytest.approx(0.4, abs=1e-9)


def test_offset_with_verification(tmp_path):
    cfg_path = write_cfg(tmp_path, "c.json", constant_cfg(256))
    out = tmp_path / "offset.json"
    verify = tmp_path / "verify.json"
    argv = ["offset", "--input", cfg_path, "--c", "3", "--cstar", "0.3",
            "--s-lo", "1", "--s-hi", "2", "--output", str(out), "--verify", str(verify)]
    assert main(argv) == 0
    summary = json.loads(out.read_text())
    assert summary["orientation"] == -1
    assert summary["window"]["hi"] == 2.0
    assert summary["window"]["samples"] == len(summary["profile"]["s"])
    assert summary["profile"]["theta"][-1] == pytest.approx(1.0, abs=1e-12)
    assert summary["profile"]["theta_star"][-1] == pytest.approx(0.7, abs=1e-6)
    assert summary["mannheim"]["real_max"] < 1e-4

    report = json.loads(verify.read_text())
    assert len(report["verdicts"]) == 16
    assert report["verdicts"]["arc_rate"] == "CONFIRMED"
    assert report["verdicts"]["conical_curvature"] == "CONFIRMED"
    assert report["verdicts"]["dist_param_det_route"] == "DISCREPANT"
    assert set(report["max_residual"]) == set(report["verdicts"])

    # second run must be byte-identical
    out2 = tmp_path / "offset2.json"
    verify2 = tmp_path / "verify2.json"
    argv2 = argv[:]
    argv2[argv2.index(str(out))] = str(out2)
    argv2[argv2.index(str(verify))] = str(verify2)
    assert main(argv2) == 0
    assert out.read_bytes() == out2.read_bytes()
    assert verify.read_bytes() == verify2.read_bytes()


def test_export_obj_grammar(tmp_path):
    cfg_path = write_cfg(tmp_path, "p.json", planar_cfg(64))
    out = tmp_path / "mesh.obj"
    argv = ["export", "--input", cfg_path, "--v-min", "-1", "--v-max", "1",
            "--v-samples", "5", "--output", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(lines) == len(verts) + len(faces)
    assert len(verts) == 64 * 5
    assert len(faces) == 2 * 63 * 4
    # ruling 0 starts at the striction point shifted by v_min along e(0) = (1,0,0)
    assert verts[0] == "v -1.000000000 0.000000000 0.000000000"
    for f in faces:
        idx = [int(tok) for tok in f.split()[1:]]
        assert len(idx) == 3
        assert all(1 <= k <= len(verts) for k in idx)
    out2 = tmp_path / "mesh2.obj"
    argv2 = argv[:]
    argv2[argv2.index(str(out))] = str(out2)
    assert main(argv2) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_export_offset_obj(tmp_path):
    cfg_path = write_cfg(tmp_path, "c.json", constant_cfg(128))
    out = tmp_path / "offset.obj"
    assert main(["export", "--input", cfg_path, "--offset", "--c", "3", "--cstar", "0.3",
                 "--s-lo", "1", "--s-hi", "2", "--v-min", "0", "--v-max", "1",
                 "--v-samples", "3", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) % 3 == 0
    rulings = len(verts) // 3
    assert rulings >= 9
    assert len(faces) == 2 * (rulings - 1) * 2


@pytest.mark.parametrize("kind", ["constant", "sampled"])
def test_windowless_offset_is_the_whole_model(tmp_path, constant_family, kind):
    # no --s-lo/--s-hi means the window [s[0], s[-1]] of the built model; the sampled
    # config is resampled onto arc length, so its s[-1] is no round number
    if kind == "constant":
        cfg = constant_cfg(128)
    else:
        x = np.linspace(0.0, 1.0, 200)
        u = 3.0 * (x + 0.1 * np.sin(2 * np.pi * x) / (2 * np.pi))
        e, c = constant_family(u)
        cfg = {"name": kind, "kind": "sampled", "samples": 128,
               "params": {"u": u.tolist(), "director": e.tolist(), "base": c.tolist()}}
    cfg_path = write_cfg(tmp_path, "c.json", cfg)
    s = build_model(parse_config(cfg)).s_grid
    window = ["--s-lo", repr(float(s[0])), "--s-hi", repr(float(s[-1]))]
    outputs = {}
    for name, flags in (("none", []), ("full", window)):
        paths = [tmp_path / f"{name}.{x}" for x in ("json", "verify.json", "obj")]
        angle = ["--input", cfg_path, "--c", "4", "--cstar", "0.3", *flags]
        assert main(["offset", *angle, "--output", str(paths[0]), "--verify", str(paths[1])]) == 0
        assert main(["export", "--offset", *angle, "--v-min", "0", "--v-max", "1",
                     "--v-samples", "3", "--output", str(paths[2])]) == 0
        outputs[name] = [p.read_bytes() for p in paths]
    assert outputs["none"] == outputs["full"]
    assert json.loads(outputs["none"][0])["window"]["samples"] == 128


def test_error_exit_codes(tmp_path, capsys):
    u = np.linspace(0.0, 2.0, 64)
    null_dir = np.stack([1 + 0.1 * u, 1 + 0.1 * u, np.zeros_like(u)], axis=-1)
    base = np.stack([np.zeros_like(u), np.zeros_like(u), u], axis=-1)
    null_cfg = write_cfg(tmp_path, "null.json", {
        "name": "null", "kind": "sampled",
        "params": {"u": u.tolist(), "director": null_dir.tolist(), "base": base.tolist()},
    })
    planar = write_cfg(tmp_path, "p.json", planar_cfg(128))
    constant = write_cfg(tmp_path, "c.json", constant_cfg(128))
    out = str(tmp_path / "out.json")

    code = main(["analyze", "--input", null_cfg, "--output", out])
    assert code == 2
    assert capsys.readouterr().err == (
        "NotTimelikeDirector: director sample 0 is not timelike: <e,e> = 0.000e+00 (need < 0)\n")

    code = main(["offset", "--input", planar, "--c", "3", "--cstar", "0.3",
                 "--s-lo", "1", "--s-hi", "2", "--output", out])
    assert code == 3
    assert capsys.readouterr().err == (
        "DegenerateOffsetIndicatrix: offset: indicatrix speed vanishes at sample 1 "
        "(<e',e'> = 1.329e-17)\n")

    code = main(["offset", "--input", constant, "--c", "0.75", "--cstar", "0.1",
                 "--s-lo", "0.5", "--s-hi", "1.0", "--output", out])
    assert code == 3
    assert capsys.readouterr().err == (
        "DegenerateWindow: theta = 0 crossing: sinh(theta) = -5.906e-03 near s = 0.755906; "
        "shrink the window or change the angle constant\n")

    code = main(["export", "--input", planar, "--v-min", "1", "--v-max", "1",
                 "--v-samples", "5", "--output", str(tmp_path / "m.obj")])
    assert code == 2
    assert capsys.readouterr().err == "ConfigError: need v-min < v-max, got [1.0, 1.0]\n"

    code = main(["offset", "--input", constant, "--c", "3", "--cstar", "0.3",
                 "--s-lo", "1", "--output", out])
    assert code == 2
    assert capsys.readouterr().err == "ConfigError: --s-lo and --s-hi must be given together\n"

    code = main(["offset", "--input", constant, "--c", "3", "--cstar", "0.3",
                 "--s-lo", "2", "--s-hi", "1", "--output", out])
    assert code == 2
    assert capsys.readouterr().err == (
        "ValidationError: window must be [lo, hi] with lo < hi, got [2.0, 1.0]\n")

    for argv, extra in (
        (["export", "--v-min", "0", "--v-max", "1", "--v-samples", "3"], ["--format", "stl"]),
        (["analyze"], ["--samples", "64"]),
        (["offset", "--c", "3", "--cstar", "0.3"], ["--tol", "1e-3"]),
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", planar, *extra, "--output", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"dualruled: error: unrecognized arguments: {' '.join(extra)}")

    code = main(["export", "--input", constant, "--offset", "--v-min", "0",
                 "--v-max", "1", "--v-samples", "3", "--output", out])
    assert code == 2
    assert capsys.readouterr().err == "ConfigError: --offset export needs --c and --cstar\n"


@pytest.mark.parametrize("command,flags", [
    ("analyze", {"input", "output"}),
    ("offset", {"input", "output", "verify", "c", "cstar", "s-lo", "s-hi"}),
    ("export", {"input", "output", "offset", "c", "cstar", "s-lo", "s-hi",
                "v-min", "v-max", "v-samples"}),
], ids=["analyze", "offset", "export"])
def test_cli_flag_surface(capsys, command, flags):
    # every flag is pinned here: adding a setting means changing this test
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out)) - {"help"} == flags


# SHA-256 of canonical outputs at N = 1024; refactors must keep these bytes
GOLDEN_SHA256 = {
    "analyze:planar":
        "8662978ef93f7ebbc476e02eb269baa6fbfcf597703d9cb3e761095d2135d927",
    "analyze:constant":
        "f8c6d38fc09a26cafd945f4a51fe49351acdc792755f4a0690b76010f8b4688e",
    "analyze:cone":
        "a6bd8950259108f98073dd613fb0d4f9f384e9efa8e957ada473dd5d62d545ee",
    "offset:constant":
        "024cfeb29e8b0c080cd140305e53bbabfb1706a6f78cde080a274bfd5673cf63",
    "verify:constant":
        "14bfe36e290de70d1200d8b6fde06dc1e9211ddcc3f43bac0eeb012ea10c9a47",
    "export:planar":
        "5d98e25387e48319f4c0638c032a48a26497acf77900fb1cb6fc38567e302e5c",
    "export_offset:constant":
        "7d96deca478c30bb382e3fd085cefd5de5c21f5fa02a054765d6d5b8f828cdb4",
    "analyze:sampled_uniform":
        "6d0731bf142424fb3b1555dfc75834c2b23e14626467a5c9d727e8bc5e2c165b",
    "analyze:sampled_smooth":
        "a5e3ecafba1affa125b3eb5e81ae5d7bfe3f74ce82d3aeefbae4a335567ab306",
    "offset:sampled_uniform":
        "777350c04d77799420e805436b8158e1280cdee98e27fd5ae0a6513f72b9e65c",
    "verify:sampled_uniform":
        "3c04b4a9e7eba70cd861f43573e5a78da57b7090534747473e64eafa46c65395",
    "export:sampled_smooth":
        "1c8e8ed799993707afe6eb4c81ddf7bb49d12dda3e9e79605baa24cbe8ebea07",
}


def sampled_cfg(constant_family, u):
    e, c = constant_family(u)
    return {"name": "sampled", "kind": "sampled",
            "params": {"u": u.tolist(), "director": e.tolist(), "base": c.tolist()}}


def _golden_outputs(tmp_path, constant_family):
    x = np.linspace(0.0, 1.0, 1024)
    cfgs = {
        "planar": write_cfg(tmp_path, "planar.json", planar_cfg(1024)),
        "constant": write_cfg(tmp_path, "constant.json", constant_cfg(1024)),
        "cone": write_cfg(tmp_path, "cone.json", {"name": "cone", "kind": "cone",
                                                  "s_range": [0.0, 2.0], "samples": 1024}),
        "sampled_uniform": write_cfg(tmp_path, "su.json", sampled_cfg(constant_family, 3.0 * x)),
        "sampled_smooth": write_cfg(tmp_path, "ss.json", sampled_cfg(
            constant_family, 3.0 * (x + 0.1 * np.sin(2 * np.pi * x) / (2 * np.pi)))),
    }
    window = ["--c", "3", "--cstar", "0.3", "--s-lo", "1", "--s-hi", "2"]
    mesh = ["--v-min", "-1", "--v-max", "1", "--v-samples", "5"]
    out = {k: tmp_path / k.replace(":", "_") for k in GOLDEN_SHA256}
    for name in ("planar", "constant", "cone", "sampled_uniform", "sampled_smooth"):
        assert main(["analyze", "--input", cfgs[name], "--output", str(out[f"analyze:{name}"])]) == 0
    for name in ("constant", "sampled_uniform"):
        assert main(["offset", "--input", cfgs[name], *window,
                     "--output", str(out[f"offset:{name}"]),
                     "--verify", str(out[f"verify:{name}"])]) == 0
    for name in ("planar", "sampled_smooth"):
        assert main(["export", "--input", cfgs[name], *mesh,
                     "--output", str(out[f"export:{name}"])]) == 0
    assert main(["export", "--input", cfgs["constant"], "--offset", *window, *mesh,
                 "--output", str(out["export_offset:constant"])]) == 0
    return {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in out.items()}


def test_golden_output_bytes(tmp_path, constant_family):
    assert _golden_outputs(tmp_path, constant_family) == GOLDEN_SHA256
