"""The three workloads: their operations, inputs and checks.

An operation is either a CLI command line (run in a fresh `python -m
dualruled` process for cli_1k, through `dualruled.cli.main` inside the
worker for reports_16k) or one pass of the oracle pipeline inside the
worker (oracle_131k). Every check runs in the benchmark's own process,
after the operation, so the program's peak RSS holds no checker memory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

import checks
import inputs as I

# check names a known fault may fail (README, "Operations that fail today")
MALFORMED_FAULT = frozenset({"exit_code", "stderr_one_line"})
# the oracle differentiates resampled sampled input: its curvature, its tangent
# (Mannheim residual) and its arc rate miss the closed forms
ORACLE_FAULT = frozenset({"offset_conical_curvature", "mannheim_real", "arc_rate",
                          "oracle_null_axis"})

SURFACE_MESH_SAMPLES = 4
OFFSET_MESH_SAMPLES = 8
ORACLE_SURFACES = 3


@dataclass
class Op:
    kind: str
    samples: int                  # surface samples the operation processes
    check: Callable               # ctx -> list of failures; ctx has code, stderr
    outputs: List[str]            # files the operation writes (hashed, then deleted)
    argv: Optional[list] = None   # CLI operation
    pipeline: Optional[int] = None  # oracle pipeline index
    allowed: Optional[frozenset] = frozenset()  # failures a known fault explains; None: any
    memory_pass: bool = True      # also run in the untimed tracemalloc pass


class Workload:
    name = ""
    N = 0
    in_process = True
    fresh_rss = False   # peak_rss_mb from fresh CLI processes instead of the worker

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = I.ensure_dir(tmp)
        self.out = I.ensure_dir(os.path.join(tmp, "out"))
        self.ops: List[Op] = []

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def outpath(self, name: str) -> str:
        return os.path.join(self.out, name)

    def checker(self) -> checks.Checker:
        return checks.Checker(self.N)

    @staticmethod
    def exited_ok(ctx, ck) -> bool:
        ck.ok("exit_code", ctx["code"] == 0, f"{ctx['code']}: {ctx['stderr'].strip()[-200:]}")
        return ctx["code"] == 0

    # -- CLI operations ------------------------------------------------------
    def analyze(self, config, truth, s_end, cone=False, allowed=frozenset(), memory_pass=True):
        out = self.outpath("report.json")

        def check(ctx):
            ck = self.checker()
            if self.exited_ok(ctx, ck):
                with open(out, "r", encoding="utf-8") as fh:
                    checks.check_analyze_report(ck, truth, self.N, s_end, json.load(fh), cone)
            return ck.failures

        return Op(f"analyze:{config}", self.N, check, [out],
                  argv=["analyze", "--input", self.path(config + ".json"), "--output", out],
                  allowed=allowed, memory_pass=memory_pass)

    def offset_argv(self, config, s_end):
        lo, hi = I.window_bounds(s_end, self.N)
        return ["--input", self.path(config + ".json"), "--c", repr(I.C_CONST),
                "--cstar", repr(I.CSTAR_CONST), "--s-lo", repr(lo), "--s-hi", repr(hi)]

    def offset_verify(self, config, truth, s_end, allowed=frozenset(), memory_pass=True):
        out, ver = self.outpath("offset.json"), self.outpath("verify.json")
        window = I.window_bounds(s_end, self.N)

        def check(ctx):
            ck = self.checker()
            if self.exited_ok(ctx, ck):
                with open(out, "r", encoding="utf-8") as fh:
                    rep = json.load(fh)
                with open(ver, "r", encoding="utf-8") as fh:
                    verify = json.load(fh)
                checks.check_offset(ck, truth, self.N, s_end, window, I.C_CONST, I.CSTAR_CONST,
                                    rep["profile"], rep["recovered"], rep["mannheim"]["real_max"])
                checks.check_formulas(ck, truth, I.C_CONST, I.CSTAR_CONST, verify["s"],
                                      verify["formulas"])
            return ck.failures

        return Op(f"offset_verify:{config}", self.N, check, [out, ver],
                  argv=["offset", *self.offset_argv(config, s_end), "--output", out, "--verify", ver],
                  allowed=allowed, memory_pass=memory_pass)

    def offset_exit3(self, config, s_end):
        out = self.outpath("offset.json")

        def check(ctx):
            ck = self.checker()
            checks.check_error_exit(ck, ctx["code"], 3, ctx["stderr"], os.path.exists(out))
            return ck.failures

        return Op(f"offset_exit3:{config}", self.N, check, [out],
                  argv=["offset", *self.offset_argv(config, s_end), "--output", out],
                  memory_pass=False)

    def export_surface(self, config, truth, s_end):
        out = self.outpath("mesh.obj")
        m = SURFACE_MESH_SAMPLES

        def check(ctx):
            ck = self.checker()
            if self.exited_ok(ctx, ck):
                checks.check_surface_mesh(ck, truth, self.N, s_end, out, I.V_RANGE, m)
            return ck.failures

        return Op(f"export:{config}", self.N, check, [out],
                  argv=["export", "--input", self.path(config + ".json"),
                        "--v-min", repr(I.V_RANGE[0]), "--v-max", repr(I.V_RANGE[1]),
                        "--v-samples", str(m), "--output", out], memory_pass=False)

    def export_offset(self, config, truth, s_end, memory_pass=True):
        out = self.outpath("offset.obj")
        m = OFFSET_MESH_SAMPLES
        window = I.window_bounds(s_end, self.N)

        def check(ctx):
            ck = self.checker()
            if self.exited_ok(ctx, ck):
                checks.check_offset_mesh(ck, truth, self.N, s_end, window, I.C_CONST, I.CSTAR_CONST,
                                         out, I.OFFSET_V_RANGE, m)
            return ck.failures

        return Op(f"export_offset:{config}", self.N, check, [out],
                  argv=["export", "--offset", *self.offset_argv(config, s_end),
                        "--v-min", repr(I.OFFSET_V_RANGE[0]), "--v-max", repr(I.OFFSET_V_RANGE[1]),
                        "--v-samples", str(m), "--output", out], memory_pass=memory_pass)

    def malformed(self, config):
        out = self.outpath("report.json")

        def check(ctx):
            ck = self.checker()
            checks.check_error_exit(ck, ctx["code"], 2, ctx["stderr"], os.path.exists(out))
            return ck.failures

        return Op(f"malformed:{config}", 0, check, [out],
                  argv=["analyze", "--input", self.path(config + ".json"), "--output", out],
                  allowed=MALFORMED_FAULT, memory_pass=False)


class Cli1k(Workload):
    """Thirteen CLI processes per round at N = 1024; five fail today (fixed inputs)."""

    name, N, in_process = "cli_1k", 1024, False

    def __init__(self, seed: int, tmp: str):
        super().__init__(seed, tmp)
        n = self.N
        rng = np.random.default_rng(seed)
        surf = I.disguised(rng)
        dev = (rng.uniform(0.3, 0.7), rng.uniform(0.1, 0.4), 0.0)
        const = I.draw_constants(rng)
        fixed = I.disguised(np.random.default_rng(I.FIXED_SEED))
        configs = {
            "disguised_uniform": I.sampled_config("disguised_uniform", surf, I.uniform_grid(n)),
            "fixed_nonuniform": I.sampled_config("fixed_nonuniform", fixed, I.nonuniform_grid(n)),
            "fixed_uniform": I.sampled_config("fixed_uniform", fixed, I.uniform_grid(n)),
            "constant_developable": I.constant_config("constant_developable", *dev, n),
            "constant": I.constant_config("constant", *const, n),
            "planar": I.fixture_config("planar", "planar_hyperbola", n),
            "cone": I.fixture_config("cone", "cone", n),
            **I.MALFORMED,
        }
        for name, cfg in configs.items():
            I.write_json(self.path(name + ".json"), cfg)
        cone = I.plain(0.0, 0.0, 0.0, b=(1.0, 2.0, 3.0))
        self.ops = [
            self.analyze("disguised_uniform", surf, surf.s_end),
            self.analyze("constant_developable", I.plain(*dev), I.U_END, memory_pass=False),
            self.analyze("planar", I.plain(0.0, 0.0, 1.0), 2.0, memory_pass=False),
            self.analyze("cone", cone, 2.0, cone=True, memory_pass=False),
            self.analyze("fixed_nonuniform", fixed, fixed.s_end, allowed=None, memory_pass=False),
            self.offset_verify("constant", I.plain(*const), I.U_END),
            self.offset_verify("fixed_uniform", fixed, fixed.s_end, allowed=ORACLE_FAULT,
                               memory_pass=False),
            self.offset_exit3("planar", 2.0),
            self.export_surface("disguised_uniform", surf, surf.s_end),
            # on the disguised surface, 2 % of seeds trip InvalidLine in decode_line_point
            # (CHANGES.md, FOUND), so the offset mesh is exported from the constant model
            self.export_offset("constant", I.plain(*const), I.U_END, memory_pass=False),
        ] + [self.malformed(name) for name in I.MALFORMED]


class Reports16k(Workload):
    """analyze, offset --verify and export --offset through cli.main at N = 16384."""

    name, N = "reports_16k", 16384
    # the long-lived worker's peak RSS hung on the seed's heap layout (134 to 164 MB);
    # a fresh process per command, as a user runs it, gives 136 +- 1 MB
    fresh_rss = True

    def __init__(self, seed: int, tmp: str):
        super().__init__(seed, tmp)
        n = self.N
        surf = I.disguised(np.random.default_rng(seed))
        fixed = I.disguised(np.random.default_rng(I.FIXED_SEED))
        I.write_json(self.path("disguised.json"), I.sampled_config("disguised", surf, I.uniform_grid(n)))
        I.write_json(self.path("fixed.json"), I.sampled_config("fixed", fixed, I.uniform_grid(n)))
        self.ops = [
            self.analyze("disguised", surf, surf.s_end),
            self.offset_verify("fixed", fixed, fixed.s_end, allowed=ORACLE_FAULT),
            self.export_offset("disguised", surf, surf.s_end),
        ]


def oracle_surfaces(seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [I.disguised(rng) for _ in range(ORACLE_SURFACES)]


class Oracle131k(Workload):
    """build_surface, dual apparatus, residuals and the offset oracle at N = 131072."""

    name, N = "oracle_131k", 131072

    def __init__(self, seed: int, tmp: str):
        super().__init__(seed, tmp)
        self.ops = [self.pipeline(k, surf) for k, surf in enumerate(oracle_surfaces(seed))]

    def pipeline(self, k: int, surf) -> Op:
        out = self.outpath("oracle.npz")
        n = self.N
        window = I.window_bounds(surf.s_end, n)

        def check(ctx):
            ck = self.checker()
            if ctx["code"] != 0:
                # gamma1 near +-1 trips the null-axis guard inside construct_offset
                null = ctx["stderr"].startswith("NullDarbouxAxis")
                ck.ok("oracle_null_axis" if null else "raised", False, ctx["stderr"])
                return ck.failures
            with np.load(out) as z:
                a = dict(z)
            checks.check_model(ck, surf, n, surf.s_end,
                               {key: a[key] for key in ("s", "e", "t", "g", "c", "gamma", "delta", "Delta")},
                               (a["gamma_bar_re"], a["gamma_bar_du"]), (a["R_re"], a["R_du"]), None, False)
            checks.check_offset(ck, surf, n, surf.s_end, window, I.C_CONST, I.CSTAR_CONST,
                                {"s": a["spec_s"], "theta": a["theta"], "theta_star": a["theta_star"]},
                                {"gamma1": a["gamma1"], "ds1_ds": a["ds1_ds"]},
                                float(a["mannheim_real_max"]))
            formulas = {}
            for key, value in a.items():
                if key.startswith("formula."):
                    name, _, part = key[len("formula."):].partition(".")
                    if part:
                        formulas.setdefault(name, {})[part] = value
                    else:
                        formulas[name] = value
            checks.check_formulas(ck, surf, I.C_CONST, I.CSTAR_CONST, a["spec_s"], formulas)
            return ck.failures

        return Op(f"oracle:{k}", n, check, [out], pipeline=k, allowed=ORACLE_FAULT)


WORKLOADS = {w.name: w for w in (Cli1k, Reports16k, Oracle131k)}
