"""In-process operation server for reports_16k and oracle_131k.

run.py starts it with the program's environment (PYTHONPATH naming the
checkout's src, one BLAS/OpenMP thread) and sends one JSON request per
line on standard input; each reply is one JSON line on standard output.
The program is imported once, before the first request, and this process
holds nothing but the program, its inputs and the wrappers, so its peak
RSS (wait4) is the program's.

Requests:
    {"argv": [...], "mode": m, "op": i}   cli.main(argv); outputs go to files
    {"pipeline": k, "out": p, "save": b, "mode": m, "op": i}   oracle pipeline on
                                          surface k; with b, arrays saved to p
    {"finish": true}                      reply with the per-layer summary, exit
where m is "plain", "traced" (spans and counters) or "memory" (tracemalloc).
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import tracemalloc
from time import perf_counter

import numpy as np

import inputs as I
import spans
import workloads


class Server:
    def __init__(self, workload: str, seed: int):
        import dualruled.cli
        from dualruled import mannheim_offset, numerics, surface_kernel
        self.cli, self.sk, self.mo, self.nu = dualruled.cli, surface_kernel, mannheim_offset, numerics
        self.tracer = spans.Tracer()
        self.memory = spans.Tracer()
        self.mode = "plain"
        self.surfaces = []
        if workload == "oracle_131k":
            u = I.uniform_grid(workloads.Oracle131k.N)
            for surf in workloads.oracle_surfaces(seed):
                director, base = surf.sampled(u)
                self.surfaces.append((surf, u, director, base))

    def set_mode(self, mode: str) -> None:
        if mode == self.mode:
            return
        tracemalloc.stop()
        self.tracer.uninstall()
        self.memory.uninstall()
        if mode == "traced":
            self.tracer.install()
        elif mode == "memory":
            self.memory.install()
            tracemalloc.start()
        self.mode = mode

    def run_cli(self, argv) -> dict:
        t0 = perf_counter()
        try:
            code, stderr = self.cli.main(argv), ""
        except Exception as exc:   # what `python -m dualruled` would end with: traceback, exit 1
            code, stderr = 1, f"{type(exc).__name__}: {exc}"
        return {"seconds": perf_counter() - t0, "code": code, "stderr": stderr}

    def run_pipeline(self, k: int, out: str, save: bool) -> dict:
        t0 = perf_counter()
        try:
            reply = self._pipeline(k, out, save, t0)
        except Exception as exc:
            reply = {"seconds": perf_counter() - t0, "code": 1,
                     "stderr": f"{type(exc).__name__}: {exc}"}
        return reply

    def _pipeline(self, k: int, out: str, save: bool, t0: float) -> dict:
        surf, u, director, base = self.surfaces[k]
        sk, mo, nu = self.sk, self.mo, self.nu
        window = I.window_bounds(surf.s_end, len(u))
        model = sk.build_surface(nu.SampledCurve(u, director), nu.SampledCurve(u, base))
        app = sk.dual_apparatus(model)
        sk.frame_residuals(model)
        sk.dual_frame_residuals(model)
        sk.study_residual(model)
        spec = mo.offset_angle_profile(model, I.C_CONST, I.CSTAR_CONST, window)
        off = mo.construct_offset(model, spec)
        rep = mo.consistency_report(model, spec, off)
        seconds = perf_counter() - t0
        if self.mode == "memory":
            return {"seconds": seconds, "code": 0, "stderr": ""}
        arrays = {
            "s": model.s_grid, "e": model.e, "t": model.t, "g": model.g, "c": model.c,
            "gamma": model.gamma, "delta": model.delta, "Delta": model.Delta,
            "gamma_bar_re": app.gamma_bar.re, "gamma_bar_du": app.gamma_bar.du,
            "R_re": app.R_bar.re, "R_du": app.R_bar.du,
            "spec_s": spec.s, "theta": spec.theta, "theta_star": spec.theta_star,
            "gamma1": off.gamma1, "ds1_ds": off.ds1_ds, "c1": off.c1,
            "mannheim_real_max": np.float64(rep.mannheim_real_max),
        }
        for key, value in rep.formulas.items():
            if hasattr(value, "du"):
                arrays[f"formula.{key}.re"], arrays[f"formula.{key}.du"] = value.re, value.du
            else:
                arrays[f"formula.{key}"] = value
        digest = hashlib.sha256()
        for key in sorted(arrays):
            digest.update(np.ascontiguousarray(arrays[key]).tobytes())
        if save:
            np.savez(out, **arrays)
        return {"seconds": seconds, "code": 0, "stderr": "", "digest": digest.hexdigest()}

    def finish(self) -> dict:
        self.set_mode("plain")
        return {"per_layer": spans.summarize(self.tracer, self.memory),
                "absent": self.tracer.absent or self.memory.absent,
                "spans": self.tracer.dump()}

    def serve(self) -> None:
        for line in sys.stdin:
            req = json.loads(line)
            if req.get("finish"):
                reply = self.finish()
            else:
                self.set_mode(req["mode"])
                self.tracer.op = self.memory.op = req["op"]
                if "argv" in req:
                    reply = self.run_cli(req["argv"])
                else:
                    reply = self.run_pipeline(req["pipeline"], req["out"], req["save"])
            gc.collect()   # untimed: every operation starts from the same heap
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
            if req.get("finish"):
                return


if __name__ == "__main__":
    Server(sys.argv[1], int(sys.argv[2])).serve()
