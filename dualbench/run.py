"""Benchmark of the dualruled program: CLI start-up, report emission and the offset oracle.

    python3 dualbench/run.py --workload cli_1k --seed 1 --seconds 30 --trace 0
    python3 dualbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the program is imported from its `src`.
The last line of standard output is one JSON object: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Lines
before it name every metric with its unit, and every failed check.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170.0

END_TO_END = {"op_p50_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def program_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict) -> float:
    """Median time from starting a fresh interpreter until dualruled and dualruled.cli are imported."""
    code = "import time\nimport dualruled, dualruled.cli\nprint(repr(time.perf_counter()))"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()   # CLOCK_MONOTONIC: the child's clock reads on the same scale
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importing dualruled failed: {proc.stderr.strip()[-300:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


class ProcessRunner:
    """cli_1k: one `python -m dualruled` process per operation, one at a time."""

    def __init__(self, w, env):
        self.w, self.env = w, env
        self.tracer, self.memory = spans.Tracer(), spans.Tracer()
        self.rss = []

    def run(self, op, mode: str, op_id: int, save: bool) -> dict:
        err_path = self.w.path("stderr.txt")
        span_path = self.w.path("child_spans.json")
        if mode == "plain":
            cmd = [sys.executable, "-m", "dualruled", *op.argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "spans.py"), span_path,
                   "1" if mode == "memory" else "0", "--", *op.argv]
        with open(err_path, "w", encoding="utf-8") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, "r", encoding="utf-8") as err:
            stderr = err.read()
        if mode == "plain":
            self.rss.append(usage.ru_maxrss / 1024.0)
        elif os.path.exists(span_path):
            with open(span_path, "r", encoding="utf-8") as fh:
                (self.memory if mode == "memory" else self.tracer).merge(json.load(fh), op_id)
            os.remove(span_path)
        return {"seconds": seconds, "code": proc.returncode, "stderr": stderr}

    def finish(self) -> dict:
        return {"per_layer": spans.summarize(self.tracer, self.memory),
                "absent": self.tracer.absent or self.memory.absent,
                "spans": self.tracer.dump(), "peak_rss_mb": max(self.rss)}


class ServerRunner:
    """reports_16k and oracle_131k: requests to one long-lived worker.py process."""

    def __init__(self, w, env):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), w.name, str(w.seed)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=ROOT, text=True)
        self.killer = threading.Timer(WORKER_TIMEOUT_S, self.proc.kill)
        self.killer.start()

    def request(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the worker ended without a reply")
        return json.loads(line)

    def run(self, op, mode: str, op_id: int, save: bool) -> dict:
        if op.argv is not None:
            return self.request({"argv": op.argv, "mode": mode, "op": op_id})
        return self.request({"pipeline": op.pipeline, "out": op.outputs[0], "save": save,
                             "mode": mode, "op": op_id})

    def finish(self) -> dict:
        result = self.request({"finish": True})
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.close()
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        return result

    def close(self) -> None:
        self.killer.cancel()
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


def execute(runner, op, mode: str, op_id: int, seen: dict) -> dict:
    """Run one operation, then (untimed) check its outputs and delete them.

    `seen` maps each operation kind to the digest of its first output and
    that output's failures: a repeat must give the same digest (the
    determinism check), and identical bytes need no second check.
    """
    ctx = runner.run(op, mode, op_id, save=op.kind not in seen)
    record = {"op": op_id, "kind": op.kind, "seconds": ctx["seconds"], "samples": op.samples,
              "traced": mode == "traced", "failures": []}
    if mode != "memory":
        if ctx["code"] == 0:
            digest = ctx.get("digest") or " ".join(checks.sha256(p) for p in op.outputs)
        else:
            # the message, not the traceback, whose frames differ under the tracer
            digest = f"exit {ctx['code']}: {ctx['stderr'].strip().splitlines()[-1:]}"
        if op.kind not in seen:
            seen[op.kind] = (digest, op.check(ctx))
        first, failures = seen[op.kind]
        failures = list(failures)
        if digest != first:
            failures.append("determinism: output differs from an earlier run of the same operation")
        record["failures"] = failures
        explained = op.allowed is None or {f.split(":")[0] for f in failures} <= op.allowed
        record["unexplained"] = bool(failures) and not explained
    for path in op.outputs:
        if os.path.exists(path):
            os.remove(path)
    return record


def fresh_peak_rss(w, env) -> float:
    """Largest peak RSS of the round's commands, each run once more in a fresh process (untimed)."""
    runner = ProcessRunner(w, env)
    for op in w.ops:
        runner.run(op, "plain", 0, False)
        for path in op.outputs:
            if os.path.exists(path):
                os.remove(path)
    return max(runner.rss)


def measure(w, runner, seconds: float, trace: bool) -> list:
    """Warm up untimed, then run whole rounds, stopping at the round end nearest `seconds`.

    With tracing, rounds alternate untraced / traced and stop on a pair, so
    both halves see the same drift of the host; an untimed tracemalloc pass
    follows for the memory peaks.
    """
    seen, op_id = {}, 0
    for op in (w.ops if w.in_process else w.ops[:1]):
        execute(runner, op, "plain", op_id, seen)
    records, rounds = [], 0
    start = perf_counter()
    while True:
        mode = "traced" if trace and rounds % 2 else "plain"
        for op in w.ops:
            op_id += 1
            records.append(execute(runner, op, mode, op_id, seen))
        rounds += 1
        if trace and rounds % 2:
            continue
        elapsed = perf_counter() - start
        step = elapsed / rounds * (2 if trace else 1)
        if elapsed + step / 2 >= seconds:
            break
    if trace:
        for op in w.ops:
            if op.memory_pass:
                op_id += 1
                execute(runner, op, "memory", op_id, seen)
    return records


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = program_env()
    os.makedirs(RESULTS, exist_ok=True)
    tmp = os.path.join(RESULTS, f"tmp-{os.getpid()}-{name}")
    runner = None
    try:
        setup = None if trace else setup_seconds(env)
        imports = spans.import_breakdown(sys.executable, env, ROOT) if trace else {}
        w = workloads.WORKLOADS[name](seed, tmp)
        runner = (ServerRunner if w.in_process else ProcessRunner)(w, env)
        records = measure(w, runner, seconds, trace)
        result = runner.finish()
        if w.fresh_rss and not trace:
            result["peak_rss_mb"] = fresh_peak_rss(w, env)
    finally:
        if isinstance(runner, ServerRunner):
            runner.close()
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [r for r in records if not r["traced"]]
    times = [r["seconds"] for r in plain]
    if trace:
        values = dict.fromkeys(spans.PER_LAYER, 0.0)
        values.update(imports)
        values.update(result["per_layer"])
        traced = [r["seconds"] for r in records if r["traced"]]
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(times)
        metrics = {k: {"value": v, "unit": spans.PER_LAYER[k]} for k, v in values.items()}
    else:
        values = {
            "op_p50_s": statistics.median(times),
            "samples_per_s": sum(r["samples"] for r in plain) / sum(times),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": setup,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    with open(os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "records": records, **result}, fh)

    for line in sorted({f"{r['kind']}: {f}" for r in records for f in r["failures"]}):
        print(f"  [{name}] failed {line}")
    if result.get("absent"):
        print(f"  [{name}] not in the program: {', '.join(result['absent'])}")
    for key, m in metrics.items():
        print(f"{name}  {key} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": not any(r["unexplained"] for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failures"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dualruled", "__init__.py")):
        print(f"no dualruled sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
