"""Spans and counters around the program's public functions, installed at run time.

The program is not edited: `Tracer.install` replaces module attributes with
wrappers and `uninstall` puts the originals back. A function imported by
name into several modules (construct_offset calls `_darboux_fields` and
`_model_from_fields` through its own namespace) is wrapped wherever that
name is bound. A target the program no longer has is listed as absent.

Each span is [name, start, end, parent index, operation id]; spans stay in
memory and are written out when the run ends. Counter targets count calls
and add no span, so their time stays in the caller's self time.

Run as a script it is the traced stand-in for `python -m dualruled`:

    python3 dualbench/spans.py OUT.json MEMORY -- analyze --input ... --output ...

MEMORY is 1 to trace allocations (tracemalloc) for the memory pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

MIB = float(1 << 20)

# (span name, defining module, attribute)
SPAN_TARGETS = [
    ("cli.main", "dualruled.cli", "main"),
    ("cli.load_config", "dualruled.cli", "load_config"),
    ("cli.build_model", "dualruled.cli", "build_model"),
    ("cli.analyze_payload", "dualruled.cli", "_analyze_payload"),
    ("cli.write_obj", "dualruled.cli", "_write_obj"),
    ("serialize.dumps_canonical", "dualruled.serialize", "dumps_canonical"),
    ("surface_kernel.build_surface", "dualruled.surface_kernel", "build_surface"),
    ("surface_kernel.darboux_fields", "dualruled.surface_kernel", "_darboux_fields"),
    ("surface_kernel.resample", "dualruled.surface_kernel", "_model_from_fields"),
    ("surface_kernel.dual_apparatus", "dualruled.surface_kernel", "dual_apparatus"),
    ("surface_kernel.frame_residuals", "dualruled.surface_kernel", "frame_residuals"),
    ("surface_kernel.dual_frame_residuals", "dualruled.surface_kernel", "dual_frame_residuals"),
    ("surface_kernel.study_residual", "dualruled.surface_kernel", "study_residual"),
    ("mannheim_offset.offset_angle_profile", "dualruled.mannheim_offset", "offset_angle_profile"),
    ("mannheim_offset.construct_offset", "dualruled.mannheim_offset", "construct_offset"),
    ("mannheim_offset.consistency_report", "dualruled.mannheim_offset", "consistency_report"),
]

# (counter name, defining module, attribute)
COUNT_TARGETS = [
    ("numerics.grid_derivative_calls", "dualruled.numerics", "grid_derivative"),
    ("numerics.integrate_cumulative_calls", "dualruled.numerics", "integrate_cumulative"),
    ("scipy.pchip_builds", "scipy.interpolate", "PchipInterpolator"),
]

# spans whose tracemalloc peak is recorded in the memory pass (never nested in each other)
PEAK_SPANS = ("serialize.dumps_canonical", "surface_kernel.build_surface",
              "mannheim_offset.construct_offset")

RESIDUAL_SPANS = ("surface_kernel.frame_residuals", "surface_kernel.dual_frame_residuals",
                  "surface_kernel.study_residual")

# per-layer metrics: name -> unit (the order BENCHMARK.json lists them in)
PER_LAYER = {
    "import.total_s": "s", "import.scipy_s": "s", "import.numpy_s": "s",
    "cli.load_config_s": "s", "cli.build_model_s": "s", "cli.analyze_payload_s": "s",
    "cli.write_obj_s": "s", "cli.self_s": "s",
    "serialize.dumps_canonical_s": "s", "serialize.output_mb": "MB",
    "serialize.floats_emitted": "count", "cli.obj_mb": "MB",
    "serialize.dumps_canonical_peak_mb": "MB",
    "surface_kernel.build_surface_s": "s", "surface_kernel.darboux_fields_s": "s",
    "surface_kernel.resample_s": "s", "surface_kernel.dual_apparatus_s": "s",
    "surface_kernel.residuals_s": "s",
    "mannheim_offset.offset_angle_profile_s": "s", "mannheim_offset.construct_offset_s": "s",
    "mannheim_offset.consistency_report_s": "s",
    "surface_kernel.build_surface_peak_mb": "MB", "mannheim_offset.construct_offset_peak_mb": "MB",
    "numerics.grid_derivative_calls": "count", "numerics.integrate_cumulative_calls": "count",
    "scipy.pchip_builds": "count",
    "trace.overhead_s": "s",
}


def _count_floats(text: str) -> int:
    # canonical floats are '%.11e'; no key or string in the reports holds 'e+<digit>'/'e-<digit>'
    return sum(text.count(f"e{sign}{d}") for sign in "+-" for d in "0123456789")


class Tracer:
    """Installs wrappers and keeps spans, counters and sizes per operation."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.counts = defaultdict(int)      # (op, name) -> calls
        self.sizes = defaultdict(float)     # (op, name) -> MB or count
        self.peaks = defaultdict(list)      # name -> [MB]
        self.absent = []
        self._patched = []

    # -- wrappers --------------------------------------------------------
    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            peak = name in PEAK_SPANS and tracemalloc.is_tracing()
            if peak:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            tracer.spans.append([name, perf_counter(), 0.0, parent, tracer.op])
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                tracer.spans[idx][2] = perf_counter()
            if peak:
                tracer.peaks[name].append((tracemalloc.get_traced_memory()[1] - base) / MIB)
            if name == "serialize.dumps_canonical":
                tracer.sizes[(tracer.op, "serialize.output_mb")] += len(result) / MIB
                if tracemalloc.is_tracing():
                    tracer.sizes[(tracer.op, "serialize.floats_emitted")] += _count_floats(result)
            elif name == "cli.write_obj":
                tracer.sizes[(tracer.op, "cli.obj_mb")] += os.path.getsize(args[0]) / MIB
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[(tracer.op, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a loaded dualruled module binds it."""
        self.absent = []
        for targets, make in ((SPAN_TARGETS, self._span), (COUNT_TARGETS, self._counter)):
            for name, module, attr in targets:
                if module.startswith("dualruled.") and module not in sys.modules:
                    try:
                        importlib.import_module(module)
                    except ImportError:
                        pass
                original = getattr(sys.modules.get(module), attr, None)
                if original is None:
                    self.absent.append(name)
                    continue
                wrapped = make(name, original)
                program = [m for k, m in list(sys.modules.items())
                           if m is not None and (k == "dualruled" or k.startswith("dualruled."))]
                for mod in program:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    # -- export ------------------------------------------------------------
    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[op, name, v] for (op, name), v in self.counts.items()],
            "sizes": [[op, name, v] for (op, name), v in self.sizes.items()],
            "peaks": dict(self.peaks),
            "absent": self.absent,
        }

    def merge(self, data: dict, op) -> None:
        """Add a child process's dump, relabelled as operation `op`."""
        offset = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])
        for _, name, v in data["counts"]:
            self.counts[(op, name)] += v
        for _, name, v in data["sizes"]:
            self.sizes[(op, name)] += v
        for name, values in data["peaks"].items():
            self.peaks[name].extend(values)
        self.absent = data["absent"]


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(tracer: Tracer, memory: Tracer) -> dict:
    """Per-layer values: per-operation totals, median over the operations that reached them.

    Span metrics are inclusive times; cli.self_s is the cli.main span minus
    its direct children. Peaks and the float count come from the memory pass.
    """
    per_op = defaultdict(lambda: defaultdict(float))   # metric -> op -> value
    spans = tracer.spans
    for name, start, end, parent, op in spans:
        per_op[name + "_s"][op] += end - start
        if name in RESIDUAL_SPANS:
            per_op["surface_kernel.residuals_s"][op] += end - start
        if parent >= 0 and spans[parent][0] == "cli.main":
            per_op["cli.children_s"][op] += end - start
    for op, main in per_op["cli.main_s"].items():
        per_op["cli.self_s"][op] = main - per_op["cli.children_s"][op]
    for (op, name), v in tracer.counts.items():
        per_op[name][op] += v
    for (op, name), v in tracer.sizes.items():
        per_op[name][op] += v
    out = {name: _median(list(per_op[name].values())) for name in PER_LAYER
           if name in per_op}
    out["serialize.floats_emitted"] = _median(
        [v for (op, name), v in memory.sizes.items() if name == "serialize.floats_emitted"])
    for name in PEAK_SPANS:
        out[name + "_peak_mb"] = _median(memory.peaks.get(name, []))
    return out


def import_breakdown(python: str, env: dict, cwd: str, repeats: int = 3) -> dict:
    """Cumulative import times (s) from `-X importtime`, median over fresh interpreters."""
    wanted = {"numpy": "import.numpy_s", "scipy.interpolate": "import.scipy_s",
              "dualruled": "import.total_s", "dualruled.cli": "import.total_s"}
    runs = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import dualruled, dualruled.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip().splitlines()[-1:]}")
        got = defaultdict(float)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            module = parts[2].strip()   # each module is listed once, when first imported
            if module in wanted:
                got[wanted[module]] += int(parts[1]) / 1e6
        for metric in set(wanted.values()):
            runs[metric].append(got[metric])
    return {metric: _median(values) for metric, values in runs.items()}


def _main(argv) -> int:
    out, memory, rest = argv[0], argv[1] == "1", argv[3:]
    import dualruled.cli
    tracer = Tracer()
    tracer.install()
    if memory:
        tracemalloc.start()
    try:
        return dualruled.cli.main(rest)
    finally:
        tracemalloc.stop()
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
