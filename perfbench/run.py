"""The tangentkit benchmark.

    python3 perfbench/run.py --workload {solve,verify,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the code under test is the checkout's
``src/tangentkit`` (a run fails if tangentkit would be imported from
anywhere else, or if there are no sources).  One process, one op in flight:
each workload is a closed loop that repeats its op list ("a pass") until
``--seconds`` are used up.

``--trace 0`` reports the end-to-end metrics with tracing off:

* ``setup_s``: median over five fresh processes of the time to the first
  op being ready (for ``cli``: a bare ``import tangentkit.cli`` process);
* ``wall_s``: one pass, the sum over ops of each op's median time;
* ``peak_rss_mb``: peak RSS of the process running the passes (for
  ``cli``: of its largest child).

``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones (see ``spans.py``), plus jet and dsl
micro-benchmarks (``micro.py``).  A layer the workload's op list never
reaches is measured by one traced pass of another workload; the output
file names those layers.

Times are reference seconds (see :class:`Clock`): raw seconds scaled by a
calibration unit timed around each call, because a shared machine's speed
drifts too much for raw times to compare across runs.  The process and
its children are pinned to one CPU so that the unit runs where the work
does.

Every op's output is checked (see ``workloads.py``) and must repeat
byte-for-byte across passes.  The last stdout line is the JSON result; the
line before it is a machine note with the sha256 of the workload's outputs.
Raw times and span statistics are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import micro
import spans
import workloads as wl

SETUP_REPEATS = 5
MIN_PASSES = 3
REFERENCE_UNIT_S = 1e-3
TIME_UNITS = ("ns", "us", "ms", "s")
LIGHT_CLI = ("bracket", "expm", "exp")
DEPTHS = (0, 1, 2)
# Other workloads whose traced pass fills in layers a workload never reaches.
PROBE_ORDER = {"solve": ("verify", "cli"), "verify": ("cli", "solve"), "cli": ("verify", "solve")}


def calibration_unit() -> float:
    """Seconds for a fixed piece of pure-Python float work (median of 3)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        wl.rk4(wl.lorenz_rhs, [1.0, 1.0, 20.0], 0.1, 200)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times calls in reference seconds.

    A shared machine's speed drifts by tens of percent within a minute
    (frequency and hyperthread contention that no process setting
    controls), so each call is bracketed by :func:`calibration_unit` and
    its time is scaled to a machine on which that unit takes
    ``REFERENCE_UNIT_S``.  Raw seconds are kept beside it.
    """

    def __init__(self):
        self.units = [calibration_unit()]

    def measure(self, fn):
        """``fn()``, its raw seconds and its reference seconds."""
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        self.units.append(calibration_unit())
        return out, raw, raw * REFERENCE_UNIT_S / statistics.mean(self.units[-2:])

    def to_reference(self, metrics: dict, units: dict) -> dict:
        """Scale the times among ``metrics`` to reference seconds by the
        run's median unit; counts and ratios are left as they are."""
        scale = REFERENCE_UNIT_S / statistics.median(self.units)
        return {k: v * scale if units[k] in TIME_UNITS else v for k, v in metrics.items()}


class Runner:
    """Runs passes of one workload, checks every op and keeps the tallies."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.clock = Clock()
        self.op_times: dict[str, list[float]] = {op.name: [] for op in workload.ops}
        self.raw_op_times: dict[str, list[float]] = {op.name: [] for op in workload.ops}
        self.op_digests: dict[str, str] = {}

    def run_pass(self, tracer: spans.Tracer | None = None) -> float:
        """One pass over the op list; returns the summed op time in reference
        seconds.  Op times of untraced passes are kept."""
        total = 0.0
        for op in self.workload.ops:
            try:
                out, raw, ref = self.clock.measure(op.call)
            except Exception as e:  # an op that raises is a failed op
                self._fail(1, [f"{op.name}: {type(e).__name__}: {e}"])
                continue
            total += ref
            if tracer is None:
                self.op_times[op.name].append(ref)
                self.raw_op_times[op.name].append(raw)
            try:
                data, count, failures = op.check(out)
            except Exception as e:  # unreadable output
                self._fail(1, [f"{op.name}: check raised {type(e).__name__}: {e}"])
                continue
            digest = hashlib.sha256(data).hexdigest()
            if self.op_digests.setdefault(op.name, digest) != digest:
                failures = failures + [f"{op.name}: output differs from an earlier pass"]
            self.attempted += count
            if failures:
                self._fail(0, failures, min(len(failures), count))
        return total

    def _fail(self, attempted, messages, failed=1):
        self.attempted += attempted
        self.failed += failed
        self.failures.extend(messages)

    def traced_pass(self) -> tuple[float, spans.Tracer]:
        tracer = spans.Tracer()
        if isinstance(self.workload, wl.CliWorkload):
            self.workload.tracer, self.workload.traced = tracer, True
            try:
                total = self.run_pass(tracer)
            finally:
                self.workload.traced = False
            for _ in range(3):
                _, raw, _ = self.clock.measure(lambda: fresh_setup("cli", 0))
                tracer.record("cli.import", raw)
        else:
            with spans.installed(tracer):
                total = self.run_pass(tracer)
        return total, tracer

    def wall_s(self) -> float:
        return sum(statistics.median(t) for t in self.op_times.values() if t)

    def digest(self) -> str:
        h = hashlib.sha256()
        for op in self.workload.ops:
            h.update(self.op_digests.get(op.name, "missing").encode())
        return h.hexdigest()


def fresh_setup(workload: str, seed: int) -> None:
    """A fresh process that imports tangentkit and builds the workload (for
    ``cli``: a bare ``import tangentkit.cli``); checks where it imported from."""
    if workload == "cli":
        cmd = ["-c", "import sys, tangentkit.cli; sys.stdout.write(tangentkit.cli.__file__)"]
    else:
        cmd = [__file__, "--setup-only", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run([sys.executable] + cmd, env=wl.child_env(), cwd=wl.ROOT,
                          capture_output=True, timeout=60, check=True)
    wl.pin(proc.stdout.decode())


# -- per-layer metrics --------------------------------------------------------

def per_layer_units() -> dict[str, str]:
    names = {}
    for depth in DEPTHS:
        for op in ("add", "mul", "sin"):
            names[f"jets.{op}_ns_d{depth}"] = "ns"
    names["jets.div_ns_d1"] = "ns"
    names.update({"dsl.parse_us": "us", "dsl.compile_us": "us"})
    names.update({f"dsl.eval_us_d{d}": "us" for d in DEPTHS})
    names["dynamics.rhs_evals"] = "count"
    for d in DEPTHS:
        names[f"dynamics.rhs_us_d{d}"] = "us"
        names[f"dynamics.step_overhead_us_d{d}"] = "us"
        names[f"dynamics.integrate_s_d{d}"] = "s"
    names.update({"dynamics.expm_us": "us", "dynamics.linear_flow_us": "us"})
    names.update({"kernel.tangent_us_d1": "us", "kernel.tangent_us_d2": "us",
                  "kernel.flip_us": "us"})
    names.update({"fields.bracket_us": "us", "fields.commutes_ms": "ms",
                  "fields.matrix_of_us": "us"})
    names.update({"rig.e_ms": "ms", "rig.multiply_ms": "ms"})
    names.update({f"verify.{s}_s": "s" for s in wl.SUITES})
    names.update({"verify.laws": "count", "verify.laws_failed": "count"})
    names.update({"reports.emit_ms": "ms", "reports.bytes": "bytes"})
    names["cli.import_s"] = "s"
    names.update({f"cli.{c}_s": "s" for c in wl.CLI_OPS})
    names["cli.overhead_s"] = "s"
    names.update({"bench.trace_overhead_frac": "ratio", "bench.op_fail_frac": "ratio"})
    return names


def layer_metrics(dumped: dict) -> dict[str, float]:
    """Per-layer metrics from one traced pass; a metric whose spans the pass
    did not produce is left out."""
    stats, counters = dumped["stats"], dumped["counters"]
    out = {}

    def count(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def per_call(name, scale, column=1):
        return stats[name][column] / count(name) * scale if count(name) else None

    def put(metric, value):
        if value is not None:
            out[metric] = value

    rhs_total = sum(count(f"rhs.d{d}") for d in DEPTHS)
    put("dynamics.rhs_evals", rhs_total if rhs_total else None)
    for d in DEPTHS:
        put(f"dynamics.rhs_us_d{d}", per_call(f"rhs.d{d}", 1e6))
        if count(f"rhs.d{d}") and count(f"integrate.d{d}"):
            put(f"dynamics.step_overhead_us_d{d}",
                stats[f"integrate.d{d}"][2] / count(f"rhs.d{d}") * 1e6)
            put(f"dynamics.integrate_s_d{d}", stats[f"integrate.d{d}"][1])
    put("dynamics.expm_us", per_call("expm", 1e6))
    put("dynamics.linear_flow_us", per_call("linear_flow", 1e6))
    put("kernel.tangent_us_d1", per_call("tangent.d1", 1e6, column=2))
    put("kernel.tangent_us_d2", per_call("tangent.d2", 1e6, column=2))
    put("kernel.flip_us", per_call("flip", 1e6))
    put("fields.bracket_us", per_call("bracket", 1e6))
    put("fields.commutes_ms", per_call("commutes", 1e3))
    put("fields.matrix_of_us", per_call("matrix_of", 1e6))
    put("rig.e_ms", per_call("e", 1e3))
    put("rig.multiply_ms", per_call("multiply", 1e3))
    for s in wl.SUITES:
        put(f"verify.{s}_s", per_call(f"suite.{s}", 1.0))
    if any(count(f"suite.{s}") for s in wl.SUITES):
        out["verify.laws"] = counters.get("laws", 0)
        out["verify.laws_failed"] = counters.get("laws_failed", 0)
    put("reports.emit_ms", per_call("emit_report", 1e3))
    if count("emit_report"):
        out["reports.bytes"] = counters["report_bytes"] / count("emit_report")
    put("cli.import_s", per_call("cli.import", 1.0))
    for name in wl.CLI_OPS:
        put(f"cli.{name}_s", per_call(f"cli.{name}", 1.0))
    if all(count(f"cli.{c}") for c in LIGHT_CLI) and count("cli.import"):
        light = statistics.mean(per_call(f"cli.{c}", 1.0) for c in LIGHT_CLI)
        out["cli.overhead_s"] = light - per_call("cli.import", 1.0)
    return out


def traced_metrics(runner: Runner, name: str, seed: int, deadline: float):
    """Alternate untraced and traced passes until the deadline; per-layer
    metrics are medians over the traced passes."""
    units = per_layer_units()
    untraced, traced, per_pass, dumps = [], [], [], []
    while True:
        t0 = time.perf_counter()
        untraced.append(runner.run_pass())
        total, tracer = runner.traced_pass()
        traced.append(total)
        dumps.append(tracer.dump())
        per_pass.append({**layer_metrics(dumps[-1]), **micro.measure()})
        if 2 * time.perf_counter() - t0 > deadline:
            break
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics = runner.clock.to_reference(metrics, units)

    probed = []
    for other in PROBE_ORDER[name]:
        missing = [k for k in units if k not in metrics and not k.startswith("bench.")]
        if not missing:
            break
        probe = Runner(wl.WORKLOADS[other](seed))
        _, tracer = probe.traced_pass()
        found = probe.clock.to_reference(layer_metrics(tracer.dump()), units)
        for k in missing:
            if k in found:
                metrics[k] = found[k]
                probed.append(f"{k}<-{other}")
        runner.attempted += probe.attempted
        runner.failed += probe.failed
        runner.failures.extend(probe.failures)
    metrics["bench.trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["bench.op_fail_frac"] = runner.failed / max(runner.attempted, 1)
    missing = [k for k in units if k not in metrics]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    result = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return result, {"traced_passes": len(dumps), "layers_from_other_workloads": probed,
                    "span_stats_per_traced_pass": dumps}


def untraced_metrics(runner: Runner, name: str, seed: int, deadline: float):
    setup = [runner.clock.measure(lambda: fresh_setup(name, seed))[1:]
             for _ in range(SETUP_REPEATS)]
    passes = []
    while True:
        t0 = time.perf_counter()
        runner.run_pass()
        passes.append(time.perf_counter() - t0)
        if len(passes) >= MIN_PASSES and time.perf_counter() + statistics.median(passes) > deadline:
            break
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    result = {
        "setup_s": {"value": statistics.median(ref for _, ref in setup), "unit": "s"},
        "wall_s": {"value": runner.wall_s(), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
    }
    raw_wall = sum(statistics.median(t) for t in runner.raw_op_times.values() if t)
    return result, {"passes": len(passes), "raw_setup_s": [raw for raw, _ in setup],
                    "raw_wall_s": raw_wall, "op_times_reference_s": runner.op_times,
                    "op_times_raw_s": runner.raw_op_times,
                    "calibration_units_s": runner.clock.units}


def machine_note(name, seed, trace, runner) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (wl.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "note": "machine",
        "workload": name,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "cpu_frequency": "not pinned",
        "cgroup_isolation": "not pinned",
        "output_sha256": runner.digest(),
        "failures": runner.failures[:20],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: tangentkit.sampling.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # One CPU for this process and its children, so the calibration unit
    # runs on the core that does the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tk = wl.import_tangentkit()
    seed = tk.sampling.DEFAULT_SEED if args.seed is None else args.seed
    if args.setup_only:
        wl.WORKLOADS[args.workload](seed)
        sys.stdout.write(tk.__file__)
        return 0

    runner = Runner(wl.WORKLOADS[args.workload](seed))
    measure = traced_metrics if args.trace else untraced_metrics
    metrics, detail = measure(runner, args.workload, seed, time.perf_counter() + args.seconds)
    note = machine_note(args.workload, seed, args.trace, runner)

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"note": note, "metrics": metrics, **detail}, indent=1) + "\n")

    print(json.dumps(note))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
