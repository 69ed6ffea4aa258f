"""Benchmark of the tiebreak package: end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload mc-crit07 --seed 0 --seconds 10 --trace 0

The package is imported from ./src, in this process, and driven as a closed
loop by one caller; nothing here starts threads, and BLAS keeps its default
thread count, which is recorded. A run:

1. sets up (imports tiebreak and tiebreak.cli, then one small call into
   each layer) and times that;
2. makes the workload's inputs from --seed;
3. runs the workload's output checks once, untimed, on a check pass with
   inputs of its own, each check with a negative control that must be
   rejected;
4. repeats whole passes of the workload until --seconds of operation
   time have elapsed, verifying every pass's outputs with the same checks
   after the pass, except the costly plain-numpy search, which is redone
   for the first pass only (input generation and checks are not timed);
5. with --trace 1, runs as many passes again with span wrappers installed
   around every layer's public functions (see tracing.py);
6. prints one line of details (provenance, checks, the workload's named
   metrics) and, last, one JSON object: correct, attempted, failed and
   metrics. With --trace 0 the metrics are the end-to-end ones, with
   --trace 1 the per-layer ones (per pass of the traced section).

Every time reported (setup_s, wall_s, items_per_s and the per-layer
times) is scaled to a nominal machine speed measured by a fixed reference
kernel timed between operations (see speed.py), because the speed of a
shared host drifts more between runs than any useful bound. The raw times
are printed in the details line.

setup_s is the median of nine set-ups, each scaled by the kernel timed
right after it: this process's own and eight in fresh child processes, run
one at a time after the timed section.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 60


def timed_setup() -> float:
    """Import the package and its CLI, then warm each layer with one tiny call."""
    if not os.path.isfile(os.path.join(SRC, "tiebreak", "__init__.py")):
        raise SystemExit(f"perfbench: no tiebreak package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    start = time.perf_counter()
    import tiebreak as tb
    import tiebreak.cli  # noqa: F401
    import numpy as np
    tb.run_simulation(tb.SimConfig(rule=tb.TieBreaker(0.5), n=16, reps=4, seed=1))
    tb.design_search(np.column_stack([np.ones(16), np.linspace(-1.0, 1.0, 16)]),
                     [(0.0, 1.0)], [0.5])
    tb.sliding_moments(tb.SlidingScale.from_table([-1.0, 0.0, 1.0], [0.1, 0.5, 0.9]))
    tb.covariance_quadratic(0.5)
    tb.covariance_uniform(0.5, full=True)
    elapsed = time.perf_counter() - start
    if not os.path.abspath(tb.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: tiebreak imported from {tb.__file__}, not {SRC}")
    return elapsed


def setup_sample(raw: float) -> tuple[float, float]:
    """A set-up time and the speed factor of the kernel timed right after it."""
    import speed
    return raw, speed.speed_factor([speed.kernel_seconds() for _ in range(5)])


def child_setups(count: int) -> list[tuple[float, float]]:
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        out.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return out


def provenance(tb, np) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps.get(k) for k in ("blas", "lapack")}
    except Exception as exc:  # the layout of show_config varies by numpy version
        blas = {"error": repr(exc)}
    thread_env = {k: os.environ[k] for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")
        if k in os.environ}
    try:
        from tiebreak import _kernels
        jitted = bool(_kernels.kernels().jitted)
    except (ImportError, AttributeError):
        jitted = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas, "thread_env": thread_env,
            "tiebreak": getattr(tb, "__version__", None), "commit": git_commit(),
            "kernels_jitted": jitted}


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_passes(workload, probe, first_index, seconds=None, count=None,
               operation=nullcontext):
    """Run whole passes until `seconds` of raw operation time or `count`
    passes, verifying each pass's outputs after it (untimed; see
    Workload.verify).

    The speed kernel is sampled before and after each pass and between
    its operations, never inside one, so no kernel time lands in a
    timing or a span.
    """
    passes, checks = [], []
    elapsed = 0.0
    index = first_index
    while (len(passes) < count) if count is not None else (not passes or elapsed < seconds):
        inputs = workload.pass_inputs(index)
        first = len(probe.samples)
        probe.sample()
        result = workload.run_pass(inputs, operation, probe.between)
        probe.sample()
        checks += workload.verify(inputs, result, full=not passes)
        workload.discard(inputs)
        result.outputs = []
        result.scale(probe.factor(first))
        elapsed += result.raw_wall_s
        passes.append(result)
        index += 1
    return passes, checks


def layer_metrics(tracer, traced, untraced, factor) -> dict:
    """Per-layer metrics per traced pass; times scaled by the traced
    section's speed factor."""
    from tracing import INFEASIBLE_OTHER, INFEASIBLE_REASONS, ROOT_SPAN, TARGET_NAMES
    n = len(traced)
    raw_wall = sum(p.raw_wall_s for p in traced)
    wall = sum(p.wall_s for p in traced) / n
    base = sum(p.wall_s for p in untraced) / len(untraced)
    out = {}
    for name in TARGET_NAMES:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0) / n, "count")
        out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) * factor / n, "s")
    counts = tracer.counts
    for name, key, unit in (
            ("kernels.z_gram_rhs", "bytes_computed", "B"),
            ("kernels.z_gram_rhs", "flop_computed", "flop"),
            ("kernels.weighted_gram", "bytes_computed", "B"),
            ("kernels.weighted_gram", "flop_computed", "flop"),
            ("kernels.region_weights", "bytes_computed", "B"),
            ("general.FeatureMatrix.from_csv", "bytes_read", "B")):
        out[f"{name}.{key}"] = (counts.get(f"{name}.{key}", 0) / n, unit)
    for _, key in INFEASIBLE_REASONS + (("", INFEASIBLE_OTHER),):
        metric = f"general.evaluate_design.infeasible.{key}"
        out[metric] = (counts.get(metric, 0) / n, "count")
    candidates = counts.get("general.design_search.candidates", 0)
    feasible = counts.get("general.design_search.feasible", 0)
    out["search.candidates"] = (candidates / n, "count")
    out["search.feasible_ratio"] = (feasible / candidates if candidates else 0.0, "frac")
    reps = counts.get("mc.run_simulation.reps", 0)
    used = counts.get("mc.run_simulation.reps_used", 0)
    out["mc.reps_used_ratio"] = (used / reps if reps else 0.0, "frac")
    out["mc.degenerate_reps"] = (counts.get("mc.run_simulation.degenerate_reps", 0) / n,
                                 "count")
    attributed = sum(v for k, v in tracer.self_s.items() if k != ROOT_SPAN)
    remainder = raw_wall - attributed
    out["trace.wall_s"] = (wall, "s")
    out["trace.untraced_wall_s"] = (base, "s")
    out["trace.overhead_frac"] = ((wall - base) / base, "frac")
    out["trace.remainder_s"] = (remainder * factor / n, "s")
    out["trace.remainder_frac"] = (remainder / raw_wall, "frac")
    out["trace.spans"] = (tracer.span_total / n, "count")
    out["trace.targets_absent"] = (len(tracer.absent), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up and print it (used by child processes)")
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(json.dumps(setup_sample(timed_setup())))
        return 0
    setup_first = setup_sample(timed_setup())

    import numpy as np
    import tiebreak as tb
    import oracles
    import speed
    import workloads
    from tracing import Tracer
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = workloads.make_workload(args.workload, tb, args.seed, workdir)
        checks = workload.check()
        failing = [c.name for c in checks if not c.ok]
        if failing:
            print(f"perfbench: output checks failed before timing: {failing}",
                  file=sys.stderr, flush=True)
        probe = speed.SpeedProbe(workload.speed_parts)
        untraced, verified = run_passes(workload, probe, 0, seconds=args.seconds)
        checks += verified
        traced = []
        if args.trace:
            tracer = Tracer()
            first = len(probe.samples)
            tracer.install()
            try:
                traced, verified = run_passes(workload, probe, len(untraced),
                                              count=len(untraced),
                                              operation=tracer.operation)
            finally:
                tracer.uninstall()
            checks += verified
            traced_factor = probe.factor(first)
        checks += workload.final_check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    named = {
        "wall_s": (statistics.median(p.wall_s for p in untraced), "s"),
        "wall_s.raw": (statistics.median(p.raw_wall_s for p in untraced), "s"),
        "speed_factor": (statistics.median(p.factor for p in untraced), "x"),
        "items_per_s": (workloads.per(sum(p.items for p in untraced),
                                      sum(p.item_s for p in untraced)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_failed_frac": (failed / attempted, "frac"),
    }
    named.update(workload.named_metrics(untraced))
    if args.trace:
        metrics = layer_metrics(tracer, traced, untraced, traced_factor)
    else:
        setups = [setup_first] + child_setups(SETUP_SAMPLES - 1)
        named["setup_s"] = (statistics.median(raw * f for raw, f in setups), "s")
        named["setup_s.raw"] = (statistics.median(raw for raw, _ in setups), "s")
        named["setup_s.samples"] = (len(setups), "count")
        metrics = {k: named[k] for k in ("setup_s", "wall_s", "items_per_s", "peak_rss_mb")}
    named["passes"] = (len(untraced), "count")

    correct = all(c.ok for c in checks)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "item": workload.item, "pass_wall_s.raw": [p.raw_wall_s for p in passes],
        "pass_speed_factor": [p.factor for p in passes],
        "provenance": provenance(tb, np),
        "checks": oracles.summarize(checks),
        "errors": [e for p in passes for e in p.errors][:5],
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    if args.trace:
        detail["absent_targets"] = tracer.absent
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
