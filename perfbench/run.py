#!/usr/bin/env python3
"""tvselect benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload desk-study --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Prints the environment and a table of every
metric with its unit, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  `--trace 0` reports the end-to-end
metrics; `--trace 1` runs one untraced and one traced phase and reports the
per-layer metrics plus the tracing overhead.  Exits 1 when an output check
fails and 2 when the tvselect sources are missing.
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
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("desk-study", "wide-path", "panel-cli")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60


def pin_blas_threads(env) -> None:
    """One BLAS thread: the default two compete with the work on a 2-core box."""
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"


def environment() -> dict:
    import importlib.util
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cvxpy": "present" if importlib.util.find_spec("cvxpy") else "absent",
    }


def machine_probe() -> float:
    """Fixed Python-plus-small-numpy loop; tracks the box's speed, not tvselect's."""
    import numpy as np
    v = np.linspace(0.0, 1.0, 12)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(100000):
        acc += float(v @ v) + (i % 7)
    return time.perf_counter() - t0


def setup_samples(workload: str, run_dir: str) -> list[float]:
    """Import + warm-up time, each in a fresh interpreter."""
    samples = []
    for i in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
             os.path.join(run_dir, f"setup{i}")],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, env=os.environ.copy())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class Run:
    """Passes of one workload, the checks on their outputs, and the failure count."""

    def __init__(self, workload, state, reference):
        self.workload = workload
        self.state = state
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest = None

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def passes(self, tracer, budget: float):
        """Run passes until the next one would end past `budget` seconds (at least one)."""
        results = []
        start = time.perf_counter()
        while True:
            mark = tracer.mark()
            t0 = time.perf_counter()
            try:
                raw = self.workload.run_pass(self.state)
            except Exception as exc:    # a failed pass is a counted failure, not a crash
                self.check(False, f"pass raised {type(exc).__name__}: {exc}")
                break
            duration = time.perf_counter() - t0
            out = self.workload.summarize(self.state, raw, tracer.surfaces(mark))
            self.attempted += out.operations
            self.failed += out.failures
            if out.failures:
                self.problems.append(f"{out.failures} of {out.operations} operations failed")
            mismatch = (self.workload.compare(out.summary, self.reference)
                        if self.reference is not None else ["no reference for this input set"])
            self.check(not mismatch, "; ".join(mismatch))
            if self.first_digest is None:
                self.first_digest = out.digest
            else:
                self.check(out.digest == self.first_digest, "outputs differ between passes")
            results.append((duration, tracer.since(mark), out))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(r[0] for r in results) > budget:
                break
        return results


def load_reference(workloads_mod, name, seed):
    path = workloads_mod.reference_path(name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        sets = json.load(fh)["input_sets"]
    entry = sets.get(str(workloads_mod.input_set(seed)))
    return entry["summary"] if entry else None


def print_table(workload, metrics, extra) -> None:
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{workload:<11} {name:<28} {value:>16.6f} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tvselect", "__init__.py")):
        print(f"error: tvselect sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads(os.environ)
    sys.path[:0] = [SRC, HERE]

    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, run_dir) -> int:
    setup = [] if args.trace else setup_samples(args.workload, run_dir)

    import spans as spans_mod
    import workloads as workloads_mod

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    workload = workloads_mod.WORKLOADS[args.workload]
    state = workload.prepare(args.seed, os.path.join(run_dir, "inputs"))
    workload.warm_up(os.path.join(run_dir, "warmup"))
    run = Run(workload, state, load_reference(workloads_mod, args.workload, args.seed))
    probes = [machine_probe() for _ in range(3)]

    # Untraced passes still wrap tune_ebic/tune_cv (a few calls per pass) so
    # NaN cells in tuning surfaces that run_study does not return are counted.
    capture = spans_mod.Tracer()
    installed = spans_mod.install(capture, spans_mod.SURFACE_TARGETS)
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run.passes(capture, budget)
    installed.uninstall()

    traced = []
    if args.trace:
        tracer = spans_mod.Tracer()
        installed = spans_mod.install(tracer)
        traced = run.passes(tracer, budget)
        installed.uninstall()

    probes += [machine_probe() for _ in range(3)]
    wall = statistics.median(r[0] for r in untraced) if untraced else float("nan")
    extra = {"machine.probe_s": (statistics.median(probes), "s")}

    if not args.trace:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        extra["passes"] = (len(untraced), "count")
        if untraced:
            extra["wall_s.min"] = (min(r[0] for r in untraced), "s")
            extra["wall_s.max"] = (max(r[0] for r in untraced), "s")
    else:
        metrics = traced_metrics(run, spans_mod, untraced, traced, wall)
        metrics["machine.probe_s"] = extra.pop("machine.probe_s")
        tracer.write(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed, "env": env})

    extra["fail_frac"] = (run.failed / run.attempted if run.attempted else 1.0, "ratio")
    print_table(args.workload, metrics, extra)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def traced_metrics(run, spans_mod, untraced, traced, untraced_wall) -> dict:
    """Per-layer metrics of the traced passes, plus the self-test checks."""
    if not traced:
        run.check(False, "no traced pass completed")
        return {}
    per_pass = [spans_mod.layer_metrics(spans) for _, spans, _ in traced]
    first = per_pass[0]
    exact = [k for k, (_, unit) in first.items() if unit in ("count", "B", "MB")]
    for other in per_pass[1:]:
        run.check(all(other[k] == first[k] for k in exact), "exact counts differ between passes")
    for _, spans, out in traced:
        counts = spans_mod.span_counts(spans)
        wrong = {k: (counts.get(k, 0), v) for k, v in out.implied_spans.items()
                 if counts.get(k, 0) != v}
        run.check(not wrong, f"span counts (traced, implied) differ: {wrong}")
    if untraced:
        run.check(traced[0][2].digest == untraced[0][2].digest,
                  "traced and untraced outputs differ")
    metrics = {}
    for name, (_, unit) in first.items():
        metrics[name] = (statistics.median(m[name][0] for m in per_pass), unit)
    metrics["cli.output_bytes"] = (traced[0][2].summary.get("output_bytes", 0), "B")
    traced_wall = statistics.median(r[0] for r in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
