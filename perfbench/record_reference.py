#!/usr/bin/env python3
"""Record the reference outputs of every input set of one workload.

    python3 perfbench/record_reference.py --workload desk-study

Writes perfbench/reference/<workload>.json with, per input set, the output
summary that run.py checks each pass against and the exact counts of one
traced pass.  Run it at the commit whose outputs define the reference.
"""

import argparse
import json
import os
import shutil
import sys

import run

run.pin_blas_threads(os.environ)
sys.path[:0] = [run.SRC, run.HERE]

import spans as spans_mod  # noqa: E402
import workloads as workloads_mod  # noqa: E402


def record(name: str, work_dir: str) -> dict:
    workload = workloads_mod.WORKLOADS[name]
    workload.warm_up(os.path.join(work_dir, "warmup"))
    sets = {}
    for k in range(workloads_mod.INPUT_SETS):
        state = workload.prepare(k, os.path.join(work_dir, "inputs"))
        tracer = spans_mod.Tracer()
        installed = spans_mod.install(tracer)
        try:
            raw = workload.run_pass(state)
        finally:
            installed.uninstall()
        out = workload.summarize(state, raw, tracer.surfaces())
        if out.failures:
            raise SystemExit(f"input set {k}: {out.failures} operations failed")
        metrics = spans_mod.layer_metrics(tracer.spans)
        counts = {m: v for m, (v, unit) in metrics.items() if unit in ("count", "B", "MB")}
        sets[str(k)] = {"summary": out.summary, "counts": counts}
        print(f"{name} input set {k}: sweeps {counts['solver.sweeps']}", flush=True)
    return {"workload": name, "input_sets": sets}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    args = ap.parse_args()
    work_dir = os.path.join(run.WORK, f"record-{args.workload}")
    try:
        payload = record(args.workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    path = workloads_mod.reference_path(args.workload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
