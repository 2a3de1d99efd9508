#!/usr/bin/env python3
"""Record the benchmark's end-to-end numbers for the checked-out code.

    python3 tools/bench_record.py

Standard library only, no options: every entry comes from the same runs.
From the repository root it runs

    python3 perfbench/run.py --workload W --seed s --seconds 30 --trace 0

as a subprocess for each workload W of WORKLOADS and each seed s of SEEDS,
reads the last line of each run (the benchmark's JSON object) and the `env`
and `machine.probe_s` lines before it, and refuses to record anything when a
run exits non-zero or reports `"correct": false`.  Then it writes one entry
per workload into `BENCH_<workload>.json` at the repository root; an entry of
the same commit and code digest is replaced, so each file holds one entry per
measured code, oldest first.  `machine.probe_s` (a fixed Python loop) is
recorded next to `wall_s`, never divided into it: the probe is pure Python,
and the solver is partly BLAS.

Schema of `BENCH_<workload>.json`:

    {
      "workload": "<workload>",
      "entries": [
        {
          "commit": "<full hash of HEAD>",
          "dirty": <true when tracked files differ from HEAD>,
          "code_sha256": "<sha256 of the tracked files under src/ and perfbench/>",
          "recorded": "<UTC time, ISO 8601>",
          "seeds": [<seed>, ...],
          "seconds": <the --seconds of each run>,
          "env": {<the run's `env` line: nproc, python, numpy, scipy, blas, ...>},
          "machine.probe_s": {"median": <s>, "q1": <s>, "q3": <s>},
          "wall_s": {"median": <s>, "q1": <s>, "q3": <s>},
          "setup_s": {"median": <s>, "q1": <s>, "q3": <s>},
          "peak_rss_mb": {"median": <MB>, "q1": <MB>, "q3": <MB>},
          "runs": [{"seed": <seed>, "wall_s": <s>, "setup_s": <s>,
                    "peak_rss_mb": <MB>, "machine.probe_s": <s>}, ...]
        }
      ]
    }

Each run's `wall_s` is already the median of its passes; the quartiles are
over the runs (statistics.quantiles, inclusive method), one run per seed.
`code_sha256` names the code measured, also when `dirty` is true and no
commit holds it: it hashes, in `git ls-files src perfbench` order, each
path, a NUL byte and the file's bytes as they stand in the working tree, so
the same code gives the same digest in any commit.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("desk-study", "wide-path", "panel-cli")
SEEDS = (0, 1, 2)
SECONDS = 30.0
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
PROBE = "machine.probe_s"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def code_digest() -> str:
    """The `code_sha256` of an entry: what the working tree holds under src/ and perfbench/."""
    digest = hashlib.sha256()
    for path in git("ls-files", "src", "perfbench").splitlines():
        with open(os.path.join(ROOT, path), "rb") as fh:
            digest.update(path.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def run_once(workload: str, seed: int) -> dict:
    """One benchmark run: the env line, its metrics and the probe, or SystemExit."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0 or result.get("correct") is not True:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"refused: {workload} seed {seed} exited {proc.returncode} with "
                         f"correct={result.get('correct')}; nothing was recorded")
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    probe = next(float(ln.split()[2]) for ln in lines if ln.split()[1:2] == [PROBE])
    run = {"seed": seed, **{k: result["metrics"][k]["value"] for k in METRICS}, PROBE: probe}
    return {"env": env, "run": run}


def spread(values: list) -> dict:
    """Median and quartiles over the runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def record(workload: str, entry: dict) -> str:
    path = os.path.join(ROOT, f"BENCH_{workload}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            bench = json.load(fh)
    else:
        bench = {"workload": workload, "entries": []}
    bench["entries"] = [e for e in bench["entries"] if (e["commit"], e["code_sha256"])
                        != (entry["commit"], entry["code_sha256"])]
    bench["entries"].append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return path


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    code = code_digest()
    results = {w: [run_once(w, s) for s in SEEDS] for w in WORKLOADS}
    recorded = datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0).isoformat()
    for workload, outs in results.items():
        runs = [out["run"] for out in outs]
        entry = {"commit": commit, "dirty": dirty, "code_sha256": code, "recorded": recorded,
                 "seeds": list(SEEDS), "seconds": SECONDS, "env": outs[0]["env"],
                 **{k: spread([r[k] for r in runs]) for k in (PROBE, *METRICS)},
                 "runs": runs}
        path = record(workload, entry)
        print(f"{workload:<11} wall_s {entry['wall_s']['median']:.3f} "
              f"[{entry['wall_s']['q1']:.3f}, {entry['wall_s']['q3']:.3f}]  "
              f"probe_s {entry[PROBE]['median']:.4f}  -> {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
