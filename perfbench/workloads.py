"""The three benchmark workloads: inputs, warm-up, one pass, output summary.

desk-study  run_study on scenario A at desk scale, all four methods.  No fit
            saturates (p + q*p = 260 < n = 500); the block updates are
            Python-overhead bound.
wide-path   the same pipeline, tv-select only, with p*q/n = 1.44 as at p=60,
            N=100: most grid fits reach p + q*|S_vary| >= n and carry the cost.
panel-cli   `tvselect fit | predict | classify | tune --criterion cv` run
            in-process on a generated 20k-row scenario-E panel; CSV loading
            and large-n matvecs dominate.

The seed picks one of INPUT_SETS input sets, so every seed has reference
outputs recorded in reference/<workload>.json.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, replace

import numpy as np

from tvselect import cli, simulate

INPUT_SETS = 16
STUDY_SEED_BASE = 20240501
RTOL = 1e-8

HERE = os.path.dirname(os.path.abspath(__file__))


def input_set(seed: int) -> int:
    return int(seed) % INPUT_SETS


def reference_path(name: str) -> str:
    return os.path.join(HERE, "reference", f"{name}.json")


def close(a, b, rtol=RTOL) -> bool:
    """Float equality to a relative tolerance; NaN equals NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    finite = np.abs(b[np.isfinite(b)])
    atol = rtol * max(1.0, float(finite.max())) if finite.size else rtol
    return bool(np.allclose(a, b, rtol=rtol, atol=atol, equal_nan=True))


@dataclass
class PassOutput:
    summary: dict          # checked against the reference, with tolerances
    digest: str            # exact fingerprint: repeated and traced passes must match it
    operations: int        # operations attempted in the pass (reference check excluded)
    failures: int          # of those, how many failed
    implied_spans: dict    # span name -> count the outputs imply


# ------------------------------------------------------------------ studies

@dataclass
class StudyWorkload:
    spec_args: dict
    methods: tuple
    replications: int

    def options(self, **overrides) -> simulate.StudyOptions:
        return simulate.StudyOptions(methods=self.methods, **overrides)

    def prepare(self, seed: int, workdir: str):
        return {"study_seed": STUDY_SEED_BASE + input_set(seed)}

    def warm_up(self, workdir: str) -> None:
        spec = simulate.make_scenario("A", N=20, n_i=4, p=6, s_v=2, s_c=2, q=6)
        opts = self.options(lambda1_count=3, lambda2_values=(1e-2, 1e-4), n_test=20)
        simulate.run_study(spec, R=1, seed=0, parallelism=1, options=opts)

    def run_pass(self, state):
        spec = simulate.make_scenario("A", **self.spec_args)
        return simulate.run_study(spec, R=self.replications, seed=state["study_seed"],
                                  parallelism=1, options=self.options())

    def summarize(self, state, reports, surfaces) -> PassOutput:
        summary = {"reports": {r.method: {"means": r.means, "ses": r.ses,
                                          "n_replications": r.n_replications,
                                          "n_failures": r.n_failures}
                               for r in reports}}
        n_rep = reports[0].n_replications
        n_fail = reports[0].n_failures
        opts = self.options()
        cells = opts.lambda1_count * len(opts.lambda2_values)
        tv = "tv-select" in self.methods
        gl = "group-lasso" in self.methods or "screen-refit" in self.methods
        sr = "screen-refit" in self.methods
        vc = "vc-ridge" in self.methods
        per_rep = {
            "solver.fit_bcd": tv * cells + gl * opts.lambda1_count + sr
                              + vc * len(opts.lambda2_values),
            "tuning.tune_ebic": tv + gl + vc,
            "simulate.generate": 2,
            "simulate.score_fit": len(self.methods),
            "structure.classify": len(self.methods),
        }
        implied = {k: v * n_rep for k, v in per_rep.items()}
        implied["simulate.run_study"] = 1
        grid_cells = sum(c for c, _ in surfaces)
        nan_cells = sum(n for _, n in surfaces)
        return PassOutput(
            summary=summary,
            digest=hashlib.sha256(repr(summary).encode()).hexdigest(),
            operations=self.replications + grid_cells,
            failures=n_fail + nan_cells,
            implied_spans=implied,
        )

    @staticmethod
    def compare(summary, ref) -> list[str]:
        bad = []
        for method, want in ref["reports"].items():
            got = summary["reports"].get(method)
            if got is None:
                bad.append(f"{method}: missing")
                continue
            for key in ("n_replications", "n_failures"):
                if got[key] != want[key]:
                    bad.append(f"{method}.{key}: {got[key]} != {want[key]}")
            keys = sorted(want["means"])
            if sorted(got["means"]) != keys:
                bad.append(f"{method}: metric names differ")
            elif not close([got["means"][k] for k in keys], [want["means"][k] for k in keys]):
                bad.append(f"{method}: means differ beyond rtol {RTOL}")
        return bad


# --------------------------------------------------------------- panel CLI

PANEL_SPEC = {"N": 2000, "n_i": 10, "p": 30}
PANEL_TEST_SUBJECTS = 200
PANEL_FIT_PENALTY = ("0.004", "0.0001")
PANEL_LAMBDA1_GRID = "0.012,0.006,0.003,0.0015"
PANEL_LAMBDA2_GRID = "0.01,0.0001"
PANEL_CV_FOLDS = 5
PANEL_FILES = ("fit/fit.json", "tune/fit.json", "cls/partition.json",
               "tune/surface.csv", "pred/predictions.csv")


def _write_long_csv(path, dataset, prefix, clip=None) -> None:
    """Long CSV in the format load_long_csv reads; floats via repr(float)."""
    names = [f"x{k + 1}" for k in range(dataset.p)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["subject", "time", "y", *names]) + "\n")
        for i, s in enumerate(dataset.subjects):
            times = s.times if clip is None else np.clip(s.times, *clip)
            sid = f"{prefix}{i:06d}"
            for t, y, x in zip(times.tolist(), s.responses.tolist(), s.covariates.tolist()):
                fh.write(",".join([sid, repr(float(t)), repr(float(y)),
                                   *(repr(float(v)) for v in x)]) + "\n")


def write_panel(workdir, spec_args, seed_entropy, test_subjects) -> None:
    """Scenario E (covariates vary within subject, so de-meaning keeps them).

    Held-out times are clipped into the training time range: predict rejects
    rows outside the fitted domain.
    """
    spec = simulate.make_scenario("E", **spec_args)
    truth = simulate.make_truth(spec)
    train_ss, test_ss = np.random.SeedSequence(entropy=seed_entropy).spawn(2)
    train = simulate.generate(spec, truth, seed=train_ss)
    test = simulate.generate(replace(spec, N=test_subjects), truth, seed=test_ss)
    t_train = np.concatenate([s.times for s in train.subjects])
    _write_long_csv(os.path.join(workdir, "train.csv"), train, "s")
    _write_long_csv(os.path.join(workdir, "test.csv"), test, "h",
                    clip=(float(t_train.min()), float(t_train.max())))


def _commands(workdir, seed, lambda1_grid, lambda2_grid, folds, penalty):
    d = workdir
    train, test = os.path.join(d, "train.csv"), os.path.join(d, "test.csv")
    return (
        ("fit", ["fit", "--data", train, "--out", os.path.join(d, "fit"),
                 "--lambda1", penalty[0], "--lambda2", penalty[1]]),
        ("predict", ["predict", "--artifact", os.path.join(d, "fit", "fit.json"),
                     "--data", test, "--out", os.path.join(d, "pred")]),
        ("classify", ["classify", "--artifact", os.path.join(d, "fit", "fit.json"),
                      "--out", os.path.join(d, "cls")]),
        ("tune", ["tune", "--data", train, "--out", os.path.join(d, "tune"),
                  "--criterion", "cv", "--cv-folds", str(folds), "--seed", str(seed),
                  "--lambda1-grid", lambda1_grid, "--lambda2-grid", lambda2_grid]),
    )


def run_cli(commands) -> dict:
    """Each command through cli.main in this process; returns exit codes."""
    exits = {}
    sink = io.StringIO()
    for name, argv in commands:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(argv)
            except SystemExit as exc:          # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        exits[name] = code
    return exits


def _coef_summary(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    coef = payload["coefficients"]
    theta = np.asarray(coef["theta"], dtype=float)
    return {"lambda1": payload["penalty"]["lambda1"], "lambda2": payload["penalty"]["lambda2"],
            "beta0": coef["beta0"], "mu": coef["mu"],
            "theta_norm": np.linalg.norm(theta, axis=1).tolist(),
            "theta_sum": theta.sum(axis=1).tolist(),
            "iterations": payload["iterations"]}


class PanelWorkload:
    def prepare(self, seed: int, workdir: str):
        k = input_set(seed)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        write_panel(workdir, PANEL_SPEC, (STUDY_SEED_BASE, 5, k), PANEL_TEST_SUBJECTS)
        return {"workdir": workdir,
                "commands": _commands(workdir, k, PANEL_LAMBDA1_GRID, PANEL_LAMBDA2_GRID,
                                      PANEL_CV_FOLDS, PANEL_FIT_PENALTY)}

    def warm_up(self, workdir: str) -> None:
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        write_panel(workdir, {"N": 30, "n_i": 4, "p": 4, "s_v": 1, "s_c": 1}, (0,), 5)
        run_cli(_commands(workdir, 0, "0.1,0.01", "0.01", 2, PANEL_FIT_PENALTY))
        shutil.rmtree(workdir, ignore_errors=True)

    def run_pass(self, state):
        return run_cli(state["commands"])

    def summarize(self, state, exits, surfaces) -> PassOutput:
        d = state["workdir"]
        digest = hashlib.sha256(repr(sorted(exits.items())).encode())
        out_bytes = 0
        for sub in ("fit", "pred", "cls", "tune"):
            for root, _, files in os.walk(os.path.join(d, sub)):
                for fname in sorted(files):
                    path = os.path.join(root, fname)
                    out_bytes += os.path.getsize(path)
                    digest.update(path.encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
        summary = {"exits": exits, "output_bytes": out_bytes}
        missing = [f for f in PANEL_FILES if not os.path.exists(os.path.join(d, f))]
        cells = nan = 0
        if missing:
            summary["missing"] = missing
        else:
            summary["fit"] = _coef_summary(os.path.join(d, "fit", "fit.json"))
            summary["tune"] = _coef_summary(os.path.join(d, "tune", "fit.json"))
            with open(os.path.join(d, "cls", "partition.json"), encoding="utf-8") as fh:
                summary["partition"] = json.load(fh)
            with open(os.path.join(d, "tune", "surface.csv"), encoding="utf-8") as fh:
                surface = [float(row["criterion"]) for row in csv.DictReader(fh)]
            summary["surface"] = surface
            cells, nan = len(surface), int(np.isnan(surface).sum())
            with open(os.path.join(d, "pred", "predictions.csv"), encoding="utf-8") as fh:
                pred = np.array([float(row["prediction"]) for row in csv.DictReader(fh)])
            summary["predictions"] = {"count": int(pred.size), "sum": float(pred.sum()),
                                      "sumsq": float(pred @ pred)}
        try:
            with open(os.path.join(d, "tune", "config_echo.json"), encoding="utf-8") as fh:
                folds = int(json.load(fh)["cv_folds"])
        except OSError:
            folds = 0
        n_cmd = len(exits)
        implied = {
            "cli.main": n_cmd,
            # one fit for `fit`, folds x grid cells plus the refit for `tune`
            "solver.fit_bcd": 1 + folds * cells + 1,
            "tuning.tune_cv": 1,
            "data.load_long_csv": 3,
            "data.build_design": 1 + 1 + 2 * folds + 1,
            "artifact.save_fit": 2,
            "artifact.load_fit": 2,
        }
        return PassOutput(
            summary=summary, digest=digest.hexdigest(),
            operations=n_cmd + cells,
            failures=sum(1 for c in exits.values() if c != 0) + nan,
            implied_spans=implied,
        )

    @staticmethod
    def compare(summary, ref) -> list[str]:
        bad = []
        if summary["exits"] != ref["exits"]:
            bad.append(f"exit codes {summary['exits']} != {ref['exits']}")
        if "missing" in summary:
            return bad + [f"missing outputs {summary['missing']}"]
        for which in ("fit", "tune"):
            got, want = summary[which], ref[which]
            if (got["lambda1"], got["lambda2"]) != (want["lambda1"], want["lambda2"]):
                bad.append(f"{which}: selected penalty ({got['lambda1']}, {got['lambda2']}) "
                           f"!= ({want['lambda1']}, {want['lambda2']})")
            for key in ("beta0", "mu", "theta_norm", "theta_sum"):
                if not close(got[key], want[key]):
                    bad.append(f"{which}.{key} differs beyond rtol {RTOL}")
        if summary["partition"]["labels"] != ref["partition"]["labels"]:
            bad.append("partition labels differ")
        if not close(summary["surface"], ref["surface"]):
            bad.append(f"surface differs beyond rtol {RTOL}")
        got_p, want_p = summary["predictions"], ref["predictions"]
        if got_p["count"] != want_p["count"] or not close(
                [got_p["sum"], got_p["sumsq"]], [want_p["sum"], want_p["sumsq"]]):
            bad.append("predictions differ")
        return bad


WORKLOADS = {
    "desk-study": StudyWorkload(
        spec_args={"N": 100, "n_i": 5, "p": 20, "s_v": 3, "s_c": 3, "q": 12},
        methods=("tv-select", "vc-ridge", "group-lasso", "screen-refit"),
        replications=6,
    ),
    "wide-path": StudyWorkload(
        spec_args={"N": 40, "n_i": 5, "p": 24, "s_v": 6, "s_c": 6, "q": 12},
        methods=("tv-select",),
        replications=4,
    ),
    "panel-cli": PanelWorkload(),
}
