"""Command-line interface: fit, tune, predict, classify, simulate.

Every command accepts its options as flags or bundled in a JSON config file
(`--config`); on conflict the file wins with a warning.  The fully resolved
configuration is echoed next to the outputs so any run can be reproduced
from its output directory alone.  Exit codes: 0 success, 1 numerical
failure, 2 usage or I/O errors (`errors.UsageError` or `OSError`).  Numeric
CSV output uses 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import artifact
from .basis import EQUALLY_SPACED, TIME_QUANTILES, SplineConfig, build_basis
from .data import build_design, demean_within_subject, load_long_csv, standardize
from .errors import (ConfigurationError, DegenerateColumnError, ParseError, TVSelectError,
                     UsageError)
from .simulate import (
    CURVE_GRID_SIZE,
    StudyOptions,
    format_summary,
    make_scenario,
    replication_curves,
    run_study,
)
from .solver import (
    METHODS,
    METHOD_TV_SELECT,
    PenaltyConfig,
    SolverOptions,
    fit_baseline,
    fit_bcd,
    predict,
)
from .structure import classify, threshold
from .tuning import DEFAULT_LAMBDA2_GRID, TuningGrid, default_grid, tune_cv, tune_ebic

FMT = "%.17g"
# ScenarioSpec fields `simulate` takes from flags; unset is None (a number) or "" (a name)
SCENARIO_FLAGS = ("rho", "alpha", "sigma", "sigma_x2", "amplitude", "t_df",
                  "error_model", "time_design", "covariate_design")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FMT % float(value)


def _csv_cell(cell) -> str:
    if not isinstance(cell, str):
        return _fmt(cell)
    # subject ids and covariate names come from the input and may need quotes
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_column(values) -> list:
    """Each value's `_csv_cell`, formed once per column.

    A float array is formatted straight from `tolist()`; a column of strings
    is quoted once per distinct value.  Any other column goes cell by cell,
    since values that compare equal (0.0 and -0.0, 1 and True) print apart.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return [FMT % v for v in values.tolist()]
    distinct = set(values)
    if all(isinstance(v, str) for v in distinct):
        cells = {v: _csv_cell(v) for v in distinct}
        return [cells[v] for v in values]
    return [_csv_cell(v) for v in values]


def _blocks_of(labels, count: int) -> list:
    """Each label `count` times in a row: the label column of blocks of `count` rows."""
    return [label for label in labels for _ in range(count)]


def _write_csv(path, header, columns):
    """The one CSV writer: a header line, then row i of the equal-length `columns`."""
    rows = map(",".join, zip(*map(_csv_column, columns)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([",".join(header), *rows, ""]))


def _load_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot open config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    return payload


def _merge_config(args, actions, file_config):
    """File values override flags (with a warning) and defaults, each read as its flag reads it."""
    merged = vars(args).copy()
    for key, value in file_config.items():
        if key in ("command", "config"):
            continue
        if key not in merged:
            raise ParseError(f"config key '{key}' is not a recognized option")
        action = actions[key]
        if (action.nargs == 0) != isinstance(value, bool):        # true/false for bare flags only
            raise ParseError(f"config key '{key}' cannot take {value!r}")
        if action.nargs != 0 and value != action.default:
            try:
                read = (action.type or str)(str(value))            # as the flag reads its text
            except (TypeError, ValueError):
                raise ParseError(f"config key '{key}' cannot take {value!r}") from None
            if action.choices is not None and read not in action.choices:
                raise ParseError(f"config key '{key}': {read!r} is not one of "
                                 f"{list(action.choices)}")
            value = value if value == read else read         # 1 for a float flag stays 1
        flag_given = merged[key] != action.default
        if flag_given and merged[key] != value:
            print(f"warning: config file overrides --{key.replace('_', '-')} "
                  f"({merged[key]!r} -> {value!r})", file=sys.stderr)
        merged[key] = value
    return merged


def _echo_config(out_dir, command, merged):
    payload = {k: v for k, v in merged.items() if k != "config"}
    payload["command"] = command
    path = os.path.join(out_dir, "config_echo.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")


def _prepare_dataset(cfg):
    dataset = load_long_csv(cfg["data"])
    # not in build_design: a CV fold's held-out rows may share one response
    if np.ptp(dataset.y) == 0.0:
        raise DegenerateColumnError("the response is the same in every row, so there is "
                                    "nothing to fit")
    binary = tuple(s for s in (cfg.get("binary_cols") or "").split(",") if s)
    if not cfg.get("no_standardize"):
        dataset = standardize(dataset, binary_columns=binary)
    if not cfg.get("no_demean"):
        dataset = demean_within_subject(dataset)
    return dataset


def _descending(text, default=()) -> tuple:
    """Comma-separated finite floats sorted descending; empty text gives `default`."""
    items = str(text).split(",") if text != "" else default
    try:
        values = [float(v) for v in items]
    except ValueError:
        raise ParseError(f"grid '{text}' is not a comma-separated list of numbers") from None
    if not np.isfinite(values).all():
        raise ParseError(f"grid '{text}' contains NaN or inf")
    return tuple(sorted(values, reverse=True))


def _model_settings(cfg) -> tuple:
    """(SplineConfig, SolverOptions) of `fit` and `tune`, and the threshold multiplier checked.

    Built before the data are read, so a bad setting is named ahead of any data error.
    """
    threshold(2, 1, cfg["threshold_multiplier"])   # classify's check needs no real n or p
    spline = SplineConfig(degree=cfg["degree"], num_internal_knots=cfg["knots"],
                          knot_placement=cfg["knot_placement"])
    return spline, SolverOptions(tol=cfg["tol"], max_iter=cfg["max_iter"])


def _write_partition_report(path, part, names):
    payload = {
        "threshold": part.threshold_used,
        "labels": {name: part.label(k) for k, name in enumerate(names)},
        "vary": sorted(names[k] for k in part.s_vary),
        "const": sorted(names[k] for k in part.s_const),
        "zero": sorted(names[k] for k in part.s_zero),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_fit_outputs(cfg, fit, dataset):
    """fit.json, partition.json and curves.csv of a fitted model; returns its partition."""
    out, names = cfg["out"], dataset.covariate_names
    part = classify(fit, threshold_multiplier=cfg["threshold_multiplier"])
    artifact.save_fit(fit, os.path.join(out, "fit.json"), dataset)
    _write_partition_report(os.path.join(out, "partition.json"), part, names)
    tgrid = np.linspace(0.0, 1.0, CURVE_GRID_SIZE)
    curves = fit.coefficient_curves(tgrid)
    _write_csv(os.path.join(out, "curves.csv"), ("k", "covariate", "t", "beta_hat"),
               (_blocks_of([str(k + 1) for k in range(len(names))], len(tgrid)),
                _blocks_of(names, len(tgrid)), np.tile(tgrid, len(names)), curves.ravel()))
    return part


def cmd_fit(cfg) -> int:
    spline, options = _model_settings(cfg)
    penalty = PenaltyConfig(lambda1=cfg["lambda1"], lambda2=cfg["lambda2"])
    dataset = _prepare_dataset(cfg)
    basis = build_basis(spline, observed_times=dataset.times)
    design = build_design(dataset, basis)
    if cfg["method"] == METHOD_TV_SELECT:
        fit = fit_bcd(design, basis, penalty, options)
    else:
        fit = fit_baseline(design, basis, cfg["method"], penalty, options)
    part = _write_fit_outputs(cfg, fit, dataset)
    print(f"method={fit.method} converged={fit.converged} iterations={fit.iterations} "
          f"objective={_fmt(fit.objective_trace[-1])}")
    print(f"vary={sorted(dataset.covariate_names[k] for k in part.s_vary)} "
          f"const={sorted(dataset.covariate_names[k] for k in part.s_const)}")
    return 0


def cmd_tune(cfg) -> int:
    spline, options = _model_settings(cfg)
    lam2 = _descending(cfg["lambda2_grid"], DEFAULT_LAMBDA2_GRID)
    # checked before the data are read; (0,) stands in for a default lambda1 path
    grid = TuningGrid(_descending(cfg["lambda1_grid"], (0.0,)), lam2, gamma=cfg["gamma"])
    if cfg["criterion"] == "cv" and cfg["cv_folds"] < 2:
        raise ConfigurationError("--cv-folds must be at least 2")
    dataset = _prepare_dataset(cfg)
    basis = build_basis(spline, observed_times=dataset.times)
    design = build_design(dataset, basis)
    if not cfg["lambda1_grid"]:
        grid = default_grid(design, gamma=grid.gamma, lambda2_values=lam2)
    if cfg["criterion"] == "ebic":
        result = tune_ebic(design, basis, grid, options)
    else:
        result = tune_cv(dataset, basis, grid, n_folds=cfg["cv_folds"],
                         seed=cfg["seed"], options=options)
    for points, what, cell in ((result.failed_points, "failed", "is NaN"),
                               (result.nonconverged, "did not converge",
                                "is that of the unconverged fit")):
        for i, j, reason in points:
            print(f"warning: grid point lambda1={_fmt(grid.lambda1_values[i])} "
                  f"lambda2={_fmt(grid.lambda2_values[j])} {what} ({reason}); "
                  f"its surface.csv criterion {cell}", file=sys.stderr)
    _write_csv(os.path.join(cfg["out"], "surface.csv"),
               ("lambda1", "lambda2", "criterion"), zip(*result.surface_rows()))
    _write_fit_outputs(cfg, result.best_fit, dataset)
    print(f"criterion={result.criterion} best_lambda1={_fmt(result.best_lambda1)} "
          f"best_lambda2={_fmt(result.best_lambda2)}")
    return 0


def _refuse_rows(out, ids, times, reason, summary) -> int:
    """Exit code 2, with the refused rows named by subject and time in prediction_errors.csv."""
    report = os.path.join(out, "prediction_errors.csv")
    _write_csv(report, ("subject", "time", "reason"), (ids, times, [reason] * len(ids)))
    print(f"error: {len(ids)} rows have {summary}; see {report}", file=sys.stderr)
    return 2


def cmd_predict(cfg) -> int:
    out = cfg["out"]
    fit, prep, names = artifact.load_fit(cfg["artifact"])
    dataset = load_long_csv(cfg["data"], rescale=False)
    artifact.check_compatible(fit, names, dataset)
    # new rows are mapped through the ARTIFACT's standardization and time domain
    raw_times = dataset.times
    X, t01 = prep.to_model_scale(dataset.X, raw_times)

    # rows are regrouped by subject and time, so name them by subject and time
    ids = dataset.row_subject_ids()
    bad = ~((0.0 <= t01) & (t01 <= 1.0))
    if bad.any():
        return _refuse_rows(out, ids[bad], raw_times[bad], "time outside the fitted [0,1] range",
                            "times outside the model's range")
    pred = predict(fit, X, t01)
    bad = ~np.isfinite(pred)
    if bad.any():
        return _refuse_rows(out, ids[bad], raw_times[bad], "prediction is not finite",
                            "predictions that are not finite")
    _write_csv(os.path.join(out, "predictions.csv"),
               ("subject", "time", "time01", "prediction"), (ids, raw_times, t01, pred))
    print(f"wrote {len(pred)} predictions")
    return 0


def cmd_classify(cfg) -> int:
    out = cfg["out"]
    fit, _, names = artifact.load_fit(cfg["artifact"])
    names = names or [f"x{k+1}" for k in range(fit.p)]
    part = classify(fit, threshold_multiplier=cfg["threshold_multiplier"])
    _write_partition_report(os.path.join(out, "partition.json"), part, names)
    print(f"threshold={_fmt(part.threshold_used)} "
          f"vary={len(part.s_vary)} const={len(part.s_const)} zero={len(part.s_zero)}")
    return 0


def cmd_simulate(cfg) -> int:
    out = cfg["out"]
    overrides = {k: cfg[k] for k in SCENARIO_FLAGS if cfg.get(k) not in (None, "")}
    spec = make_scenario(cfg["scenario"], N=cfg["subjects"], n_i=cfg["obs_per_subject"],
                         p=cfg["covariates"], s_v=cfg["s_vary"], s_c=cfg["s_const"],
                         q=cfg["q"], **overrides)
    lam2 = _descending(cfg["lambda2_grid"], StudyOptions().lambda2_values)
    # re-echo with the resolved values (presets, forced fields and the grid)
    resolved = dict(cfg)
    resolved.update({k: getattr(spec, k) for k in SCENARIO_FLAGS},
                    lambda2_grid=",".join(repr(float(v)) for v in lam2))
    _echo_config(out, "simulate", resolved)
    methods = tuple(m.strip() for m in cfg["methods"].split(",") if m.strip())
    options = StudyOptions(methods=methods, gamma=cfg["gamma"], lambda2_values=lam2,
                           n_test=cfg["test_subjects"])
    start = time.perf_counter()
    reports = run_study(spec, R=cfg["replications"], seed=cfg["seed"],
                        parallelism=cfg["parallel"], options=options)
    workers = min(cfg["parallel"], cfg["replications"])
    print(f"{cfg['replications']} replications in {time.perf_counter() - start:.0f}s "
          f"({workers} worker{'s' if workers > 1 else ''})", file=sys.stderr)
    if reports[0].n_failures:
        print(f"warning: {reports[0].n_failures} of {cfg['replications']} replications "
              f"failed; metrics.csv averages the other {reports[0].n_replications}",
              file=sys.stderr)
    _write_csv(os.path.join(out, "metrics.csv"),
               ("scenario", "config", "method", "metric", "mean", "se"),
               zip(*(row for rep in reports for row in rep.rows())))
    if cfg["curves"]:
        data = replication_curves(spec, 0, cfg["seed"], options)
        curves = data["methods"]          # method -> (p, len(t)) array
        ks = _blocks_of([str(k + 1) for k in range(spec.p)], len(data["t"]))
        _write_csv(os.path.join(out, "curves.csv"),
                   ("method", "k", "t", "beta_true", "beta_hat"),
                   (_blocks_of(curves, len(ks)), ks * len(curves),
                    np.tile(data["t"], spec.p * len(curves)),
                    np.tile(data["truth"].ravel(), len(curves)),
                    np.array(list(curves.values())).ravel()))
    print(format_summary(reports))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvselect",
        description="Varying-coefficient model selection for longitudinal data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="JSON config file; wins over flags")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)

    def add_data_opts(p):
        p.add_argument("--data", default=None, help="long-format CSV")
        p.add_argument("--no-demean", action="store_true", dest="no_demean")
        p.add_argument("--no-standardize", action="store_true", dest="no_standardize")
        p.add_argument("--binary-cols", default="", dest="binary_cols",
                       help="comma-separated covariates to exempt from standardization")
        p.add_argument("--degree", type=int, default=3)
        p.add_argument("--knots", type=int, default=4, help="interior knot count")
        p.add_argument("--knot-placement", dest="knot_placement",
                       choices=(EQUALLY_SPACED, TIME_QUANTILES), default=EQUALLY_SPACED)
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=500)
        p.add_argument("--threshold-multiplier", dest="threshold_multiplier",
                       type=float, default=1.0)

    p_fit = sub.add_parser("fit", help="fit at fixed penalties")
    add_common(p_fit)
    add_data_opts(p_fit)
    p_fit.add_argument("--lambda1", type=float, default=0.1)
    p_fit.add_argument("--lambda2", type=float, default=1e-4)
    p_fit.add_argument("--method", choices=METHODS, default=METHOD_TV_SELECT)

    p_tune = sub.add_parser("tune", help="select penalties by EBIC or subject-wise CV")
    add_common(p_tune)
    add_data_opts(p_tune)
    p_tune.add_argument("--criterion", choices=("ebic", "cv"), default="ebic")
    p_tune.add_argument("--gamma", type=float, default=0.5)
    p_tune.add_argument("--cv-folds", dest="cv_folds", type=int, default=5)
    p_tune.add_argument("--lambda1-grid", dest="lambda1_grid", default="",
                        help="comma-separated values; default: data-driven path")
    p_tune.add_argument("--lambda2-grid", dest="lambda2_grid", default="",
                        help="comma-separated values; default: tuning.DEFAULT_LAMBDA2_GRID")

    p_pred = sub.add_parser("predict", help="predict new rows from a fit artifact")
    add_common(p_pred)
    p_pred.add_argument("--artifact", default=None)
    p_pred.add_argument("--data", default=None, help="long-format CSV")

    p_cls = sub.add_parser("classify", help="structural partition from a fit artifact")
    add_common(p_cls)
    p_cls.add_argument("--artifact", default=None)
    p_cls.add_argument("--threshold-multiplier", dest="threshold_multiplier",
                       type=float, default=1.0)

    p_sim = sub.add_parser("simulate", help="run a replicated benchmark scenario")
    add_common(p_sim)
    p_sim.add_argument("--scenario", choices=tuple("ABCDEF"), default="A")
    p_sim.add_argument("--subjects", type=int, default=100, help="N")
    p_sim.add_argument("--obs-per-subject", dest="obs_per_subject", type=int, default=5)
    p_sim.add_argument("--covariates", type=int, default=20, help="p")
    p_sim.add_argument("--s-vary", dest="s_vary", type=int, default=3)
    p_sim.add_argument("--s-const", dest="s_const", type=int, default=3)
    p_sim.add_argument("--q", type=int, default=12)
    p_sim.add_argument("--replications", type=int, default=30)
    p_sim.add_argument("--rho", type=float, default=None)
    p_sim.add_argument("--alpha", type=float, default=None)
    p_sim.add_argument("--sigma", type=float, default=None)
    p_sim.add_argument("--sigma-x2", dest="sigma_x2", type=float, default=None)
    p_sim.add_argument("--amplitude", type=float, default=None)
    p_sim.add_argument("--t-df", dest="t_df", type=float, default=None)
    p_sim.add_argument("--error-model", dest="error_model", default="")
    p_sim.add_argument("--time-design", dest="time_design", default="")
    p_sim.add_argument("--covariate-design", dest="covariate_design", default="")
    p_sim.add_argument("--methods", default=",".join(METHODS))
    p_sim.add_argument("--gamma", type=float, default=StudyOptions.gamma)
    p_sim.add_argument("--lambda2-grid", dest="lambda2_grid", default="",
                       help="comma-separated values; default: StudyOptions().lambda2_values")
    p_sim.add_argument("--test-subjects", dest="test_subjects", type=int,
                       default=StudyOptions.n_test)
    p_sim.add_argument("--parallel", type=int, default=os.cpu_count() or 1)
    p_sim.add_argument("--curves", action="store_true")
    return parser


# options each command needs, from a flag or the config file
REQUIRED = {
    "fit": ("data",),
    "tune": ("data",),
    "predict": ("artifact", "data"),
    "classify": ("artifact",),
}

COMMANDS = {
    "fit": cmd_fit,
    "tune": cmd_tune,
    "predict": cmd_predict,
    "classify": cmd_classify,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    actions = {a.dest: a
               for g in parser._subparsers._group_actions
               for a in g.choices[args.command]._actions}
    try:
        file_cfg = _load_config_file(args.config) if args.config else {}
        cfg = _merge_config(args, actions, file_cfg)
        for key in REQUIRED.get(args.command, ()):
            if not cfg.get(key):
                print(f"error: --{key} is required", file=sys.stderr)
                return 2
        os.makedirs(cfg["out"], exist_ok=True)
        _echo_config(cfg["out"], args.command, cfg)
        return COMMANDS[args.command](cfg)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TVSelectError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
