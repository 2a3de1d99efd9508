import csv
import json
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tvselect import artifact, cli, solver, tuning
from tvselect.basis import SplineConfig, build_basis
from tvselect.cli import main
from tvselect.data import PreprocessState, build_design, from_arrays, load_long_csv, standardize
from tvselect.errors import ParseError, SingularBlockError
from tvselect.simulate import StudyOptions, generate, make_scenario
from tvselect.solver import (
    METHOD_TV_SELECT,
    METHODS,
    PenaltyConfig,
    SolverOptions,
    fit_baseline,
    fit_bcd,
    fit_oracle,
    fitted_values,
    predict,
)
from tvselect.tuning import lambda1_max


def refuse_to_fit(*args, **kwargs):
    raise AssertionError("a fit ran before the command refused its options")


def make_training_csv(path, rng, N=20, n_i=4, p=3, time_range=(0.0, 10.0)):
    rows = ["subject,time,y,x1,x2,x3"[:10 + 3 * p]]
    header = ["subject", "time", "y"] + [f"x{k+1}" for k in range(p)]
    rows = [",".join(header)]
    lo, hi = time_range
    for i in range(N):
        base = rng.standard_normal(p)
        times = np.sort(rng.uniform(lo, hi, n_i))
        for t in times:
            x = base + 0.5 * rng.standard_normal(p)
            t01 = (t - lo) / (hi - lo)
            y = x[0] * (1.0 + np.sin(2 * np.pi * t01)) - x[1] + 0.1 * rng.standard_normal()
            rows.append(",".join([f"s{i}", f"{t}"] + [f"{y}"] + [f"{v}" for v in x]))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def train_csv(tmp_path):
    rng = np.random.default_rng(31)
    return make_training_csv(tmp_path / "train.csv", rng)


def read_bytes(folder):
    out = {}
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), "rb") as fh:
            out[name] = fh.read()
    return out


# ------------------------------------------------------------------ artifact


def test_artifact_round_trip(train_csv, tmp_path):
    ds = load_long_csv(train_csv)
    from tvselect.data import standardize, demean_within_subject
    ds = demean_within_subject(standardize(ds))
    basis = build_basis(SplineConfig(degree=3, num_internal_knots=2))
    design = build_design(ds, basis)
    fit = fit_bcd(design, basis, PenaltyConfig(0.02, 1e-5), SolverOptions())
    path = tmp_path / "fit.json"
    artifact.save_fit(fit, path, ds)
    loaded, prep, names = artifact.load_fit(path)
    assert loaded.beta0 == fit.beta0
    assert np.array_equal(loaded.mu, fit.mu)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.theta, fit.theta))
    assert loaded.penalty == fit.penalty
    assert prep.demeaned is True
    assert names == ("x1", "x2", "x3")
    # reloaded fit reproduces fitted values exactly
    assert np.array_equal(fitted_values(design, loaded), fitted_values(design, fit))


def test_oracle_and_loaded_fits_are_read_only(train_csv, tmp_path):
    # theta is one (p, q) float array whichever solver made the fit
    ds = standardize(load_long_csv(train_csv))
    basis = build_basis(SplineConfig(degree=3, num_internal_knots=2))
    design = build_design(ds, basis)
    pen = PenaltyConfig(0.02, 1e-5)
    fits = [fit_bcd(design, basis, pen, SolverOptions()), fit_oracle(design, basis, pen)]
    fits += [fit_baseline(design, basis, method, pen, SolverOptions())
             for method in METHODS if method != METHOD_TV_SELECT]
    for j, fit in enumerate(list(fits)):
        artifact.save_fit(fit, tmp_path / f"fit{j}.json", ds)
        fits.append(artifact.load_fit(tmp_path / f"fit{j}.json")[0])
    for fit in fits:
        assert isinstance(fit.theta, np.ndarray) and fit.theta.dtype == float
        assert fit.theta.shape == (design.p, basis.q)
        assert not fit.mu.flags.writeable and not fit.theta.flags.writeable


def test_artifact_mismatch_detected(train_csv, tmp_path):
    ds = load_long_csv(train_csv)
    basis = build_basis(SplineConfig(degree=3, num_internal_knots=2))
    design = build_design(ds, basis)
    fit = fit_bcd(design, basis, PenaltyConfig(0.05, 0.0), SolverOptions())
    path = tmp_path / "fit.json"
    artifact.save_fit(fit, path, ds)
    loaded, _, names = artifact.load_fit(path)
    other = from_arrays(["a", "a"], [0.0, 1.0], [0.0, 1.0],
                        np.zeros((2, 2)), rescale=False)
    from tvselect.errors import ArtifactMismatchError
    with pytest.raises(ArtifactMismatchError):
        artifact.check_compatible(loaded, names, other)


def fitted_payload(train_csv):
    ds = standardize(load_long_csv(train_csv))
    basis = build_basis(SplineConfig(degree=3, num_internal_knots=2))
    fit = fit_bcd(build_design(ds, basis), basis, PenaltyConfig(0.02, 1e-5), SolverOptions())
    return fit, artifact.fit_to_dict(fit, ds)


def test_artifact_with_epsilon_prox_still_loads(train_csv, tmp_path):
    # artifacts written before the stabilizer was dropped carry penalty.epsilon_prox
    fit, payload = fitted_payload(train_csv)
    assert set(payload["penalty"]) == {"lambda1", "lambda2"}
    payload["penalty"]["epsilon_prox"] = 1e-8
    path = tmp_path / "old.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    loaded, _, _ = artifact.load_fit(path)
    assert loaded.penalty == fit.penalty
    assert all(np.array_equal(a, b) for a, b in zip(loaded.theta, fit.theta))


@pytest.mark.parametrize("path, value", [
    (("basis",), None),
    (("coefficients", "mu"), "abc"),
    (("coefficients", "theta"), [[0.0, 1.0]]),
    (("preprocessing", "center"), [0.0]),
])
def test_malformed_artifact_fields_raise_parse_error(train_csv, path, value):
    _, payload = fitted_payload(train_csv)
    *outer, key = path
    owner = payload
    for part in outer:
        owner = owner[part]
    owner[key] = value
    with pytest.raises(ParseError):
        artifact.fit_from_dict(payload)


@pytest.mark.parametrize("field", ["n_train", "iterations"])
@pytest.mark.parametrize("command", ["classify", "predict"])
def test_artifact_count_that_is_infinite_exit_code_2(train_csv, tmp_path, capsys, field,
                                                     command):
    # int(inf) raised OverflowError, which escaped main as a traceback
    _, payload = fitted_payload(train_csv)
    payload[field] = float("inf")
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ParseError, match="OverflowError"):
        artifact.fit_from_dict(json.loads(path.read_text(encoding="utf-8")))
    argv = [command, "--artifact", str(path), "--out", str(tmp_path / "out")]
    assert main(argv + (["--data", str(train_csv)] if command == "predict" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed") and "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "predict"])
def test_artifact_basis_that_is_not_finite_exit_code_2(train_csv, tmp_path, capsys, command):
    # a first interior knot of 3e-301 passed the knot checks; rebuilding the
    # basis warned "overflow encountered in divide" and left Omega non-finite
    _, payload = fitted_payload(train_csv)
    payload["basis"]["interior_knots"][0] = 3e-301
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    argv = [command, "--artifact", str(path), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv + (["--data", str(train_csv)] if command == "predict" else []))
    assert rc == 2 and [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "predict"])
def test_malformed_artifact_exit_code_2(train_csv, tmp_path, capsys, command):
    path = tmp_path / "fit.json"
    path.write_text(json.dumps({"format": "tvselect-fit", "version": 1}), encoding="utf-8")
    argv = [command, "--artifact", str(path), "--out", str(tmp_path / "out")]
    if command == "predict":
        argv += ["--data", str(train_csv)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "malformed" in err and "Traceback" not in err


@pytest.mark.parametrize("path, value", [
    (("coefficients", "beta0"), float("inf")),
    (("coefficients", "mu", 0), float("nan")),
    (("coefficients", "theta", 1, 2), float("nan")),
    (("preprocessing", "center", 0), float("nan")),
    (("preprocessing", "scale", 0), 0.0),
    (("preprocessing", "scale", 1), -1.0),
    (("preprocessing", "scale", 2), float("inf")),
    (("preprocessing", "time_domain"), [1.0, 0.0]),
    (("preprocessing", "time_domain"), [2.0, 2.0]),
    (("preprocessing", "time_domain"), [0.0, float("nan")]),
], ids=["beta0-inf", "mu-nan", "theta-nan", "center-nan", "scale-zero", "scale-negative",
        "scale-inf", "time-domain-reversed", "time-domain-empty", "time-domain-nan"])
def test_predict_refuses_bad_artifact_values_exit_code_2(train_csv, tmp_path, capsys,
                                                         path, value):
    # a hand-edited copy of a valid fit.json: predictions from it would be
    # non-finite or taken at unscaled times
    _, payload = fitted_payload(train_csv)
    *outer, key = path
    owner = payload
    for part in outer:
        owner = owner[part]
    owner[key] = value
    bad, out = tmp_path / "fit.json", tmp_path / "pred"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ParseError):
        artifact.fit_from_dict(json.loads(bad.read_text(encoding="utf-8")))
    assert main(["predict", "--artifact", str(bad), "--data", str(train_csv),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (out / "predictions.csv").exists()


def test_artifact_without_preprocessing_maps_rows_unchanged(tmp_path):
    # "preprocessing": null is the identity map with no names: predict scores the
    # raw rows, classify names the covariates x1..xp, and any data names pass
    path = make_training_csv(tmp_path / "raw.csv", np.random.default_rng(8),
                             time_range=(0.0, 1.0))
    header, rest = path.read_text(encoding="utf-8").split("\n", 1)
    path.write_text(header.replace("x1,x2,x3", "age,dose,bmi") + "\n" + rest, encoding="utf-8")
    ds = standardize(load_long_csv(path))
    basis = build_basis(SplineConfig(degree=3, num_internal_knots=2))
    fit = fit_bcd(build_design(ds, basis), basis, PenaltyConfig(0.02, 1e-5), SolverOptions())
    payload = artifact.fit_to_dict(fit, ds)
    art = tmp_path / "fit.json"
    art.write_text(json.dumps({**payload, "preprocessing": None}), encoding="utf-8")
    loaded, prep, names = artifact.load_fit(art)
    assert prep == PreprocessState() and names is None

    raw = load_long_csv(path, rescale=False)
    artifact.check_compatible(loaded, names, raw)
    assert main(["predict", "--artifact", str(art), "--data", str(path),
                 "--out", str(tmp_path / "pred")]) == 0
    rows = np.loadtxt(tmp_path / "pred" / "predictions.csv", delimiter=",", skiprows=1,
                      usecols=(1, 2, 3))
    assert np.array_equal(rows[:, 1], raw.times)
    assert np.array_equal(rows[:, 2], predict(loaded, raw.X, raw.times))
    assert main(["classify", "--artifact", str(art), "--out", str(tmp_path / "cls")]) == 0
    labels = json.loads((tmp_path / "cls" / "partition.json").read_text(encoding="utf-8"))
    assert list(labels["labels"]) == ["x1", "x2", "x3"]

    # a record without time_domain standardizes X and leaves the times as given
    del payload["preprocessing"]["time_domain"]
    _, prep, names = artifact.fit_from_dict(payload)
    assert prep.time_domain == (0.0, 1.0) and names == ("age", "dose", "bmi")
    X, t = prep.to_model_scale(raw.X, raw.times)
    state = ds.preprocessing
    assert np.array_equal(X, (raw.X - state.center) / state.scale)
    assert np.array_equal(t, raw.times)


# ----------------------------------------------------------------- commands


def test_fit_then_predict_roundtrip(train_csv, tmp_path):
    out_fit = tmp_path / "fit_out"
    rc = main(["fit", "--data", str(train_csv), "--out", str(out_fit),
               "--lambda1", "0.02", "--lambda2", "1e-5", "--knots", "2",
               "--no-demean"])
    assert rc == 0
    assert (out_fit / "fit.json").exists()
    assert (out_fit / "partition.json").exists()
    assert (out_fit / "curves.csv").exists()
    assert (out_fit / "config_echo.json").exists()

    out_pred = tmp_path / "pred_out"
    rc = main(["predict", "--artifact", str(out_fit / "fit.json"),
               "--data", str(train_csv), "--out", str(out_pred)])
    assert rc == 0
    preds = np.loadtxt(out_pred / "predictions.csv", delimiter=",", skiprows=1,
                       usecols=(1, 2, 3))

    # reproduce in-sample fitted values independently
    from tvselect.data import standardize
    ds = standardize(load_long_csv(train_csv))
    basis = build_basis(SplineConfig(degree=3, num_internal_knots=2))
    design = build_design(ds, basis)
    fit = fit_bcd(design, basis, PenaltyConfig(0.02, 1e-5), SolverOptions())
    expected = fitted_values(design, fit)
    assert np.abs(np.sort(preds[:, 2]) - np.sort(expected)).max() < 1e-10


def test_predictors_agree(train_csv, tmp_path):
    out_fit, out_pred = tmp_path / "fit_out", tmp_path / "pred_out"
    assert main(["fit", "--data", str(train_csv), "--out", str(out_fit),
                 "--lambda1", "0.02", "--lambda2", "1e-5", "--knots", "2", "--no-demean"]) == 0
    assert main(["predict", "--artifact", str(out_fit / "fit.json"),
                 "--data", str(train_csv), "--out", str(out_pred)]) == 0
    fit, prep, _ = artifact.load_fit(out_fit / "fit.json")
    center, scale = prep.center, prep.scale

    # the in-design predictor and the raw-row predictor on the training rows
    ds = standardize(load_long_csv(train_csv))
    _, X, t = ds.stacked()
    pred = predict(fit, X, t)
    assert np.array_equal(fitted_values(build_design(ds, fit.basis), fit), pred)

    # tvselect predict and simulate.score_fit map raw rows with the record, then call predict
    raw = load_long_csv(train_csv, rescale=False)
    X_new, t01 = prep.to_model_scale(raw.X, raw.times)
    assert np.array_equal(X_new, (raw.X - center) / scale)
    rows = np.loadtxt(out_pred / "predictions.csv", delimiter=",", skiprows=1,
                      usecols=(1, 2, 3))
    assert np.array_equal(rows[:, 1], t01)
    assert np.array_equal(rows[:, 2], predict(fit, (raw.X - center) / scale, rows[:, 1]))


def test_predictions_name_their_input_rows(train_csv, tmp_path):
    # rows given out of subject and time order are matched back by (subject, time)
    out_fit, out_pred = tmp_path / "fit_out", tmp_path / "pred_out"
    assert main(["fit", "--data", str(train_csv), "--out", str(out_fit),
                 "--lambda1", "0.02", "--lambda2", "1e-5", "--knots", "2", "--no-demean"]) == 0
    header, *lines = train_csv.read_text(encoding="utf-8").splitlines()
    order = np.random.default_rng(4).permutation(len(lines))
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header] + [lines[i] for i in order]) + "\n",
                        encoding="utf-8")
    assert main(["predict", "--artifact", str(out_fit / "fit.json"),
                 "--data", str(shuffled), "--out", str(out_pred)]) == 0

    fit, prep, _ = artifact.load_fit(out_fit / "fit.json")
    lo, hi = prep.time_domain
    center, scale = prep.center, prep.scale
    expected = {}
    for line in lines:
        sid, t, _, *x = line.split(",")
        x = (np.array(x, dtype=float) - center) / scale
        expected[(sid, float(t))] = predict(fit, x, (float(t) - lo) / (hi - lo))
    with open(out_pred / "predictions.csv", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["subject", "time", "time01", "prediction"]
        got = {(sid, float(t)): float(value) for sid, t, _, value in reader}
    assert got.keys() == expected.keys()
    assert max(abs(got[key] - expected[key]) for key in got) <= 1e-12


def test_predict_and_classify_take_artifact_and_data_from_config(train_csv, tmp_path):
    out_fit = tmp_path / "fit_out"
    assert main(["fit", "--data", str(train_csv), "--out", str(out_fit),
                 "--lambda1", "0.02", "--lambda2", "1e-5", "--knots", "2", "--no-demean"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"artifact": str(out_fit / "fit.json"), "data": str(train_csv)}),
                   encoding="utf-8")
    assert main(["predict", "--config", str(cfg), "--out", str(tmp_path / "pred")]) == 0
    assert (tmp_path / "pred" / "predictions.csv").exists()
    cfg.write_text(json.dumps({"artifact": str(out_fit / "fit.json")}), encoding="utf-8")
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "cls")]) == 0
    assert (tmp_path / "cls" / "partition.json").exists()


@pytest.mark.parametrize("argv, missing", [
    (["predict"], "artifact"),
    (["predict", "--artifact", "fit.json"], "data"),
    (["classify"], "artifact"),
    (["fit"], "data"),
])
def test_required_value_missing_from_flags_and_config(tmp_path, capsys, argv, missing):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1}), encoding="utf-8")
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"error: --{missing} is required" in capsys.readouterr().err


def test_missing_input_exit_code_2(tmp_path, capsys):
    rc = main(["fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert rc == 2
    assert "nope.csv" in capsys.readouterr().err


@pytest.mark.parametrize("command, penalty", [
    ("fit", ["--lambda1", "0.05"]),
    ("tune", ["--lambda1-grid", "0.05"]),
    ("tune", []),                   # the default grid: lambda1_max refuses the design
], ids=["fit", "tune", "tune-default-grid"])
def test_rank_deficient_constant_design_exit_code_2(tmp_path, capsys, command, penalty):
    # scenario A's baseline covariates give [1 X] 21 columns of rank 20
    # with 20 subjects and p = 20
    ds = generate(make_scenario("A", N=20, n_i=5, p=20), seed=3)
    header = ["subject", "time", "y"] + list(ds.covariate_names)
    rows = [",".join(header)]
    for subj in ds.subjects:
        for t, y, x in zip(subj.times, subj.responses, subj.covariates):
            rows.append(",".join([subj.subject_id] + ["%.17g" % v for v in (t, y, *x)]))
    path = tmp_path / "rank.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    argv = [command, "--data", str(path), "--out", str(tmp_path / "out"), "--no-demean"]
    assert main(argv + penalty) == 2
    err = capsys.readouterr().err
    assert "rank-deficient" in err and "Traceback" not in err


@pytest.mark.parametrize("column", [1, 2, 4])          # time, y, covariate x2
@pytest.mark.parametrize("value", ["inf", "-inf"])
def test_fit_rejects_infinite_values_exit_code_2(train_csv, tmp_path, capsys, column, value):
    lines = train_csv.read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[column] = value
    lines[5] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["fit", "--data", str(bad), "--out", str(tmp_path / "out"),
               "--lambda1", "0.05", "--lambda2", "1e-4", "--knots", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "row 6" in err and "Traceback" not in err


@pytest.mark.parametrize("cell", ["1_000", ""])
def test_fit_rejects_cells_outside_the_grammar_exit_code_2(train_csv, tmp_path, capsys, cell):
    # float() takes '1_000'; a row of empty fields used to be skipped
    lines = train_csv.read_text(encoding="utf-8").splitlines()
    lines[5] = ",".join([cell] * 6)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["fit", "--data", str(bad), "--out", str(tmp_path / "out"),
               "--lambda1", "0.05", "--lambda2", "1e-4", "--knots", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"row 6, column 'time': cannot parse '{cell}'" in err and "Traceback" not in err


def test_lambda1_above_max_gives_empty_vary(train_csv, tmp_path):
    ds = load_long_csv(train_csv)
    from tvselect.data import standardize
    basis = build_basis(SplineConfig(degree=3, num_internal_knots=2))
    design = build_design(standardize(ds), basis)
    top = lambda1_max(design)
    out = tmp_path / "out"
    rc = main(["fit", "--data", str(train_csv), "--out", str(out),
               "--lambda1", str(1.05 * top), "--lambda2", "0", "--knots", "2",
               "--no-demean"])
    assert rc == 0
    part = json.loads((out / "partition.json").read_text())
    assert part["vary"] == []


def test_predict_time_out_of_range(train_csv, tmp_path, capsys):
    out_fit = tmp_path / "fit_out"
    main(["fit", "--data", str(train_csv), "--out", str(out_fit), "--knots", "2",
          "--no-demean"])
    bad = tmp_path / "bad.csv"
    bad.write_text("subject,time,y,x1,x2,x3\nz,99.0,0,0,0,0\nz,5.0,0,0,0,0\n",
                   encoding="utf-8")
    out_pred = tmp_path / "pred_out"
    rc = main(["predict", "--artifact", str(out_fit / "fit.json"),
               "--data", str(bad), "--out", str(out_pred)])
    assert rc == 2
    # the loader regroups rows by subject and time, so the report names the
    # row by its subject and time, not by its position
    report = (out_pred / "prediction_errors.csv").read_text()
    assert report == 'subject,time,reason\nz,99,"time outside the fitted [0,1] range"\n'


def test_prediction_errors_quote_subject_ids(train_csv, tmp_path):
    out_fit = tmp_path / "fit_out"
    main(["fit", "--data", str(train_csv), "--out", str(out_fit), "--knots", "2"])
    bad = tmp_path / "bad.csv"
    bad.write_text('subject,time,y,x1,x2,x3\n"d,""e""",-1.0,0,0,0,0\n', encoding="utf-8")
    out_pred = tmp_path / "pred_out"
    assert main(["predict", "--artifact", str(out_fit / "fit.json"),
                 "--data", str(bad), "--out", str(out_pred)]) == 2
    with open(out_pred / "prediction_errors.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ['d,"e"', "-1", "time outside the fitted [0,1] range"]


def test_predictions_that_overflow_exit_code_2(train_csv, tmp_path, capsys):
    # x1 = 1.7e308 standardizes past the largest float: predictions.csv held inf, exit 0
    out_fit = tmp_path / "fit_out"
    main(["fit", "--data", str(train_csv), "--out", str(out_fit), "--knots", "2"])
    big = tmp_path / "big.csv"
    big.write_text("subject,time,y,x1,x2,x3\nz,5.0,0,1.7e308,0,0\nz,6.0,0,0,0,0\n",
                   encoding="utf-8")
    out_pred = tmp_path / "pred_out"
    # numpy warned "overflow encountered in matmul" before the clean exit
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["predict", "--artifact", str(out_fit / "fit.json"),
                     "--data", str(big), "--out", str(out_pred)]) == 2
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert "error: 1 rows have predictions that are not finite" in err
    report = (out_pred / "prediction_errors.csv").read_text()
    assert report == 'subject,time,reason\nz,5,prediction is not finite\n'
    assert not (out_pred / "predictions.csv").exists()


def test_classify_command(train_csv, tmp_path):
    out_fit = tmp_path / "fit_out"
    main(["fit", "--data", str(train_csv), "--out", str(out_fit),
          "--lambda1", "5.0", "--knots", "2", "--no-demean"])
    out_cls = tmp_path / "cls_out"
    rc = main(["classify", "--artifact", str(out_fit / "fit.json"),
               "--out", str(out_cls)])
    assert rc == 0
    part = json.loads((out_cls / "partition.json").read_text())
    assert part["vary"] == []
    assert set(part["labels"]) == {"x1", "x2", "x3"}
    assert part["threshold"] > 0


def test_tune_command_surface_consistency(train_csv, tmp_path):
    out = tmp_path / "tune_out"
    rc = main(["tune", "--data", str(train_csv), "--out", str(out), "--knots", "2",
               "--no-demean", "--lambda1-grid", "0.08,0.02,0.005",
               "--lambda2-grid", "1e-5"])
    assert rc == 0
    lines = (out / "surface.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda1,lambda2,criterion"
    values = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    best = min(values, key=lambda r: r[2])
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["command"] == "tune"
    fit_payload = json.loads((out / "fit.json").read_text())
    assert fit_payload["penalty"]["lambda1"] == pytest.approx(best[0])


def test_tune_honours_lambda2_grid_on_the_default_lambda1_path(train_csv, tmp_path):
    out = tmp_path / "tune_out"
    rc = main(["tune", "--data", str(train_csv), "--out", str(out), "--knots", "2",
               "--no-demean", "--lambda2-grid", "0.5"])
    assert rc == 0
    lines = (out / "surface.csv").read_text().strip().splitlines()[1:]
    assert {float(ln.split(",")[1]) for ln in lines} == {0.5}


@pytest.mark.parametrize("flag,value", [("--lambda1-grid", "0.1,abc"),
                                        ("--lambda1-grid", "0.1,,0.01"),
                                        ("--lambda2-grid", "nan")])
def test_malformed_grid_exit_code_2(train_csv, tmp_path, capsys, flag, value):
    rc = main(["tune", "--data", str(train_csv), "--out", str(tmp_path / "t"),
               "--knots", "2", "--lambda1-grid", "0.1", flag, value])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_tune_warns_once_per_failed_grid_point(train_csv, tmp_path, capsys, monkeypatch):
    real_fit = tuning.fit_bcd

    def fit_failing(design, basis, penalty, *args, **kwargs):
        if penalty.lambda1 == 0.02:
            raise SingularBlockError("injected failure")
        return real_fit(design, basis, penalty, *args, **kwargs)

    monkeypatch.setattr(tuning, "fit_bcd", fit_failing)
    out = tmp_path / "tune_out"
    rc = main(["tune", "--data", str(train_csv), "--out", str(out), "--knots", "2",
               "--no-demean", "--lambda1-grid", "0.08,0.02,0.005",
               "--lambda2-grid", "1e-3,1e-5"])
    assert rc == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert warnings == [
        f"warning: grid point lambda1=0.02 lambda2={cli._fmt(lam2)} failed "
        "(SingularBlockError: injected failure); its surface.csv criterion is NaN"
        for lam2 in (1e-3, 1e-5)]
    rows = [ln.split(",") for ln in (out / "surface.csv").read_text().splitlines()[1:]]
    assert [r[2] == "nan" for r in rows] == [False, False, True, True, False, False]


def test_tune_warns_once_per_nonconverged_grid_point(train_csv, tmp_path, capsys,
                                                     monkeypatch):
    argv = ["tune", "--data", str(train_csv), "--knots", "2", "--no-demean",
            "--lambda1-grid", "0.08,0.02,0.005", "--lambda2-grid", "1e-3,1e-5"]
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    assert "warning:" not in capsys.readouterr().err
    real_fit = tuning.fit_bcd

    def fit_unconverged(design, basis, penalty, *args, **kwargs):
        fit = real_fit(design, basis, penalty, *args, **kwargs)
        return replace(fit, converged=False) if penalty.lambda1 == 0.08 else fit

    monkeypatch.setattr(tuning, "fit_bcd", fit_unconverged)
    assert main(argv + ["--out", str(tmp_path / "flagged")]) == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert [re.sub(r"max_iter=\d+", "max_iter=N", ln) for ln in warnings] == [
        f"warning: grid point lambda1={cli._fmt(0.08)} lambda2={cli._fmt(lam2)} did not converge "
        "(stopped at max_iter=N); its surface.csv criterion is that of the unconverged fit"
        for lam2 in (1e-3, 1e-5)]
    # the record changes no output file
    assert ((tmp_path / "flagged" / "surface.csv").read_bytes()
            == (tmp_path / "plain" / "surface.csv").read_bytes())


def test_tune_cv_command(train_csv, tmp_path):
    out = tmp_path / "cv_out"
    rc = main(["tune", "--data", str(train_csv), "--out", str(out), "--knots", "2",
               "--no-demean", "--criterion", "cv", "--cv-folds", "4",
               "--lambda1-grid", "0.05,0.01", "--lambda2-grid", "1e-5", "--seed", "3"])
    assert rc == 0
    assert (out / "surface.csv").exists()


def test_cli_determinism_fit(train_csv, tmp_path):
    out = tmp_path / "out"
    args = ["fit", "--data", str(train_csv), "--out", str(out), "--knots", "2",
            "--seed", "7", "--no-demean"]
    assert main(args) == 0
    first = read_bytes(out)
    assert main(args) == 0
    second = read_bytes(out)
    assert first == second


SIM_ARGS = ["simulate", "--scenario", "A", "--subjects", "20",
            "--obs-per-subject", "4", "--covariates", "6", "--s-vary", "1",
            "--s-const", "1", "--q", "6", "--replications", "2", "--seed", "5",
            "--test-subjects", "30", "--lambda2-grid", "1e-6"]


@pytest.mark.parametrize("parallel", ["1", "2"], ids=["serial", "parallel"])
@pytest.mark.parametrize("curves", [[], ["--curves"]], ids=["metrics", "curves"])
def test_cli_determinism_simulate(tmp_path, curves, parallel):
    # a rerun writes the same bytes, and parallel replications write those of serial ones
    out = tmp_path / "sim"
    assert main([*SIM_ARGS, *curves, "--out", str(out), "--parallel", "1"]) == 0
    first = read_bytes(out)
    assert main([*SIM_ARGS, *curves, "--out", str(out), "--parallel", parallel]) == 0
    second = read_bytes(out)
    assert ("curves.csv" in first) == bool(curves)
    if parallel != "1":     # the echo records --parallel
        del first["config_echo.json"], second["config_echo.json"]
    assert first == second


def test_simulate_curves_are_those_of_the_scored_fits(tmp_path):
    # replication 0 refitted apart from the CLI gives every beta_hat block of curves.csv
    from tvselect.simulate import CURVE_GRID_SIZE, _child_seeds, fit_study_methods, make_truth
    out = tmp_path / "sim"
    methods = ("vc-ridge", "tv-select", "screen-refit", "group-lasso")
    assert main([*SIM_ARGS, "--curves", "--out", str(out), "--parallel", "1",
                 "--methods", ",".join(methods)]) == 0
    with open(out / "curves.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    spec = make_scenario("A", N=20, n_i=4, p=6, s_v=1, s_c=1, q=6)
    train = standardize(generate(spec, seed=_child_seeds(5, spec, 0)[0]))
    basis = build_basis(SplineConfig.from_q(spec.q))
    fits = fit_study_methods(build_design(train, basis), basis,
                             StudyOptions(methods=methods, lambda2_values=(1e-6,), n_test=30))
    tgrid = np.linspace(0.0, 1.0, CURVE_GRID_SIZE)
    truth = make_truth(spec)
    block = spec.p * len(tgrid)
    assert len(rows) == len(methods) * block
    for m, method in enumerate(methods):     # one block per method, in --methods order
        part = rows[m * block:(m + 1) * block]
        assert {r["method"] for r in part} == {method}
        hat = np.array([float(r["beta_hat"]) for r in part]).reshape(spec.p, -1)
        want = fits[method].coefficient_curves(tgrid) / train.preprocessing.scale[:, None]
        assert np.array_equal(hat, want)
        true = np.array([float(r["beta_true"]) for r in part]).reshape(spec.p, -1)
        assert np.array_equal(true, np.vstack([truth.beta(k, tgrid) for k in range(spec.p)]))
        assert [int(r["k"]) for r in part[::len(tgrid)]] == list(range(1, spec.p + 1))
        assert np.array_equal(np.array([float(r["t"]) for r in part]).reshape(spec.p, -1),
                              np.tile(tgrid, (spec.p, 1)))


def test_simulate_curves_fit_each_replication_once(tmp_path, monkeypatch):
    from tvselect import simulate
    calls = {"fit_study_methods": 0, "generate": 0}

    def counted(name):
        real = getattr(simulate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(simulate, name, counted(name))
    rc = main(["simulate", "--subjects", "12", "--obs-per-subject", "4",
               "--covariates", "6", "--s-vary", "1", "--s-const", "1", "--q", "6",
               "--replications", "3", "--out", str(tmp_path / "sim"), "--parallel", "1",
               "--test-subjects", "20", "--methods", "tv-select", "--lambda2-grid", "1e-6",
               "--curves"])
    assert rc == 0
    assert (tmp_path / "sim" / "curves.csv").exists()
    assert calls == {"fit_study_methods": 3, "generate": 6}


def test_simulate_writes_wellformed_csv(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--scenario", "A", "--subjects", "20",
               "--obs-per-subject", "4", "--covariates", "6", "--s-vary", "1",
               "--s-const", "1", "--q", "6", "--replications", "2", "--seed", "5",
               "--out", str(out), "--parallel", "1", "--test-subjects", "30",
               "--lambda2-grid", "1e-6"])
    assert rc == 0
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "scenario,config,method,metric,mean,se"
    assert len(lines) > 4 * 8     # four methods, many metrics
    for ln in lines[1:]:
        cells = ln.split(",")
        assert cells[0] == "A"
        float(cells[4])           # parsable means


def test_simulate_scenario_f_echo(tmp_path):
    out = tmp_path / "sim_f"
    rc = main(["simulate", "--scenario", "F", "--subjects", "12",
               "--obs-per-subject", "4", "--covariates", "6", "--s-vary", "1",
               "--s-const", "1", "--q", "6", "--replications", "1", "--seed", "5",
               "--out", str(out), "--parallel", "1", "--test-subjects", "20",
               "--methods", "tv-select", "--lambda2-grid", "1e-6"])
    assert rc == 0
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["scenario"] == "F"
    # scenario F forces the half-strength amplitude into the emitted echo
    assert echo["amplitude"] == 0.5


def test_simulate_warns_of_failed_replications(tmp_path, capsys, monkeypatch):
    # the means average around a failed replication, so stderr says how many failed
    from tvselect import simulate
    real = simulate._run_replication

    def flaky(payload):
        if payload[1] == 0:
            raise SingularBlockError("synthetic failure")
        return real(payload)

    monkeypatch.setattr(simulate, "_run_replication", flaky)
    out = tmp_path / "sim"
    rc = main(["simulate", "--subjects", "12", "--obs-per-subject", "4",
               "--covariates", "6", "--s-vary", "1", "--s-const", "1", "--q", "6",
               "--replications", "10", "--out", str(out), "--parallel", "1",
               "--test-subjects", "20", "--methods", "tv-select", "--lambda2-grid", "1e-6"])
    assert rc == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert warnings == ["warning: 1 of 10 replications failed; metrics.csv averages the other 9"]
    assert (out / "metrics.csv").exists()


def test_simulate_curves_without_replication_0_warn_and_write_no_curves(tmp_path, capsys,
                                                                        monkeypatch):
    from tvselect import simulate
    real = simulate._run_replication

    def flaky(payload):
        if payload[1] == 0:
            raise SingularBlockError("synthetic failure")
        return real(payload)

    monkeypatch.setattr(simulate, "_run_replication", flaky)
    out = tmp_path / "sim"
    rc = main(["simulate", "--subjects", "12", "--obs-per-subject", "4",
               "--covariates", "6", "--s-vary", "1", "--s-const", "1", "--q", "6",
               "--replications", "10", "--out", str(out), "--parallel", "1",
               "--test-subjects", "20", "--methods", "tv-select", "--lambda2-grid", "1e-6",
               "--curves"])
    assert rc == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert [ln for ln in warnings if "replication 0" in ln] == [
        "warning: replication 0 failed, so curves.csv is not written"]
    assert (out / "metrics.csv").exists()
    assert not (out / "curves.csv").exists()


def test_simulate_rejects_empty_test_set_exit_code_2(tmp_path, capsys):
    rc = main(["simulate", "--subjects", "12", "--obs-per-subject", "4",
               "--covariates", "6", "--s-vary", "1", "--s-const", "1", "--q", "6",
               "--replications", "1", "--out", str(tmp_path / "sim"), "--parallel", "1",
               "--test-subjects", "0", "--methods", "tv-select"])
    assert rc == 2
    assert "n_test" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--s-vary", "-1"), ("--s-const", "-2")])
def test_simulate_rejects_a_negative_structure_count_exit_code_2(tmp_path, capsys, flag,
                                                                 value):
    # s_v = -1 set mu0[-1] through a negative index; s_c = -2 overlapped s_vary and s_zero
    counts = {"--s-vary": "1", "--s-const": "1", flag: value}
    rc = main(["simulate", "--subjects", "12", "--obs-per-subject", "4", "--covariates", "6",
               "--s-vary", counts["--s-vary"], "--s-const", counts["--s-const"], "--q", "6",
               "--replications", "1", "--out", str(tmp_path / "sim"), "--parallel", "1",
               "--test-subjects", "20", "--methods", "tv-select"])
    assert rc == 2
    assert "s_v and s_c must be non-negative" in capsys.readouterr().err


def test_simulate_echo_holds_the_library_default_grid(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--subjects", "12", "--obs-per-subject", "4",
               "--covariates", "6", "--s-vary", "1", "--s-const", "1", "--q", "6",
               "--replications", "1", "--out", str(out), "--parallel", "1",
               "--test-subjects", "20", "--methods", "tv-select"])
    assert rc == 0
    echo = json.loads((out / "config_echo.json").read_text())
    grid = tuple(float(v) for v in echo["lambda2_grid"].split(","))
    assert grid == StudyOptions().lambda2_values


def test_config_file_wins_with_warning(train_csv, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda1": 0.5}), encoding="utf-8")
    rc = main(["fit", "--data", str(train_csv), "--out", str(out), "--knots", "2",
               "--lambda1", "0.2", "--no-demean", "--config", str(cfg)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "overrides" in err
    payload = json.loads((out / "fit.json").read_text())
    assert payload["penalty"]["lambda1"] == 0.5


def test_config_file_unknown_key(train_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"made_up": 1}), encoding="utf-8")
    rc = main(["fit", "--data", str(train_csv), "--out", str(tmp_path / "o"),
               "--config", str(cfg)])
    assert rc == 2
    assert "made_up" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload", [
    ("fit", {"lambda1": "abc"}),
    ("fit", {"lambda1": True}),
    ("fit", {"no_demean": "yes"}),
    ("fit", {"seed": 2.5}),
    ("fit", {"knots": 2.0}),
    ("tune", {"criterion": "aic"}),
    ("simulate", {"methods": ["tv-select"]}),
    ("fit", {"lambda2": float("inf")}),
], ids=["float-text", "float-bool", "flag-text", "int-fraction", "int-float", "choices",
        "str-list", "float-inf"])
def test_config_value_refused_like_its_flag(train_csv, tmp_path, capsys, command, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload), encoding="utf-8")
    argv = [command, "--out", str(tmp_path / "o"), "--config", str(cfg)]
    if command == "simulate":
        argv += ["--subjects", "12", "--covariates", "6", "--s-vary", "1", "--s-const", "1",
                 "--replications", "1", "--parallel", "1"]
    else:
        argv += ["--data", str(train_csv), "--knots", "2", "--no-demean"]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--lambda1", "nan"],
    ["--lambda1", "inf"],
    ["--lambda2", "inf"],
    ["--lambda2", "nan"],
    ["--tol", "nan"],
    ["--threshold-multiplier", "-1"],
], ids=["lambda1-nan", "lambda1-inf", "lambda2-inf", "lambda2-nan", "tol-nan",
        "threshold-negative"])
def test_fit_refuses_non_finite_or_negative_values_exit_code_2(train_csv, tmp_path, capsys,
                                                                monkeypatch, argv):
    monkeypatch.setattr(cli, "fit_bcd", refuse_to_fit)
    out = tmp_path / "out"
    assert main(["fit", "--data", str(train_csv), "--out", str(out), "--knots", "2",
                 *argv]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (out / "fit.json").exists()


@pytest.mark.parametrize("criterion, value", [("ebic", "nan"), ("cv", "-1")])
def test_tune_refuses_bad_threshold_multiplier_before_fitting(train_csv, tmp_path, capsys,
                                                              monkeypatch, criterion, value):
    monkeypatch.setattr(tuning, "fit_bcd", refuse_to_fit)
    monkeypatch.setattr(tuning, "fit_baseline", refuse_to_fit)
    out = tmp_path / "out"
    assert main(["tune", "--data", str(train_csv), "--out", str(out), "--knots", "2",
                 "--criterion", criterion, "--threshold-multiplier", value]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (out / "surface.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["fit", "--max-iter", "0"], "max_iter"),
    (["fit", "--tol", "0"], "tol"),
    (["fit", "--lambda1", "-1"], "penalty levels"),
    (["fit", "--degree", "-1"], "degree"),
    (["tune", "--max-iter", "0"], "max_iter"),
    (["tune", "--tol", "inf"], "tol"),
    (["tune", "--gamma", "2"], "gamma"),
    (["tune", "--lambda2-grid", "0.1,-1"], "lambda2_values"),
    (["tune", "--lambda1-grid", "nan"], "NaN"),
    (["tune", "--knots", "-1"], "num_internal_knots"),
    (["tune", "--criterion", "cv", "--cv-folds", "1"], "cv-folds"),
], ids=["fit-max-iter", "fit-tol", "fit-lambda1", "fit-degree", "tune-max-iter", "tune-tol",
        "tune-gamma", "tune-lambda2-grid", "tune-lambda1-grid", "tune-knots", "tune-cv-folds"])
def test_bad_setting_is_named_before_the_data_are_read(tmp_path, capsys, argv, message):
    # the settings were built after the CSV was loaded and turned into a
    # design, so `fit --max-iter 0` on a missing file named the file
    data = tmp_path / "missing.csv"
    assert main([*argv, "--data", str(data), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "missing.csv" not in err


def test_classify_refuses_nan_threshold_multiplier_exit_code_2(train_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fit", "--data", str(train_csv), "--out", str(out), "--knots", "2"]) == 0
    assert main(["classify", "--artifact", str(out / "fit.json"), "--out", str(out / "cls"),
                 "--threshold-multiplier", "nan"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--sigma", "nan"],
    ["--sigma-x2", "nan"],
    ["--amplitude", "nan"],
    ["--t-df", "nan", "--error-model", "student-t"],
    ["--gamma", "nan"],
    ["--parallel", "0"],
    ["--parallel", "-2"],
    ["--methods", ""],
    ["--methods", " , "],
    ["--methods", "tv-select,lasso"],
    ["--methods", "tv-select,tv-select"],
    ["--lambda2-grid=-1"],
    ["--lambda2-grid", "1e-6,-0.5"],
], ids=["sigma", "sigma-x2", "amplitude", "t-df", "gamma", "parallel-zero",
        "parallel-negative", "methods-empty", "methods-blank", "methods-unknown",
        "methods-twice", "lambda2-negative", "lambda2-one-negative"])
def test_simulate_refuses_bad_inputs_before_any_replication(tmp_path, capsys, monkeypatch,
                                                            argv):
    from tvselect import simulate
    monkeypatch.setattr(simulate, "generate", refuse_to_fit)    # no data are drawn
    rc = main(["simulate", "--subjects", "12", "--obs-per-subject", "4",
               "--covariates", "6", "--s-vary", "1", "--s-const", "1", "--q", "6",
               "--replications", "1", "--out", str(tmp_path / "sim"), "--parallel", "1",
               "--methods", "tv-select", *argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert "replications in" not in err and "ParseError" not in err


def test_simulate_refuses_a_q_the_basis_cannot_have(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_study", refuse_to_fit)
    rc = main(["simulate", "--subjects", "12", "--obs-per-subject", "4",
               "--covariates", "6", "--s-vary", "1", "--s-const", "1", "--q", "3",
               "--replications", "2", "--out", str(tmp_path / "sim"), "--parallel", "1",
               "--methods", "tv-select"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "q=3" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["fit", "classify"])
def test_unwritable_output_path_exit_code_2(train_csv, tmp_path, capsys, command):
    # --out names an existing file, or a path below one
    fit_dir = tmp_path / "fit"
    assert main(["fit", "--data", str(train_csv), "--out", str(fit_dir), "--knots", "2"]) == 0
    capsys.readouterr()
    argv = {"fit": ["fit", "--data", str(train_csv), "--knots", "2",
                    "--out", str(fit_dir / "fit.json" / "sub")],
            "classify": ["classify", "--artifact", str(fit_dir / "fit.json"),
                         "--out", str(fit_dir / "fit.json")]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_config_values_read_like_flags(train_csv, tmp_path):
    # a string is converted as its flag would; a number the flag reads back
    # as itself is echoed as written
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda1": "0.5", "lambda2": 0, "no_demean": True}),
                   encoding="utf-8")
    assert main(["fit", "--data", str(train_csv), "--out", str(out), "--knots", "2",
                 "--config", str(cfg)]) == 0
    assert json.loads((out / "fit.json").read_text())["penalty"]["lambda1"] == 0.5
    echo = (out / "config_echo.json").read_text()
    assert '"lambda1": 0.5,' in echo and '"lambda2": 0,' in echo


def write_subject_constant_csv(path, rng, N=60, n_i=5):
    """Covariates fixed per subject (one covariate vector per subject)."""
    rows = ["subject,time,y,x1,x2"]
    for i in range(N):
        x = rng.standard_normal(2)
        for t in np.sort(rng.uniform(0.0, 1.0, n_i)):
            y = x[0] + x[1] * np.sin(2 * np.pi * t) + 0.1 * rng.standard_normal()
            rows.append(",".join([f"s{i}", *(repr(float(v)) for v in (t, y, *x))]))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("command", [
    ["fit", "--lambda1", "0.02", "--lambda2", "0.001"],
    ["tune", "--criterion", "cv", "--cv-folds", "3"],
])
def test_covariates_constant_within_subject_refused_when_demeaning(tmp_path, capsys, command):
    path = write_subject_constant_csv(tmp_path / "d.csv", np.random.default_rng(8))
    rc = main([*command, "--data", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "'x1'" in err and "--no-demean" in err


def test_response_constant_within_subject_refused_when_demeaning(train_csv, tmp_path, capsys):
    # de-meaned to zeros, every surface cell was -inf and the first grid point won
    lines = train_csv.read_text(encoding="utf-8").splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    for cells in rows:
        cells[2] = str(len(cells[0]))
    path = tmp_path / "d.csv"
    path.write_text("\n".join([lines[0]] + [",".join(c) for c in rows]) + "\n", encoding="utf-8")
    rc = main(["tune", "--data", str(path), "--out", str(tmp_path / "o"), "--knots", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "response is constant within every subject" in err


@pytest.mark.parametrize("command", [
    ["fit", "--lambda1", "0.05"],
    ["tune"],
    ["tune", "--criterion", "cv", "--cv-folds", "3"],
], ids=["fit", "tune", "tune-cv"])
def test_response_the_same_in_every_row_refused(train_csv, tmp_path, capsys, command):
    # without de-meaning, fit printed objective=2.9e-49 and tune picked a roundoff lambda1
    lines = train_csv.read_text(encoding="utf-8").splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    for cells in rows:
        cells[2] = "2.5"
    path = tmp_path / "d.csv"
    path.write_text("\n".join([lines[0]] + [",".join(c) for c in rows]) + "\n", encoding="utf-8")
    rc = main([*command, "--data", str(path), "--out", str(tmp_path / "o"), "--knots", "2",
               "--no-demean"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "response is the same in every row" in err
    assert not (tmp_path / "o" / "fit.json").exists()


@pytest.mark.parametrize("command", [
    ["tune"],
    ["tune", "--criterion", "cv", "--cv-folds", "2"],
], ids=["tune", "tune-cv"])
def test_constants_that_fit_the_response_leave_no_path_to_tune(tmp_path, capsys, command):
    # one de-meaned subject of 4 rows and 3 covariates: [X] fits y exactly, lambda1_max
    # is roundoff, and tune exited 0 with a roundoff best_lambda1
    path = make_training_csv(tmp_path / "one.csv", np.random.default_rng(0), N=1, n_i=4)
    out = tmp_path / "o"
    rc = main([*command, "--data", str(path), "--out", str(out), "--knots", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "fit the response to roundoff" in err
    assert not (out / "fit.json").exists()


def scale_column(path, column, factor, out):
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    for cells in rows:
        cells[column] = repr(float(cells[column]) * factor)
    out.write_text("\n".join([lines[0]] + [",".join(c) for c in rows]) + "\n", encoding="utf-8")
    return out


@pytest.mark.parametrize("column, flags", [
    (2, []),                              # y: the fit ran 500 sweeps to objective=nan
    (4, ["--no-standardize"]),            # x2: the block factorization raised LinAlgError
], ids=["y", "x2"])
def test_non_finite_gram_exit_code_2(train_csv, tmp_path, capsys, column, flags):
    path = scale_column(train_csv, column, 1e160, tmp_path / "big.csv")
    out = tmp_path / "o"
    rc = main(["fit", "--data", str(path), "--out", str(out), "--knots", "2",
               "--lambda1", "0.05", "--lambda2", "1e-4", *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "not finite" in err and "Traceback" not in err
    assert not (out / "fit.json").exists()


@pytest.mark.parametrize("command", [
    ["fit", "--lambda1", "0.05", "--lambda2", "1e308"],
    ["tune", "--lambda1-grid", "0.05", "--lambda2-grid", "1e308,1e-4"],
], ids=["fit", "tune"])
def test_lambda2_that_overflows_exit_code_2(train_csv, tmp_path, capsys, command):
    # 2 lambda2 Omega overflowed: eigh raised "Eigenvalues did not converge"
    out = tmp_path / "o"
    rc = main([*command, "--data", str(train_csv), "--out", str(out), "--knots", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "lambda2" in err and "Traceback" not in err
    assert not (out / "fit.json").exists()
    assert main(["fit", "--data", str(train_csv), "--out", str(tmp_path / "ok"),
                 "--knots", "2", "--lambda1", "0.05", "--lambda2", "1e300"]) == 0


@pytest.mark.parametrize("lambda2", ["1e9", "1e12"])
def test_lambda2_that_swamps_the_data_exit_code_2(train_csv, tmp_path, capsys, lambda2):
    # the block factors' cutoff dropped the linear directions that Omega leaves
    # unpenalized and the data see: exit 1, "block stationarity equation has no root"
    out = tmp_path / "o"
    rc = main(["fit", "--data", str(train_csv), "--out", str(out), "--lambda1", "0.002",
               "--knots", "4", "--lambda2", lambda2])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"lambda2={float(lambda2):g} " in err
    assert "Traceback" not in err and not (out / "fit.json").exists()


@pytest.mark.parametrize("lambda1", ["1e-20", "1e-100", "1e-300"])
def test_tiny_lambda1_fits_like_lambda1_zero(train_csv, tmp_path, lambda1):
    # the roundoff of a block's correlation along its truncated ones direction
    # stayed in the secular sum, which then had no root: exit 1, "block
    # stationarity equation has no root", with overflow warnings, where
    # lambda1 = 0 fitted
    def curves(lam1):
        out = tmp_path / f"o{lam1}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["fit", "--data", str(train_csv), "--out", str(out), "--knots", "2",
                       "--lambda1", lam1])
        assert rc == 0 and [str(w.message) for w in caught] == []
        return np.loadtxt(out / "curves.csv", delimiter=",", skiprows=1, usecols=(2, 3))

    assert np.abs(curves(lambda1) - curves("0")).max() <= 1e-10


def test_single_basis_function_exit_code_2(train_csv, tmp_path, capsys, monkeypatch):
    # centering zeroes the one degree-0 function: exit 1, "block system has no
    # positive eigenvalues"
    monkeypatch.setattr(cli, "fit_bcd", refuse_to_fit)
    out = tmp_path / "o"
    rc = main(["fit", "--data", str(train_csv), "--out", str(out), "--degree", "0",
               "--knots", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "q=1" in err and "Traceback" not in err
    assert not (out / "fit.json").exists()


def test_zero_covariate_exit_code_2_from_every_command(train_csv, tmp_path, capsys):
    # every fit on the design refuses the column; with an explicit grid, tune
    # recorded each grid point as failed and exited 1: "all 2 grid fits failed"
    path = scale_column(train_csv, 3, 0.0, tmp_path / "zero.csv")
    grid = ["--lambda1-grid", "0.1,0.01", "--lambda2-grid", "0.01"]
    for j, command in enumerate([["fit"], ["tune"], ["tune", *grid],
                                 ["tune", "--criterion", "cv", *grid]]):
        out = tmp_path / f"o{j}"
        rc = main([*command, "--data", str(path), "--out", str(out), "--knots", "2",
                   "--no-standardize", "--no-demean"])
        err = capsys.readouterr().err
        assert (rc, err) == (2, "error: covariate column 0 has zero norm: it is zero, or too "
                                "small in magnitude for its squares to be summed; rescale it\n")
        assert not (out / "fit.json").exists()


def test_quantile_knot_at_the_first_time_exit_code_2(tmp_path, capsys):
    # every subject is seen at t = 0, 1/4, ..., 1, so the first of 9 quantile knots
    # is t = 0; it was clipped to 5e-324, the basis was NaN, and fit blamed y or a
    # covariate: "the design's Gram matrix is not finite"
    rng = np.random.default_rng(0)
    rows = ["subject,time,y,x1,x2"]
    for i in range(30):
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            x = rng.standard_normal(2)
            rows.append(f"s{i},{t},{x[0] * np.sin(6 * t) - x[1]},{x[0]},{x[1]}")
    path = tmp_path / "regular.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    argv = ["fit", "--data", str(path), "--knot-placement", "quantile"]
    assert main([*argv, "--out", str(tmp_path / "k4"), "--knots", "4"]) == 0
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "k9"), "--knots", "9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: observed times put a quantile knot at an end of [0,1]")
    assert not (tmp_path / "k9" / "fit.json").exists()


def test_one_outlying_time_under_quantile_knots_exit_code_2(tmp_path, capsys):
    # the other times crowd near 0 once rescaled, and so do the knots; the error
    # blamed "interior knots [5.3e-161, ...]" the user never gave
    from test_cli_inputs import BASE_ROWS, outlier_cell
    path = tmp_path / "outlier.csv"
    rows = outlier_cell(BASE_ROWS, 3, 1, 1e160)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    argv = ["fit", "--data", str(path), "--out", str(tmp_path / "out")]
    assert main([*argv, "--knot-placement", "quantile"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: observed times crowd the quantile knots toward one end "
                          "of [0,1]")
    assert err.rstrip().endswith("use equally spaced knots")
    assert not (tmp_path / "out" / "fit.json").exists()
    assert main(argv) == 0


@pytest.mark.parametrize("command", [["fit"], ["fit", "--method", "vc-ridge"]],
                         ids=["tv-select", "vc-ridge"])
def test_linalg_error_in_a_fit_exit_code_1(train_csv, tmp_path, capsys, monkeypatch, command):
    # numpy's LinAlgError escaped main as a traceback
    def factorization_fails(*args, **kwargs):
        raise np.linalg.LinAlgError("injected: Eigenvalues did not converge")

    monkeypatch.setattr(solver, "precompute_block_factors", factorization_fails)
    out = tmp_path / "o"
    rc = main([*command, "--data", str(train_csv), "--out", str(out), "--knots", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: injected") and "Traceback" not in err
    assert not (out / "fit.json").exists()


@pytest.mark.parametrize("command", [
    ["fit", "--lambda1", "0.05", "--lambda2", "1e-4"],
    ["tune"],
], ids=["fit", "tune"])
@pytest.mark.parametrize("factor", [1e-300, 1e-160])
def test_response_whose_squares_underflow_exit_code_2(train_csv, tmp_path, capsys, command,
                                                       factor):
    # y'y underflowed (to 0, or to a subnormal): fit printed objective=0 or 6.2e-321 and
    # exited 0, and tune picked best_lambda1=0 over a surface of -inf
    path = scale_column(train_csv, 2, factor, tmp_path / "small.csv")
    out = tmp_path / "o"
    rc = main([*command, "--data", str(path), "--out", str(out), "--knots", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "response y is too small" in err and "Traceback" not in err
    assert not (out / "fit.json").exists()


@pytest.mark.parametrize("command", [["fit", "--lambda1", "0.05"], ["tune"]], ids=["fit", "tune"])
@pytest.mark.parametrize("flags", [["--no-standardize"], ["--no-standardize", "--no-demean"]],
                         ids=["demeaned", "raw"])
@pytest.mark.parametrize("factor, message", [
    (1e-160, "rank-deficient"),           # the squares of x1 are subnormal
    (1e-300, "too small in magnitude"),   # they underflow to 0: "has zero norm" alone
], ids=["1e-160", "1e-300"])
def test_covariate_whose_squares_underflow_exit_code_2(tmp_path, capsys, command, flags,
                                                        factor, message):
    train = make_training_csv(tmp_path / "train.csv", np.random.default_rng(31), N=30)
    path = scale_column(train, 3, factor, tmp_path / "small.csv")
    out = tmp_path / "o"
    rc = main([*command, "--data", str(path), "--out", str(out), "--knots", "2", *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "Traceback" not in err
    assert not (out / "fit.json").exists()


@pytest.mark.parametrize("command", [["fit", "--lambda1", "0.05"], ["tune"]], ids=["fit", "tune"])
@pytest.mark.parametrize("factor, message", [
    (1e-300, "'x1' is too small in magnitude for its pooled variance"),
    (0.0, "'x1' has zero pooled variance"),      # a truly constant column keeps its message
], ids=["1e-300", "zero"])
def test_covariate_whose_variance_underflows_exit_code_2(train_csv, tmp_path, capsys, command,
                                                         factor, message):
    # a covariate scaled by 1e-300 varies, but its pooled variance underflows to
    # 0: standardizing reported it as having zero pooled variance
    path = scale_column(train_csv, 3, factor, tmp_path / "small.csv")
    out = tmp_path / "o"
    rc = main([*command, "--data", str(path), "--out", str(out), "--knots", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not (out / "fit.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["fit", "--lambda1", "0.05"], ["tune"]], ids=["fit", "tune"])
@pytest.mark.parametrize("factor", [1e160, 1e300])
def test_covariate_whose_variance_overflows_exit_code_2(train_csv, tmp_path, capsys, command,
                                                        factor):
    # standardizing printed numpy's "overflow encountered in square", and the
    # zero columns it left were then reported as constant within every subject
    path = scale_column(train_csv, 3, factor, tmp_path / "big.csv")
    out = tmp_path / "o"
    rc = main([*command, "--data", str(path), "--out", str(out), "--knots", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: covariate 'x1' is too large in magnitude") and "rescale" in err
    assert not (out / "fit.json").exists()


def test_utf8_byte_order_mark_is_skipped(train_csv, tmp_path, capsys):
    text = train_csv.read_text(encoding="utf-8")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    for name, path in (("plain", train_csv), ("bom", bom)):
        assert main(["fit", "--data", str(path), "--out", str(tmp_path / name),
                     "--knots", "2", "--lambda1", "0.05"]) == 0
    assert (tmp_path / "bom" / "fit.json").read_bytes() == \
        (tmp_path / "plain" / "fit.json").read_bytes()
    # row numbers in error messages still count the header as row 1
    lines = text.splitlines()
    lines[5] = lines[5].replace(lines[5].split(",")[1], "soon", 1)
    bom.write_bytes(b"\xef\xbb\xbf" + ("\n".join(lines) + "\n").encode("utf-8"))
    assert main(["fit", "--data", str(bom), "--out", str(tmp_path / "bad")]) == 2
    assert "row 6, column 'time': cannot parse 'soon'" in capsys.readouterr().err


@pytest.mark.parametrize("header, duplicate", [
    ("subject,time,y,x1,x2,y", "y"),      # the second y was ignored, exit 0
    ("subject,time,y,x1, x1 ,x3", "x1"),  # read x1 twice: 'rank-deficient'
], ids=["y", "padded-x1"])
def test_duplicate_column_names_exit_code_2(train_csv, tmp_path, capsys, header, duplicate):
    lines = train_csv.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "dup.csv"
    path.write_text("\n".join([header] + lines[1:]) + "\n", encoding="utf-8")
    rc = main(["fit", "--data", str(path), "--out", str(tmp_path / "o"), "--knots", "2"])
    assert rc == 2
    assert f"column name '{duplicate}' appears more than once" in capsys.readouterr().err


def test_numeric_output_has_17_significant_digits(train_csv, tmp_path):
    out = tmp_path / "out"
    main(["fit", "--data", str(train_csv), "--out", str(out), "--knots", "2",
          "--no-demean"])
    lines = (out / "curves.csv").read_text().strip().splitlines()[1:]
    # values round-trip exactly through the printed representation
    for ln in lines[:50]:
        val = ln.split(",")[-1]
        assert float(val) == float(f"{float(val):.17g}")


# ------------------------------------------------------------------ CSV output


def test_csv_columns_match_per_cell_formatting(tmp_path):
    # each column formatted at once gives each value's own _csv_cell
    floats = np.array([-0.0, 0.0, 5e-324, 2.5e-310, 1e308, -1e308, 0.1, 1 / 3, np.nan, np.inf])
    names = ["a", "a,b", 'say "hi"', "two\nlines", "cr\rlf", "", "a,b", "x\x00", "a", "é"]
    columns = {
        "float64": floats,
        "float32": np.array([-0.0, 1e-45, 3.4e38, 0.1, np.nan, -2.5, 1e-10, 7.0, 0.0, -np.inf],
                            dtype=np.float32)[::-1],
        "ints": [0, -3, 10**20, np.int64(7), 2**63, -1, 5, np.int32(-9), 0, 12],
        "bools": [True, False, np.bool_(True), np.bool_(False)] * 2 + [True, False],
        "mixed": [0.0, -0.0, 1, True, np.int64(3), np.float64(-0.0), np.bool_(False),
                  "x,y", 2.5, "0"],
        "names": names,
        "ids": np.array(names, dtype=object),
        "tuple": tuple(floats.tolist()),
    }
    path = tmp_path / "out.csv"
    cli._write_csv(path, list(columns), list(columns.values()))
    want = [",".join(columns)] + [",".join(cli._csv_cell(cell) for cell in row)
                                  for row in zip(*columns.values())]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")
    cli._write_csv(path, ("empty",), ([],))
    assert path.read_bytes() == b"empty\n"


def write_golden_panel(path):
    """24 subjects in runs of equal and unequal sizes, ids that need quoting, repr floats."""
    rng = np.random.default_rng(2024)
    sizes = [6, 6, 6, 3, 3, 7, 2, 6, 6, 6, 6, 4, 4, 4, 9, 5, 5, 3, 6, 6, 6, 6, 2, 8]
    lines = ["subject,time,y,x1,x2,x3"]
    for i, n_i in enumerate(sizes):
        sid = ['"s,%d"', '"q""%d"', "p%d"][i % 3] % i
        base = rng.standard_normal(3)
        for t in rng.uniform(0.0, 10.0, n_i):
            x = base + 0.5 * rng.standard_normal(3)
            y = x[0] * (1.0 + np.sin(0.6 * t)) - x[1] + 0.1 * rng.standard_normal()
            lines.append(",".join([sid] + [repr(float(v)) for v in (t, y, *x)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# sha256 of the files below as written when each CSV cell was formatted on its
# own and artifacts were read back as raw dicts; a platform whose BLAS rounds
# differently changes them.  The fit, pred, tune and vc-ridge files were
# recorded again when `fit_bcd` came to sweep each block in its eigenbasis,
# which moved their values by at most 3.4e-14 relative, and again when the
# block factors came to exclude the ones vector: each number of each file
# moved by at most 1.2e-13 as |a - b| / max(|a|, |b|)
GOLDEN_DIGESTS = {
    "fit/curves.csv": "dd082267eba8832a2eb3a49da8a374403d2513e1cab9343c22dfc715d9338954",
    "fit/fit.json": "734a8152929eafb6ada3ab7982bbd23119133a1adb9361fadf24653123f3e132",
    "classify/partition.json": "3823fdf8b2ff017f50f5a7d0d164144dcf73ca557fd12702dc64d6dd67a9d9db",
    "pred/predictions.csv": "4d53e0b6220a755aa9dbcc6bba05e13098bb8faaca4ec1423490fa30f19bc940",
    "tune/surface.csv": "aad62ab31d795a4d5c82d185a1f92514e3e2ce018904efd808a175be5d95352e",
    "tune/curves.csv": "24768114ee3b10f2ec2cee50a7460f4722fc395f6c6b11c8b96da96be6071fa4",
    "tune/fit.json": "b1099e5af9ba30a349d4e1c1136a5655d86862737a39907e479c3134e5541de3",
    # the block factorizations and the screen-refit's joint least squares on
    # the blocks of x1 and x3, recorded before both read `solver.smooth_hessian`
    "screen-refit/fit.json": "9a12d2b7c5c02b38347a9f92de0468a0d46547dc104ee9fe16ed964051fd3d3b",
    "screen-refit/curves.csv": "83a8f14e3b775d340ed7dae4ba5d6001469d947658df312425fa42e9816458a0",
    "vc-ridge/fit.json": "63db70b2d496d6757dc74d0168b03f83e99cafa31b8f9867d5e38fb84eb8f729",
    "vc-ridge/curves.csv": "65b3d6bb0c9872256381a36b6fd014f665aa8378435030947338730bd1c74e9f",
}


def test_cli_outputs_keep_their_golden_bytes(tmp_path):
    import hashlib
    data = str(write_golden_panel(tmp_path / "panel.csv"))
    out = tmp_path / "out"
    for argv in (["fit", "--data", data, "--out", str(out / "fit"), "--knots", "2",
                  "--lambda1", "0.02", "--lambda2", "1e-3"],
                 ["predict", "--artifact", str(out / "fit" / "fit.json"), "--data", data,
                  "--out", str(out / "pred")],
                 ["classify", "--artifact", str(out / "fit" / "fit.json"),
                  "--out", str(out / "classify"), "--threshold-multiplier", "0.5"],
                 ["tune", "--data", data, "--out", str(out / "tune"), "--knots", "2",
                  "--criterion", "cv", "--cv-folds", "3", "--seed", "4",
                  "--lambda1-grid", "0.1,0.02,0.004", "--lambda2-grid", "1e-2,1e-4"],
                 ["fit", "--data", data, "--out", str(out / "screen-refit"), "--knots", "2",
                  "--method", "screen-refit", "--lambda1", "0.005"],
                 ["fit", "--data", data, "--out", str(out / "vc-ridge"), "--knots", "2",
                  "--method", "vc-ridge", "--lambda2", "1e-3"]):
        assert main(argv) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN_DIGESTS}
    assert digests == GOLDEN_DIGESTS
