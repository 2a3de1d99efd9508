"""Property-based harness: whatever the input, the CLI ends in one of three results.

Each example takes a small valid panel CSV, and for `predict` and `classify`
the `fit.json` fitted on it, applies a few of the mutations below, and runs
one command through `cli.main`:

- a column of the CSV scaled by 10^+-160 or 10^+-300;
- a header name duplicated, blanked or padded, or a UTF-8 BOM before it;
- rows dropped or duplicated;
- the data cut to a single subject, or to a single row per subject;
- times rounded to a few equally spaced levels;
- subject ids quoted, or given a trailing NUL;
- a number of the artifact scaled by 10^+-160, 10^+-300, -1 or 0, a field
  given a string, or a field dropped;
- extreme --lambda1, --lambda2, --degree and --knots values, and a
  --max-iter of 0, 1 or the default 500.

`main` must return 0 with finite values in every output (a `surface.csv`
cell may be NaN only for a grid point that a `warning:` line reports as
failed), 2 with an `error:` line, or 1 with a `numerical failure:` line,
and never raise.  The examples are derandomized, so tier-1 runs the same
100 every time.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvselect.cli import main

FACTORS = (1e160, 1e-160, 1e300, 1e-300)


def panel_rows(N=6, n_i=4, p=2, seed=5):
    """Header and data rows of a small valid long-format panel."""
    rng = np.random.default_rng(seed)
    rows = [["subject", "time", "y"] + [f"x{k + 1}" for k in range(p)]]
    for i in range(N):
        base = rng.standard_normal(p)
        for t in np.sort(rng.uniform(0.0, 10.0, n_i)):
            x = base + 0.5 * rng.standard_normal(p)
            y = x[0] * (1.0 + np.sin(0.2 * np.pi * t)) - x[1] + 0.1 * rng.standard_normal()
            rows.append([f"s{i}", repr(float(t)), repr(float(y))] + [repr(float(v)) for v in x])
    return rows


BASE_ROWS = panel_rows()


@pytest.fixture(scope="module")
def base_artifact(tmp_path_factory):
    out = tmp_path_factory.mktemp("base")
    path = out / "train.csv"
    path.write_text("\n".join(",".join(r) for r in BASE_ROWS) + "\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fit", "--data", str(path), "--out", str(out), "--knots", "2",
                     "--lambda1", "0.02"]) == 0
    with open(out / "fit.json", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ CSV mutations

def scale_column(rows, column, factor):
    return [rows[0]] + [r[:column] + [repr(float(r[column]) * factor)] + r[column + 1:]
                        for r in rows[1:]]


def rename_header(rows, column, how):
    header = list(rows[0])
    if how == "duplicate":
        header[column] = header[(column + 1) % len(header)]
    elif how == "blank":
        header[column] = ""
    else:
        header[column] = f"  {header[column]} "
    return [header] + rows[1:]


def drop_rows(rows, keep_every):
    return [rows[0]] + [r for i, r in enumerate(rows[1:]) if i % keep_every == 0]


def duplicate_row(rows, index):
    body = rows[1:]
    row = body[index % len(body)]
    return [rows[0]] + body + [list(row)]


def single_subject(rows, _):
    return [rows[0]] + [r for r in rows[1:] if r[0] == rows[1][0]]


def single_row_per_subject(rows, _):
    seen, kept = set(), [rows[0]]
    for r in rows[1:]:
        if r[0] not in seen:
            seen.add(r[0])
            kept.append(r)
    return kept


def regular_times(rows, levels):
    """Each time rounded to one of `levels` equally spaced times: many rows share each."""
    step = 10.0 / (levels - 1)
    return [rows[0]] + [[r[0], repr(round(float(r[1]) / step) * step)] + r[2:]
                        for r in rows[1:]]


def quote_ids(rows, _):
    return [rows[0]] + [['"' + r[0] + '"'] + r[1:] for r in rows[1:]]


def nul_ids(rows, every):
    return [rows[0]] + [[r[0] + "\0" * (i % every == 0)] + r[1:]
                        for i, r in enumerate(rows[1:])]


csv_mutation = st.one_of(
    st.tuples(st.just(scale_column), st.integers(1, 4), st.sampled_from(FACTORS)),
    st.tuples(st.just(rename_header), st.integers(0, 4),
              st.sampled_from(["duplicate", "blank", "pad"])),
    st.tuples(st.just(drop_rows), st.integers(2, 5)),
    st.tuples(st.just(duplicate_row), st.integers(0, 23)),
    st.tuples(st.sampled_from([single_subject, single_row_per_subject, quote_ids]),
              st.none()),
    st.tuples(st.just(nul_ids), st.integers(1, 3)),
    st.tuples(st.just(regular_times), st.integers(2, 6)),
)


def csv_text(rows, bom):
    return ("﻿" if bom else "") + "\n".join(",".join(r) for r in rows) + "\n"


# ------------------------------------------------------------------ artifact mutations

ARTIFACT_NUMBERS = (("coefficients", "beta0"), ("coefficients", "mu", 0),
                    ("coefficients", "theta", 0, 1), ("preprocessing", "center", 0),
                    ("preprocessing", "scale", 1), ("preprocessing", "time_domain", 1),
                    ("basis", "interior_knots", 0), ("penalty", "lambda2"), ("n_train",))
ARTIFACT_FIELDS = (("basis", "degree"), ("basis", "num_internal_knots"),
                   ("coefficients", "theta"), ("preprocessing", "covariate_names"),
                   ("preprocessing",), ("method",), ("intercept",))


def owner_of(payload, path):
    """The container of `path`'s last key, or None once a mutation removed it."""
    for part in path[:-1]:
        try:
            payload = payload[part]
        except (KeyError, IndexError, TypeError):
            return None
    return payload if isinstance(payload, (dict, list)) else None


artifact_mutation = st.one_of(
    st.tuples(st.just("scale"), st.sampled_from(ARTIFACT_NUMBERS),
              st.sampled_from(FACTORS + (-1.0, 0.0))),
    st.tuples(st.just("string"), st.sampled_from(ARTIFACT_FIELDS), st.none()),
    st.tuples(st.just("drop"), st.sampled_from(ARTIFACT_FIELDS), st.none()),
)


def mutate_artifact(payload, mutations):
    payload = json.loads(json.dumps(payload))
    for kind, path, factor in mutations:
        owner, key = owner_of(payload, path), path[-1]
        if owner is None or isinstance(owner, dict) and key not in owner:
            continue
        if kind == "scale":
            if isinstance(owner[key], (int, float)) and not isinstance(owner[key], bool):
                owner[key] = owner[key] * factor
        elif kind == "string":
            owner[key] = "abc"
        else:
            del owner[key]
    return payload


# ------------------------------------------------------------------ the property

def non_finite_cells(path):
    """(row, column) of each CSV cell that reads as a float that is not finite."""
    bad = []
    with open(path, newline="", encoding="utf-8") as fh:
        for i, row in enumerate(csv.reader(fh)):
            for j, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    bad.append((i, j))
    return bad


def non_finite_numbers(value):
    if isinstance(value, float):
        return [] if math.isfinite(value) else [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [v for item in value for v in non_finite_numbers(item)]
    return []


def check_outputs(out, err):
    failed_points = sum(" failed (" in ln for ln in err.splitlines()
                        if ln.startswith("warning: grid point"))
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name.endswith(".csv"):
            bad = non_finite_cells(path)
            if name == "surface.csv":
                assert all(j == 2 for _, j in bad) and len(bad) == failed_points, (name, bad)
            else:
                assert bad == [], (name, bad)
        else:
            with open(path, encoding="utf-8") as fh:
                assert non_finite_numbers(json.load(fh)) == [], name


command_options = st.fixed_dictionaries({
    "command": st.sampled_from(["fit", "tune", "tune-cv", "predict", "classify"]),
    "lambda1": st.sampled_from(["0", "1e-300", "0.05", "1e300"]),
    "lambda2": st.sampled_from(["0", "1e-4", "1e-300", "1e300", "1e308",
                                "1.7976931348623157e308"]),
    "degree": st.sampled_from(["0", "1", "3", "9"]),
    "knots": st.sampled_from(["0", "1", "2", "40"]),
    "placement": st.sampled_from(["equal", "quantile"]),
    "max_iter": st.sampled_from(["0", "1", "500"]),
    "flags": st.lists(st.sampled_from(["--no-standardize", "--no-demean"]), unique=True),
    "grid": st.booleans(),
})


def argv_for(opts, data, artifact, out):
    command = opts["command"]
    if command in ("predict", "classify"):
        argv = [command, "--artifact", artifact, "--out", out]
        return argv + (["--data", data] if command == "predict" else [])
    argv = ["fit" if command == "fit" else "tune", "--data", data, "--out", out,
            "--degree", opts["degree"], "--knots", opts["knots"],
            "--knot-placement", opts["placement"], "--max-iter", opts["max_iter"],
            *opts["flags"]]
    if command == "fit":
        return argv + ["--lambda1", opts["lambda1"], "--lambda2", opts["lambda2"]]
    argv += ["--lambda2-grid", f"{opts['lambda2']},1e-4"]
    if opts["grid"]:
        argv += ["--lambda1-grid", f"{opts['lambda1']},0.01"]
    return argv + (["--criterion", "cv", "--cv-folds", "2"] if command == "tune-cv" else [])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(opts=command_options, csv_mutations=st.lists(csv_mutation, max_size=2),
       bom=st.booleans(), artifact_mutations=st.lists(artifact_mutation, max_size=2))
def test_cli_ends_in_one_of_three_results(base_artifact, opts, csv_mutations, bom,
                                          artifact_mutations):
    rows = BASE_ROWS
    for mutate, *args in csv_mutations:
        rows = mutate(rows, *args)
    with tempfile.TemporaryDirectory() as tmp:
        data, artifact = os.path.join(tmp, "data.csv"), os.path.join(tmp, "fit.json")
        out = os.path.join(tmp, "out")
        with open(data, "w", encoding="utf-8") as fh:
            fh.write(csv_text(rows, bom))
        with open(artifact, "w", encoding="utf-8") as fh:
            json.dump(mutate_artifact(base_artifact, artifact_mutations), fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv_for(opts, data, artifact, out))
        err = stderr.getvalue()
        assert rc in (0, 1, 2), (rc, err)
        if rc == 0:
            check_outputs(out, err)
        else:
            assert ("error:" if rc == 2 else "numerical failure:") in err, err
