import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvselect.basis import SplineConfig, build_basis
from tvselect.data import (
    build_design,
    demean_within_subject,
    from_arrays,
    load_long_csv,
    standardize,
    subset_subjects,
)
from tvselect.errors import DegenerateColumnError, DegenerateDesignError, ParseError
from tvselect.solver import PenaltyConfig, SolverOptions, fit_bcd


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


BASIC = """subject,time,y,x1,x2
a,2,1.0,0.5,1.0
a,6,2.0,-0.5,2.0
a,4,3.0,0.25,0.0
b,2,0.0,1.5,1.0
b,4,1.0,0.5,3.0
b,6,-1.0,-1.5,2.0
"""


def test_load_counts_and_rescaling(tmp_path):
    ds = load_long_csv(write_csv(tmp_path / "d.csv", BASIC))
    assert ds.n_subjects == 2
    assert ds.n_total == 6
    assert ds.p == 2
    assert ds.covariate_names == ("x1", "x2")
    # global times {2,4,6} -> {0, 0.5, 1}
    _, _, t = ds.stacked()
    assert sorted(set(np.round(t, 12))) == [0.0, 0.5, 1.0]
    assert ds.preprocessing.time_domain == (2.0, 6.0)


def test_load_sorts_within_subject_by_time(tmp_path):
    ds = load_long_csv(write_csv(tmp_path / "d.csv", BASIC))
    subj_a = ds.subjects[0]
    assert subj_a.subject_id == "a"
    assert np.all(np.diff(subj_a.times) >= 0)
    # y was given in time order 2,6,4 -> sorted 2,4,6 gives 1,3,2
    assert np.allclose(subj_a.responses, [1.0, 3.0, 2.0])


def test_from_arrays_groups_rows_like_a_per_row_pass():
    # interleaved subjects, tied times within a subject, ids whose sorted order
    # differs from their first appearance, and ids equal up to a trailing NUL
    rng = np.random.default_rng(3)
    pool = ["z", "b", "a10", "a9", 7, "a", "a\x00"]
    n = 80
    sids = [pool[i] for i in rng.integers(0, len(pool), n)]
    times = rng.integers(0, 4, n).astype(float)
    y = np.arange(n, dtype=float)
    X = np.column_stack([2.0 * y, -y])
    ds = from_arrays(sids, times, y, X)

    groups = {}
    for i, sid in enumerate(sids):
        groups.setdefault(str(sid), []).append(i)
    expected = [(sid, sorted(rows, key=lambda i: times[i])) for sid, rows in groups.items()]
    t01 = times / 3.0
    assert [s.subject_id for s in ds.subjects] == [sid for sid, _ in expected]
    for subj, (_, rows) in zip(ds.subjects, expected):
        assert np.array_equal(subj.responses, y[rows])
        assert np.array_equal(subj.covariates, X[rows])
        assert np.array_equal(subj.times, t01[rows])


def test_malformed_cell_names_row_and_column(tmp_path):
    bad = BASIC.replace("b,4,1.0,0.5,3.0", "b,4,oops,0.5,3.0")
    with pytest.raises(ParseError, match=r"row 6.*'y'"):
        load_long_csv(write_csv(tmp_path / "d.csv", bad))


def test_nan_rejected(tmp_path):
    bad = BASIC.replace("b,4,1.0,0.5,3.0", "b,4,nan,0.5,3.0")
    with pytest.raises(ParseError, match="NaN"):
        load_long_csv(write_csv(tmp_path / "d.csv", bad))


@pytest.mark.parametrize("value", ["inf", "-inf", "Infinity"])
def test_infinite_cell_rejected(tmp_path, value):
    bad = BASIC.replace("b,4,1.0,0.5,3.0", f"b,4,1.0,{value},3.0")
    with pytest.raises(ParseError, match=r"row 6.*'x1'"):
        load_long_csv(write_csv(tmp_path / "d.csv", bad))


@pytest.mark.parametrize("column", ["time", "y", "covariates"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_from_arrays_rejects_non_finite(column, value):
    arrays = {"time": np.array([0.0, 0.5, 1.0]), "y": np.zeros(3),
              "covariates": np.ones((3, 2))}
    arrays[column].flat[1] = value
    with pytest.raises(ParseError, match=column):
        from_arrays(["a", "a", "b"], arrays["time"], arrays["y"], arrays["covariates"])


def test_missing_column(tmp_path):
    with pytest.raises(ParseError, match="'time'"):
        load_long_csv(write_csv(tmp_path / "d.csv", "subject,t,y,x1\na,1,2,3\n"))


def test_empty_file(tmp_path):
    with pytest.raises(ParseError, match="empty"):
        load_long_csv(write_csv(tmp_path / "d.csv", ""))


def test_no_covariates(tmp_path):
    with pytest.raises(ParseError, match="covariate"):
        load_long_csv(write_csv(tmp_path / "d.csv", "subject,time,y\na,1,2\n"))


def test_missing_file():
    with pytest.raises(ParseError, match="nope.csv"):
        load_long_csv("nope.csv")


@pytest.mark.parametrize("row, fields", [("b,4,1.0,0.5,3.0,7", 6), ("b,4,1.0,0.5", 4),
                                         ("   ", 1)])
def test_ragged_row_named(tmp_path, row, fields):
    bad = BASIC.replace("b,4,1.0,0.5,3.0", row)
    with pytest.raises(ParseError, match=rf"row 6 has {fields} fields, expected 5"):
        load_long_csv(write_csv(tmp_path / "d.csv", bad))


def test_every_row_one_field_too_many(tmp_path):
    text = "subject,time,y,x1\na,1,2,3,4\nb,2,3,4,5\n"
    with pytest.raises(ParseError, match="row 2 has 5 fields, expected 4"):
        load_long_csv(write_csv(tmp_path / "d.csv", text))


def test_bad_cell_after_blank_line_names_file_row(tmp_path):
    bad = BASIC.replace("a,4,3.0", "\n\na,4,3.0").replace("b,4,1.0,0.5,3.0", "b,4,1.0,x,3.0")
    with pytest.raises(ParseError, match=r"row 8, column 'x1': cannot parse 'x'"):
        load_long_csv(write_csv(tmp_path / "d.csv", bad))


@pytest.mark.parametrize("row, where", [
    ("b,nan,inf,inf,3.0", "row 6, column 'time'"),
    ("b,4,-inf,nan,3.0", "row 6, column 'y'"),
    ("b,4,1.0,inf,nan", "row 6, column 'x1'"),
])
def test_first_non_finite_cell_named(tmp_path, row, where):
    bad = BASIC.replace("b,4,1.0,0.5,3.0", row).replace("b,6,-1.0,-1.5,2.0", "b,inf,-1,-1,2")
    with pytest.raises(ParseError, match=where):
        load_long_csv(write_csv(tmp_path / "d.csv", bad))


@pytest.mark.parametrize("row, message", [
    ("b,1_000,1.0,0.5,3.0", r"row 6, column 'time': cannot parse '1_000'"),
    ("b,4,1.0,\u0661,3.0", r"row 6, column 'x1': cannot parse '\u0661'"),
    (",,,,", r"row 6, column 'time': cannot parse ''"),
])
def test_cells_float_takes_but_the_reader_refuses(tmp_path, row, message):
    # float() accepts '1_000' and Arabic-Indic digits; the file grammar does not
    bad = BASIC.replace("b,4,1.0,0.5,3.0", row)
    with pytest.raises(ParseError, match=message):
        load_long_csv(write_csv(tmp_path / "d.csv", bad))


def test_no_data_rows(tmp_path):
    with pytest.raises(ParseError, match="no data rows"):
        load_long_csv(write_csv(tmp_path / "d.csv", "subject,time,y,x1\n\n\n"))


def test_load_keeps_ids_equal_up_to_a_trailing_nul(tmp_path):
    # as from_arrays does: a fixed-width str array would drop the NUL and merge them
    text = "subject,time,y,x1\na,0,1.0,0.5\na\x00,1,2.0,1.5\na,2,3.0,2.5\na\x00,3,4.0,3.5\n"
    ds = load_long_csv(write_csv(tmp_path / "d.csv", text))
    want = from_arrays(["a", "a\x00", "a", "a\x00"], [0.0, 1.0, 2.0, 3.0],
                       [1.0, 2.0, 3.0, 4.0], [[0.5], [1.5], [2.5], [3.5]])
    assert ds.subject_ids == want.subject_ids == ("a", "a\x00")
    assert ds.bounds.tolist() == want.bounds.tolist() == [0, 2, 4]


def test_invalid_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(BASIC.replace("b,4,1.0", "b,4,\xff1.0").encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8"):
        load_long_csv(path)


NUMBER_FORMS = (repr, "%.6g".__mod__, "%.3e".__mod__, "%.17g".__mod__)


@st.composite
def long_csv(draw):
    """CSV text in the documented grammar, and the cells float() reads from it."""
    p = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(["subject", "time", "y"] + [f"x{k + 1}" for k in range(p)])]
    ids, cells = [], []
    for _ in range(n):
        sid = draw(st.sampled_from(["a", "b", " c ", "d,e"]))
        row = ['"' + sid + '"' if "," in sid or draw(st.booleans()) else sid]
        ids.append(sid.strip())
        values = []
        for _ in range(2 + p):
            text = draw(st.sampled_from(NUMBER_FORMS))(draw(st.floats(-1e300, 1e300)))
            text = " " * draw(st.integers(0, 2)) + text + " " * draw(st.integers(0, 2))
            row.append(f'"{text}"' if draw(st.booleans()) else text)
            values.append(float(text))
        cells.append(values)
        lines.append(",".join(row))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    return newline.join(lines) + newline, ids, np.array(cells)


@settings(max_examples=60, deadline=None)
@given(long_csv())
def test_load_matches_from_arrays_on_float_cells(case):
    text, ids, cells = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        got = load_long_csv(path, rescale=False)
    want = from_arrays(ids, cells[:, 0], cells[:, 1], cells[:, 2:],
                       covariate_names=got.covariate_names, rescale=False)
    assert [s.subject_id for s in got.subjects] == [s.subject_id for s in want.subjects]
    for a, b in zip(got.stacked(), want.stacked()):
        assert a.tobytes() == b.tobytes()


def test_identical_times_degenerate():
    with pytest.raises(DegenerateDesignError):
        from_arrays(["a", "a"], [3.0, 3.0], [1.0, 2.0], [[1.0], [2.0]])


def test_demean_basic():
    ds = from_arrays(["a"] * 3, [0, 0.5, 1], [1.0, 2.0, 3.0],
                     [[1.0], [2.0], [6.0]], rescale=False)
    out = demean_within_subject(ds)
    assert np.allclose(out.subjects[0].responses, [-1, 0, 1])
    assert np.allclose(out.subjects[0].covariates.ravel(), [-2, -1, 3])


def test_demean_idempotent():
    rng = np.random.default_rng(0)
    ds = from_arrays(np.repeat(["a", "b"], 4), rng.uniform(0, 1, 8),
                     rng.standard_normal(8), rng.standard_normal((8, 2)), rescale=False)
    once = demean_within_subject(ds)
    twice = demean_within_subject(once)
    assert twice is once
    y1, X1, _ = once.stacked()
    y2, X2, _ = twice.stacked()
    assert np.array_equal(y1, y2)
    assert np.array_equal(X1, X2)


def test_demean_within_subject_means_vanish():
    rng = np.random.default_rng(5)
    sids = np.repeat([f"s{i}" for i in range(7)], 5)
    ds = from_arrays(sids, rng.uniform(0, 1, 35), rng.standard_normal(35),
                     rng.standard_normal((35, 3)), rescale=False)
    out = demean_within_subject(ds)
    for s in out.subjects:
        assert abs(s.responses.mean()) < 1e-12
        assert np.abs(s.covariates.mean(axis=0)).max() < 1e-12


def test_demean_refuses_covariates_constant_within_subject():
    # one covariate vector per subject: de-meaning leaves only roundoff
    rng = np.random.default_rng(12)
    sids = np.repeat([f"s{i}" for i in range(40)], 5)
    X = np.repeat(rng.standard_normal((40, 2)), 5, axis=0)
    X[:, 0] += rng.standard_normal(200)
    ds = standardize(from_arrays(sids, rng.uniform(0, 1, 200), rng.standard_normal(200), X))
    with pytest.raises(DegenerateColumnError, match=r"'x2'.*--no-demean"):
        demean_within_subject(ds)
    # exact zeros after de-meaning are refused too
    ones = from_arrays(sids, rng.uniform(0, 1, 200), rng.standard_normal(200),
                       np.column_stack([X[:, 0], np.ones(200)]))
    with pytest.raises(DegenerateColumnError, match="'x2'"):
        demean_within_subject(ones)


def test_demean_keeps_small_within_subject_variation():
    rng = np.random.default_rng(13)
    sids = np.repeat([f"s{i}" for i in range(40)], 5)
    X = np.repeat(rng.standard_normal((40, 1)), 5, axis=0)
    X += 1e-9 * rng.standard_normal((200, 1))
    out = demean_within_subject(from_arrays(sids, rng.uniform(0, 1, 200),
                                            rng.standard_normal(200), X))
    assert np.abs(out.X).max() > 1e-10


def _stack(records):
    return (np.concatenate([r.responses for r in records]),
            np.vstack([r.covariates for r in records]),
            np.concatenate([r.times for r in records]))


def _assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _subject_layouts(rng):
    """(subject sizes, covariate count): 25 random unbalanced panels, then fixed ones."""
    for _ in range(25):
        n_subj = int(rng.integers(3, 9))
        sizes = rng.integers(1, 13, n_subj)
        sizes[rng.integers(n_subj)] = 12
        yield sizes, 3
    # runs of consecutive equal-size subjects, sizes past numpy's 128-value
    # pairwise-sum block (where its reduction order could differ), balanced panels
    yield [5, 5, 5, 130, 130, 2, 2, 2, 2, 129, 129, 1, 1], 3
    yield [200, 129, 300, 7, 7, 257], 2
    yield [3, 3, 8, 8, 3, 3, 17, 17, 17, 9], 1
    yield [10] * 12, 3
    yield [140] * 4, 1
    yield [1, 1, 2, 2, 1, 1], 4


def test_stacked_layout_matches_per_subject_operations():
    # the per-subject record operations, written out, against the stacked code:
    # bit-equal arrays on unbalanced, interleaved subjects with tied times
    rng = np.random.default_rng(21)
    for sizes, n_cols in _subject_layouts(rng):
        n_subj = len(sizes)
        ids = [f"s{i // 2}" + "\x00" * (i % 2) for i in range(n_subj)]
        rows = rng.permutation(np.repeat(np.arange(n_subj), sizes))
        n = len(rows)
        ds = from_arrays([ids[i] for i in rows], rng.integers(0, 4, n).astype(float),
                         rng.standard_normal(n) * 10,
                         rng.standard_normal((n, n_cols)) * [1, 5, 1e3, 1e-3][:n_cols])
        records = ds.subjects
        assert [r.subject_id for r in records] == list(ds.subject_ids)
        _assert_same_bits(_stack(records), ds.stacked())

        _, X, _ = _stack(records)
        center, scale = X.mean(axis=0), X.std(axis=0)
        records = [r._replace(covariates=(r.covariates - center) / scale) for r in records]
        ds = standardize(ds)
        _assert_same_bits(_stack(records), ds.stacked())

        records = [r._replace(responses=r.responses - r.responses.mean(),
                              covariates=r.covariates - r.covariates.mean(axis=0))
                   for r in records]
        ds = demean_within_subject(ds)
        _assert_same_bits(_stack(records), ds.stacked())

        held = {ids[i] for i in rng.choice(n_subj, size=int(rng.integers(1, n_subj)),
                                           replace=False)}
        rest, test = subset_subjects(ds, held, others=True), subset_subjects(ds, held)
        for part, want in ((rest, [r for r in records if r.subject_id not in held]),
                           (test, [r for r in records if r.subject_id in held])):
            assert part.subject_ids == tuple(r.subject_id for r in want)
            _assert_same_bits(_stack(want), part.stacked())
            _assert_same_bits(_stack(part.subjects), part.stacked())
            assert part.preprocessing is ds.preprocessing


def test_demeaned_noiseless_fit_gives_zero_intercept():
    # 3-subject toy with within-subject-varying covariates; after de-meaning,
    # a fit WITH intercept must estimate beta0 ~ 0 on noiseless data
    rng = np.random.default_rng(7)
    sids = np.repeat(["a", "b", "c"], 6)
    t = np.tile(np.linspace(0, 1, 6), 3)
    X = rng.standard_normal((18, 2))
    y = 5.0 + X @ np.array([2.0, -1.0]) + np.repeat(rng.standard_normal(3), 6)
    ds = demean_within_subject(from_arrays(sids, t, y, X, rescale=False))
    basis = build_basis(SplineConfig(degree=3, num_internal_knots=0))
    design = replace(build_design(ds, basis), intercept_included=True)
    fit = fit_bcd(design, basis, PenaltyConfig(lambda1=1e3, lambda2=0.0),
                  SolverOptions(tol=1e-12, max_iter=2000))
    assert abs(fit.beta0) < 1e-8
    assert np.allclose(fit.mu, [2.0, -1.0], atol=1e-6)


def test_standardize_two_point_column():
    ds = from_arrays(["a", "b"], [0.0, 1.0], [0.0, 0.0], [[0.0], [2.0]], rescale=False)
    out = standardize(ds)
    _, X, _ = out.stacked()
    assert np.allclose(X.ravel(), [-1.0, 1.0])


def test_standardize_pooled_moments():
    rng = np.random.default_rng(1)
    ds = from_arrays(np.repeat(["a", "b", "c"], 10), rng.uniform(0, 1, 30),
                     rng.standard_normal(30), 3 + 2 * rng.standard_normal((30, 4)),
                     rescale=False)
    out = standardize(ds)
    _, X, _ = out.stacked()
    assert np.abs(X.mean(axis=0)).max() < 1e-12
    assert np.abs(X.std(axis=0) - 1).max() < 1e-12


def test_standardize_round_trip():
    rng = np.random.default_rng(2)
    X = 3 + 2 * rng.standard_normal((20, 3))
    ds = from_arrays(["a"] * 20, rng.uniform(0, 1, 20), rng.standard_normal(20),
                     X, rescale=False)
    out = standardize(ds)
    _, Xs, _ = out.stacked()
    back = Xs * out.preprocessing.scale + out.preprocessing.center
    # stacked() sorts rows by time within subject; compare against its order
    _, X_orig_sorted, _ = ds.stacked()
    assert np.abs(back - X_orig_sorted).max() < 1e-12


def test_standardize_constant_column_errors():
    ds = from_arrays(["a", "a"], [0.0, 1.0], [0.0, 0.0],
                     [[1.0, 2.0], [1.0, 3.0]], rescale=False)
    with pytest.raises(DegenerateColumnError, match="x1"):
        standardize(ds)


def test_standardize_binary_exemption():
    ds = from_arrays(["a", "a", "b", "b"], [0, 1, 0, 1], np.zeros(4),
                     np.array([[1.0, 4.0], [1.0, 6.0], [0.0, 2.0], [0.0, 0.0]]),
                     rescale=False, covariate_names=("sex", "x2"))
    out = standardize(ds, binary_columns=("sex",))
    _, X, _ = out.stacked()
    assert set(X[:, 0]) == {0.0, 1.0}
    assert abs(X[:, 1].mean()) < 1e-12
    with pytest.raises(DegenerateColumnError, match="unknown"):
        standardize(ds, binary_columns=("nope",))


@pytest.fixture()
def small_design():
    rng = np.random.default_rng(3)
    sids = np.repeat(["a", "b"], 3)
    t = np.array([0.0, 0.5, 1.0, 0.25, 0.5, 0.75])
    X = rng.standard_normal((6, 2))
    X[0, 0] = 0.0
    X[3:, 1] = 1.0
    y = rng.standard_normal(6)
    ds = from_arrays(sids, t, y, X, rescale=False)
    basis = build_basis(SplineConfig(degree=3, num_internal_knots=4))
    return ds, basis, build_design(ds, basis)


def test_build_design_shapes(small_design):
    _, basis, design = small_design
    assert design.B.shape == (6, 8) and design.q == 8
    assert len(design.Z) == 2
    assert all(Z.shape == (6, 8) for Z in design.Z)


def test_design_stores_y_x_and_basis_rows_only(small_design):
    # n * (1 + p + q) floats: no n x p x q block array is kept
    _, _, design = small_design
    stored = [v for v in vars(design).values() if isinstance(v, np.ndarray)]
    assert sum(arr.nbytes for arr in stored) == 8 * design.n * (1 + design.p + design.q)
    assert not any(isinstance(v, tuple) for v in vars(design).values())
    assert not design.B.flags.writeable


def test_zero_covariate_gives_zero_row(small_design):
    _, _, design = small_design
    assert np.all(design.Z[0][0] == 0.0)


def test_unit_covariate_rows_are_centered_basis(small_design):
    ds, basis, design = small_design
    # x2 = 1 on subject b's rows: those Z rows equal Btilde(t), summing to 0
    assert np.abs(design.Z[1][3:].sum(axis=1)).max() < 1e-12
    _, _, t = ds.stacked()
    assert np.array_equal(design.Z[1][3:], basis.eval_centered(t[3:]))


def test_design_row_ordering_matches_stack(small_design):
    ds, basis, design = small_design
    y, X, t = ds.stacked()
    assert np.array_equal(design.y, y)
    assert np.array_equal(design.X, X)
    assert np.array_equal(design.B, basis.eval_centered(t))
    for k in range(2):
        assert np.array_equal(design.Z[k], X[:, k:k + 1] * basis.eval_centered(t))


def test_intercept_flag_follows_demeaning():
    rng = np.random.default_rng(4)
    ds = from_arrays(np.repeat(["a", "b"], 4), np.tile(np.linspace(0, 1, 4), 2),
                     rng.standard_normal(8), rng.standard_normal((8, 2)), rescale=False)
    basis = build_basis(SplineConfig(degree=3, num_internal_knots=0))
    assert build_design(ds, basis).intercept_included is True
    assert build_design(demean_within_subject(ds), basis).intercept_included is False


def test_pipeline_deterministic(tmp_path):
    path = write_csv(tmp_path / "d.csv", BASIC)

    def digest():
        ds = demean_within_subject(standardize(load_long_csv(path)))
        basis = build_basis(SplineConfig(degree=3, num_internal_knots=2))
        design = build_design(ds, basis)
        return b"".join([design.y.tobytes(), design.X.tobytes(), design.B.tobytes()])

    assert digest() == digest()


def test_z_row_norm_bound(small_design):
    ds, basis, design = small_design
    _, X, _ = ds.stacked()
    tgrid = np.linspace(0, 1, 2001)
    bmax = np.linalg.norm(basis.eval_centered(tgrid), axis=1).max()
    for k, Z in enumerate(design.Z):
        norms = np.linalg.norm(Z, axis=1)
        assert np.all(norms <= np.abs(X[:, k]) * bmax + 1e-12)
