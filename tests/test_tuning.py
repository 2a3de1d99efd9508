import math
from dataclasses import replace

import numpy as np
import pytest

from tvselect.basis import SplineConfig, build_basis
from tvselect.data import (
    build_design,
    demean_within_subject,
    design_gram,
    from_arrays,
    standardize,
    subset_subjects,
)
from tvselect import data, tuning
from tvselect.errors import (ConfigurationError, DegenerateColumnError, DegenerateDesignError,
                             SingularBlockError)
from tvselect.solver import (
    METHOD_GROUP_LASSO,
    METHOD_SCREEN_REFIT,
    METHOD_VC_RIDGE,
    ModelFit,
    PenaltyConfig,
    SolverOptions,
    fit_bcd,
)
from tvselect.structure import select_vary
from tvselect.tuning import (
    TuningGrid,
    _argmin_with_tiebreak,
    _fit_grid,
    default_grid,
    ebic,
    lambda1_max,
    subject_folds,
    tune_cv,
    tune_ebic,
)


def make_dataset(rng, N=25, n_i=4, p=4, q=8, s_v=1, mu=(1.0, -1.0)):
    basis = build_basis(SplineConfig.from_q(q))
    n = N * n_i
    sids = np.repeat([f"s{i}" for i in range(N)], n_i)
    t = rng.uniform(0, 1, n)
    X = np.repeat(rng.standard_normal((N, p)), n_i, axis=0)
    mu0 = np.zeros(p)
    mu0[s_v:s_v + len(mu)] = mu
    y = X @ mu0 + rng.standard_normal(n)
    for k in range(s_v):
        y = y + X[:, k] * np.sin(2 * np.pi * t)
    ds = standardize(from_arrays(sids, t, y, X, rescale=False))
    return ds, basis, build_design(ds, basis)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        TuningGrid((), (1.0,))
    with pytest.raises(ConfigurationError):
        TuningGrid((0.1, 0.5), (1.0,))         # ascending
    with pytest.raises(ConfigurationError):
        TuningGrid((0.5, -0.1), (1.0,))        # negative
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            TuningGrid((0.5,), (bad,))         # non-finite
    with pytest.raises(ConfigurationError):
        TuningGrid((0.5,), (1.0,), gamma=1.5)
    grid = TuningGrid((0.5, 0.1), (1.0, 0.0), gamma=0.5)
    assert grid.lambda1_values == (0.5, 0.1)


def test_lambda1_max_zero_when_orthogonal():
    rng = np.random.default_rng(0)
    _, basis, design = make_dataset(rng, s_v=0, mu=())
    # response == fitted constants part: residual orthogonal to every Z
    y_fit = design.X @ np.zeros(design.p)
    design0 = replace(design, y=y_fit)
    assert lambda1_max(design0) == pytest.approx(0.0, abs=1e-14)


def test_fit_above_lambda1_max_is_all_zero():
    # lambda1_max is the exact zero threshold: at it every block stays zero,
    # just below it one enters
    rng = np.random.default_rng(1)
    _, basis, design = make_dataset(rng)
    for intercept in (True, False):
        d = replace(design, intercept_included=intercept)
        top = lambda1_max(d)
        for factor in (1.0, 1.01):
            fit = fit_bcd(d, basis, PenaltyConfig(factor * top, 0.0), SolverOptions())
            assert select_vary(fit) == frozenset()
            # and the first sweep already zeroed everything
            assert fit.iterations <= 2
        below = fit_bcd(d, basis, PenaltyConfig((1.0 - 1e-6) * top, 0.0), SolverOptions())
        assert select_vary(below) != frozenset()


def test_fit_at_zero_selects_something():
    rng = np.random.default_rng(2)
    _, basis, design = make_dataset(rng)
    fit = fit_bcd(design, basis, PenaltyConfig(0.0, 0.0), SolverOptions())
    assert len(select_vary(fit)) > 0


def test_ebic_worked_example():
    # n=100, p=10, q=8, RSS/n=1, |S|=2, gamma=0.5:
    # 0 + (log 100/100)*(10+16) + (2*0.5*log 10/100)*2
    expected = math.log(100) / 100 * 26 + math.log(10) / 100 * 2
    assert expected == pytest.approx(1.2434, abs=5e-5)

    rng = np.random.default_rng(3)
    _, basis, design = make_dataset(rng, N=25, n_i=4, p=10, q=8)
    beta0 = 0.0
    mu = np.zeros(10)
    theta = [np.zeros(8) for _ in range(10)]
    theta[0] = np.full(8, 1e-3)
    theta[1] = np.full(8, 1e-3)
    fit = ModelFit(beta0=beta0, mu=mu, theta=tuple(theta),
                   objective_trace=np.zeros(1), iterations=1, converged=True,
                   method="tv-select", penalty=PenaltyConfig(0.0, 0.0), basis=basis,
                   intercept=False, n_train=design.n)
    # independent arithmetic against the implementation
    resid = design.y - sum(design.Z[k] @ theta[k] for k in range(10))
    rss = float(resid @ resid)
    n = design.n
    by_hand = math.log(rss / n) + math.log(n) / n * (10 + 8 * 2) \
        + 2 * 0.5 * math.log(10) / n * 2
    assert ebic(fit, design, gamma=0.5) == pytest.approx(by_hand, abs=1e-12)


def test_ebic_gamma_zero_drops_dimensionality_term():
    rng = np.random.default_rng(4)
    _, basis, design = make_dataset(rng)
    fit = fit_bcd(design, basis, PenaltyConfig(0.01, 0.0), SolverOptions())
    n_vary = len(select_vary(fit))
    diff = ebic(fit, design, gamma=0.5) - ebic(fit, design, gamma=0.0)
    assert diff == pytest.approx(math.log(design.p) / design.n * n_vary, abs=1e-12)


def test_ebic_prefers_sparser_at_equal_rss():
    rng = np.random.default_rng(5)
    _, basis, design = make_dataset(rng)
    q = basis.q
    sparse = ModelFit(beta0=0.0, mu=np.zeros(4), theta=tuple([np.zeros(q)] * 4),
                      objective_trace=np.zeros(1), iterations=1, converged=True,
                      method="tv-select", penalty=PenaltyConfig(0, 0), basis=basis,
                      intercept=False, n_train=design.n)
    dense_theta = [np.zeros(q) for _ in range(4)]
    dense_theta[2] = np.full(q, 1e-300)       # same RSS, one more active block
    dense = ModelFit(beta0=0.0, mu=np.zeros(4), theta=tuple(dense_theta),
                     objective_trace=np.zeros(1), iterations=1, converged=True,
                     method="tv-select", penalty=PenaltyConfig(0, 0), basis=basis,
                     intercept=False, n_train=design.n)
    assert ebic(sparse, design, 0.5) < ebic(dense, design, 0.5)


def test_ebic_zero_rss_sentinel():
    rng = np.random.default_rng(6)
    _, basis, design = make_dataset(rng, s_v=0, mu=())
    y_zero = np.zeros(design.n)
    d0 = replace(design, y=y_zero, intercept_included=False)
    fit = fit_bcd(d0, basis, PenaltyConfig(0.1, 0.0), SolverOptions())
    assert ebic(fit, d0, 0.5) == float("-inf")


def test_default_grid_refuses_a_response_the_constants_fit():
    rng = np.random.default_rng(6)
    _, _, design = make_dataset(rng)
    assert default_grid(replace(design, y=np.zeros(design.n))).lambda1_values == (0.0,)
    fitted = replace(design, y=1.5 + design.X @ rng.standard_normal(design.p))
    with pytest.raises(DegenerateDesignError, match="fit the response to roundoff"):
        default_grid(fitted)


def test_tune_single_point_grid():
    rng = np.random.default_rng(7)
    _, basis, design = make_dataset(rng)
    grid = TuningGrid((0.05,), (0.01,))
    res = tune_ebic(design, basis, grid, SolverOptions())
    assert res.best_lambda1 == 0.05
    assert res.best_lambda2 == 0.01
    assert res.criterion_surface.shape == (1, 1)


def test_tune_deterministic():
    rng = np.random.default_rng(8)
    _, basis, design = make_dataset(rng)
    grid = default_grid(design, lambda1_count=6, lambda2_values=(0.1, 1e-3))
    a = tune_ebic(design, basis, grid, SolverOptions())
    b = tune_ebic(design, basis, grid, SolverOptions())
    assert np.array_equal(a.criterion_surface, b.criterion_surface)
    assert (a.best_lambda1, a.best_lambda2) == (b.best_lambda1, b.best_lambda2)


def test_tie_break_toward_larger_penalties():
    rng = np.random.default_rng(9)
    _, basis, design = make_dataset(rng)
    # lambda1 values far above lambda1_max are all-zero fits with equal EBIC
    top = lambda1_max(design)
    grid = TuningGrid((4 * top, 3 * top, 2 * top), (1.0, 0.5), gamma=0.5)
    res = tune_ebic(design, basis, grid, SolverOptions())
    assert res.best_lambda1 == 4 * top
    assert res.best_lambda2 == 1.0


def test_method_grid_guards():
    rng = np.random.default_rng(10)
    _, basis, design = make_dataset(rng)
    with pytest.raises(ConfigurationError):
        tune_ebic(design, basis, TuningGrid((0.1,), (0.5,)), SolverOptions(),
                  method=METHOD_GROUP_LASSO)
    with pytest.raises(ConfigurationError):
        tune_ebic(design, basis, TuningGrid((0.1,), (0.5,)), SolverOptions(),
                  method=METHOD_VC_RIDGE)


def test_tune_ebic_rejects_screen_refit_with_lambda2():
    rng = np.random.default_rng(10)
    _, basis, design = make_dataset(rng)
    with pytest.raises(ConfigurationError):
        tune_ebic(design, basis, TuningGrid((0.1,), (1.0,)), SolverOptions(),
                  method=METHOD_SCREEN_REFIT)


def test_warm_vs_cold_starts_agree():
    rng = np.random.default_rng(11)
    _, basis, design = make_dataset(rng)
    grid = default_grid(design, lambda1_count=8, lambda2_values=(0.01, 1e-4))
    tight = SolverOptions(tol=1e-12, max_iter=4000)
    warm = tune_ebic(design, basis, grid, tight)

    # cold starts: every grid point fit from scratch
    surface = np.empty((8, 2))
    for i, l1 in enumerate(grid.lambda1_values):
        for j, l2 in enumerate(grid.lambda2_values):
            fit = fit_bcd(design, basis, PenaltyConfig(l1, l2), tight)
            surface[i, j] = ebic(fit, design, grid.gamma)
    i, j = np.unravel_index(surface.argmin(), surface.shape)
    assert (warm.best_lambda1, warm.best_lambda2) == (
        grid.lambda1_values[i], grid.lambda2_values[j])
    assert abs(surface[i, j] - warm.criterion_surface[i, j]) < 1e-9


def test_ebic_recovers_varying_count():
    # DGP with 2 truly varying blocks out of 10: selected count in {1,2,3}
    # in at least 90% of 30 replications
    rng = np.random.default_rng(12)
    hits = 0
    for _ in range(30):
        basis = build_basis(SplineConfig.from_q(8))
        N, n_i, p = 60, 5, 10
        n = N * n_i
        sids = np.repeat([f"s{i}" for i in range(N)], n_i)
        t = rng.uniform(0, 1, n)
        X = np.repeat(rng.standard_normal((N, p)), n_i, axis=0)
        y = X[:, 2] * 1.0 - X[:, 3] * 1.0 + rng.standard_normal(n)
        y = y + X[:, 0] * np.sin(2 * np.pi * t) + X[:, 1] * np.cos(2 * np.pi * t)
        ds = standardize(from_arrays(sids, t, y, X, rescale=False))
        design = build_design(ds, basis)
        grid = default_grid(design, lambda1_count=12, lambda2_values=(1e-5,))
        res = tune_ebic(design, basis, grid, SolverOptions())
        if len(select_vary(res.best_fit)) in (1, 2, 3):
            hits += 1
    assert hits >= 27


def test_surface_rows_export():
    rng = np.random.default_rng(13)
    _, basis, design = make_dataset(rng)
    grid = TuningGrid((0.2, 0.1), (0.5,))
    res = tune_ebic(design, basis, grid, SolverOptions())
    rows = list(res.surface_rows())
    assert len(rows) == 2
    assert rows[0][:2] == (0.2, 0.5)


# --------------------------------------------------------------------- CV


def test_subject_folds_partition_and_determinism():
    ids = [f"s{i}" for i in range(11)]
    folds = subject_folds(ids, 4, seed=3)
    flat = [s for fold in folds for s in fold]
    assert sorted(flat) == sorted(ids)
    assert subject_folds(ids, 4, seed=3) == folds
    assert subject_folds(list(reversed(ids)), 4, seed=3) == folds
    assert subject_folds(ids, 4, seed=4) != folds


def test_subject_folds_validation():
    with pytest.raises(ConfigurationError):
        subject_folds(["a", "b"], 3, seed=0)
    with pytest.raises(ConfigurationError):
        subject_folds(["a", "b", "c"], 1, seed=0)


def test_tune_cv_leave_one_subject_out():
    rng = np.random.default_rng(14)
    ds, basis, _ = make_dataset(rng, N=8, n_i=4, p=2, q=6, mu=(1.0,))
    grid = TuningGrid((0.3, 0.05), (0.01,))
    res = tune_cv(ds, basis, grid, n_folds=8, seed=0)
    assert np.isfinite(res.criterion_surface).all()
    assert res.criterion == "cv-mspe"


def test_tune_cv_deterministic():
    rng = np.random.default_rng(15)
    ds, basis, _ = make_dataset(rng, N=10, n_i=4, p=2, q=6, mu=(1.0,))
    grid = TuningGrid((0.2, 0.05), (0.01,))
    a = tune_cv(ds, basis, grid, n_folds=5, seed=42)
    b = tune_cv(ds, basis, grid, n_folds=5, seed=42)
    assert np.array_equal(a.criterion_surface, b.criterion_surface)
    assert (a.best_lambda1, a.best_lambda2) == (b.best_lambda1, b.best_lambda2)


@pytest.mark.parametrize("demean", [False, True], ids=["intercept", "demeaned"])
def test_fold_grams_sum_to_each_training_gram(demean):
    # unbalanced subjects whose rows arrive interleaved and out of time order
    rng = np.random.default_rng(21)
    sizes = rng.integers(1, 7, 23)
    sids = np.repeat([f"s{i}" for i in range(len(sizes))], sizes)
    order = rng.permutation(len(sids))
    X = rng.standard_normal((len(sids), 3))
    ds = standardize(from_arrays(sids[order], rng.uniform(0, 1, len(sids)),
                                 rng.standard_normal(len(sids)), X))
    if demean:
        ds = demean_within_subject(ds)
    basis = build_basis(SplineConfig.from_q(6))
    folds = subject_folds(ds.subject_ids, 4, seed=5)
    fold_grams = [build_design(subset_subjects(ds, held_out), basis).gram
                  for held_out in folds]
    for f, held_out in enumerate(folds):
        d_train = build_design(subset_subjects(ds, held_out, others=True), basis)
        want = design_gram(d_train)
        got = sum(G for g, G in enumerate(fold_grams) if g != f)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_tune_cv_forms_one_gram_per_fold(monkeypatch):
    # the held-out designs' own Grams are the fold Grams: no Gram pass over
    # the full design or a training design
    rng = np.random.default_rng(23)
    ds, basis, _ = make_dataset(rng, N=12, n_i=4, p=2, q=6, mu=(1.0,))
    real, rows = data.design_gram, []

    def counted(design):
        rows.append(design.n)
        return real(design)

    monkeypatch.setattr(data, "design_gram", counted)
    tune_cv(ds, basis, TuningGrid((0.2, 0.05), (0.01,)), n_folds=3, seed=1)
    assert rows == [4 * len(held_out) for held_out in subject_folds(ds.subject_ids, 3, 1)]


@pytest.mark.parametrize("method, grid", [
    ("tv-select", TuningGrid((0.3, 0.1, 0.02), (0.1, 0.001))),
])
def test_tune_cv_surface_matches_fits_on_training_grams(method, grid):
    # fold Grams summed from the full design give the CV surface and refit
    # that each training design's own Gram gives
    rng = np.random.default_rng(22)
    ds, basis, design = make_dataset(rng, N=16, n_i=4, p=3, q=6)
    res = tune_cv(ds, basis, grid, n_folds=4, seed=7)
    sq_err = np.zeros(res.criterion_surface.shape)
    count = 0
    for held_out in subject_folds(ds.subject_ids, 4, 7):
        d_train, d_test = (build_design(subset_subjects(ds, held_out, others=others), basis)
                           for others in (True, False))
        surface, fits, failed, _ = _fit_grid(
            d_train, basis, grid, SolverOptions(), method,
            lambda fit: float(np.sum(tuning.residuals(d_test, fit) ** 2)))
        assert not failed and len(fits) == surface.size
        sq_err += surface
        count += d_test.n
    np.testing.assert_allclose(res.criterion_surface, sq_err / count, rtol=1e-10)
    ref = _fit_grid(design, basis, TuningGrid((res.best_lambda1,), (res.best_lambda2,)),
                    SolverOptions(), method, lambda fit: 0.0)[1][(0, 0)]
    np.testing.assert_allclose(res.best_fit.mu, ref.mu, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(np.array(res.best_fit.theta), np.array(ref.theta),
                               rtol=1e-10, atol=1e-12)


def test_tune_cv_too_many_folds():
    rng = np.random.default_rng(16)
    ds, basis, _ = make_dataset(rng, N=4, n_i=4, p=2, q=6, mu=(1.0,))
    with pytest.raises(ConfigurationError):
        tune_cv(ds, basis, TuningGrid((0.1,), (0.01,)), n_folds=5, seed=0)


def test_programming_error_in_grid_fit_propagates(monkeypatch):
    rng = np.random.default_rng(17)
    _, basis, design = make_dataset(rng, N=10, n_i=4, p=2, q=6, mu=(1.0,))

    def broken_fit(*args, **kwargs):
        raise TypeError("bug in the solver")

    monkeypatch.setattr(tuning, "fit_bcd", broken_fit)
    with pytest.raises(TypeError, match="bug in the solver"):
        tune_ebic(design, basis, TuningGrid((0.2, 0.05), (0.01,)))


@pytest.mark.parametrize("error", [DegenerateColumnError, ConfigurationError])
@pytest.mark.parametrize("criterion", ["ebic", "cv"])
def test_usage_error_in_grid_fit_aborts_the_grid(monkeypatch, error, criterion):
    # every grid point shares the design and the options, so the first usage
    # error ends the tuning; a DegenerateColumnError used to be recorded per point
    rng = np.random.default_rng(17)
    ds, basis, design = make_dataset(rng, N=10, n_i=4, p=2, q=6, mu=(1.0,))
    calls = []

    def refusing_fit(*args, **kwargs):
        calls.append(args)
        raise error("refused by the design")

    monkeypatch.setattr(tuning, "fit_bcd", refusing_fit)
    grid = TuningGrid((0.2, 0.05), (0.1, 0.01))
    with pytest.raises(error, match="refused by the design"):
        if criterion == "ebic":
            tune_ebic(design, basis, grid)
        else:
            tune_cv(ds, basis, grid, n_folds=2, seed=0)
    assert len(calls) == 1


def test_linalg_error_in_grid_fit_is_recorded(monkeypatch):
    rng = np.random.default_rng(17)
    _, basis, design = make_dataset(rng, N=10, n_i=4, p=2, q=6, mu=(1.0,))
    real_fit = tuning.fit_bcd

    def fit_failing(design, basis, penalty, *args, **kwargs):
        if penalty.lambda2 == 0.1:
            raise np.linalg.LinAlgError("injected")
        return real_fit(design, basis, penalty, *args, **kwargs)

    monkeypatch.setattr(tuning, "fit_bcd", fit_failing)
    res = tune_ebic(design, basis, TuningGrid((0.2, 0.05), (0.1, 0.01)))
    assert res.failed_points == ((0, 0, "LinAlgError: injected"), (1, 0, "LinAlgError: injected"))
    assert res.best_lambda2 == 0.01


def test_tune_cv_marks_point_failed_in_one_fold(monkeypatch):
    rng = np.random.default_rng(18)
    ds, basis, _ = make_dataset(rng, N=10, n_i=4, p=2, q=6, mu=(1.0,))
    grid = TuningGrid((0.2, 0.1, 0.05), (0.1, 0.01))
    failing = (grid.lambda1_values[1], grid.lambda2_values[0])
    real_fit = tuning.fit_bcd
    calls = []

    def fit_failing_once(design, basis, penalty, *args, **kwargs):
        key = (penalty.lambda1, penalty.lambda2)
        calls.append(key)
        if key == failing and calls.count(key) == 1:
            raise SingularBlockError("injected failure in the first fold")
        return real_fit(design, basis, penalty, *args, **kwargs)

    monkeypatch.setattr(tuning, "fit_bcd", fit_failing_once)
    res = tune_cv(ds, basis, grid, n_folds=5, seed=0)
    assert calls.count(failing) == 5
    assert np.isnan(res.criterion_surface[1, 0])
    mask = np.ones(res.criterion_surface.shape, dtype=bool)
    mask[1, 0] = False
    assert np.isfinite(res.criterion_surface[mask]).all()
    assert res.failed_points == (
        (1, 0, "fold 1 of 5: SingularBlockError: injected failure in the first fold"),)


def test_tune_ebic_records_failed_points(monkeypatch):
    # a failed fit is kept with its reason, not dropped; the path goes on
    # warm-started from the last fit that succeeded
    rng = np.random.default_rng(19)
    _, basis, design = make_dataset(rng, N=10, n_i=4, p=2, q=6, mu=(1.0,))
    grid = TuningGrid((0.2, 0.1, 0.05), (0.1, 0.01))
    real_fit = tuning.fit_bcd

    def fit_failing(design, basis, penalty, *args, **kwargs):
        if penalty.lambda1 == 0.1:
            raise SingularBlockError(f"injected at lambda2={penalty.lambda2}")
        return real_fit(design, basis, penalty, *args, **kwargs)

    monkeypatch.setattr(tuning, "fit_bcd", fit_failing)
    res = tune_ebic(design, basis, grid)
    assert res.failed_points == ((1, 0, "SingularBlockError: injected at lambda2=0.1"),
                                 (1, 1, "SingularBlockError: injected at lambda2=0.01"))
    assert np.isnan(res.criterion_surface[1]).all()
    assert np.isfinite(res.criterion_surface[[0, 2]]).all()
    assert tune_ebic(design, basis, TuningGrid((0.2,), (0.1,))).failed_points == ()


def test_tune_ebic_records_nonconverged_points(monkeypatch):
    # a fit stopped by max_iter keeps its surface cell and is listed with the cap
    rng = np.random.default_rng(19)
    _, basis, design = make_dataset(rng, N=10, n_i=4, p=2, q=6, mu=(1.0,))
    grid = TuningGrid((0.2, 0.1, 0.05), (0.1, 0.01))
    assert tune_ebic(design, basis, grid).nonconverged == ()
    real_fit = tuning.fit_bcd

    def fit_capped(design, basis, penalty, options, *args, **kwargs):
        if (penalty.lambda1, penalty.lambda2) == (0.05, 0.01):
            options = SolverOptions(max_iter=1)
        return real_fit(design, basis, penalty, options, *args, **kwargs)

    monkeypatch.setattr(tuning, "fit_bcd", fit_capped)
    res = tune_ebic(design, basis, grid)
    assert res.nonconverged == ((2, 1, "stopped at max_iter=1"),)
    assert res.failed_points == ()
    assert np.isfinite(res.criterion_surface).all()


def test_tune_cv_records_first_nonconverged_fold(monkeypatch):
    rng = np.random.default_rng(18)
    ds, basis, _ = make_dataset(rng, N=10, n_i=4, p=2, q=6, mu=(1.0,))
    grid = TuningGrid((0.2, 0.1, 0.05), (0.1, 0.01))
    capped = (grid.lambda1_values[2], grid.lambda2_values[1])
    real_fit = tuning.fit_bcd
    calls = []

    def fit_capped(design, basis, penalty, options, *args, **kwargs):
        key = (penalty.lambda1, penalty.lambda2)
        calls.append(key)
        if key == capped and calls.count(key) in (2, 4):     # folds 2 and 4
            options = SolverOptions(max_iter=1)
        return real_fit(design, basis, penalty, options, *args, **kwargs)

    monkeypatch.setattr(tuning, "fit_bcd", fit_capped)
    res = tune_cv(ds, basis, grid, n_folds=5, seed=0)
    assert res.nonconverged == ((2, 1, "fold 2 of 5: stopped at max_iter=1"),)
    assert res.failed_points == ()
    assert np.isfinite(res.criterion_surface).all()


def test_roundoff_ties_go_to_larger_penalties():
    # fits of one optimum from different warm starts agree only to roundoff
    surface = np.array([[1.0 + 4e-16, 2.0], [1.0, 1.0 - 1e-9]])
    assert _argmin_with_tiebreak(surface[:, :1]) == (0, 0)
    assert _argmin_with_tiebreak(surface) == (1, 1)
