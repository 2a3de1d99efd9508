from dataclasses import replace

import numpy as np
import pytest

from tvselect import simulate
from tvselect.basis import SplineConfig, build_basis
from tvselect.data import build_design, demean_within_subject, standardize
from tvselect.errors import ConfigurationError, SingularBlockError, StudyError
from tvselect.solver import (METHOD_TV_SELECT, ModelFit, PenaltyConfig, SolverOptions, fit_bcd,
                             predict)
from tvselect.simulate import (
    COV_TIME_VARYING,
    ERROR_AR1,
    ERROR_HETEROSCEDASTIC,
    ERROR_STUDENT_T,
    TIME_REGULAR,
    MetricsReport,
    ScenarioSpec,
    StudyOptions,
    _TEMPLATES,
    generate,
    make_scenario,
    make_truth,
    run_study,
    score_fit,
    stability,
)
from tvselect.tuning import lambda1_max


def gauss_legendre_01(n_nodes=128):
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    return 0.5 * (x + 1), 0.5 * w


# ------------------------------------------------------------ scenario spec


def test_scenario_presets():
    b = make_scenario("B", N=50, n_i=4, p=20)
    assert b.rho == 0.6
    c = make_scenario("C", N=50, n_i=4, p=20)
    assert c.time_design == TIME_REGULAR and c.error_model == ERROR_AR1
    d = make_scenario("D", N=50, n_i=4, p=20)
    assert d.error_model == ERROR_STUDENT_T and d.t_df == 3.0
    e = make_scenario("E", N=50, n_i=4, p=20)
    assert e.covariate_design == COV_TIME_VARYING and e.sigma_x2 == 0.1
    f = make_scenario("F", N=50, n_i=4, p=20)
    assert f.amplitude == 0.5


def test_scenario_forced_fields_reject_contradictions():
    with pytest.raises(ConfigurationError):
        make_scenario("B", N=50, n_i=4, p=20, rho=0.3)
    with pytest.raises(ConfigurationError):
        make_scenario("F", N=50, n_i=4, p=20, amplitude=1.0)
    make_scenario("B", N=50, n_i=4, p=20, rho=0.6)   # restating is fine


def test_scenario_refuses_a_q_the_basis_cannot_have():
    # the study's cubic basis needs q >= 4: refused before any data are drawn
    for q in (3, 0):
        with pytest.raises(ConfigurationError, match=f"q={q}"):
            make_scenario("A", N=50, n_i=4, p=20, q=q)
    assert make_scenario("A", N=50, n_i=4, p=20, q=4).q == 4


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        make_scenario("A", N=50, n_i=4, p=20, s_v=7)
    with pytest.raises(ConfigurationError):
        make_scenario("A", N=50, n_i=4, p=5)          # s_v + s_c > p
    with pytest.raises(ConfigurationError):
        make_scenario("A", N=50, n_i=4, p=20, sigma=0.0)
    with pytest.raises(ConfigurationError):
        make_scenario("C", N=50, n_i=1, p=20)         # regular needs n_i >= 2
    with pytest.raises(ConfigurationError):
        make_scenario("D", N=50, n_i=4, p=20, t_df=2.0)
    with pytest.raises(ConfigurationError):
        make_scenario("G", N=50, n_i=4, p=20)
    # NaN passes every comparison-only check
    for name in ("sigma", "sigma_x2", "amplitude", "t_df"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match=name):
                make_scenario("D", N=50, n_i=4, p=20, **{name: value})
    for gamma in (float("nan"), -0.1, 1.5):
        with pytest.raises(ConfigurationError, match="gamma"):
            StudyOptions(gamma=gamma)
    for methods in ((), ("tv-select", "lasso")):
        with pytest.raises(ConfigurationError, match="method"):
            StudyOptions(methods=methods)


# -------------------------------------------------------------------- truth


def test_truth_layout():
    spec = make_scenario("A", N=10, n_i=4, p=12, s_v=3, s_c=4)
    truth = make_truth(spec)
    assert truth.s_vary == {0, 1, 2}
    assert truth.s_const == {3, 4, 5, 6}
    assert truth.s_zero == {7, 8, 9, 10, 11}
    # +-1 split evenly, extra to +1 when odd
    assert list(truth.mu0[[3, 4, 5, 6]]) == [1.0, 1.0, -1.0, -1.0]
    assert all(truth.mu0[k] == 0 for k in truth.s_vary | truth.s_zero)


def test_truth_centering_constants():
    # int of 16 t^2 (1-t)^2 = 16/30; int of sin(pi t) = 2/pi
    x, w = gauss_legendre_01()
    fn5, _, off5 = _TEMPLATES[4]
    fn6, _, off6 = _TEMPLATES[5]
    assert w @ fn5(x) == pytest.approx(8.0 / 15.0, abs=1e-12)
    assert off5 == pytest.approx(8.0 / 15.0)
    assert w @ fn6(x) == pytest.approx(2.0 / np.pi, abs=1e-12)
    assert off6 == pytest.approx(2.0 / np.pi)


def test_truth_deviations_integrate_to_zero():
    spec = make_scenario("A", N=10, n_i=4, p=14, s_v=6, s_c=6)
    truth = make_truth(spec)
    x, w = gauss_legendre_01()
    for k in truth.s_vary:
        assert abs(w @ truth.g0(k, x)) < 1e-10


def test_truth_scenario_f_includes_half_sine():
    spec = make_scenario("F", N=10, n_i=4, p=10, s_v=3, s_c=3)
    truth = make_truth(spec)
    assert truth.template_ids[-1] == len(_TEMPLATES) - 1
    # amplitude 0.5 scales the deviation
    tt = np.linspace(0, 1, 7)
    expected = 0.5 * (np.sin(np.pi * tt) - 2 / np.pi)
    assert np.allclose(truth.g0(2, tt), expected, atol=1e-12)


def test_analytic_second_derivatives_vs_central_differences():
    tt = np.linspace(0.05, 0.95, 100)
    h = 1e-5
    for fn, dd, _ in _TEMPLATES:
        num = (fn(tt + h) - 2 * fn(tt) + fn(tt - h)) / h ** 2
        rel = np.abs(num - dd(tt)) / (np.abs(dd(tt)) + 1.0)
        assert rel.max() < 1e-4


# ----------------------------------------------------------------- generate


def test_generate_shapes_and_regular_times():
    spec = make_scenario("C", N=7, n_i=5, p=10, s_v=2, s_c=2)
    ds = generate(spec, seed=3)
    assert ds.n_subjects == 7
    assert ds.n_total == 35
    assert np.allclose(ds.subjects[0].times, [0, 0.25, 0.5, 0.75, 1.0])


def test_generate_deterministic_in_seed():
    spec = make_scenario("A", N=6, n_i=4, p=8, s_v=2, s_c=2)
    a, b = generate(spec, seed=11), generate(spec, seed=11)
    ya, _, _ = a.stacked()
    yb, _, _ = b.stacked()
    assert np.array_equal(ya, yb)
    c = generate(spec, seed=12)
    yc, _, _ = c.stacked()
    assert not np.array_equal(ya, yc)


def test_student_t_errors_scaled_to_sigma():
    # empirical variance of the scaled t3 draws over 1e6 samples within 2%
    spec = make_scenario("D", N=200_000, n_i=5, p=3, s_v=0, s_c=0, sigma=1.3)
    truth = make_truth(spec)
    rng = np.random.default_rng(5)
    from tvselect.simulate import _draw_errors
    t = rng.uniform(0, 1, spec.n_total)
    eps = _draw_errors(spec, t, rng)
    assert eps.var() == pytest.approx(1.3 ** 2, rel=0.02)


def test_heteroscedastic_profile():
    spec = make_scenario("D", N=100_000, n_i=2, p=3, s_v=0, s_c=0,
                         error_model=ERROR_HETEROSCEDASTIC)
    from tvselect.simulate import _draw_errors
    rng = np.random.default_rng(6)
    t = np.full(spec.n_total, 0.25)      # sd = sigma * (1 + 0.5 sin(pi/2)) = 1.5
    eps = _draw_errors(spec, t, rng)
    assert eps.std() == pytest.approx(1.5, rel=0.02)


def test_ar1_within_subject_correlation():
    spec = make_scenario("C", N=150_000, n_i=2, p=3, s_v=0, s_c=0, alpha=0.6)
    from tvselect.simulate import _draw_errors
    rng = np.random.default_rng(7)
    t = np.tile([0.0, 1.0], spec.N)
    eps = _draw_errors(spec, t, rng).reshape(spec.N, 2)
    corr = np.corrcoef(eps[:, 0], eps[:, 1])[0, 1]
    assert corr == pytest.approx(0.6, abs=0.01)


def test_noiseless_constants_recovered_after_demeaning():
    # sigma -> 0 with time-varying covariates: de-meaning is exact for the
    # constant part and the constants-only fit recovers mu0 exactly
    spec = make_scenario("E", N=60, n_i=5, p=6, s_v=0, s_c=3,
                         sigma=1e-12, sigma_x2=0.5)
    truth = make_truth(spec)
    ds = demean_within_subject(generate(spec, truth, seed=9))
    basis = build_basis(SplineConfig.from_q(6))
    design = build_design(ds, basis)
    fit = fit_bcd(design, basis, PenaltyConfig(1e3, 0.0),
                  SolverOptions(tol=1e-13, max_iter=3000))
    assert np.abs(fit.mu - truth.mu0).max() < 1e-8


# ---------------------------------------------------------------- score_fit


def quartic_truth_and_fit():
    """Template 5 is a quartic: exactly representable in a degree-4 basis."""
    spec = make_scenario("A", N=30, n_i=4, p=4, s_v=1, s_c=2)
    truth_base = make_truth(spec)
    truth = type(truth_base)(
        mu0=truth_base.mu0, template_ids=(4,), amplitude=1.0,
        s_vary=truth_base.s_vary, s_const=truth_base.s_const,
        s_zero=truth_base.s_zero)
    basis = build_basis(SplineConfig(degree=4, num_internal_knots=0))
    tgrid = np.linspace(0, 1, 401)
    target = truth.g0(0, tgrid)
    theta0, *_ = np.linalg.lstsq(basis.eval_centered(tgrid), target, rcond=None)
    theta = [np.zeros(basis.q) for _ in range(4)]
    theta[0] = theta0
    fit = ModelFit(beta0=0.0, mu=truth.mu0.copy(), theta=tuple(theta),
                   objective_trace=np.zeros(1), iterations=1, converged=True,
                   method=METHOD_TV_SELECT, penalty=PenaltyConfig(0.0, 0.0),
                   basis=basis, intercept=False, n_train=1000)
    return spec, truth, fit


def test_score_fit_perfect_fit():
    spec, truth, fit = quartic_truth_and_fit()
    m = score_fit(fit, truth)
    assert m["ise"] < 1e-12
    assert m["re"] < 1e-10
    assert m["class_acc"] == 1.0
    assert m["tpr_vary"] == 1.0
    assert m["fpr_vary"] == 0.0
    assert m["mse_mu"] < 1e-30


def test_score_fit_all_zero_fit():
    # all-zero fit vs truth with s_c=6, mu0=+-1, p=100: MSE_mu = 6/100
    spec = make_scenario("A", N=10, n_i=4, p=100, s_v=0, s_c=6)
    truth = make_truth(spec)
    basis = build_basis(SplineConfig.from_q(8))
    fit = ModelFit(beta0=0.0, mu=np.zeros(100),
                   theta=tuple(np.zeros(8) for _ in range(100)),
                   objective_trace=np.zeros(1), iterations=1, converged=True,
                   method=METHOD_TV_SELECT, penalty=PenaltyConfig(0.0, 0.0),
                   basis=basis, intercept=False, n_train=1000)
    m = score_fit(fit, truth)
    assert m["mse_mu"] == pytest.approx(0.06, abs=1e-15)
    assert m["mse_mu_act"] == pytest.approx(1.0, abs=1e-15)
    assert m["tpr_vary"] == 1.0      # vacuous: no true varying effects
    assert m["fpr_vary"] == 0.0


def test_score_fit_selection_rates():
    spec, truth, fit = quartic_truth_and_fit()
    # add a spurious active block
    theta = list(fit.theta)
    theta[3] = np.full(fit.basis.q, 0.5)
    bad = ModelFit(beta0=fit.beta0, mu=fit.mu, theta=tuple(theta),
                   objective_trace=fit.objective_trace, iterations=1, converged=True,
                   method=fit.method, penalty=fit.penalty, basis=fit.basis,
                   intercept=False, n_train=fit.n_train)
    m = score_fit(bad, truth)
    assert m["tpr_vary"] == 1.0
    assert m["fpr_vary"] == pytest.approx(1.0 / 3.0)


def test_score_fit_mspe_on_test_set():
    spec, truth, fit = quartic_truth_and_fit()
    test = generate(replace(spec, N=40), truth, seed=77)
    m = score_fit(fit, truth, test_set=test)
    # perfect coefficient fit: MSPE equals the noise variance, here sigma=1
    assert m["mspe"] == pytest.approx(1.0, rel=0.25)


def test_score_fit_maps_test_rows_through_the_training_record():
    spec, truth, fit = quartic_truth_and_fit()
    test = generate(replace(spec, N=40), truth, seed=77)
    prep = standardize(generate(spec, truth, seed=1)).preprocessing
    m = score_fit(fit, truth, prep, test_set=test)
    pred = predict(fit, (test.X - prep.center) / prep.scale, test.times)
    assert m["mspe"] == float(np.mean((test.y - pred) ** 2))
    assert m["mse_mu"] == float(np.sum((fit.mu / prep.scale - truth.mu0) ** 2)) / fit.p


# ---------------------------------------------------------------- stability


def test_stability_identical_sets():
    assert stability([{1, 2}] * 5) == 1.0


def test_stability_disjoint_sets():
    assert stability([{1, 2}, {3, 4}]) == 0.0


def test_stability_hand_enumeration():
    # pairs: ({1,2},{2,3})=1/3, ({1,2},{1,2})=1, ({2,3},{1,2})=1/3 -> 5/9
    assert stability([{1, 2}, {2, 3}, {1, 2}]) == pytest.approx(5.0 / 9.0)


def test_stability_empty_conventions():
    assert stability([set(), set()]) == 1.0
    assert stability([set(), {1}]) == 0.0


def test_stability_needs_two():
    with pytest.raises(ConfigurationError):
        stability([{1}])


# ---------------------------------------------------------------- run_study


SMALL = make_scenario("A", N=30, n_i=4, p=6, s_v=1, s_c=1, q=6, rho=0.0)
FAST = StudyOptions(lambda2_values=(1e-6,), lambda1_count=8, n_test=50)


def test_run_study_r1_has_no_se():
    reports = run_study(SMALL, R=1, seed=5, options=FAST)
    assert all(np.isnan(rep.ses["ise"]) for rep in reports)
    assert all(rep.n_replications == 1 for rep in reports)


def test_run_study_deterministic():
    a = run_study(SMALL, R=2, seed=9, options=FAST)
    b = run_study(SMALL, R=2, seed=9, options=FAST)
    for ra, rb in zip(a, b):
        assert ra.method == rb.method
        for name in ra.means:
            assert ra.means[name] == rb.means[name]


@pytest.mark.parametrize("parallelism, R, pools", [(8, 2, [2]), (2, 3, [2]), (4, 1, []),
                                                   (1, 2, [])])
def test_run_study_starts_at_most_one_worker_per_replication(monkeypatch, parallelism, R,
                                                             pools):
    # the fork start method forks every worker at the first submit, so the
    # pool must not be wider than the study; a recording stand-in runs it here
    import concurrent.futures
    made = []

    class RecordingPool:
        def __init__(self, max_workers=None):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    reports = run_study(SMALL, R=R, seed=9, options=FAST, parallelism=parallelism)
    assert made == pools
    assert all(rep.n_replications == R for rep in reports)


@pytest.mark.parametrize("parallelism", [0, -1])
def test_run_study_refuses_parallelism_below_one(monkeypatch, parallelism):
    def refuse(payload):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulate, "_run_replication_safe", refuse)
    with pytest.raises(ConfigurationError, match="parallelism"):
        run_study(SMALL, R=2, seed=9, options=FAST, parallelism=parallelism)


def test_run_study_parallel_matches_serial():
    a = run_study(SMALL, R=2, seed=9, options=FAST, parallelism=1)
    b = run_study(SMALL, R=2, seed=9, options=FAST, parallelism=2)
    for ra, rb in zip(a, b):
        for name in ra.means:
            assert ra.means[name] == rb.means[name]


def test_seed_lattice_independent_of_R():
    from tvselect.simulate import _child_seeds
    a2 = _child_seeds(7, SMALL, 1)[0].generate_state(4)
    # the same replication index yields the same stream regardless of how
    # many replications are planned
    a9 = _child_seeds(7, SMALL, 1)[0].generate_state(4)
    assert np.array_equal(a2, a9)
    other = _child_seeds(7, SMALL, 2)[0].generate_state(4)
    assert not np.array_equal(a2, other)


def test_paired_design_identical_training_data():
    from tvselect.simulate import _child_seeds
    spec = SMALL
    tr1, _ = _child_seeds(3, spec, 0)
    tr2, _ = _child_seeds(3, spec, 0)
    d1 = generate(spec, seed=tr1)
    d2 = generate(spec, seed=tr2)
    y1, X1, t1 = d1.stacked()
    y2, X2, t2 = d2.stacked()
    assert y1.tobytes() == y2.tobytes()
    assert X1.tobytes() == X2.tobytes()
    assert t1.tobytes() == t2.tobytes()


def test_metric_sanity_ranges():
    reports = run_study(SMALL, R=2, seed=13, options=FAST)
    for rep in reports:
        for name in ("tpr_vary", "fpr_vary", "class_acc", "stab"):
            assert 0.0 <= rep.means[name] <= 1.0
        for name in ("ise", "re", "mse_mu", "mspe"):
            assert rep.means[name] >= 0.0


def test_report_rows_shape():
    reports = run_study(SMALL, R=2, seed=13, options=FAST)
    rows = list(reports[0].rows())
    assert all(len(r) == 6 for r in rows)
    assert rows[0][0] == "A"
    assert rows[0][1] == "N=30/n_i=4/p=6"


def test_run_study_rejects_bad_r():
    with pytest.raises(ConfigurationError):
        run_study(SMALL, R=0, seed=1, options=FAST)


def test_run_study_tolerates_minority_failures(monkeypatch):
    import tvselect.simulate as sim
    real = sim._run_replication

    def flaky(payload):
        spec, r, seed, opts = payload
        if r == 0:
            raise SingularBlockError("synthetic failure")
        return real(payload)

    monkeypatch.setattr(sim, "_run_replication", flaky)
    reports = run_study(SMALL, R=12, seed=3, options=FAST)
    assert all(rep.n_failures == 1 for rep in reports)
    assert all(rep.n_replications == 11 for rep in reports)


def test_run_study_propagates_an_error_outside_the_failure_policy(monkeypatch):
    # only a package error or LinAlgError is a failed replication; a bug ends the study
    import tvselect.simulate as sim
    real = sim._run_replication

    def buggy(payload):
        spec, r, seed, opts = payload
        if r == 0:
            raise RuntimeError("synthetic bug")
        return real(payload)

    monkeypatch.setattr(sim, "_run_replication", buggy)
    with pytest.raises(RuntimeError, match="synthetic bug"):
        run_study(SMALL, R=12, seed=3, options=FAST)


def test_scenario_carries_no_seed():
    # run_study's seed is the study's only seed: a spec never held one it would ignore
    with pytest.raises(TypeError, match="seed"):
        make_scenario("A", N=30, n_i=4, p=6, s_v=1, s_c=1, seed=7)


def test_run_study_errors_on_excess_failures(monkeypatch):
    import tvselect.simulate as sim

    def always_fail(payload):
        raise SingularBlockError("synthetic failure")

    monkeypatch.setattr(sim, "_run_replication", always_fail)
    with pytest.raises(StudyError):
        run_study(SMALL, R=3, seed=3, options=FAST)


def test_run_study_names_a_rank_deficient_constant_design():
    # 20 subjects with 20 baseline covariates: [1 X] has rank 20 < 21 in
    # every replication, which fails instead of scoring an unidentified mu
    spec = make_scenario("A", N=20, n_i=5, p=20)
    with pytest.raises(StudyError, match="rank-deficient"):
        run_study(spec, R=2, seed=3, options=FAST)
