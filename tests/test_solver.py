import json
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvselect.basis import TIME_QUANTILES, SplineConfig, build_basis
from tvselect import data, solver
from tvselect.data import build_design, design_gram, from_arrays, standardize
from tvselect.errors import (
    ConfigurationError,
    DegenerateColumnError,
    DegenerateDesignError,
    DimensionError,
    DomainError,
    OracleNonconvergenceError,
)
from tvselect.simulate import StudyOptions, fit_study_methods, generate, make_scenario
from tvselect.solver import (
    METHOD_GROUP_LASSO,
    METHOD_SCREEN_REFIT,
    METHOD_TV_SELECT,
    METHOD_VC_RIDGE,
    RESIDUAL_REFRESH_EVERY,
    SCREEN_REFIT_LAMBDA2,
    BlockFactor,
    ModelFit,
    PenaltyConfig,
    SolverOptions,
    _constant_design,
    _joint_refit,
    _oracle_kkt_residual,
    _penalty_value,
    _predictor,
    _solve_block_subproblem,
    _sweep_tables,
    fit_baseline,
    fit_bcd,
    fit_oracle,
    fitted_values,
    objective,
    precompute_block_factors,
    predict,
    residuals,
    smooth_hessian,
)
from tvselect.tuning import _fit_grid, default_grid, lambda1_max


def make_instance(rng, N=15, n_i=4, p=3, q=6, sigma=1.0, theta_scale=1.0):
    """Random standardized instance with a mix of flat and varying effects."""
    basis = build_basis(SplineConfig.from_q(q))
    n = N * n_i
    sids = np.repeat([f"s{i}" for i in range(N)], n_i)
    t = rng.uniform(0, 1, n)
    X = np.repeat(rng.standard_normal((N, p)), n_i, axis=0)
    mu_true = rng.standard_normal(p)
    theta_true = [theta_scale * rng.standard_normal(q) * (rng.random() < 0.5)
                  for _ in range(p)]
    Bt = basis.eval_centered(t)
    y = X @ mu_true + sigma * rng.standard_normal(n)
    for k in range(p):
        y = y + X[:, k] * (Bt @ theta_true[k])
    ds = standardize(from_arrays(sids, t, y, X, rescale=False))
    return ds, basis, build_design(ds, basis)


TIGHT = SolverOptions(tol=1e-13, max_iter=4000)


# ---------------------------------------------------------------- objective


@pytest.mark.parametrize("make", [
    lambda v: PenaltyConfig(lambda1=v),
    lambda v: PenaltyConfig(lambda2=v),
    lambda v: SolverOptions(tol=v),
], ids=["lambda1", "lambda2", "tol"])
def test_settings_refuse_non_finite_values(make):
    # NaN passes a comparison-only check; inf lambda2 breaks the block factorization
    for value in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ConfigurationError):
            make(value)


def test_objective_zero_parameters():
    rng = np.random.default_rng(0)
    _, basis, design = make_instance(rng)
    fit = ModelFit(beta0=0.0, mu=np.zeros(3), theta=tuple(np.zeros(6) for _ in range(3)),
                   objective_trace=np.zeros(1), iterations=0, converged=True,
                   method="tv-select", penalty=PenaltyConfig(0.0, 0.0),
                   basis=basis, intercept=False, n_train=design.n)
    expected = 0.5 / design.n * float(design.y @ design.y)
    assert objective(design, fit) == pytest.approx(expected, rel=1e-15)


def test_objective_matches_straight_line_reimplementation():
    rng = np.random.default_rng(1)
    _, basis, design = make_instance(rng)
    pen = PenaltyConfig(lambda1=0.3, lambda2=0.05)
    fit = fit_bcd(design, basis, pen, SolverOptions(tol=1e-8, max_iter=50))

    # independent evaluation, written as plainly as possible
    n = design.n
    resid = design.y.copy()
    resid -= fit.beta0
    resid -= design.X @ fit.mu
    for Zk, th in zip(design.Z, fit.theta):
        resid = resid - Zk @ th
    value = float(resid @ resid) / (2 * n)
    for th in fit.theta:
        value += pen.lambda1 * float(np.sqrt(np.sum(th ** 2)))
        value += pen.lambda2 * float(th @ basis.omega @ th)
    assert objective(design, fit) == pytest.approx(value, abs=1e-12)


# ------------------------------------------------------------ block updates


def test_update_mu_k_zero_column():
    rng = np.random.default_rng(2)
    _, basis, design = make_instance(rng)
    X = design.X.copy()
    X[:, 1] = 0.0
    degenerate = replace(design, X=X)
    with pytest.raises(DegenerateColumnError, match="column 1"):
        fit_bcd(degenerate, basis, PenaltyConfig(0.1, 0.01), SolverOptions())


def solve_in_block_coordinates(factor, z, lambda1, s0=0.0):
    """The block solve for a correlation z in the block's own coordinates, rotated back."""
    return factor.v @ _solve_block_subproblem(factor, factor.v.T @ z, lambda1, s0)


# the vc-ridge block update: lambda1 = 0 leaves the ridge smoother (G_k + 2 lambda2 Omega)^+ z


def test_ridge_smooth_zero_residual():
    rng = np.random.default_rng(4)
    _, basis, design = make_instance(rng)
    factor = precompute_block_factors(design, basis, 0.1)[0]
    assert np.allclose(_solve_block_subproblem(factor, np.zeros(basis.q), 0.0), 0.0)


def test_ridge_smooth_identity_gram():
    # lambda2 = 0 and Z with orthonormal columns scaled by sqrt(n):
    # the update reduces to Z'r/n
    rng = np.random.default_rng(5)
    n, q = 32, 6
    M = rng.standard_normal((n, q))
    Q_mat, _ = np.linalg.qr(M)
    Z = Q_mat * np.sqrt(n)
    factor = BlockFactor(*np.linalg.eigh(Z.T @ Z / n))
    r = rng.standard_normal(n)
    assert np.allclose(solve_in_block_coordinates(factor, Z.T @ r / n, 0.0), Z.T @ r / n,
                       atol=1e-12)


def test_ridge_smooth_solves_linear_system():
    rng = np.random.default_rng(6)
    _, basis, design = make_instance(rng)
    lam2 = 0.3
    factor = precompute_block_factors(design, basis, lam2)[1]
    r = rng.standard_normal(design.n)
    rhs = design.Z[1].T @ r / design.n
    theta = solve_in_block_coordinates(factor, rhs, 0.0)
    G = design.Z[1].T @ design.Z[1] / design.n
    lhs = (G + 2 * lam2 * basis.omega) @ theta
    assert np.linalg.norm(lhs - rhs) < 1e-10


# ------------------------------------------------------------- block solve

EPS = np.finfo(float).eps


def brentq_block_solve(factor, z, lambda1):
    """Reference block solve: bracketed brentq on the secular equation, kept directions only."""
    brentq = pytest.importorskip("scipy.optimize").brentq
    w, v = factor.w, factor.v
    zt = (v.T @ z) * factor.kept
    if lambda1 <= 0.0:
        return v @ (zt * factor.inv_w)
    norm_z = float(np.linalg.norm(zt))
    if norm_z <= lambda1 * (1.0 + 1e-12):
        return np.zeros_like(z)
    zt2 = zt * zt

    def excess(s):
        return float(np.sum(zt2 / (w * s + lambda1) ** 2)) - 1.0

    if excess(0.0) <= 0.0:
        return np.zeros_like(z)
    s_hi = (norm_z - lambda1) / factor.w_pos_min
    while excess(s_hi) > 0.0:
        s_hi *= 2.0
    s = brentq(excess, 0.0, s_hi, xtol=1e-300, rtol=4 * EPS, maxiter=200)
    return v @ (zt / (w + lambda1 / s))


def block_with_null_vector(seed, log_eigs):
    """Random block matrix with one zero eigenvalue and its orthonormal eigenbasis."""
    q = len(log_eigs) + 1
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.standard_normal((q, q)))
    w = np.concatenate([[0.0], 10.0 ** np.asarray(log_eigs)])
    return (V * w) @ V.T, V, rng


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.floats(-2.0, 5.0), min_size=2, max_size=13),
       st.one_of(st.just(0.0), st.floats(-4.0, 2.0).map(lambda e: 10.0 ** e)),
       st.one_of(st.floats(-0.9, 0.0), st.floats(-11.0, 1.0).map(lambda e: 10.0 ** e)),
       st.one_of(st.just("zero"), st.just("huge"), st.floats(-6.0, 6.0),
                 st.tuples(st.sampled_from((-1.0, 1.0)), st.integers(2, 12))))
# from far right of the root, the first Newton step lands left of it at a
# point where the next step is no guide to the one after: the stop on
# predicted convergence must wait for two steps from the left
@example(1596948134, [2.3, 3.5, 4.0, 2.8, 3.2, -1.7, 1.6], 10.0 ** -0.9, 10.0 ** 0.4, "huge")
def test_block_solve_matches_brentq_reference(seed, log_eigs, lam1, delta, start):
    # eigenvalues span 1e-2..1e5 (desk blocks span 0.06..5.4e4); z lies in the
    # range of M with ||z|| = lambda1 (1 + delta), so small delta probes the
    # zero boundary; the Newton start s0 is 0, far beyond any bracket, the
    # reference norm scaled by 10^start, on either side of the root, or that
    # norm times 1 -+ 10^-k, near the root, where the iteration stops on
    # predicted convergence after its second evaluation
    M, V, rng = block_with_null_vector(seed, log_eigs)
    factor = BlockFactor(*np.linalg.eigh(M))
    z = V[:, 1:] @ rng.standard_normal(len(log_eigs))
    z *= (lam1 if lam1 > 0.0 else 1.0) * (1.0 + delta) / np.linalg.norm(z)
    ref = brentq_block_solve(factor, z, lam1)
    norm_ref = float(np.linalg.norm(ref))
    if isinstance(start, tuple):
        side, k = start
        s0 = norm_ref * (1.0 + side * 10.0 ** -k)
    elif isinstance(start, str):
        s0 = {"zero": 0.0, "huge": 1e300}[start]
    else:
        s0 = norm_ref * 10.0 ** start
    theta = solve_in_block_coordinates(factor, z, lam1, s0)
    assert theta.any() == ref.any()
    # the solve drops z's component along the computed null vector, which
    # eigh mixes with the next eigenvector by up to eps ||M|| / w_1
    z = factor.v @ ((factor.v.T @ z) * factor.kept)
    norm_z = math.sqrt(z @ z)
    if not ref.any():
        assert norm_z <= lam1 * (1.0 + 1e-12)
        return
    # near the boundary the block norm is only determined to about
    # eps * lambda1 / (||z|| - lambda1) relative, for either root finder
    slack = 16 * EPS * lam1 / (norm_z - lam1) if lam1 > 0.0 else 0.0
    assert np.linalg.norm(theta - ref) <= (1e-12 + slack) * np.linalg.norm(ref)
    norm_th = math.sqrt(theta @ theta)
    grad = M @ theta - z + (lam1 / norm_th) * theta
    # a rounded theta is exact for a block matrix perturbed by eps ||M||
    assert np.linalg.norm(grad) <= (1e-10 * (1.0 + norm_z)
                                    + 64 * EPS * np.linalg.norm(M, 2) * norm_th)


@pytest.mark.parametrize("lam1", [1.0, 1e-16, 1e-300, 0.0])
def test_block_solve_drops_the_null_directions(lam1):
    # a component along the truncated null direction is roundoff of a
    # correlation the data cannot carry: with it the stationarity equation had
    # no root, and a tiny lambda1 put lambda1/s into theta along it.  From
    # any start the solve gives what it gives without that component, and
    # lambda1 = 1e-16 or 1e-300 gives the lambda1 = 0 fit
    M, V, rng = block_with_null_vector(7, [0.0, 1.0, 2.0])
    factor = BlockFactor(*np.linalg.eigh(M))
    assert factor.kept.tolist() == [0.0, 1.0, 1.0, 1.0]
    z_seen = 2.0 * V[:, 1:] @ rng.standard_normal(3)
    z = z_seen + 2.0 * V[:, 0]
    want = solve_in_block_coordinates(factor, z_seen, lam1)
    for s0 in (0.0, 0.5, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta = solve_in_block_coordinates(factor, z, lam1, s0)
        assert np.linalg.norm(theta - want) <= 1e-13 * np.linalg.norm(want)
        assert abs(V[:, 0] @ theta) <= 1e-14 * np.linalg.norm(theta)
    if lam1 < 1e-15:
        ridge = solve_in_block_coordinates(factor, z, 0.0)
        assert np.linalg.norm(want - ridge) <= 1e-13 * np.linalg.norm(ridge)


def test_block_solve_bisects_when_the_slope_overflows():
    # at s = 0 the slope sum a_i w_i / lambda1^3 overflows: its Newton step
    # was 0, which the stop test took for convergence, dividing lambda1 by
    # s = 0; the step from 0 is now taken in closed form
    w = np.array([1e290, 1e300])
    z = np.array([1.0, 1.0])
    lam1 = 1e-4
    with np.errstate(over="ignore"):
        theta = _solve_block_subproblem(BlockFactor(w, np.eye(2)), z, lam1)
    scaled = theta * 1e290                  # ||theta|| ~ 1e-290: its square underflows
    grad = w * theta - z + lam1 * scaled / np.linalg.norm(scaled)
    assert np.isfinite(theta).all() and np.abs(grad).max() <= 1e-12


# ------------------------------------------------------------------ fit_bcd


def test_noiseless_constant_recovery():
    rng = np.random.default_rng(7)
    basis = build_basis(SplineConfig.from_q(6))
    sids = np.repeat([f"s{i}" for i in range(20)], 4)
    t = rng.uniform(0, 1, 80)
    X = np.repeat(rng.standard_normal((20, 2)), 4, axis=0)
    y = X @ np.array([2.0, -1.0])
    ds = from_arrays(sids, t, y, X, rescale=False)
    design = build_design(ds, basis)
    fit = fit_bcd(design, basis, PenaltyConfig(lambda1=10.0, lambda2=0.0), TIGHT)
    assert np.allclose(fit.mu, [2.0, -1.0], atol=1e-6)
    assert all(not np.any(th) for th in fit.theta)


def test_zero_response_gives_zero_fit():
    rng = np.random.default_rng(8)
    ds, basis, design = make_instance(rng)
    y0 = np.zeros(design.n)
    design0 = replace(design, y=y0)
    fit = fit_bcd(design0, basis, PenaltyConfig(0.5, 0.1), SolverOptions())
    assert fit.beta0 == 0.0
    assert np.allclose(fit.mu, 0.0, atol=1e-14)
    assert all(not np.any(th) for th in fit.theta)
    assert fit.iterations == 1


@pytest.mark.parametrize("intercept", [True, False])
def test_bcd_matches_oracle_small_instance(intercept):
    rng = np.random.default_rng(9)
    ds, basis, _ = make_instance(rng, N=20, n_i=4, p=3, q=6)
    design = replace(build_design(ds, basis), intercept_included=intercept)
    l1max = lambda1_max(design)
    pen = PenaltyConfig(lambda1=0.3 * l1max, lambda2=0.2)
    fit = fit_bcd(design, basis, pen, TIGHT)
    orc = fit_oracle(design, basis, pen)
    qb, qo = objective(design, fit), objective(design, orc)
    assert abs(qb - qo) / (1 + qo) < 1e-6


def test_monotone_objective_trace():
    rng = np.random.default_rng(10)
    for _ in range(5):
        _, basis, design = make_instance(rng)
        pen = PenaltyConfig(rng.uniform(0, 0.5), rng.uniform(0, 1))
        fit = fit_bcd(design, basis, pen, SolverOptions())
        diffs = np.diff(fit.objective_trace)
        assert diffs.max(initial=-np.inf) <= 1e-12


@pytest.mark.parametrize("lam1_share", [0.0, 0.3])
@pytest.mark.parametrize("lam2", [0.0, 0.05])
def test_cached_objective_trace_matches_recomputed_objective(lam1_share, lam2):
    # a saturated instance (p*q = 48 > n = 40) converges slowly, so tol = 1e-16
    # runs past the residual refresh at sweep 50; the trace is built from
    # cached block penalties and a cached e'e
    rng = np.random.default_rng(17)
    _, basis, design = make_instance(rng, N=10, n_i=4, p=6, q=8)
    pen = PenaltyConfig(lam1_share * lambda1_max(design), lam2)
    fit = fit_bcd(design, basis, pen, SolverOptions(tol=1e-16, max_iter=60))
    assert fit.iterations > RESIDUAL_REFRESH_EVERY
    assert np.diff(fit.objective_trace).max() <= 1e-12
    assert fit.objective_trace[-1] == pytest.approx(objective(design, fit), rel=1e-12)


@pytest.mark.parametrize("path", [METHOD_VC_RIDGE, METHOD_GROUP_LASSO, "warm-start"])
def test_objective_trace_ends_at_the_objective_on_every_path(path):
    # lambda1 = 0 (vc-ridge), lambda2 = 0 (group-lasso) and a fit warm-started
    # from another lambda1 share the sweep's one running objective, refreshed
    # from the rotated Gram at sweep 50; each trace ends at the objective
    # recomputed on the design rows
    rng = np.random.default_rng(17)
    _, basis, design = make_instance(rng, N=10, n_i=4, p=6, q=8)
    options = SolverOptions(tol=1e-16, max_iter=60)
    pen = PenaltyConfig(0.3 * lambda1_max(design), 0.05)
    if path == "warm-start":
        warm = fit_bcd(design, basis, replace(pen, lambda1=0.5 * lambda1_max(design)), options)
        fit = fit_bcd(design, basis, pen, options, init=warm)
    else:
        fit = fit_baseline(design, basis, path, pen, options)
    assert fit.iterations > RESIDUAL_REFRESH_EVERY
    assert np.diff(fit.objective_trace).max() <= 1e-12
    assert fit.objective_trace[-1] == pytest.approx(objective(design, fit), rel=1e-12)


def test_kkt_conditions_at_convergence():
    rng = np.random.default_rng(11)
    for _ in range(5):
        _, basis, design = make_instance(rng, N=25, n_i=4, p=4, q=6)
        l1max = lambda1_max(design)
        lam1 = rng.uniform(0.1, 0.9) * l1max
        lam2 = rng.uniform(0, 0.5)
        fit = fit_bcd(design, basis, PenaltyConfig(lam1, lam2), TIGHT)
        e = residuals(design, fit)
        omega = basis.omega
        n = design.n
        for k, th in enumerate(fit.theta):
            grad_corr = design.Z[k].T @ e / n
            if not np.any(th):
                assert np.linalg.norm(grad_corr) <= lam1 + 1e-6
            else:
                stat = -grad_corr + 2 * lam2 * omega @ th \
                    + lam1 * th / np.linalg.norm(th)
                assert np.linalg.norm(stat) < 1e-5


def test_bit_identical_refits():
    rng = np.random.default_rng(12)
    _, basis, design = make_instance(rng)
    pen = PenaltyConfig(0.1, 0.05)
    a = fit_bcd(design, basis, pen, SolverOptions())
    b = fit_bcd(design, basis, pen, SolverOptions())
    assert a.beta0 == b.beta0
    assert np.array_equal(a.mu, b.mu)
    assert all(np.array_equal(x, y) for x, y in zip(a.theta, b.theta))
    assert np.array_equal(a.objective_trace, b.objective_trace)


def test_warm_start_reaches_same_objective():
    rng = np.random.default_rng(13)
    _, basis, design = make_instance(rng)
    l1max = lambda1_max(design)
    pen_hi = PenaltyConfig(0.8 * l1max, 0.01)
    pen_lo = PenaltyConfig(0.2 * l1max, 0.01)
    warm = fit_bcd(design, basis, pen_hi, TIGHT)
    cold = fit_bcd(design, basis, pen_lo, TIGHT)
    warmstarted = fit_bcd(design, basis, pen_lo, TIGHT, init=warm)
    assert objective(design, warmstarted) == pytest.approx(objective(design, cold), abs=1e-9)


def test_nonconvergence_reported_not_raised():
    rng = np.random.default_rng(14)
    _, basis, design = make_instance(rng)
    fit = fit_bcd(design, basis, PenaltyConfig(0.01, 0.0),
                  SolverOptions(tol=1e-16, max_iter=2))
    assert fit.converged is False
    assert fit.iterations == 2


def test_fit_bcd_refuses_rank_deficient_constant_design():
    # scenario A's covariates are constant within a subject, so 20 subjects
    # give [1 X] 21 columns of rank 20: mu is not identified
    spec = make_scenario("A", N=20, n_i=5, p=20)
    basis = build_basis(SplineConfig.from_q(spec.q))
    design = build_design(standardize(generate(spec, seed=3)), basis)
    assert design.intercept_included
    with pytest.raises(DegenerateDesignError, match="rank-deficient"):
        fit_bcd(design, basis, PenaltyConfig(0.1, 0.01))


def test_fit_bcd_refuses_collinear_design_without_intercept():
    rng = np.random.default_rng(16)
    _, basis, design = make_instance(rng)
    X = design.X.copy()
    X[:, 2] = 2.0 * X[:, 0]
    collinear = replace(design, X=X, intercept_included=False)
    with pytest.raises(DegenerateDesignError, match="rank-deficient"):
        fit_bcd(collinear, basis, PenaltyConfig(0.1, 0.01))


# ------------------------------------------------------------ Gram form


def stacked_design(design):
    """[A y] for A = [C Z_1 ... Z_p], written out whole."""
    return np.column_stack([_constant_design(design), *design.Z, design.y])


@pytest.mark.parametrize("intercept", [True, False])
def test_design_gram_matches_stacked_product(monkeypatch, intercept):
    # 7-row chunks: several full chunks and a partial last one
    monkeypatch.setattr(data, "GRAM_CHUNK_ROWS", (7, 7))
    rng = np.random.default_rng(40)
    _, basis, design = make_instance(rng, N=13, n_i=4, p=3, q=6)
    design = replace(design, intercept_included=intercept)
    Ay = stacked_design(design)
    want = Ay.T @ Ay
    got = design_gram(design)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(got, got.T)
    # the same sum of 7-row chunk products, each chunk cut from the blocks
    # of `design.Z`: block rows formed in the chunk are the same products
    by_chunk = np.zeros_like(want)
    for start in range(0, len(Ay), 7):
        At = np.ascontiguousarray(Ay[start:start + 7].T)
        by_chunk += At @ At.T
    assert np.array_equal(got, by_chunk)


def test_with_gram_rejects_gram_of_another_shape():
    rng = np.random.default_rng(42)
    _, _, design = make_instance(rng)
    gram = design_gram(replace(design, intercept_included=False))
    with pytest.raises(DimensionError, match="Gram"):
        design.with_gram(gram)


def test_non_finite_gram_is_refused():
    rng = np.random.default_rng(43)
    _, _, design = make_instance(rng)
    big = replace(design, y=design.y * 1e160)       # y'y overflows
    with pytest.raises(DegenerateDesignError, match="not finite"):
        design_gram(big)
    gram = design.gram.copy()
    gram[0, -1] = gram[-1, 0] = np.nan
    with pytest.raises(DegenerateDesignError, match="not finite"):
        design.with_gram(gram)


def test_design_gram_is_formed_once_per_design(monkeypatch):
    # every method of a study replication reads the one Gram of its design and
    # its one cold start (one eigen check of C'C); the design keeps the sweep
    # tables of the last lambda2 swept only, so the tv-select grid forms one
    # factor set per lambda2, group-lasso and screen-refit share the one of
    # lambda2 = 0, and vc-ridge forms the grid's again
    calls, factors, eigen_checks, factored = [], [], [], []

    def counted(design):
        calls.append(design.n)
        return real(design)

    def counted_factors(design, basis, lambda2):
        factored.append(lambda2)
        return real_factors(design, basis, lambda2)

    class CountedFactor(BlockFactor):
        def __init__(self, w, v):
            factors.append(v.shape)
            super().__init__(w, v)

    def counted_eigvalsh(mat):
        eigen_checks.append(mat.shape)
        return real_eigvalsh(mat)

    spec = make_scenario("A", N=30, n_i=4, p=6, s_v=1, s_c=1, q=6, rho=0.0)
    basis = build_basis(SplineConfig.from_q(spec.q))
    design = build_design(standardize(generate(spec, seed=5)), basis)
    real, real_eigvalsh = data.design_gram, np.linalg.eigvalsh
    real_factors = solver.precompute_block_factors
    monkeypatch.setattr(data, "design_gram", counted)
    monkeypatch.setattr(solver, "precompute_block_factors", counted_factors)
    monkeypatch.setattr(solver, "BlockFactor", CountedFactor)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    opts = StudyOptions(lambda1_count=3, lambda2_values=(1e-2, 1e-4), n_test=50)
    fits = fit_study_methods(design, basis, opts)
    assert sorted(fits) == sorted(opts.methods)
    assert all(fit.method == method for method, fit in fits.items())
    assert calls == [design.n]
    assert len(factors) == (2 * len(opts.lambda2_values) + 1) * design.p
    assert factored == [1e-2, 1e-4, 0.0, 1e-2, 1e-4]
    assert list(design.solver_slot) == [(1e-4, basis.omega.tobytes())]
    assert eigen_checks == [(design.p + 1, design.p + 1)]
    with pytest.raises(ValueError):
        design.gram[0, 0] = 1.0
    with pytest.raises(ValueError):
        design.cold_constants[0] = 1.0


def test_replaced_design_forms_its_own_gram():
    # a copy forms its own Gram, cold start and sweep tables, never its source's
    rng = np.random.default_rng(43)
    _, basis, design = make_instance(rng)
    pen = PenaltyConfig(0.1, 0.01)
    fit_bcd(design, basis, pen)
    assert design.gram.shape == (design.p + 1 + design.p * design.q + 1,) * 2
    no_intercept = replace(design, intercept_included=False)
    scaled = design.with_gram(2.0 * design.gram)
    for copy in (no_intercept, scaled):
        assert copy.solver_slot == {} and "cold_constants" not in vars(copy)
        fit_bcd(copy, basis, pen)
        assert len(copy.cold_constants) == design.p + copy.intercept_included
        (key, mine), = copy.solver_slot.items()
        theirs = design.solver_slot[key]
        assert all(a is not b for a, b in zip(mine[0], theirs[0]))      # block factors
        assert all(a is not b for a, b in zip(mine[1:4], theirs[1:4]))  # and arrays
    assert np.array_equal(no_intercept.gram, design_gram(no_intercept))
    assert no_intercept.gram.shape[0] == design.gram.shape[0] - 1
    assert np.array_equal(scaled.cold_constants, np.linalg.solve(
        scaled.gram[:design.p + 1, :design.p + 1], scaled.gram[:design.p + 1, -1]))


@pytest.mark.parametrize("method", [METHOD_TV_SELECT, METHOD_VC_RIDGE, METHOD_GROUP_LASSO,
                                    METHOD_SCREEN_REFIT])
def test_fits_from_the_design_cache_match_fits_on_a_fresh_design(method):
    # a basis of the same q with other knots has its own Omega, so it never
    # reuses the factors of another basis at the same lambda2
    rng = np.random.default_rng(44)
    ds, basis, design = make_instance(rng, theta_scale=2.0)
    other = build_basis(SplineConfig(num_internal_knots=basis.q - 4,
                                     knot_placement=TIME_QUANTILES), observed_times=ds.times)
    assert other.q == basis.q
    assert not np.array_equal(other.omega, basis.omega)
    pen = PenaltyConfig(0.2 * lambda1_max(design), 0.01)

    def fit(d, b):
        if method == METHOD_TV_SELECT:
            return fit_bcd(d, b, pen)
        return fit_baseline(d, b, method, pen)

    for b in (basis, other, basis, other):
        got, want = fit(design, b), fit(replace(design), b)
        assert got.method == want.method == method
        assert got.beta0 == want.beta0 and np.array_equal(got.mu, want.mu)
        assert np.array_equal(np.array(got.theta), np.array(want.theta))
        assert np.array_equal(got.objective_trace, want.objective_trace)
        assert [omega for _, omega in design.solver_slot] == [b.omega.tobytes()]


def test_a_design_keeps_the_sweep_tables_of_the_last_penalty_only():
    # one slot per design: a fit at a new (lambda2, Omega) replaces the tables,
    # and a fit at the same one reads them again without forming them
    rng = np.random.default_rng(45)
    ds, basis, design = make_instance(rng)
    other = build_basis(SplineConfig(num_internal_knots=basis.q - 4,
                                     knot_placement=TIME_QUANTILES), observed_times=ds.times)
    for b, lam2 in ((basis, 1e-2), (basis, 1e-4), (basis, 0.0), (other, 0.0), (basis, 1e-2)):
        fit_bcd(design, b, PenaltyConfig(0.1 * lambda1_max(design), lam2))
        assert list(design.solver_slot) == [(lam2, b.omega.tobytes())]
    tables = design.solver_slot[(1e-2, basis.omega.tobytes())]
    fit_baseline(design, basis, METHOD_VC_RIDGE, PenaltyConfig(0.0, 1e-2))
    assert _sweep_tables(design, basis, 1e-2) is tables and len(design.solver_slot) == 1


def gauss_seidel_pass(ctc, cte):
    """One Gauss-Seidel pass over the constants, coordinate by coordinate.

    c_j moves by its correlation with the running residual over c_j'c_j,
    which changes C'e by that step times column j of C'C.  Returns the step.
    """
    cte = cte.copy()
    dc = np.zeros(len(cte))
    for j in range(len(cte)):
        dc[j] = cte[j] / ctc[j, j]
        cte -= dc[j] * ctc[j]
    return dc


@pytest.mark.parametrize("intercept", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_constants_step_is_one_gauss_seidel_pass(seed, intercept):
    # the sweep tables' inv(tril(C'C)) gives in one product the step of the
    # sequential pass that `row_form_bcd` runs
    rng = np.random.default_rng(70 + seed)
    _, basis, design = make_instance(rng, N=15, n_i=4, p=2 + 2 * seed, q=6)
    design = replace(design, intercept_included=intercept)
    m = design.p + intercept
    ctc = design.gram[:m, :m]
    assert np.linalg.cond(ctc) < 1e3
    gauss_seidel = _sweep_tables(design, basis, 0.0)[1]
    for cte in rng.standard_normal((5, m)) * 10.0 ** rng.uniform(-3, 3, (5, 1)):
        want = gauss_seidel_pass(ctc, cte)
        assert np.linalg.norm(gauss_seidel.dot(cte) - want) <= 1e-13 * np.linalg.norm(want)


def row_form_bcd(design, basis, penalty, options):
    """Reference BCD that keeps the residual e itself on the design rows.

    The same sweep as `fit_bcd` (constants in covariance form, then exact
    block solves with the halving guard and a refresh every
    RESIDUAL_REFRESH_EVERY sweeps), but each block update passes over the
    rows: r = e + Z_k theta_k, Z_k' r, r - Z_k theta_new and its norm.
    """
    y, Z, n, p = design.y, design.Z, design.n, design.p
    omega = basis.omega
    lam1, lam2 = penalty.lambda1, penalty.lambda2
    C = _constant_design(design)
    ctc = C.T @ C
    factors = [BlockFactor(*np.linalg.eigh(Zk.T @ Zk / n + 2.0 * lam2 * omega)) for Zk in Z]
    c = np.linalg.solve(ctc, C.T @ y)
    theta = [np.zeros(basis.q) for _ in range(p)]
    norms = [0.0] * p
    pen = [0.0] * p

    def residual():
        beta0, mu = (float(c[0]), c[1:]) if design.intercept_included else (0.0, c)
        return y - _predictor(design.X, design.B, beta0, mu, theta)

    e = residual()
    ee = float(e @ e)

    def current_objective():
        val = 0.0
        for pen_k in pen:
            val += pen_k
        return 0.5 / n * ee + val

    trace = [current_objective()]
    sweeps = 0
    for sweep in range(1, options.max_iter + 1):
        sweeps = sweep
        if sweep % RESIDUAL_REFRESH_EVERY == 0:
            e = residual()
        dc = gauss_seidel_pass(ctc, C.T @ e)
        c += dc
        e = e - C @ dc
        ee = float(e @ e)
        for k in range(p):
            th_old, nrm_old = theta[k], norms[k]
            r = e + Z[k] @ th_old
            th_new = solve_in_block_coordinates(factors[k], Z[k].T @ r / n, lam1, nrm_old)
            nrm_new = math.sqrt(th_new @ th_new)
            if nrm_old == 0.0 and nrm_new == 0.0:
                continue
            e_new = r - Z[k] @ th_new
            pen_new = _penalty_value([th_new], penalty, omega)
            ee_new = float(e_new @ e_new)
            base = 0.5 / n * ee + pen[k]
            cand = 0.5 / n * ee_new + pen_new
            tries = 0
            while cand > base and tries < 20:
                th_new = th_old + 0.5 * (th_new - th_old)
                nrm_new = math.sqrt(th_new @ th_new)
                e_new = r - Z[k] @ th_new
                pen_new = _penalty_value([th_new], penalty, omega)
                ee_new = float(e_new @ e_new)
                cand = 0.5 / n * ee_new + pen_new
                tries += 1
            if cand > base:
                continue
            theta[k], norms[k], pen[k] = th_new, nrm_new, pen_new
            e, ee = e_new, ee_new
        trace.append(current_objective())
        if abs(trace[-1] - trace[-2]) / (1.0 + trace[-2]) < options.tol:
            break
    return c, theta, sweeps


@pytest.mark.parametrize("seed", range(3))
def test_gram_form_sweeps_follow_the_row_form(seed):
    rng = np.random.default_rng(50 + seed)
    _, basis, design = make_instance(rng, N=15, n_i=4, p=3, q=6)
    if seed % 2:
        design = replace(design, intercept_included=False)
    pen = PenaltyConfig(rng.uniform(0.05, 0.6) * lambda1_max(design), rng.choice([0.0, 0.01]))
    c, theta, sweeps = row_form_bcd(design, basis, pen, SolverOptions())
    fit = fit_bcd(design, basis, pen, SolverOptions())
    assert fit.iterations == sweeps
    assert np.abs(np.append(fit.beta0, fit.mu)[-len(c):] - c).max() <= 1e-10
    assert np.abs(np.array(fit.theta) - np.array(theta)).max() <= 1e-10


@pytest.mark.parametrize("seed, lam2", [(53, 0.0), (54, 0.01), (56, 0.0)])
def test_gram_form_sweeps_follow_the_row_form_past_the_refresh(seed, lam2):
    # saturated (p q = 48 > n = 40): 57-87 sweeps, past the refresh at sweep 50
    rng = np.random.default_rng(seed)
    _, basis, design = make_instance(rng, N=10, n_i=4, p=6, q=8)
    if seed % 2:
        design = replace(design, intercept_included=False)
    pen = PenaltyConfig(0.05 * lambda1_max(design), lam2)
    options = SolverOptions(tol=1e-9, max_iter=300)
    c, theta, sweeps = row_form_bcd(design, basis, pen, options)
    fit = fit_bcd(design, basis, pen, options)
    assert fit.iterations == sweeps > RESIDUAL_REFRESH_EVERY
    assert np.abs(np.append(fit.beta0, fit.mu)[-len(c):] - c).max() <= 1e-10
    assert np.abs(np.array(fit.theta) - np.array(theta)).max() <= 1e-10


# sweeps per cell of the grid below, recorded with the coordinate-by-coordinate
# Gauss-Seidel pass over the constants and a Newton that confirms each step
GRID_SWEEPS_SEED80 = [[1, 1, 1], [2, 4, 6], [4, 4, 10], [4, 4, 25], [3, 4, 62],
                      [3, 3, 118], [2, 2, 124], [2, 2, 95], [1, 1, 62], [1, 1, 36]]


def test_grid_fits_keep_their_recorded_sweeps_and_coefficients():
    # a sweep that does less work must take the same steps: every cell of a
    # warm-started 10 x 3 path (lambda2 = 0 included, 124 sweeps at most,
    # past the refresh) keeps its sweep count and its coefficients to 1e-10
    _, basis, design = make_instance(np.random.default_rng(80), N=15, n_i=4, p=3, q=6)
    grid = default_grid(design, lambda1_count=10, lambda2_values=(0.1, 1e-3, 0.0))
    surface, fits, failed, nonconverged = _fit_grid(design, basis, grid, SolverOptions(),
                                                    METHOD_TV_SELECT, lambda fit: fit.iterations)
    assert not failed and not nonconverged
    with open(os.path.join(os.path.dirname(__file__), "data", "fit_grid_seed80.json")) as fh:
        recorded = np.array(json.load(fh)["coefficients"])
    sweeps = [[fits[(i, j)].iterations for j in range(3)] for i in range(10)]
    assert sweeps == GRID_SWEEPS_SEED80
    assert surface.tolist() == GRID_SWEEPS_SEED80        # each cell scores its own fit
    coef = np.array([[np.concatenate([[fits[(i, j)].beta0], fits[(i, j)].mu, *fits[(i, j)].theta])
                      for j in range(3)] for i in range(10)])
    assert np.abs(coef - recorded).max() <= 1e-10


@pytest.mark.parametrize("intercept", [True, False])
@pytest.mark.parametrize("method", [METHOD_TV_SELECT, METHOD_VC_RIDGE, METHOD_GROUP_LASSO,
                                    METHOD_SCREEN_REFIT])
def test_fits_read_no_design_row(method, intercept):
    # given the Gram of [A y], a fit on a design whose y, X and B are all NaN
    # is bit-identical to the fit on the real rows
    rng = np.random.default_rng(60)
    _, basis, design = make_instance(rng, theta_scale=2.0)
    design = replace(design, intercept_included=intercept)
    blank = replace(design, y=np.full_like(design.y, np.nan),
                    X=np.full_like(design.X, np.nan),
                    B=np.full_like(design.B, np.nan)).with_gram(design.gram)
    pen = PenaltyConfig(0.2 * lambda1_max(design), 0.01)

    def fit(d):
        if method == METHOD_TV_SELECT:
            return fit_bcd(d, basis, pen)
        return fit_baseline(d, basis, method, pen)

    want, got = fit(design), fit(blank)
    assert any(np.any(th) for th in want.theta)
    assert got.beta0 == want.beta0 and np.array_equal(got.mu, want.mu)
    assert np.array_equal(np.array(got.theta), np.array(want.theta))
    assert np.array_equal(got.objective_trace, want.objective_trace)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)


# ---------------------------------------------------------------- baselines


def test_vc_ridge_keeps_all_blocks_active():
    rng = np.random.default_rng(15)
    _, basis, design = make_instance(rng, sigma=1.0)
    fit = fit_baseline(design, basis, METHOD_VC_RIDGE,
                       PenaltyConfig(lambda1=99.0, lambda2=0.01), SolverOptions())
    # lambda1 is forced to zero: no thresholding, no exact zeros
    assert fit.penalty.lambda1 == 0.0
    assert all(np.linalg.norm(th) > 0 for th in fit.theta)


def test_group_lasso_above_lambda_max_is_empty():
    rng = np.random.default_rng(16)
    _, basis, design = make_instance(rng)
    l1max = lambda1_max(design)
    fit = fit_baseline(design, basis, METHOD_GROUP_LASSO,
                       PenaltyConfig(1.01 * l1max, 0.7), SolverOptions())
    assert fit.penalty.lambda2 == 0.0
    assert all(not np.any(th) for th in fit.theta)


def test_group_lasso_at_zero_selects_generic():
    rng = np.random.default_rng(17)
    _, basis, design = make_instance(rng)
    fit = fit_baseline(design, basis, METHOD_GROUP_LASSO,
                       PenaltyConfig(0.0, 0.0), SolverOptions())
    assert any(np.linalg.norm(th) > 0 for th in fit.theta)


@pytest.mark.parametrize("intercept", [True, False])
def test_screen_refit_empty_screen_is_constants_least_squares(intercept):
    rng = np.random.default_rng(18)
    ds, basis, _ = make_instance(rng)
    design = replace(build_design(ds, basis), intercept_included=intercept)
    l1max = lambda1_max(design)
    fit = fit_baseline(design, basis, METHOD_SCREEN_REFIT,
                       PenaltyConfig(1.5 * l1max, 0.0), TIGHT)
    assert all(not np.any(th) for th in fit.theta)
    A = np.column_stack([np.ones(design.n), design.X]) if intercept else design.X
    coef = np.linalg.solve(A.T @ A, A.T @ design.y)
    assert fit.beta0 == pytest.approx(coef[0] if intercept else 0.0, abs=1e-8)
    assert np.allclose(fit.mu, coef[-design.p:], atol=1e-8)


def test_screen_refit_refits_selected_blocks():
    rng = np.random.default_rng(19)
    _, basis, design = make_instance(rng, theta_scale=2.0)
    l1max = lambda1_max(design)
    pen = PenaltyConfig(0.2 * l1max, 0.0)
    screen = fit_baseline(design, basis, METHOD_GROUP_LASSO, pen, SolverOptions())
    refit = fit_baseline(design, basis, METHOD_SCREEN_REFIT, pen, SolverOptions())
    selected = {k for k, th in enumerate(screen.theta) if np.any(th)}
    assert {k for k, th in enumerate(refit.theta) if np.any(th)} == selected


def test_screen_refit_records_the_penalty_it_fits():
    rng = np.random.default_rng(19)
    _, basis, design = make_instance(rng, theta_scale=2.0)
    lam1 = 0.2 * lambda1_max(design)
    fit = fit_baseline(design, basis, METHOD_SCREEN_REFIT, PenaltyConfig(lam1, 0.5),
                       SolverOptions())
    assert fit.penalty == PenaltyConfig(lam1, 0.0)


def stacked_refit(design, basis, selected, lambda2):
    """Ridge least squares on the rows of [C Z_S], stacked with sqrt(2 n lambda2)
    Omega^(1/2) rows per block, by lstsq; and its residual sum of squares.

    Each block's ones component, on which the loss and Omega are flat, is
    removed: that is the minimum-norm solution.
    """
    A = np.hstack([_constant_design(design)] + [design.Z[k] for k in selected])
    w, v = np.linalg.eigh(basis.omega)
    root = math.sqrt(2.0 * design.n * lambda2) * (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    m, q = A.shape[1] - len(selected) * basis.q, basis.q
    ridge = np.zeros((len(selected) * q, A.shape[1]))
    for j in range(len(selected)):
        ridge[j * q:(j + 1) * q, m + j * q:m + (j + 1) * q] = root
    coef, *_ = np.linalg.lstsq(np.vstack([A, ridge]),
                               np.append(design.y, np.zeros(len(ridge))), rcond=None)
    e = design.y - A @ coef
    blocks = coef[m:].reshape(len(selected), q)
    coef[m:] = (blocks - blocks.mean(axis=1, keepdims=True)).ravel()
    return coef, float(e @ e)


@pytest.mark.parametrize("intercept, selected", [
    (True, [0, 2]), (False, [1]), (True, []), (False, []),
])
def test_joint_refit_matches_stacked_least_squares(intercept, selected):
    rng = np.random.default_rng(61)
    _, basis, design = make_instance(rng, theta_scale=2.0)
    design = replace(design, intercept_included=intercept)
    want, want_rss = stacked_refit(design, basis, selected, SCREEN_REFIT_LAMBDA2)
    x, rss = _joint_refit(design, basis, selected, SCREEN_REFIT_LAMBDA2)
    cols, _ = smooth_hessian(design, basis.omega, 0.0, selected)
    assert np.abs(x[cols] - want).max() <= 1e-10 * np.abs(want).max()
    assert not np.delete(x, cols).any()
    assert abs(rss - want_rss) <= 1e-10 * want_rss


@pytest.mark.parametrize("intercept", [True, False])
@pytest.mark.parametrize("blocks", [[0, 1, 2], [0, 2], [1], []])
def test_smooth_hessian_matches_the_rows(intercept, blocks):
    rng = np.random.default_rng(62)
    _, basis, design = make_instance(rng, q=7)
    design = replace(design, intercept_included=intercept)
    lam2 = 0.3
    cols, hess = smooth_hessian(design, basis.omega, lam2, blocks)
    A_S = np.hstack([_constant_design(design)] + [design.Z[k] for k in blocks])
    want = A_S.T @ A_S / design.n
    m = design.p + intercept
    for j in range(len(blocks)):
        sl = slice(m + j * basis.q, m + (j + 1) * basis.q)
        want[sl, sl] += 2.0 * lam2 * basis.omega
    full = np.hstack([_constant_design(design), *design.Z])
    assert np.array_equal(full[:, cols], A_S)
    assert np.abs(hess - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("intercept", [True, False])
@pytest.mark.parametrize("lam2", [0.0, 0.3])
def test_block_factors_are_the_smooth_hessians_diagonal_blocks(intercept, lam2):
    # the factorizations read G_kk from the design's Gram, with the same bits
    rng = np.random.default_rng(63)
    _, basis, design = make_instance(rng, q=7)
    design = replace(design, intercept_included=intercept)
    _, hess = smooth_hessian(design, basis.omega, lam2, range(design.p))
    w, v = np.linalg.eigh(np.stack([hess[sl, sl] for sl in design.block_slices]))
    got = precompute_block_factors(design, basis, lam2)
    assert len(got) == design.p
    for factor, want in zip(got, map(BlockFactor, w, v)):
        assert np.array_equal(factor.w, want.w) and np.array_equal(factor.v, want.v)


def test_unknown_method_rejected():
    rng = np.random.default_rng(20)
    _, basis, design = make_instance(rng)
    with pytest.raises(ConfigurationError):
        fit_baseline(design, basis, "magic", PenaltyConfig(0.1, 0.1), SolverOptions())


# ------------------------------------------------------------------- oracle


def test_oracle_unpenalized_matches_direct_least_squares():
    rng = np.random.default_rng(21)
    _, basis, design = make_instance(rng, N=16, n_i=3, p=2, q=4)
    fit = fit_oracle(design, basis, PenaltyConfig(0.0, 0.0))
    cols = [np.ones((design.n, 1)), design.X] + list(design.Z)
    A = np.hstack(cols)
    coef, *_ = np.linalg.lstsq(A, design.y, rcond=None)
    pred_direct = A @ coef
    pred_oracle = fitted_values(design, fit)
    assert np.abs(pred_direct - pred_oracle).max() < 1e-8


def test_oracle_zero_data():
    rng = np.random.default_rng(22)
    _, basis, design = make_instance(rng, N=8, n_i=3, p=2, q=5)
    design0 = replace(design, y=np.zeros(design.n), intercept_included=False)
    fit = fit_oracle(design0, basis, PenaltyConfig(0.2, 0.1))
    assert np.allclose(fit.mu, 0.0, atol=1e-12)
    assert all(np.allclose(th, 0.0, atol=1e-12) for th in fit.theta)


def test_oracle_never_worse_than_bcd():
    rng = np.random.default_rng(23)
    for _ in range(10):
        _, basis, design = make_instance(
            rng, N=int(rng.integers(8, 20)), n_i=3,
            p=int(rng.integers(2, 5)), q=int(rng.integers(4, 7)))
        l1max = lambda1_max(design)
        pen = PenaltyConfig(rng.uniform(0, 1) * l1max, rng.uniform(0, 1))
        bcd = fit_bcd(design, basis, pen, TIGHT)
        orc = fit_oracle(design, basis, pen)
        assert objective(design, orc) <= objective(design, bcd) + 1e-9


def oracle_certificate(design, basis, fit):
    """KKT residual of a fit and fit_oracle's gradient scale, recomputed here."""
    y, n, p = design.y, design.n, design.p
    C = np.column_stack([np.ones(n), design.X])
    A = np.hstack([C] + list(design.Z))
    off = 1 + p
    lam1, lam2 = fit.penalty.lambda1, fit.penalty.lambda2

    def grad(c):
        g = -(A.T @ (y - A @ c)) / n
        g[off:] += 2.0 * lam2 * (c[off:].reshape(p, -1) @ basis.omega).ravel()
        return g

    start = np.concatenate([np.linalg.lstsq(C, y, rcond=None)[0], np.zeros(p * basis.q)])
    c = np.concatenate([[fit.beta0], fit.mu, np.concatenate(fit.theta)])
    kkt = _oracle_kkt_residual(grad(c), np.vstack(fit.theta), off, lam1)
    return kkt, 1.0 + float(np.linalg.norm(grad(start)))


@pytest.mark.parametrize("lambda1_share", [0.2, 0.0])
def test_oracle_certifies_ill_conditioned_instance(lambda1_share):
    # at lambda1 = 0 the Newton system is singular along every block's ones vector
    rng = np.random.default_rng(77)
    _, basis, design = make_instance(rng, N=20, n_i=4, p=4, q=8)
    pen = PenaltyConfig(lambda1_share * lambda1_max(design), 0.95)
    # curvature term far above the data curvature (near 1): first-order steps stall
    assert 2.0 * pen.lambda2 * np.linalg.eigvalsh(basis.omega)[-1] > 1000.0
    orc = fit_oracle(design, basis, pen)
    kkt, grad_ref = oracle_certificate(design, basis, orc)
    assert kkt <= 1e-8 * grad_ref
    assert objective(design, orc) <= objective(design, fit_bcd(design, basis, pen, TIGHT)) + 1e-9


def test_oracle_certifies_stiff_instances_in_few_passes():
    # with lambda2 >= 1 the curvature term dwarfs the data curvature; the polish
    # Newton step takes it in stride, so each fit needs only a few passes
    rng = np.random.default_rng(29)
    for _ in range(30):
        p = int(rng.integers(1, 9))
        _, basis, design = make_instance(rng, N=int(rng.integers(p + 4, 31)),
                                         n_i=int(rng.integers(2, 6)), p=p,
                                         q=int(rng.integers(4, 9)))
        pen = PenaltyConfig(rng.uniform(0.0, 1.2) * lambda1_max(design), rng.uniform(1.0, 5.0))
        orc = fit_oracle(design, basis, pen)
        kkt, grad_ref = oracle_certificate(design, basis, orc)
        assert kkt <= 1e-8 * grad_ref
        assert orc.iterations <= 30


def duplicated_covariate_instance():
    """A design whose covariate 1 copies covariate 0, so [1 X] and Z_1 = Z_0 are collinear."""
    rng = np.random.default_rng(27)
    _, basis, design = make_instance(rng, N=15, n_i=4, p=3, q=8)
    X = design.X.copy()
    X[:, 1] = X[:, 0]
    return basis, replace(design, X=X), PenaltyConfig(0.3 * lambda1_max(design), 0.9)


def test_oracle_certifies_a_duplicated_covariate():
    # the Newton system is singular along (mu_0 - mu_1, theta_0 - theta_1); its
    # minimum-norm step has no component there
    basis, collinear, pen = duplicated_covariate_instance()
    orc = fit_oracle(collinear, basis, pen)
    kkt, grad_ref = oracle_certificate(collinear, basis, orc)
    assert kkt <= 1e-8 * grad_ref
    # the polish stops on the certificate, not at POLISH_MAX_ITER passes
    assert orc.iterations <= 20


@pytest.mark.parametrize("intercept", [True, False])
def test_polish_of_a_certified_point_takes_no_pass(intercept):
    rng = np.random.default_rng(28)
    _, basis, design = make_instance(rng, N=20, n_i=4, p=3, q=6)
    design = replace(design, intercept_included=intercept)
    pen = PenaltyConfig(0.3 * lambda1_max(design), 0.2)
    orc = fit_oracle(design, basis, pen)
    x = np.concatenate([[orc.beta0], orc.mu, orc.theta.ravel()])[1 - intercept:]
    A = np.hstack([_constant_design(design), *design.Z])
    off = len(x) - design.p * basis.q
    _, hess = smooth_hessian(design, basis.omega, pen.lambda2, range(design.p))

    def grad(c):
        g = -(A.T @ (design.y - A @ c)) / design.n
        g[off:] += 2.0 * pen.lambda2 * (c[off:].reshape(design.p, -1) @ basis.omega).ravel()
        return g

    start = np.zeros_like(x)
    start[:off] = np.linalg.lstsq(A[:, :off], design.y, rcond=None)[0]
    bound = solver.ORACLE_KKT_TOL * (1.0 + float(np.linalg.norm(grad(start))))
    polished = x.copy()
    assert solver._active_set_polish(polished, hess, grad, off, design.p, basis.q,
                                     pen.lambda1, bound) == 0
    assert np.array_equal(polished, x)


def test_oracle_raises_when_it_cannot_certify(monkeypatch):
    monkeypatch.setattr(solver, "POLISH_MAX_ITER", 0)
    basis, collinear, pen = duplicated_covariate_instance()
    with pytest.raises(OracleNonconvergenceError, match="KKT residual"):
        fit_oracle(collinear, basis, pen)


# ------------------------------------------------------------------ predict


def test_predict_zero_covariates_returns_intercept():
    rng = np.random.default_rng(24)
    _, basis, design = make_instance(rng)
    fit = fit_bcd(design, basis, PenaltyConfig(0.05, 0.01), SolverOptions())
    assert predict(fit, np.zeros(3), 0.3) == pytest.approx(fit.beta0, abs=1e-15)


def test_predict_constant_model():
    rng = np.random.default_rng(25)
    _, basis, design = make_instance(rng)
    fit = fit_bcd(design, basis, PenaltyConfig(1e3, 0.0), SolverOptions())
    x = rng.standard_normal(3)
    assert predict(fit, x, 0.7) == pytest.approx(fit.beta0 + x @ fit.mu, abs=1e-12)


def test_predict_reproduces_training_fitted_values():
    rng = np.random.default_rng(26)
    ds, basis, design = make_instance(rng)
    fit = fit_bcd(design, basis, PenaltyConfig(0.05, 0.001), SolverOptions())
    _, X, t = ds.stacked()
    pred = predict(fit, X, t)
    assert np.array_equal(pred, fitted_values(design, fit))


def test_predict_time_out_of_domain():
    rng = np.random.default_rng(27)
    _, basis, design = make_instance(rng)
    fit = fit_bcd(design, basis, PenaltyConfig(0.1, 0.0), SolverOptions())
    # the basis checks the times, NaN included
    for x, t in ((np.zeros(3), 1.5), (np.zeros(3), np.nan),
                 (np.zeros((2, 3)), np.array([0.5, -0.1])),
                 (np.zeros((2, 3)), np.array([np.nan, 0.5]))):
        with pytest.raises(DomainError, match=r"lie in \[0,1\]"):
            predict(fit, x, t)


def test_predict_dimension_mismatch():
    rng = np.random.default_rng(28)
    _, basis, design = make_instance(rng)
    fit = fit_bcd(design, basis, PenaltyConfig(0.1, 0.0), SolverOptions())
    with pytest.raises(DimensionError):
        predict(fit, np.zeros(5), 0.5)
    with pytest.raises(DimensionError):
        predict(fit, 0.5, 0.5)


@pytest.fixture(scope="module")
def predict_fit():
    rng = np.random.default_rng(30)
    _, basis, design = make_instance(rng)
    return fit_bcd(design, basis, PenaltyConfig(0.05, 0.001), SolverOptions())


def test_predict_rejects_time_vector_of_other_length(predict_fit):
    # neither one time nor one per row: numpy would raise a broadcast ValueError
    with pytest.raises(DimensionError):
        predict(predict_fit, np.ones((3, 3)), np.array([0.2, 0.4]))


def test_predict_rejects_two_dimensional_times(predict_fit):
    # shape (1, 3) against 3 rows would broadcast to a 3 x 3 result
    with pytest.raises(DimensionError):
        predict(predict_fit, np.ones((3, 3)), np.full((1, 3), 0.5))


def test_predict_rejects_non_finite_times(predict_fit):
    with pytest.raises(DomainError):
        predict(predict_fit, np.ones(3), float("nan"))
    with pytest.raises(DomainError):
        predict(predict_fit, np.ones((2, 3)), np.array([0.5, np.nan]))
