import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvselect.basis import (
    EQUALLY_SPACED,
    TIME_QUANTILES,
    SplineConfig,
    _interior_knots,
    build_basis,
    build_basis_from_interior,
)
from tvselect.errors import ConfigurationError, DegenerateDesignError, DomainError


@pytest.fixture(scope="module")
def cubic_q8():
    return build_basis(SplineConfig(degree=3, num_internal_knots=4))


@pytest.fixture(scope="module")
def bernstein():
    # no interior knots: cubic Bernstein polynomials on [0,1]
    return build_basis(SplineConfig(degree=3, num_internal_knots=0))


def test_q_formula():
    assert SplineConfig(degree=3, num_internal_knots=0).q == 4
    assert SplineConfig(degree=3, num_internal_knots=4).q == 8
    assert SplineConfig.from_q(12).q == 12


def test_invalid_configs_rejected():
    with pytest.raises(ConfigurationError):
        SplineConfig(degree=-1)
    with pytest.raises(ConfigurationError):
        SplineConfig(num_internal_knots=-2)
    with pytest.raises(ConfigurationError):
        SplineConfig(knot_placement="fancy")
    with pytest.raises(ConfigurationError):
        SplineConfig.from_q(3, degree=3)


def test_single_basis_function_refused():
    # the one degree-0 function on [0,1] is the constant 1, which centering
    # makes identically zero: the block system then has no positive eigenvalue
    with pytest.raises(ConfigurationError, match="q=1"):
        SplineConfig(degree=0, num_internal_knots=0)
    with pytest.raises(ConfigurationError, match="q=1"):
        SplineConfig.from_q(1, degree=0)
    assert SplineConfig(degree=0, num_internal_knots=1).q == 2


def test_bernstein_endpoint_values(bernstein):
    assert np.allclose(bernstein.eval_raw(0.0), [1, 0, 0, 0])
    assert np.allclose(bernstein.eval_raw(1.0), [0, 0, 0, 1])


def test_bernstein_midpoint_values(bernstein):
    # C(3,l) t^l (1-t)^(3-l) at t = 1/2
    assert np.allclose(bernstein.eval_raw(0.5), [0.125, 0.375, 0.375, 0.125], atol=1e-15)


def test_bernstein_means(bernstein):
    # int_0^1 C(3,l) t^l (1-t)^(3-l) dt = 1/4 for every l
    assert np.allclose(bernstein.basis_means, 0.25, atol=1e-15)


def test_centered_value_at_zero(bernstein):
    # first entry: 1 - int (1-t)^3 = 1 - 1/4
    assert bernstein.eval_centered(0.0)[0] == pytest.approx(0.75, abs=1e-14)


def test_partition_of_unity(cubic_q8):
    t = np.random.default_rng(0).uniform(0, 1, 1000)
    sums = cubic_q8.eval_raw(t).sum(axis=1)
    assert np.abs(sums - 1).max() < 1e-12


def test_raw_values_nonnegative(cubic_q8):
    t = np.linspace(0, 1, 501)
    assert cubic_q8.eval_raw(t).min() >= 0.0


def test_centered_rows_sum_to_zero(cubic_q8):
    t = np.random.default_rng(1).uniform(0, 1, 200)
    assert np.abs(cubic_q8.eval_centered(t).sum(axis=1)).max() < 1e-12


def test_means_sum_to_one(cubic_q8):
    assert cubic_q8.basis_means.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(cubic_q8.basis_means > 0)
    assert np.all(cubic_q8.basis_means < 1)


def gauss_legendre_on_panels(breakpoints, n_nodes=64):
    x_ref, w_ref = np.polynomial.legendre.leggauss(n_nodes)
    xs, ws = [], []
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        xs.append(0.5 * (b - a) * x_ref + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * w_ref)
    return np.concatenate(xs), np.concatenate(ws)


def test_centered_functions_integrate_to_zero(cubic_q8):
    # composite 64-point Gauss-Legendre per knot interval (exact piecewise)
    x, w = gauss_legendre_on_panels(np.unique(cubic_q8.full_knot_vector))
    B = cubic_q8.eval_centered(x)
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = rng.standard_normal(cubic_q8.q)
        assert abs(w @ (B @ v)) < 1e-10


def test_domain_errors(cubic_q8):
    with pytest.raises(DomainError):
        cubic_q8.eval_raw(-0.01)
    with pytest.raises(DomainError):
        cubic_q8.eval_raw(1.01)
    with pytest.raises(DomainError):
        cubic_q8.eval_centered(np.array([0.5, 2.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_times_rejected(cubic_q8, bad):
    for evaluate in (cubic_q8.eval_raw, cubic_q8.eval_second_derivative):
        with pytest.raises(DomainError):
            evaluate(bad)
        with pytest.raises(DomainError):
            evaluate(np.array([0.25, bad, 0.75]))


def test_omega_symmetric_psd(cubic_q8):
    om = cubic_q8.omega
    assert np.abs(om - om.T).max() < 1e-12
    eig = np.linalg.eigvalsh(om)
    assert eig[0] >= -1e-10 * eig[-1]


def test_omega_rank_q_minus_2(cubic_q8):
    eig = np.linalg.eigvalsh(cubic_q8.omega)
    rank = int((eig > 1e-10 * eig[-1]).sum())
    assert rank == cubic_q8.q - 2


def test_linear_functions_in_nullspace(cubic_q8):
    # coefficients reproducing t -> a + b t are the Greville abscissae
    d = cubic_q8.config.degree
    knots = cubic_q8.full_knot_vector
    greville = np.array([knots[i + 1:i + 1 + d].mean() for i in range(cubic_q8.q)])
    for v in (np.ones(cubic_q8.q), greville, 2.0 - 3.0 * greville):
        assert v @ cubic_q8.omega @ v == pytest.approx(0.0, abs=1e-9)


def test_quadratic_form_zero_vector(cubic_q8):
    v = np.zeros(cubic_q8.q)
    assert v @ cubic_q8.omega @ v == 0.0


def test_quadratic_form_matches_finite_differences(cubic_q8):
    # trapezoid rule on second differences at 1e4 grid points
    rng = np.random.default_rng(3)
    t = np.linspace(0, 1, 10001)
    for _ in range(5):
        v = rng.standard_normal(cubic_q8.q)
        g = cubic_q8.eval_centered(t) @ v
        g2 = np.gradient(np.gradient(g, t), t)
        approx = np.trapezoid(g2 ** 2, t)
        exact = v @ cubic_q8.omega @ v
        assert abs(approx - exact) / exact < 0.01


@pytest.mark.parametrize("degree, knots", [(3, 4), (2, 0), (1, 3), (5, 2)])
def test_quadrature_exactness(degree, knots):
    # the default d+1-node rule against 64 Gauss-Legendre nodes per knot
    # interval, both exact for these piecewise polynomials: any difference is
    # float64 roundoff on entries of magnitude up to ~1e4
    basis = build_basis(SplineConfig(degree=degree, num_internal_knots=knots))
    x, w = gauss_legendre_on_panels(np.unique(basis.full_knot_vector))
    means = w @ basis.eval_raw(x)
    d2 = basis.eval_second_derivative(x)
    omega = (d2 * w[:, None]).T @ d2
    scale = max(1.0, np.abs(omega).max())
    assert np.abs(basis.omega - omega).max() < 1e-12 * scale
    assert np.abs(basis.basis_means - means).max() < 1e-12


def test_quantile_knot_placement():
    times = np.concatenate([np.linspace(0, 0.3, 50), np.linspace(0.7, 1.0, 50)])
    cfg = SplineConfig(degree=3, num_internal_knots=3, knot_placement=TIME_QUANTILES)
    basis = build_basis(cfg, observed_times=times)
    assert basis.q == 7
    assert np.all(np.diff(basis.interior_knots) > 0)


def test_quantile_knots_degenerate_design():
    cfg = SplineConfig(degree=3, num_internal_knots=4, knot_placement=TIME_QUANTILES)
    with pytest.raises(DegenerateDesignError):
        build_basis(cfg, observed_times=np.full(100, 0.5))
    with pytest.raises(DegenerateDesignError):
        build_basis(cfg, observed_times=[])


@pytest.mark.parametrize("end", [0.0, 1.0])
def test_quantile_knot_at_an_end_refused(end):
    # a quarter of the times at one end put the first (last) of 4 quantile knots
    # on it; clipped to the neighbouring float, a knot at 5e-324 made every basis
    # value NaN
    times = np.concatenate([np.full(25, end), np.linspace(0.0, 1.0, 75)])
    cfg = SplineConfig(degree=3, num_internal_knots=4, knot_placement=TIME_QUANTILES)
    with pytest.raises(DegenerateDesignError, match="quantile knot at an end"):
        build_basis(cfg, observed_times=times)
    assert np.isfinite(build_basis(cfg, observed_times=times[15:]).omega).all()


@given(times=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                      min_size=2, max_size=60, unique=True),
       K=st.integers(1, 9))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_quantile_knots_equal_numpy_quantile(times, K):
    # formed from a sort so that numpy.ma, which np.quantile imports, stays unloaded
    cfg = SplineConfig(degree=3, num_internal_knots=K, knot_placement=TIME_QUANTILES)
    want = np.quantile(np.array(times), np.arange(1, K + 1) / (K + 1))
    assert np.array_equal(_interior_knots(cfg, times), want)


def test_build_from_interior_round_trip(cubic_q8):
    rebuilt = build_basis_from_interior(cubic_q8.config, cubic_q8.interior_knots)
    assert np.array_equal(rebuilt.full_knot_vector, cubic_q8.full_knot_vector)
    assert np.array_equal(rebuilt.basis_means, cubic_q8.basis_means)
    with pytest.raises(ConfigurationError):
        build_basis_from_interior(cubic_q8.config, [0.5, 0.4, 0.6, 0.7])


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=1, max_value=3))
def test_partition_of_unity_property(t, n_knots, degree):
    basis = build_basis(SplineConfig(degree=degree, num_internal_knots=n_knots))
    vals = basis.eval_raw(t)
    assert abs(vals.sum() - 1.0) < 1e-12
    assert vals.min() >= -1e-15


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=8, max_size=8))
def test_centering_property(coefs):
    basis = build_basis(SplineConfig(degree=3, num_internal_knots=4))
    x, w = gauss_legendre_on_panels(np.unique(basis.full_knot_vector))
    integral = w @ (basis.eval_centered(x) @ np.array(coefs))
    assert abs(integral) < 1e-10


def splev_reference(basis, t, der=0):
    """The basis through scipy's FITPACK wrapper, stacked into a (len(t), q) matrix."""
    splev = pytest.importorskip("scipy.interpolate").splev
    tck = (basis.full_knot_vector, np.eye(basis.q), basis.config.degree)
    return np.array(splev(t, tck, der=der)).T


def assert_bit_identical(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # downstream BLAS products depend on the memory layout for their last bit
    assert got.flags.f_contiguous == want.flags.f_contiguous


@pytest.mark.parametrize("placement", [EQUALLY_SPACED, TIME_QUANTILES])
@pytest.mark.parametrize("q", [4, 5, 6, 8, 12, 16])
def test_matches_splev_bitwise(q, placement):
    times = np.random.default_rng(q).beta(0.7, 1.3, 300)
    # degree 5 makes the second derivative a sum of four terms, so its order shows
    for degree in [d for d in (1, 2, 3, 5) if d < q]:
        basis = build_basis(SplineConfig.from_q(q, degree=degree, knot_placement=placement),
                            observed_times=times)
        knots = np.unique(basis.full_knot_vector)
        t = np.clip(np.concatenate([[0.0, 1.0], knots, np.nextafter(knots, 0.0),
                                    np.nextafter(knots, 1.0), np.linspace(0.0, 1.0, 101)]),
                    0.0, 1.0)
        assert_bit_identical(basis.eval_raw(t), splev_reference(basis, t))
        if degree >= 2:
            assert_bit_identical(basis.eval_second_derivative(t), splev_reference(basis, t, der=2))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
def test_matches_splev_bitwise_property(cubic_q8, t):
    t = np.array(t)
    assert_bit_identical(cubic_q8.eval_raw(t), splev_reference(cubic_q8, t))
    assert_bit_identical(cubic_q8.eval_second_derivative(t), splev_reference(cubic_q8, t, der=2))


def test_second_derivative_zero_below_degree_two():
    basis = build_basis(SplineConfig(degree=1, num_internal_knots=3))
    assert np.array_equal(basis.eval_second_derivative(np.linspace(0, 1, 7)), np.zeros((7, 5)))
    assert not np.any(basis.omega)
