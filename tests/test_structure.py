import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvselect.basis import SplineConfig, build_basis
from tvselect.errors import ConfigurationError
from tvselect.solver import ModelFit, PenaltyConfig
from tvselect.structure import StructuralPartition, classify, select_vary, threshold


@pytest.fixture(scope="module")
def basis():
    return build_basis(SplineConfig(degree=3, num_internal_knots=2))


def make_fit(mu, theta_norms, basis, n=500):
    q = basis.q
    theta = tuple(np.full(q, nrm / math.sqrt(q)) if nrm else np.zeros(q)
                  for nrm in theta_norms)
    return ModelFit(beta0=0.0, mu=np.asarray(mu, dtype=float), theta=theta,
                    objective_trace=np.zeros(1), iterations=1, converged=True,
                    method="tv-select", penalty=PenaltyConfig(0.1, 0.1),
                    basis=basis, intercept=False, n_train=n)


def test_select_vary_empty(basis):
    fit = make_fit([0.5, -0.5, 0.0], [0, 0, 0], basis)
    assert select_vary(fit) == frozenset()


def test_select_vary_specific_blocks(basis):
    fit = make_fit([0.0] * 4, [1.0, 0, 0.3, 0], basis)
    assert select_vary(fit) == {0, 2}


def test_threshold_formula():
    # p=100, n=500: sqrt(log(100)/500)
    assert threshold(500, 100) == pytest.approx(0.09597, abs=5e-6)
    assert threshold(500, 100, multiplier=2.0) == pytest.approx(2 * 0.09597, abs=1e-5)


def test_threshold_validation():
    with pytest.raises(ConfigurationError):
        threshold(1, 10)
    with pytest.raises(ConfigurationError):
        threshold(100, 0)
    for multiplier in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            threshold(100, 10, multiplier)
    assert threshold(100, 10, 0.0) == 0.0


def test_classify_partitions(basis):
    fit = make_fit([0.5, 0.01, 0.0, -2.0], [1.0, 0, 0, 0], basis, n=500)
    part = classify(fit)
    assert part.s_vary == {0}
    assert part.s_const == {3}
    # |0.5| > tau would be const; tau = sqrt(log(4)/500) ~ 0.0527
    assert 1 in part.s_zero or 1 in part.s_const
    assert part.s_vary | part.s_const | part.s_zero == {0, 1, 2, 3}
    assert len(part.s_vary) + len(part.s_const) + len(part.s_zero) == 4


def test_boundary_is_strict(basis):
    tau = threshold(500, 4)
    fit = make_fit([tau, np.nextafter(tau, 1.0), 0.0, 0.0], [0, 0, 0, 0], basis, n=500)
    part = classify(fit)
    assert 0 in part.s_zero          # exactly tau -> zero
    assert 1 in part.s_const         # just above tau -> const


def test_all_zero_fit(basis):
    fit = make_fit([0.0] * 5, [0] * 5, basis)
    part = classify(fit)
    assert part.s_zero == {0, 1, 2, 3, 4}


def test_vary_ignores_mu(basis):
    # a varying block stays varying no matter how small mu is
    fit = make_fit([0.0, 1e-12], [0.5, 0.4], basis)
    part = classify(fit)
    assert part.s_vary == {0, 1}


def test_p_equals_one_edge(basis):
    fit = make_fit([1e-300], [0], basis, n=100)
    part = classify(fit)
    assert part.threshold_used == 0.0
    assert part.s_const == {0}       # any nonzero mu is const when tau = 0
    fit0 = make_fit([0.0], [0], basis, n=100)
    assert classify(fit0).s_zero == {0}


def test_labels_order(basis):
    fit = make_fit([0.0, 5.0, 0.0], [0.7, 0, 0], basis, n=1000)
    part = classify(fit)
    assert part.labels() == ["vary", "const", "zero"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=8),
       st.lists(st.booleans(), min_size=1, max_size=8),
       st.integers(min_value=2, max_value=10_000))
def test_partition_property(mus, active, n):
    p = min(len(mus), len(active))
    mus, active = mus[:p], active[:p]
    basis = build_basis(SplineConfig(degree=3, num_internal_knots=0))
    fit = make_fit(mus, [1.0 if a else 0 for a in active], basis, n=n)
    part = classify(fit)
    assert len(part.s_vary) + len(part.s_const) + len(part.s_zero) == p
    assert part.s_vary == {k for k in range(p) if active[k]}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=3, max_size=6),
       st.floats(0.1, 3.0), st.floats(0.0, 3.0))
def test_threshold_monotonicity(mus, c_low, c_extra):
    # raising the multiplier never moves an index from zero to const
    basis = build_basis(SplineConfig(degree=3, num_internal_knots=0))
    fit = make_fit(mus, [0] * len(mus), basis, n=200)
    low = classify(fit, threshold_multiplier=c_low)
    high = classify(fit, threshold_multiplier=c_low + c_extra)
    assert low.s_zero <= high.s_zero
    assert high.s_const <= low.s_const


def test_all_const_when_every_mu_clears_threshold(basis):
    fit = make_fit([2.0, -1.5, 3.0], [0, 0, 0], basis, n=500)
    part = classify(fit)
    assert part.s_const == {0, 1, 2}
    assert not part.s_vary and not part.s_zero
