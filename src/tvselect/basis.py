"""Centered B-spline basis and curvature penalty matrix.

The time-varying deviation of each coefficient is expanded in a clamped
B-spline basis on [0, 1] whose functions are centered by their integral,
so any spanned function integrates to zero.  The curvature penalty is the
Gram matrix of second derivatives, assembled by exact per-interval
Gauss-Legendre quadrature (the integrands are piecewise polynomials).

Basis values come from the Cox-de Boor recursion (de Boor 1978, *A
Practical Guide to Splines*) and second derivatives from de Boor's
differencing of the coefficients, vectorized over the evaluation points.
Both follow FITPACK's ``fpbspl``/``splev``/``splder`` (Dierckx 1993)
operation for operation, so the results are bit-identical to
``scipy.interpolate.splev`` without importing scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateDesignError, DomainError

EQUALLY_SPACED = "equal"
TIME_QUANTILES = "quantile"


@dataclass(frozen=True)
class SplineConfig:
    """Basis configuration: q = num_internal_knots + degree + 1 >= 2 functions."""

    degree: int = 3
    num_internal_knots: int = 4
    knot_placement: str = EQUALLY_SPACED

    def __post_init__(self):
        if int(self.degree) != self.degree or self.degree < 0:
            raise ConfigurationError(f"degree must be a non-negative integer, got {self.degree}")
        if int(self.num_internal_knots) != self.num_internal_knots or self.num_internal_knots < 0:
            raise ConfigurationError(
                f"num_internal_knots must be a non-negative integer, got {self.num_internal_knots}"
            )
        if self.knot_placement not in (EQUALLY_SPACED, TIME_QUANTILES):
            raise ConfigurationError(
                f"knot_placement must be '{EQUALLY_SPACED}' or '{TIME_QUANTILES}'"
            )
        if self.q < 2:
            raise ConfigurationError("degree 0 with no interior knots gives q=1 basis function, "
                                     "which centering makes identically zero; need q >= 2")

    @property
    def q(self) -> int:
        return self.num_internal_knots + self.degree + 1

    @classmethod
    def from_q(cls, q: int, degree: int = 3, knot_placement: str = EQUALLY_SPACED) -> "SplineConfig":
        """Configuration with a target number of basis functions."""
        if q < degree + 1:
            raise ConfigurationError(f"q={q} needs at least degree+1={degree + 1} functions")
        return cls(degree=degree, num_internal_knots=q - degree - 1, knot_placement=knot_placement)


def _interior_knots(config: SplineConfig, observed_times) -> np.ndarray:
    K = config.num_internal_knots
    if K == 0:
        return np.empty(0)
    if config.knot_placement == EQUALLY_SPACED:
        return np.linspace(0.0, 1.0, K + 2)[1:-1]
    times = np.asarray(observed_times, dtype=float)
    if times.size == 0:
        raise DegenerateDesignError("quantile knot placement needs observed times")
    probs = np.arange(1, K + 1) / (K + 1)
    knots = np.quantile(times, probs)
    if knots[0] <= 0.0 or knots[-1] >= 1.0:
        raise DegenerateDesignError(
            "observed times put a quantile knot at an end of [0,1], where too many rows "
            "share the first or the last time; use fewer or equally spaced knots")
    distinct = 1 + np.count_nonzero(np.diff(knots))     # ascending probs: equal knots adjoin
    if distinct < K:
        raise DegenerateDesignError(
            f"observed times yield only {distinct} distinct quantile knots, need {K}")
    return knots


@dataclass(frozen=True)
class CenteredSplineBasis:
    """B-spline basis on [0,1] with integral-centered functions.

    Immutable after construction; safe to share across workers.
    """

    config: SplineConfig
    full_knot_vector: np.ndarray
    basis_means: np.ndarray
    omega: np.ndarray            # curvature penalty: symmetric PSD Gram of second derivatives
    _d2_coefficients: np.ndarray | None = field(repr=False, default=None)

    @property
    def q(self) -> int:
        return self.config.q

    @property
    def interior_knots(self) -> np.ndarray:
        d = self.config.degree
        return self.full_knot_vector[d + 1:-(d + 1)] if self.config.num_internal_knots else np.empty(0)

    def eval_raw(self, t) -> np.ndarray:
        """B(t): rows of non-negative basis values summing to 1."""
        vals = _bspline_values(self.full_knot_vector, self.config.degree, _in_domain(t))
        return vals if np.ndim(t) else vals[0]

    def eval_centered(self, t) -> np.ndarray:
        """B(t) - basis_means, entrywise; rows sum to 0."""
        return self.eval_raw(t) - self.basis_means

    def eval_second_derivative(self, t) -> np.ndarray:
        """Second derivative of the basis (centering shifts by constants only).

        Zero for degree < 2, whose basis is piecewise linear.
        """
        t_arr = _in_domain(t)
        d = self.config.degree
        if d < 2:
            vals = np.zeros((t_arr.size, self.q))
        else:
            vals = _spline_values(self.full_knot_vector[2:-2], d - 2, self._d2_coefficients, t_arr)
        return vals if np.ndim(t) else vals[0]


def _in_domain(t) -> np.ndarray:
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((t_arr >= 0.0) & (t_arr <= 1.0)):
        raise DomainError(f"evaluation points must be finite and lie in [0,1], got range "
                          f"[{t_arr.min()}, {t_arr.max()}]")
    return t_arr


def _nonzero_bsplines(knots: np.ndarray, degree: int, t: np.ndarray):
    """The degree+1 B-splines nonzero at each t, by FITPACK's ``fpbspl``.

    Uses the knot interval knots[l] <= t < knots[l+1] (the last one for
    t = 1).  Returns the index of the first of these B-splines and their
    values, shape (degree+1, len(t)).
    """
    num = knots.size - degree - 1
    span = np.clip(np.searchsorted(knots, t, side="right") - 1, degree, num - 1)
    h = np.ones((1, t.size))
    for j in range(1, degree + 1):
        idx = span + np.arange(1, j + 1)[:, None]
        right, left = knots[idx], knots[idx - j]
        f = h / (right - left)
        h = np.concatenate([np.zeros((1, t.size)), f * (t - left)])
        h[:-1] += f * (right - t)
    return span - degree, h


# Both evaluators return the transpose of a C-ordered array, the layout of
# splev's stacked output: BLAS products of the design depend on it bitwise.

def _bspline_values(knots: np.ndarray, degree: int, t: np.ndarray) -> np.ndarray:
    """Every B-spline at each t; shape (len(t), number of B-splines).

    splev's sum over a unit coefficient vector adds +0.0 terms to the one
    nonzero value, which is never -0.0, so placing the values is exact.
    """
    first, h = _nonzero_bsplines(knots, degree, t)
    out = np.zeros((knots.size - degree - 1, t.size))
    out[first + np.arange(degree + 1)[:, None], np.arange(t.size)] = h
    return out.T


def _spline_values(knots: np.ndarray, degree: int, coefs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Splines sum_i coefs[i, j] B_i(t), one column per j, summed from 0.0 in splev's order."""
    first, h = _nonzero_bsplines(knots, degree, t)
    out = np.zeros((coefs.shape[1], t.size))
    for j in range(degree + 1):
        term = np.take(coefs.T, first + j, axis=1)
        term *= h[j]
        out += term
    return out.T


def _derivative_coefficients(knots: np.ndarray, degree: int, coefs: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative, a degree-1 spline on knots[1:-1].

    De Boor's differencing as in FITPACK's ``splder``.  Its guard for a
    zero-length span never fires: interior knots are strictly increasing.
    """
    width = knots[degree + 1:-1] - knots[1:-(degree + 1)]
    return degree * (coefs[1:] - coefs[:-1]) / width[:, None]


def build_basis(config: SplineConfig, observed_times=None) -> CenteredSplineBasis:
    """Construct the centered basis, its means, and the curvature matrix.

    Basis-function means are exact: each function is piecewise polynomial
    of degree d, and per-interval Gauss-Legendre with d+1 nodes integrates
    degree <= 2d+1 exactly.  The same rule is exact for products of second
    derivatives (degree 2d-4).
    """
    interior = _interior_knots(config, observed_times)
    return build_basis_from_interior(config, interior)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")   # a non-finite basis is refused
def build_basis_from_interior(config: SplineConfig, interior_knots) -> CenteredSplineBasis:
    """Assemble a basis around explicitly given interior knots.

    Knots so close together that the means or Omega are not finite (a stored
    first knot of 3e-301) raise `ConfigurationError`.
    """
    d = config.degree
    interior = np.asarray(interior_knots, dtype=float)
    if interior.size != config.num_internal_knots:
        raise ConfigurationError(
            f"expected {config.num_internal_knots} interior knots, got {interior.size}")
    if interior.size and (np.any(np.diff(interior) <= 0)
                          or interior[0] <= 0.0 or interior[-1] >= 1.0):
        raise ConfigurationError("interior knots must be strictly increasing inside (0,1)")
    knots = np.concatenate([np.zeros(d + 1), interior, np.ones(d + 1)])
    q = config.q

    breakpts = np.concatenate([[0.0], interior, [1.0]])[:, None]    # the distinct knots
    a, b = breakpts[:-1], breakpts[1:]
    x_ref, w_ref = np.polynomial.legendre.leggauss(d + 1)
    x = (0.5 * (b - a) * x_ref + 0.5 * (a + b)).ravel()
    w = (0.5 * (b - a) * w_ref).ravel()

    vals = _bspline_values(knots, d, x)            # (len(x), q)
    means = w @ vals

    d2_coefs = None
    if d >= 2:
        d2_coefs = _derivative_coefficients(
            knots[1:-1], d - 1, _derivative_coefficients(knots, d, np.eye(q)))
        d2 = _spline_values(knots[2:-2], d - 2, d2_coefs, x)
        omega = (d2 * w[:, None]).T @ d2
        omega = 0.5 * (omega + omega.T)
        d2_coefs.setflags(write=False)
    else:
        omega = np.zeros((q, q))
    if not (np.isfinite(means).all() and np.isfinite(omega).all()):
        raise ConfigurationError(f"interior knots {interior.tolist()} give a basis whose means "
                                 "or curvature matrix is not finite")

    means.setflags(write=False)
    omega.setflags(write=False)
    knots.setflags(write=False)
    return CenteredSplineBasis(
        config=config,
        full_knot_vector=knots,
        basis_means=means,
        omega=omega,
        _d2_coefficients=d2_coefs,
    )
