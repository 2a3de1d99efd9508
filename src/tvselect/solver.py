"""Block coordinate descent for the doubly penalized varying-coefficient model.

The objective, with n the total observation count, is

    Q(beta0, mu, theta) = (1/2n) ||y - beta0*1 - X mu - sum_k Z_k theta_k||^2
                          + lambda1 * sum_k ||theta_k||_2
                          + lambda2 * sum_k theta_k' Omega theta_k.

The intercept is column 0 of one unpenalized design C = [1 X] (C = X when
the data are de-meaned; `_constant_design`).  Every solver returns one
vector x on the columns of A = [C Z_1 ... Z_p], which `_model_fit` alone
turns into a `ModelFit`.  One sweep updates every column of C by exact
one-dimensional least squares, and every spline block theta_k by exactly
minimizing its convex subproblem

    (1/2n) ||r_k - Z_k theta||^2 + lambda2 theta' Omega theta + lambda1 ||theta||_2.

The sweep runs on rotated coefficients R'x, R = blockdiag(I_m, V_1, ...,
V_p), where V_k (q x (q-1)) is the eigenbasis of G_kk/n + 2*lambda2*Omega
on the complement of the ones vector, null in Z_k and in Omega, with
eigenvalues w (`precompute_block_factors`).  There block k's quadratic is
diag(w), so in t = V_k' theta its subproblem is

    (1/2) sum_i w_i t_i^2 - zt't + lambda1 ||t||_2,   zt = V_k' Z_k' r_k / n,

and ||t|| = ||theta||.  A block is set to exact zero precisely when
||zt||_2 <= lambda1 (the subdifferential condition at zero); otherwise the
block norm s solves the secular equation h(s) = 1, found by a safeguarded
Newton iteration on h(s)^(-1/2) that stops when a step or the bracket falls
within 4 ulp of s, or when two steps from the left of the root predict the
next one below that.  The iteration starts from the block's current norm,
which along a lambda1 path and in every later sweep is close to the new
root.  Exact block minimization keeps the objective monotone and drives the
iterate to the global minimum of the convex problem, which the reference
solver `fit_oracle` certifies.

The sweep runs in covariance form, as glmnet does (Friedman, Hastie &
Tibshirani 2010, JSS, section 2.2), for the constants and the spline blocks
alike.  A fit reads only the Gram of [A y] (`design.gram`: G = A'A, A'y and
y'y, formed once per design in row chunks), rotated and divided by n once
per design and (lambda2, Omega) into R'GR/n, R'A'y/n and y'y/n, and keeps
g = R'A'e/n for the residual e in place of e itself, and one running
objective.  A coordinate or block reads its correlation with its partial
residual from g and R'GR/n, and a step Delta on its coordinates moves g by
(R'GR/n)[its rows]' Delta.  A block step t_old -> t_new changes the
objective by

    (1/2) sum_i w_i (t_new,i^2 - t_old,i^2) - zt'Delta + lambda1 (||t_new|| - ||t_old||),

which the step's halving guard and the running objective read: no rotation
in or out and no Omega product per update.  R leaves the m constants as
they are; the Gauss-Seidel pass over them is forward substitution with
tril(C'C), so it is one product with inv(tril(C'C)).  The design keeps what
it alone determines, the cold start from G[:m, :m] = C'C (`cold_constants`,
which `lambda1_max` reads too and which refuses unidentified constants).
One function, `_sweep_tables`, forms the rest of what a sweep reads for one
(lambda2, Omega): the block factorizations, inv(tril(C'C)) and the rotated
Gram.  The design's one slot keeps the tables of the last (lambda2, Omega)
swept, so that memory does not grow with a lambda2 grid.  The sweep updates
R'x in place through the views c and t_k; `_solve_block_subproblem` holds
the only zero test.  Cross-validation sums the held-out designs' own Grams
into each training Gram and the refit's (`tuning.tune_cv`).
g = (R'A'y - R'GR R'x)/n and the objective, from e'e = y'y - x'A'y - x'A'e
and theta = V_k t_k, are recomputed at the start of each fit and every 50
sweeps, to cap floating-point drift.  x is rotated back once, for the fit.

The block factorizations read each G_kk from `design.gram`.  The
screen-refit and `fit_oracle`'s Newton polish read the smooth part's Hessian
on their columns from the same Gram (`smooth_hessian`), and a singular
system gets its minimum-norm solution.
`fit_oracle`, the independent reference, computes its value, gradient and
KKT certificate on the design rows, which it stacks from `design.Z`.  From
theta = 0 and the constants' least squares, the active-set Newton polish
runs until the KKT certificate holds, the oracle's one stopping rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import CenteredSplineBasis
from .data import DesignBlocks
from .errors import (
    ConfigurationError,
    DimensionError,
    OracleNonconvergenceError,
    SingularBlockError,
)

METHOD_TV_SELECT = "tv-select"
METHOD_VC_RIDGE = "vc-ridge"
METHOD_GROUP_LASSO = "group-lasso"
METHOD_SCREEN_REFIT = "screen-refit"
METHODS = (METHOD_TV_SELECT, METHOD_VC_RIDGE, METHOD_GROUP_LASSO, METHOD_SCREEN_REFIT)

RESIDUAL_REFRESH_EVERY = 50
SECULAR_MAX_ITER = 200
SECULAR_ULPS = 4.0
_EPS = float(np.finfo(float).eps)
SCREEN_REFIT_LAMBDA2 = 1e-4
ORACLE_KKT_TOL = 1e-8
POLISH_MAX_ITER = 100
POLISH_MAX_HALVINGS = 60
LOST_DIRECTION_SHARE = 1e-6


@dataclass(frozen=True)
class PenaltyConfig:
    """Group penalty lambda1 and curvature penalty lambda2."""

    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.lambda1 < math.inf and 0.0 <= self.lambda2 < math.inf):
            raise ConfigurationError("penalty levels must be finite and non-negative")


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ConfigurationError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")


@dataclass(frozen=True)
class ModelFit:
    """A fitted model; `mu` (p,) and `theta` (p, q) are read-only float copies."""

    beta0: float
    mu: np.ndarray
    theta: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    method: str
    penalty: PenaltyConfig
    basis: CenteredSplineBasis
    intercept: bool
    n_train: int

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        theta = np.array(self.theta, dtype=float).reshape(len(mu), -1)
        for arr in (mu, theta):
            arr.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "theta", theta)

    @property
    def p(self) -> int:
        return len(self.mu)

    def coefficient_curves(self, t) -> np.ndarray:
        """beta_k(t) = mu_k + Btilde(t)' theta_k for each k; shape (p, len(t))."""
        Bt = self.basis.eval_centered(np.atleast_1d(t))
        return self.mu[:, None] + np.vstack([Bt @ th for th in self.theta])


class BlockFactor:
    """Eigendecomposition of G_kk/n + 2*lambda2*Omega, the coordinates block k is swept in.

    Its eigenvectors `v` (q x (q-1)) exclude the ones vector by construction
    (`precompute_block_factors`).  Eigenvalues below a relative cutoff are
    truncated: their columns of `v` are zero, so every sweep table is exactly
    zero there and the block solve gives the minimum-norm solution, the
    representative the group penalty selects anyway.  In `w` a truncated
    eigenvalue reads as the least kept one, which keeps the solve's quotients
    finite.  `refusal` is empty unless the cutoff also dropped a direction
    the data see; then it is the message a nonzero block solve raises, and
    `v` keeps that direction for the zero test.
    """

    def __init__(self, w: np.ndarray, v: np.ndarray):
        """From the eigenvalues w (ascending) and eigenvectors v of `np.linalg.eigh`."""
        if w[-1] <= 0.0:
            raise SingularBlockError(
                f"block system has no positive eigenvalues (max {w[-1]:.3e})")
        kept = w > 1e-12 * w[-1]
        self.w_pos_min = float(w[kept].min())
        self.w = np.where(kept, w, self.w_pos_min)
        self.v = v * kept
        self.zero = np.zeros_like(self.w)     # the solve's one zero block, read-only
        self.zero.setflags(write=False)
        self.refusal = ""


def smooth_hessian(design: DesignBlocks, omega: np.ndarray, lambda2: float, blocks) -> tuple:
    """Columns S and the smooth part's Hessian on them, G_SS/n + 2*lambda2*Omega per block.

    S is C's columns, then the given blocks' in A = [C Z_1 ... Z_p]; G_SS is from `design.gram`.
    """
    m, q = design.p + design.intercept_included, len(omega)
    starts = m + q * np.asarray(blocks, dtype=int)
    cols = np.concatenate([np.arange(m), (starts[:, None] + np.arange(q)).ravel()])
    hess = design.gram[np.ix_(cols, cols)] / design.n
    # hess[m:, m:] as (block, row, block, column); its diagonal blocks as one view
    diagonal_blocks = np.einsum("kikj->kij", hess[m:, m:].reshape(len(starts), q, len(starts), q))
    diagonal_blocks += 2.0 * lambda2 * omega
    return cols, hess


def precompute_block_factors(design: DesignBlocks, basis: CenteredSplineBasis,
                             lambda2: float) -> list[BlockFactor]:
    """One factorization of G_kk/n + 2*lambda2*Omega per block, G_kk from `design.gram`.

    Each is the eigendecomposition P'MP = U diag(w) U' of the block matrix M
    on an orthonormal basis P of the complement of the ones vector, the
    centered basis's null vector, with v = P U.  A lambda2 so large that M
    overflows raises `ConfigurationError`.  Omega is also null on the linear
    functions, which the data see; once 2 lambda2 Omega outweighs G_kk/n by
    about 1e12 the cutoff drops them, and the block's optimum is lost.  So a
    truncated eigenvector carrying more than LOST_DIRECTION_SHARE of
    G_kk/n's trace gives the factor a refusal naming lambda2.
    """
    g_kk = np.stack([design.gram[cols, cols] for cols in design.block_slices]) / design.n
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = g_kk + 2.0 * lambda2 * basis.omega
    if not np.isfinite(stacked).all():
        raise ConfigurationError(f"lambda2={lambda2:g} is too large: G_kk/n + 2 lambda2 Omega "
                                 "is not finite")
    ones_complement = np.linalg.qr(np.ones((design.q, 1)), mode="complete")[0][:, 1:]
    w, u = np.linalg.eigh(ones_complement.T @ stacked @ ones_complement)
    v = ones_complement @ u
    factors = [BlockFactor(w_k, v_k) for w_k, v_k in zip(w, v)]
    seen = np.einsum("kij,kij->kj", v, g_kk @ v)        # v' (G_kk/n) v per eigenvector
    for k, (factor, v_k, seen_k) in enumerate(zip(factors, v, seen)):
        if (seen_k[~factor.v.any(axis=0)] > LOST_DIRECTION_SHARE * seen_k.sum()).any():
            factor.refusal = (f"lambda2={lambda2:g} is too large: 2 lambda2 Omega swamps the "
                              f"data of covariate {k + 1}, whose linear trend is lost to roundoff")
            factor.v = v_k
    return factors


def _sweep_tables(design: DesignBlocks, basis: CenteredSplineBasis, lambda2: float) -> tuple:
    """Everything a sweep reads for one design and one (lambda2, Omega), formed once.

    Returns the block factors (`precompute_block_factors`), inv(tril(C'C))
    for the Gauss-Seidel pass over the constants, and the Gram of [A y] over
    n in the sweep's coordinates: for R = blockdiag(I_m, V_1, ..., V_p),
    R'GR/n as one contiguous array, so that each block's rows are a
    contiguous view, then R'A'y/n, y'y/n and each block's diagonal block
    (R'GR/n)_kk as a contiguous copy; last, each block's q - 1 columns in
    R'GR and the (p, q, q - 1) stack of the V_k.  The design's one slot
    (`DesignBlocks.solver_slot`) keeps the tables of the last
    (lambda2, Omega) asked for, so memory does not grow with a lambda2 grid.
    """
    key, slot = (lambda2, basis.omega.tobytes()), design.solver_slot
    if key in slot:
        return slot[key]
    slot.clear()
    factors = precompute_block_factors(design, basis, lambda2)
    gram, n, m = design.gram, design.n, design.p + design.intercept_included
    gauss_seidel = np.linalg.inv(np.tril(gram[:m, :m]))
    vs = np.stack([factor.v for factor in factors])
    p, q, r = vs.shape
    block_cols = [slice(m + k * r, m + (k + 1) * r) for k in range(p)]
    G = np.empty((m + p * r,) * 2)      # R'GR/n, one block row V_k' G[cols] / n R at a time
    G[:m, :m] = gram[:m, :m] / n
    for v_k, cols, rows in zip(vs, design.block_slices, block_cols):
        block_row = v_k.T @ gram[cols, :-1] / n
        G[rows, :m] = block_row[:, :m]
        np.matmul(block_row[:, m:].reshape(r, p, q).transpose(1, 0, 2), vs,
                  out=G[rows, m:].reshape(r, p, r).transpose(1, 0, 2))
    G[:m, m:] = G[m:, :m].T
    aty = np.append(gram[:m, -1], np.einsum("kij,ki->kj", vs, gram[m:-1, -1].reshape(p, q))) / n
    for arr in (gauss_seidel, G, aty, vs):
        arr.setflags(write=False)
    slot[key] = (factors, gauss_seidel, G, aty, float(gram[-1, -1]) / n,
                 [np.ascontiguousarray(G[cols, cols]) for cols in block_cols], block_cols, vs)
    return slot[key]


def _solve_block_subproblem(factor: BlockFactor, zt: np.ndarray, lambda1: float,
                            s0: float = 0.0) -> np.ndarray:
    """Exact minimizer t of 0.5 sum_i w_i t_i^2 - zt't + lambda1 ||t||_2, in block coordinates.

    zt is V'z for the block's correlation z with its partial residual, and
    theta = V t, where V excludes the ones vector by construction and zt is
    zero on its truncated directions (`BlockFactor`).  t is zero iff
    ||zt|| <= lambda1; otherwise t = zt / (w + lambda1/s), zt / w when
    lambda1 = 0, where the norm s solves h(s) = sum_i a_i / (w_i s + lambda1)^2 = 1,
    a_i = zt_i^2.  h is decreasing in s, from h(0) = ||zt||^2 / lambda1^2 > 1,
    so the root is unique, and
    g(s) = h(s)^(-1/2) is concave and increasing (More & Sorensen's
    trust-region secular equation).  Newton on g - 1 starts at
    s = min(s0, hi), a guess of the norm such as the block's current one;
    from s = 0 its first step is (||zt|| - lambda1) ||zt||^2 / sum_i a_i w_i,
    the closed form of h (sqrt(h) - 1) / (-h'/2) there, which no tiny
    lambda1 overflows.  Started left of the root, Newton approaches it
    monotonically without passing it.  Started right of it, one step lands
    left of the root, because the concave g lies below its tangent, and from
    there the iteration is monotone again.  A bracket [lo, hi] catches
    roundoff and a step below 0: a Newton point outside it is replaced by
    bisection, and an upper end never evaluated is doubled until
    h(hi) <= 1.  The iteration stops at s when its step or the checked
    bracket is within 4 ulp of s.  Left of the root it converges
    quadratically, so after two Newton steps from the left, prev and then
    step, the next would be about step^3 / prev^2; when that is within 4 ulp
    of s + step and s + step lies inside (lo, hi), it returns t at s + step
    without evaluating h there.  A step from the right is no guide: it can
    land far left of the root.  A block that is not zero raises the factor's
    `refusal`, if it has one, as a `ConfigurationError`.
    """
    norm_z = math.sqrt(zt.dot(zt))
    # relative slack keeps boundary roundoff (lambda1 == lambda1_max) at zero
    if lambda1 > 0.0 and norm_z <= lambda1 * (1.0 + 1e-12):
        return factor.zero
    if factor.refusal:
        raise ConfigurationError(factor.refusal)
    if lambda1 <= 0.0:
        return zt / factor.w
    w = factor.w
    a = zt * zt
    aw = a * w
    lo, hi = 0.0, (norm_z - lambda1) / factor.w_pos_min
    hi_checked = False        # h(hi) <= 1 seen, so hi is a true upper bound
    s = min(s0, hi)
    prev = 0.0                # the last Newton step, when it was taken from the left
    for _ in range(SECULAR_MAX_ITER):
        if s == 0.0:
            slope = float(aw.sum())
            if slope <= 0.0:
                break
            step = norm_z * norm_z * (norm_z - lambda1) / slope
        else:
            d = w + lambda1 / s
            r = (1.0 / s) / d                 # 1 / (w s + lambda1)
            r2 = r * r
            h = float(a.dot(r2))
            if h > 1.0:
                lo = s
                if s == hi:
                    hi *= 2.0
            else:
                hi, hi_checked = s, True
            slope = float(aw.dot(r2 * r))     # g'(s) = h^(-3/2) * slope
            if slope <= 0.0:
                break
            step = h * (math.sqrt(h) - 1.0) / slope
            if (abs(step) <= SECULAR_ULPS * _EPS * s
                    or hi_checked and hi - lo <= SECULAR_ULPS * _EPS * hi):
                return zt / d
        s_next = s + step
        if s_next >= hi and not hi_checked:
            s, prev = hi, 0.0
        elif lo < s_next < hi:
            # two steps from the left predict the next below the 4-ulp stop;
            # step^3 / prev^2 through the ratio, since step^3 underflows at tiny scales
            ratio = step / prev if prev > 0.0 else math.inf
            if step > 0.0 and step * (ratio * ratio) <= SECULAR_ULPS * _EPS * s_next:
                return zt / (w + lambda1 / s_next)
            s, prev = s_next, max(step, 0.0)
        else:
            s, prev = 0.5 * (lo + hi), 0.0
    raise SingularBlockError("block stationarity equation has no root the safeguarded "
                             f"Newton iteration could reach (lambda1={lambda1:.3e})")


def _constant_design(design: DesignBlocks) -> np.ndarray:
    """The unpenalized design C: [1 X] with the intercept as column 0, or X alone."""
    if design.intercept_included:
        return np.column_stack([np.ones(design.n), design.X])
    return design.X


def _model_fit(design: DesignBlocks, basis: CenteredSplineBasis, x: np.ndarray, trace,
               iterations: int, converged: bool, method: str,
               penalty: PenaltyConfig) -> ModelFit:
    """The fit of coefficients x on the columns of A = [C Z_1 ... Z_p]."""
    m = design.p + design.intercept_included
    return ModelFit(
        beta0=float(x[0]) if design.intercept_included else 0.0, mu=x[m - design.p:m],
        theta=x[m:], objective_trace=np.array(trace), iterations=iterations,
        converged=converged, method=method, penalty=penalty, basis=basis,
        intercept=design.intercept_included, n_train=design.n,
    )


def lambda1_max(design: DesignBlocks) -> float:
    """The least lambda1 zeroing all blocks from zero: max_k ||(A'y - G[:, :m] c)_k|| / n."""
    c, gram = design.cold_constants, design.gram
    g = gram[:-1, -1] - gram[:-1, :len(c)].dot(c)
    return max(float(np.linalg.norm(g[cols])) for cols in design.block_slices) / design.n


def _penalty_value(theta, penalty: PenaltyConfig, omega: np.ndarray) -> float:
    """lambda1 sum_k ||theta_k|| + lambda2 sum_k theta_k' Omega theta_k, summed block by block."""
    lam1, lam2 = penalty.lambda1, penalty.lambda2
    val = 0.0
    for th in theta:
        nrm = math.sqrt(th @ th)
        if nrm == 0.0:
            continue
        val += lam1 * nrm if lam2 == 0.0 else lam1 * nrm + lam2 * float(th.dot(omega).dot(th))
    return val


def _predictor(X: np.ndarray, B: np.ndarray, beta0: float, mu: np.ndarray, theta) -> np.ndarray:
    """beta0 + X mu + sum_k x_k * (B theta_k), B = Btilde(t) at each row, skipping zero blocks.

    A row whose prediction overflows gets a non-finite value without a
    warning; callers that need finite predictions check them (`cli`).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        pred = beta0 + X @ mu
        for xk, th in zip(X.T, theta):
            if th.any():
                pred = pred + xk * (B @ th)
    return pred


def objective(design: DesignBlocks, fit: ModelFit) -> float:
    """Penalized objective of a fit on a design (recomputed from scratch)."""
    if design.p != fit.p:
        raise DimensionError(f"design has p={design.p}, fit has p={fit.p}")
    e = residuals(design, fit)
    loss = 0.5 / design.n * float(e @ e)
    return loss + _penalty_value(fit.theta, fit.penalty, fit.basis.omega)


def fitted_values(design: DesignBlocks, fit: ModelFit) -> np.ndarray:
    return _predictor(design.X, design.B, fit.beta0, fit.mu, fit.theta)


def residuals(design: DesignBlocks, fit: ModelFit) -> np.ndarray:
    return design.y - fitted_values(design, fit)


def fit_bcd(design: DesignBlocks, basis: CenteredSplineBasis, penalty: PenaltyConfig,
            options: SolverOptions = SolverOptions(), init: ModelFit | None = None) -> ModelFit:
    """Cyclic block coordinate descent to the global minimum of the objective.

    Each sweep is one Gauss-Seidel loop over the columns of the constant
    design C = [1 X] (intercept = column 0; X alone without an intercept),
    then one exact solve per spline block, all in covariance form on the
    rotated coefficients xt = R'x, R = blockdiag(I_m, V_1, ..., V_p): the fit
    reads only the tables of its (lambda2, Omega) (`_sweep_tables`: the block
    factors, inv(tril(C'C)) and the rotated Gram of [A y] over n, formed from
    `design.gram` once while the design's slot holds them), and keeps
    g = R'A'e/n and the objective.  It updates xt in place, through
    the views c = xt[:m] and t_k.  The constants move by
    dc = inv(tril(C'C)) n g[:m], the step of the sequential pass.  Block k
    solves with zt = g_k + (R'GR/n)_kk t_k (the solve holds the only zero
    test); the step Delta is accepted when it changes the objective by
    0.5 sum w (t_new^2 - t_old^2) - zt'Delta + lambda1 (||t_new|| - ||t_old||)
    <= 0, and then moves g by (R'GR/n)[block k rows]' Delta.
    g = (R'A'y - R'GR xt)/n and the objective are recomputed at the start
    and every RESIDUAL_REFRESH_EVERY sweeps.  `init` warm-starts the parameters (e.g.
    along a lambda1 path); the default start is theta = 0 with
    `design.cold_constants` = solve(C'C, (A'y)[:m]).  Non-convergence within
    max_iter is reported via `converged`, not raised.  Raises
    `DegenerateDesignError` when C has condition number 1e6 or more, so the
    constants are not identified.
    """
    n, p = design.n, design.p
    if basis.q != design.q:
        raise DimensionError(f"basis has q={basis.q}, design has q={design.q}")
    omega = basis.omega
    lam1, m = penalty.lambda1, len(design.cold_constants)
    factors, gauss_seidel, G, aty, yty, g_kk, blocks, vs = _sweep_tables(design, basis,
                                                                         penalty.lambda2)
    c_rows, g_rows = G[:m], [G[cols] for cols in blocks]

    if init is not None:
        # (beta0, mu), or mu when C has no intercept column, then t_k = V_k' theta_k
        x = np.concatenate([np.append(init.beta0, init.mu)[p + 1 - m:],
                            np.einsum("kij,ki->kj", vs, init.theta).ravel()])
    else:
        x = np.concatenate([design.cold_constants, np.zeros(len(G) - m)])
    c, theta = x[:m], [x[cols] for cols in blocks]
    # each block's norm (0.0 for a zero block, the block solve's warm start)
    norms = [math.sqrt(th @ th) for th in theta]

    def rotated_back():         # theta_k = V_k t_k, as one (p, q) array
        return np.einsum("kij,kj->ki", vs, x[m:].reshape(p, -1))

    def refresh():
        """g = (R'A'y - R'GR xt)/n and the objective, e'e/n = y'y/n - xt'(R'A'y/n + g)."""
        g = aty - G.dot(x)
        loss = 0.5 * (yty - float(x.dot(aty)) - float(x.dot(g)))
        return g, loss + _penalty_value(rotated_back(), penalty, omega)

    g, obj = refresh()
    trace = [obj]
    converged = False
    sweeps = 0
    for sweep in range(1, options.max_iter + 1):
        sweeps = sweep
        if sweep % RESIDUAL_REFRESH_EVERY == 0:
            g, obj = refresh()

        # one Gauss-Seidel pass over the constants (c_j moves by its column's
        # correlation with the running residual over c_j'c_j) is forward
        # substitution with tril(C'C): dc = inv(tril(C'C)) C'e in one product
        dc = n * gauss_seidel.dot(g[:m])
        dg = dc.dot(c_rows)
        obj += 0.5 * float(dg[:m].dot(dc)) - float(dc.dot(g[:m]))
        g -= dg
        c += dc

        # ndarray.dot, not @: on vectors this short it costs half as much
        for k in range(p):
            nrm_old = norms[k]
            gk, th_old = g[blocks[k]], theta[k]
            # V_k' Z_k' r_k / n for the partial residual r_k = e + Z_k theta_k
            z = gk + g_kk[k].dot(th_old) if nrm_old > 0.0 else gk
            th_new = _solve_block_subproblem(factors[k], z, lam1, nrm_old)
            nrm_new = math.sqrt(th_new.dot(th_new))
            if nrm_old == 0.0 and nrm_new == 0.0:
                continue            # a zero block that stays zero
            # exact block minimization cannot increase the objective; this
            # guards against roundoff in the solve: a step that raises it is
            # halved, at most 20 times, then reverted
            w = factors[k].w
            for _ in range(21):
                step = th_new - th_old
                change = (0.5 * float(step.dot(w * (th_new + th_old))) - float(step.dot(z))
                          + lam1 * (nrm_new - nrm_old))
                if change <= 0.0:
                    break
                th_new = th_old + 0.5 * step
                nrm_new = math.sqrt(th_new.dot(th_new))
            else:
                continue  # revert: keep th_old, g and the objective
            th_old[:] = th_new
            norms[k] = nrm_new
            obj += change
            g -= step.dot(g_rows[k])

        trace.append(obj)
        if abs(obj - trace[-2]) / (1.0 + trace[-2]) < options.tol:
            converged = True
            break

    return _model_fit(design, basis, np.append(c, rotated_back()), trace, sweeps, converged,
                      METHOD_TV_SELECT, penalty)


def _joint_refit(design: DesignBlocks, basis: CenteredSplineBasis, selected,
                 lambda2_refit: float) -> tuple:
    """Joint least squares for the constants and theta_S with a mild curvature ridge.

    Reads only `design.gram`, the Gram of [A y].  The normal equations are
    `smooth_hessian` on the selected blocks and b_S/n for b = A'y.  Returns
    the coefficients x on the columns of A, zero off S, and the residual sum
    of squares y'y - 2 x_S'b_S + x_S'G_SS x_S.
    """
    gram = design.gram
    cols, hess = smooth_hessian(design, basis.omega, lambda2_refit, selected)
    b_s = gram[cols, -1]
    # each selected block contributes the structural ones-nullvector, so the
    # system is consistent but singular; take the minimum-norm solution
    coef, *_ = np.linalg.lstsq(hess, b_s / design.n, rcond=None)
    g_ss = gram[np.ix_(cols, cols)]
    rss = float(gram[-1, -1]) - 2.0 * float(coef.dot(b_s)) + float(coef.dot(g_ss).dot(coef))
    x = np.zeros(len(gram) - 1)
    x[cols] = coef
    return x, rss


def fit_baseline(design: DesignBlocks, basis: CenteredSplineBasis, method: str,
                 penalty: PenaltyConfig, options: SolverOptions = SolverOptions(),
                 init: ModelFit | None = None) -> ModelFit:
    """The three comparison estimators.

    vc-ridge     : curvature penalty only (lambda1 forced to 0, no block zeros).
    group-lasso  : group penalty only (lambda2 forced to 0).
    screen-refit : group-lasso screening of the varying set, then a joint
                   refit of all constant effects and the selected blocks with
                   a mild curvature ridge (lambda2 = 1e-4) for stability.

    Each relabels a `fit_bcd` fit on the design; the refit reads `design.gram` too.
    """
    if method not in (METHOD_VC_RIDGE, METHOD_GROUP_LASSO, METHOD_SCREEN_REFIT):
        raise ConfigurationError(f"unknown baseline method '{method}', expected one of "
                                 f"{(METHOD_VC_RIDGE, METHOD_GROUP_LASSO, METHOD_SCREEN_REFIT)}")
    if method == METHOD_VC_RIDGE:
        pen = PenaltyConfig(0.0, penalty.lambda2)
        return replace(fit_bcd(design, basis, pen, options, init=init), method=method)
    pen = PenaltyConfig(penalty.lambda1, 0.0)
    screen = fit_bcd(design, basis, pen, options, init=init)
    if method == METHOD_GROUP_LASSO:
        return replace(screen, method=method)
    x, rss = _joint_refit(design, basis, np.flatnonzero(screen.theta.any(axis=1)),
                          SCREEN_REFIT_LAMBDA2)
    return _model_fit(design, basis, x, [0.5 / design.n * rss], screen.iterations,
                      screen.converged, method, pen)


def _oracle_kkt_residual(g, theta, off, lam1):
    """Max first-order stationarity violation of the full problem."""
    res = float(np.abs(g[:off]).max()) if off else 0.0
    p, q = theta.shape
    gth = g[off:].reshape(p, q)
    for k in range(p):
        nk = float(np.linalg.norm(theta[k]))
        if nk > 0.0:
            res = max(res, float(np.linalg.norm(gth[k] + lam1 * theta[k] / nk)))
        else:
            res = max(res, max(0.0, float(np.linalg.norm(gth[k])) - lam1))
    return res


def _active_set_polish(x, hess, grad, off, p, q, lam1, kkt_bound):
    """Active-set Newton polish of a start x, in place, until KKT holds.

    A proximal Newton method (Lee, Sun & Saunders 2014) restricted to the
    nonzero blocks, with glmnet's KKT checks on the zero ones (Friedman,
    Hastie & Tibshirani 2010).  `fit_oracle` starts it from theta = 0 and
    the constants' least squares, so the blocks enter through these checks.
    Each pass opens with the certificate: it returns the number of passes
    taken as soon as `_oracle_kkt_residual` is at most `kkt_bound`, so a
    certified start returns 0 untouched.  Then an active block that zero
    minimizes with the rest fixed is set to zero, and an inactive block
    whose KKT violation ||g_k|| - lambda1 exceeds `kkt_bound` enters with a
    block proximal-gradient step.  The Newton step minimizes the smooth
    restriction of the objective to the unpenalized coordinates and the
    active blocks: the Hessian adds
    lambda1/||theta_k|| (I - u u'), u = theta_k/||theta_k||, to the data and
    curvature terms of `hess`.  The step is the system's minimum-norm
    solution, so it has no component along a flat direction (a block's
    ones vector, a duplicated column), where the system is singular.  A
    block that the step turns past zero stops at zero.  The Armijo line
    search measures the exact change of the objective along the step, not
    the difference of two objective values, whose roundoff hides the last
    Newton steps; a step that no halving accepts is below roundoff.  Raises
    `OracleNonconvergenceError` when POLISH_MAX_ITER passes leave the
    certificate unmet.
    """
    th = x[off:].reshape(p, q)                 # view: block writes update x
    sl = [slice(off + k * q, off + (k + 1) * q) for k in range(p)]
    for passes in range(POLISH_MAX_ITER + 1):
        g = grad(x)
        kkt = _oracle_kkt_residual(g, th, off, lam1)
        if kkt <= kkt_bound:
            return passes
        if passes == POLISH_MAX_ITER:
            break
        for k in range(p):
            gk, hkk = g[sl[k]], hess[sl[k], sl[k]]
            if th[k].any():
                g_zero = gk - hkk @ th[k]       # block gradient at theta_k = 0
                if math.sqrt(g_zero @ g_zero) > lam1:
                    continue
                th[k] = 0.0
            else:
                norm_g = math.sqrt(gk @ gk)
                if norm_g - lam1 <= kkt_bound:
                    continue
                lip_k = float(np.linalg.eigvalsh(hkk)[-1])
                th[k] = -((norm_g - lam1) / (lip_k * norm_g)) * gk
            g = grad(x)
        act = [k for k in range(p) if th[k].any()]
        free = np.concatenate([np.arange(off)] + [np.arange(sl[k].start, sl[k].stop)
                                                  for k in act])
        h_smooth = hess[np.ix_(free, free)]
        h_newton = h_smooth.copy()
        g_smooth = g[free]
        g_newton = g_smooth.copy()
        th_act = th[act]
        norms = np.linalg.norm(th_act, axis=1)
        for j, (th_k, n_k) in enumerate(zip(th_act, norms)):
            u = th_k / n_k
            b = slice(off + j * q, off + (j + 1) * q)
            g_newton[b] += lam1 * u
            h_newton[b, b] += (lam1 / n_k) * (np.eye(q) - np.outer(u, u))
        d = np.linalg.lstsq(h_newton, -g_newton, rcond=None)[0]
        slope = float(g_newton @ d)
        t = 1.0
        for _ in range(POLISH_MAX_HALVINGS):
            s = t * d
            moved = th_act + s[off:].reshape(len(act), q)
            # a block turned past zero stops at zero, as OWL-QN's orthant projection
            moved[np.einsum("ij,ij->i", moved, th_act) <= 0.0] = 0.0
            s_act = moved - th_act
            s[off:] = s_act.ravel()
            # ||th + s|| - ||th||, written without cancellation
            dnorm = (2.0 * np.einsum("ij,ij->i", th_act, s_act)
                     + np.einsum("ij,ij->i", s_act, s_act)) / (
                         np.linalg.norm(moved, axis=1) + norms)
            change = (float(g_smooth @ s) + 0.5 * float(s @ h_smooth @ s)
                      + lam1 * float(dnorm.sum()))
            if change <= 1e-4 * t * slope:
                break
            t *= 0.5
        x[free] += s
    raise OracleNonconvergenceError(
        f"active-set Newton polish left KKT residual {kkt:.3e} above the "
        f"certificate bound {kkt_bound:.3e}")


def fit_oracle(design: DesignBlocks, basis: CenteredSplineBasis,
               penalty: PenaltyConfig) -> ModelFit:
    """Reference solver for the convex objective, independent of `fit_bcd`.

    Starts from theta = 0 and the constants' minimum-norm least squares and
    runs the active-set Newton polish from there.  It stops on the only
    stopping rule that certifies the fit, a first-order KKT residual on the
    design rows of at most ORACLE_KKT_TOL times the gradient scale
    1 + ||gradient at the start||, or raises `OracleNonconvergenceError`.
    The fit's `iterations` is the polish's passes.  Intended for small
    problems.
    """
    y = design.y
    n, p, q = design.n, design.p, basis.q
    omega = basis.omega
    lam1, lam2 = penalty.lambda1, penalty.lambda2

    C = _constant_design(design)
    A = np.hstack([C, *design.Z])
    off = C.shape[1]
    _, hess = smooth_hessian(design, omega, lam2, range(p))

    def smooth_grad(c):
        g = -(A.T @ (y - A @ c)) / n
        if lam2 > 0.0:
            g[off:] += (2.0 * lam2) * (c[off:].reshape(p, q) @ omega).ravel()
        return g

    x = np.zeros(off + p * q)
    x[:off] = np.linalg.lstsq(C, y, rcond=None)[0]
    grad_ref = 1.0 + float(np.linalg.norm(smooth_grad(x)))
    passes = _active_set_polish(x, hess, smooth_grad, off, p, q, lam1, ORACLE_KKT_TOL * grad_ref)
    e = y - A @ x
    value = 0.5 / n * float(e @ e) + _penalty_value(x[off:].reshape(p, q), penalty, omega)
    return _model_fit(design, basis, x, [value], passes, True, METHOD_TV_SELECT, penalty)


def predict(fit: ModelFit, x, t):
    """beta0 + sum_k x_k * (mu_k + Btilde(t)' theta_k).

    `x` is one covariate vector (length p) or a matrix of rows; `t` a scalar
    or a vector of length 1 or the row count, with finite times in [0,1]
    (the basis raises `DomainError` otherwise).  Covariates must already be
    on the scale the model was fitted on.
    """
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 1
    X = x_arr[None, :] if scalar else x_arr
    if X.ndim != 2 or X.shape[1] != fit.p:
        raise DimensionError(f"expected rows of {fit.p} covariates, got shape {x_arr.shape}")
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim > 1 or t_arr.size not in (1, X.shape[0]):
        raise DimensionError(f"expected a scalar time or a vector of length 1 or "
                             f"{X.shape[0]}, got shape {t_arr.shape}")
    B = fit.basis.eval_centered(np.atleast_1d(t_arr))       # (m, q) or (1, q)
    out = _predictor(X, B, fit.beta0, fit.mu, fit.theta)
    return float(out[0]) if scalar else out
