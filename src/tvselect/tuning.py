"""Penalty selection: extended BIC over a grid, or subject-wise K-fold CV.

The group-penalty grid is anchored at lambda1_max, the smallest level that
zeroes every spline block on the first sweep when started from zero.  Grids
are stored descending; the lambda1 path is traversed from large to small
with warm starts at fixed lambda2.  Ties in the criterion go to the larger
lambda1, then the larger lambda2 (sparser, smoother).  Values within
1e-12 (1 + |value|) of the best are ties, because fits of one optimum
reached from different warm starts agree only to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CenteredSplineBasis
from .data import DesignBlocks, LongitudinalDataset, build_design, subset_subjects
from .errors import (ConfigurationError, DegenerateDesignError, TuningError, TVSelectError,
                     UsageError)
from .solver import (
    METHOD_GROUP_LASSO,
    METHOD_SCREEN_REFIT,
    METHOD_TV_SELECT,
    METHOD_VC_RIDGE,
    ModelFit,
    PenaltyConfig,
    SolverOptions,
    fit_baseline,
    fit_bcd,
    lambda1_max,
    residuals,
)
from .structure import select_vary

DEFAULT_LAMBDA1_COUNT = 20
DEFAULT_LAMBDA1_MIN_RATIO = 1e-3
DEFAULT_LAMBDA2_GRID = tuple(np.logspace(0.0, -4.0, 5))   # 1 .. 1e-4, descending
TIE_RTOL = 1e-12
LAMBDA1_ROUNDOFF = 1e-12


@dataclass(frozen=True)
class TuningGrid:
    """Descending penalty grids and the EBIC dimensionality weight gamma."""

    lambda1_values: tuple
    lambda2_values: tuple
    gamma: float = 0.5

    def __post_init__(self):
        for name, vals in (("lambda1_values", self.lambda1_values),
                           ("lambda2_values", self.lambda2_values)):
            arr = np.asarray(vals, dtype=float)
            if arr.size == 0:
                raise ConfigurationError(f"{name} must be non-empty")
            if not np.all((arr >= 0) & (arr < np.inf)):
                raise ConfigurationError(f"{name} must be finite and non-negative")
            if np.any(np.diff(arr) > 0):
                raise ConfigurationError(f"{name} must be sorted descending")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError("gamma must lie in [0, 1]")


@dataclass(frozen=True)
class TuningResult:
    best_lambda1: float
    best_lambda2: float
    criterion_surface: np.ndarray      # (len(lambda1_values), len(lambda2_values))
    best_fit: ModelFit
    grid: TuningGrid
    criterion: str = "ebic"
    # (i, j, reason) for each grid point whose fit failed; its surface cell is NaN
    failed_points: tuple = ()
    # (i, j, reason) for each grid point whose fit stopped at max_iter; its cell is kept
    nonconverged: tuple = ()

    def surface_rows(self):
        """(lambda1, lambda2, criterion) triples for CSV export."""
        for i, l1 in enumerate(self.grid.lambda1_values):
            for j, l2 in enumerate(self.grid.lambda2_values):
                yield l1, l2, self.criterion_surface[i, j]


def default_grid(design: DesignBlocks, gamma: float = 0.5,
                 lambda1_count: int = DEFAULT_LAMBDA1_COUNT,
                 lambda2_values=DEFAULT_LAMBDA2_GRID) -> TuningGrid:
    """Log-spaced lambda1 path from lambda1_max down to DEFAULT_LAMBDA1_MIN_RATIO of it.

    Raises `DegenerateDesignError` when lambda1_max is roundoff, at most
    LAMBDA1_ROUNDOFF times a nonzero max_k ||Z_k'y|| / n: the constant
    effects alone fit the response.  An all-zero response gets the grid (0,).
    """
    top = lambda1_max(design)
    aty = design.gram[:-1, -1]
    scale = max(float(np.linalg.norm(aty[cols])) for cols in design.block_slices) / design.n
    if 0.0 < scale and top <= LAMBDA1_ROUNDOFF * scale:
        raise DegenerateDesignError(
            f"the constant effects fit the response to roundoff (lambda1_max {top:.1e} "
            f"against max_k ||Z_k'y||/n {scale:.1e}), so there is no lambda1 path to tune")
    if top <= 0.0:
        lam1 = tuple(np.zeros(1))
    else:
        bottom = top * DEFAULT_LAMBDA1_MIN_RATIO
        lam1 = tuple(np.logspace(np.log10(top), np.log10(bottom), lambda1_count))
    lam2 = tuple(sorted((float(v) for v in lambda2_values), reverse=True))
    return TuningGrid(lambda1_values=lam1, lambda2_values=lam2, gamma=gamma)


def ebic(fit: ModelFit, design: DesignBlocks, gamma: float = 0.5) -> float:
    """log(RSS/n) + (log n / n) df + (2 gamma log p / n) |S_vary|.

    df is the proxy p + q|S_vary|.  RSS exactly zero yields -inf so a
    perfect interpolant wins any comparison.
    """
    n, p, q = design.n, design.p, fit.basis.q
    rss = float(np.sum(residuals(design, fit) ** 2))
    n_vary = len(select_vary(fit))
    if rss == 0.0:
        return float("-inf")
    df = p + q * n_vary
    return float(np.log(rss / n) + np.log(n) / n * df + 2.0 * gamma * np.log(p) / n * n_vary)


def _argmin_with_tiebreak(surface: np.ndarray) -> tuple[int, int]:
    """Smallest value; ties (within TIE_RTOL) go to the smallest indices (largest penalties)."""
    best = None
    for i in range(surface.shape[0]):
        for j in range(surface.shape[1]):
            v = surface[i, j]
            if np.isnan(v):
                continue
            if best is None or v < surface[best] - TIE_RTOL * (1.0 + abs(surface[best])):
                best = (i, j)
    if best is None:
        raise TuningError("every grid point failed")
    return best


def _check_grid(grid: TuningGrid, method: str) -> None:
    """Reject a grid level the method would silently replace by its forced zero.

    group-lasso and screen-refit fit with lambda2 = 0 and vc-ridge with
    lambda1 = 0, whatever the grid says, so any other level would fill its
    cells with copies of the forced level's fits.
    """
    if (method in (METHOD_GROUP_LASSO, METHOD_SCREEN_REFIT)
            and any(v != 0.0 for v in grid.lambda2_values)):
        raise ConfigurationError(f"{method} tunes lambda1 only; use lambda2_values=(0,)")
    if method == METHOD_VC_RIDGE and any(v != 0.0 for v in grid.lambda1_values):
        raise ConfigurationError("vc-ridge tunes lambda2 only; use lambda1_values=(0,)")


def _fit_grid(design, basis, grid, options, method, score):
    """All grid fits on one design, warm-started down the lambda1 path at fixed lambda2.

    Each fit is scored as its column runs: `surface[i, j] = score(fit)`.
    Returns (surface, fits, failed, nonconverged); the last three are keyed
    by grid index (i, j), the last two give the reason of each point whose
    fit failed (its cell stays NaN) or stopped at max_iter (its cell is kept).
    A `UsageError` aborts the grid instead.
    """
    surface = np.full((len(grid.lambda1_values), len(grid.lambda2_values)), np.nan)
    fits, failed, nonconverged = {}, {}, {}
    for j, lam2 in enumerate(grid.lambda2_values):
        warm = None
        for i, lam1 in enumerate(grid.lambda1_values):
            pen = PenaltyConfig(lambda1=lam1, lambda2=lam2)
            try:
                if method == METHOD_TV_SELECT:
                    fit = fit_bcd(design, basis, pen, options, init=warm)
                else:
                    fit = fit_baseline(design, basis, method, pen, options, init=warm)
            except UsageError:
                raise       # a property of the design or options: every point would fail
            except (TVSelectError, np.linalg.LinAlgError) as exc:
                # numerical failure: keep scanning; the result records the point
                failed[(i, j)] = f"{type(exc).__name__}: {exc}"
                continue
            surface[i, j] = score(fit)
            fits[(i, j)] = warm = fit
            if not fit.converged:
                nonconverged[(i, j)] = f"stopped at max_iter={fit.iterations}"
    if not fits:
        raise TuningError(f"all {len(failed)} grid fits failed; "
                          f"first error: {next(iter(failed.values()))}")
    return surface, fits, failed, nonconverged


def _tuning_result(grid, surface, fit_at, criterion, failed, nonconverged) -> TuningResult:
    """The result at the tie-broken argmin (i, j) of `surface`, whose fit is `fit_at(i, j)`."""
    i, j = _argmin_with_tiebreak(surface)
    best_fit = fit_at(i, j)
    surface.setflags(write=False)
    return TuningResult(
        best_lambda1=grid.lambda1_values[i], best_lambda2=grid.lambda2_values[j],
        criterion_surface=surface, best_fit=best_fit, grid=grid, criterion=criterion,
        failed_points=tuple((*ij, why) for ij, why in sorted(failed.items())),
        nonconverged=tuple((*ij, why) for ij, why in sorted(nonconverged.items())),
    )


def tune_ebic(design: DesignBlocks, basis: CenteredSplineBasis, grid: TuningGrid,
              options: SolverOptions = SolverOptions(),
              method: str = METHOD_TV_SELECT) -> TuningResult:
    """Fit every grid point, scoring each fit's EBIC as it is made, and return the minimizer."""
    _check_grid(grid, method)
    surface, fits, failed, nonconverged = _fit_grid(
        design, basis, grid, options, method, lambda fit: ebic(fit, design, grid.gamma))
    return _tuning_result(grid, surface, lambda i, j: fits[(i, j)], "ebic", failed,
                          nonconverged)


def subject_folds(subject_ids, n_folds: int, seed) -> list[list[str]]:
    """Deterministic subject-wise folds from (sorted ids, K, seed)."""
    ids = sorted(set(str(s) for s in subject_ids))
    if n_folds > len(ids):
        raise ConfigurationError(f"K={n_folds} folds exceed N={len(ids)} subjects")
    if n_folds < 2:
        raise ConfigurationError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    return [[ids[i] for i in chunk] for chunk in np.array_split(perm, n_folds)]


def tune_cv(dataset: LongitudinalDataset, basis: CenteredSplineBasis, grid: TuningGrid,
            n_folds: int = 5, seed: int = 0,
            options: SolverOptions = SolverOptions()) -> TuningResult:
    """Subject-wise K-fold cross-validation of tv-select on mean squared prediction error.

    The dataset is used exactly as preprocessed by the caller; whole subjects
    are held out, and the winning pair is refit on the full data.  Each
    training fit is scored by its squared errors summed over the held-out
    rows as its column runs, and the fold surfaces are summed; every row is
    held out once, so the surface is that sum divided by n.  A grid point
    whose fit failed in any fold is NaN in the sum, and `failed_points`
    gives the first fold it failed in and why; `nonconverged` gives the first
    fold a point's fit stopped at max_iter in.  Each held-out design's own
    Gram of [A y] (G, A'y and y'y) is its fold's Gram; fold f trains on a
    design carrying the sum of the other folds' Grams (`with_gram`), the
    refit on the sum of all of them.  No fit reads a training design's rows.
    """
    folds = subject_folds(dataset.subject_ids, n_folds, seed)
    held_out_designs = [build_design(subset_subjects(dataset, held_out), basis)
                        for held_out in folds]
    fold_grams = [d_test.gram for d_test in held_out_designs]
    fold_sq_err, failed, nonconverged = [], {}, {}
    for f, (held_out, d_test) in enumerate(zip(folds, held_out_designs)):
        d_train = build_design(subset_subjects(dataset, held_out, others=True), basis).with_gram(
            sum(G for g, G in enumerate(fold_grams) if g != f))
        sq_err, _, fold_failed, fold_nonconverged = _fit_grid(
            d_train, basis, grid, options, METHOD_TV_SELECT,
            lambda fit: float(np.sum(residuals(d_test, fit) ** 2)))
        fold_sq_err.append(sq_err)
        for found, reasons in ((failed, fold_failed), (nonconverged, fold_nonconverged)):
            for ij, reason in reasons.items():
                found.setdefault(ij, f"fold {f + 1} of {len(folds)}: {reason}")
        del d_train         # freed before the next fold's training design is built

    def refit(i, j):
        pen = PenaltyConfig(lambda1=grid.lambda1_values[i], lambda2=grid.lambda2_values[j])
        return fit_bcd(build_design(dataset, basis).with_gram(sum(fold_grams)), basis, pen,
                       options)

    # a point that failed in any fold is NaN in its fold's surface, so in the sum
    return _tuning_result(grid, sum(fold_sq_err) / dataset.n_total, refit, "cv-mspe", failed,
                          nonconverged)
