"""Scenario generators, scoring, and the replicated method-comparison study.

Six scenario families (A..F) vary predictor correlation, within-subject
error correlation, error tails, covariate drift, and signal strength.  Each
replication generates one training set and one test set, fits every method
on identical standardized data, tunes by EBIC, and scores estimation,
structure recovery, and prediction.  Child seeds are derived from
(study seed, scenario, replication), so adding replications never changes
earlier ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import SplineConfig, build_basis
from .data import LongitudinalDataset, PreprocessState, build_design, from_arrays, standardize
from .errors import ConfigurationError, StudyError, TVSelectError
from .solver import (
    METHOD_GROUP_LASSO,
    METHOD_SCREEN_REFIT,
    METHOD_TV_SELECT,
    METHOD_VC_RIDGE,
    METHODS,
    ModelFit,
    PenaltyConfig,
    SolverOptions,
    fit_baseline,
    predict,
)
from .structure import CLASS_CONST, CLASS_VARY, CLASS_ZERO, classify, select_vary
from .tuning import TuningGrid, default_grid, tune_ebic

SCENARIOS = ("A", "B", "C", "D", "E", "F")

ERROR_GAUSS = "gauss"
ERROR_STUDENT_T = "student-t"
ERROR_HETEROSCEDASTIC = "heteroscedastic"
ERROR_AR1 = "ar1"
ERROR_MODELS = (ERROR_GAUSS, ERROR_STUDENT_T, ERROR_HETEROSCEDASTIC, ERROR_AR1)

TIME_REGULAR = "regular"
TIME_IRREGULAR = "irregular"

COV_BASELINE = "baseline"
COV_TIME_VARYING = "time-varying"

METRIC_NAMES = ("ise", "mse_mu", "mse_mu_act", "re", "tpr_vary", "fpr_vary",
                "class_acc", "stab", "mspe")

CURVE_GRID_SIZE = 200          # points on [0,1] for curve errors and curve outputs
MAX_FAILURE_FRACTION = 0.10    # failed replications a scenario tolerates

# Deviation templates: (value, second derivative, integral over [0,1]).
_TEMPLATES = (
    (lambda t: np.sin(2 * np.pi * t),
     lambda t: -4 * np.pi ** 2 * np.sin(2 * np.pi * t), 0.0),
    (lambda t: np.cos(2 * np.pi * t),
     lambda t: -4 * np.pi ** 2 * np.cos(2 * np.pi * t), 0.0),
    (lambda t: np.sin(4 * np.pi * t),
     lambda t: -16 * np.pi ** 2 * np.sin(4 * np.pi * t), 0.0),
    (lambda t: np.cos(4 * np.pi * t),
     lambda t: -16 * np.pi ** 2 * np.cos(4 * np.pi * t), 0.0),
    (lambda t: 16 * t ** 2 * (1 - t) ** 2,
     lambda t: 16 * (2 - 12 * t + 12 * t ** 2), 8.0 / 15.0),
    (lambda t: np.sin(np.pi * t),
     lambda t: -np.pi ** 2 * np.sin(np.pi * t), 2.0 / np.pi),
)
MAX_TEMPLATES = len(_TEMPLATES)


@dataclass(frozen=True)
class ScenarioSpec:
    """One Monte Carlo configuration; see `make_scenario` for the presets."""

    scenario: str
    N: int = 100
    n_i: int = 5
    p: int = 100
    rho: float = 0.3
    alpha: float = 0.3
    sigma: float = 1.0
    sigma_x2: float = 0.1
    amplitude: float = 1.0
    error_model: str = ERROR_GAUSS
    t_df: float = 3.0
    time_design: str = TIME_IRREGULAR
    covariate_design: str = COV_BASELINE
    s_v: int = 6
    s_c: int = 6
    q: int = 8

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(f"scenario must be one of {SCENARIOS}")
        if self.N < 1 or self.n_i < 1 or self.p < 1:
            raise ConfigurationError("N, n_i, p must be positive")
        if self.time_design not in (TIME_REGULAR, TIME_IRREGULAR):
            raise ConfigurationError(f"unknown time_design '{self.time_design}'")
        if self.time_design == TIME_REGULAR and self.n_i < 2:
            raise ConfigurationError("regular time design needs n_i >= 2")
        if self.covariate_design not in (COV_BASELINE, COV_TIME_VARYING):
            raise ConfigurationError(f"unknown covariate_design '{self.covariate_design}'")
        if self.error_model not in ERROR_MODELS:
            raise ConfigurationError(f"unknown error_model '{self.error_model}'")
        for name in ("sigma", "sigma_x2", "amplitude", "t_df"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        if not -1 < self.rho < 1 or not -1 < self.alpha < 1:
            raise ConfigurationError("rho and alpha must lie in (-1, 1)")
        if self.error_model == ERROR_STUDENT_T and self.t_df <= 2:
            raise ConfigurationError("student-t errors need t_df > 2 for variance scaling")
        if self.s_v < 0 or self.s_c < 0:
            raise ConfigurationError("s_v and s_c must be non-negative")
        if self.s_v > MAX_TEMPLATES:
            raise ConfigurationError(f"s_v={self.s_v} exceeds the {MAX_TEMPLATES} "
                                     "available deviation templates")
        if self.s_v + self.s_c > self.p:
            raise ConfigurationError(f"s_v + s_c = {self.s_v + self.s_c} exceeds p = {self.p}")
        if self.sigma_x2 < 0:
            raise ConfigurationError("sigma_x2 must be non-negative")
        if self.scenario == "B" and self.rho != 0.6:
            raise ConfigurationError("scenario B fixes rho = 0.6")
        if self.scenario == "F" and self.amplitude != 0.5:
            raise ConfigurationError("scenario F fixes amplitude = 0.5")
        SplineConfig.from_q(self.q)         # refuses a q the cubic basis cannot have

    @property
    def n_total(self) -> int:
        return self.N * self.n_i

    def config_label(self) -> str:
        return f"N={self.N}/n_i={self.n_i}/p={self.p}"


_SCENARIO_PRESETS = {
    "A": {},
    "B": {"rho": 0.6},
    "C": {"time_design": TIME_REGULAR, "error_model": ERROR_AR1},
    "D": {"error_model": ERROR_STUDENT_T},
    "E": {"covariate_design": COV_TIME_VARYING},
    "F": {"amplitude": 0.5},
}


def make_scenario(scenario: str, N: int, n_i: int, p: int, **overrides) -> ScenarioSpec:
    """Scenario preset with overrides; ScenarioSpec rejects overrides of forced fields."""
    if scenario not in SCENARIOS:
        raise ConfigurationError(f"scenario must be one of {SCENARIOS}")
    preset = dict(_SCENARIO_PRESETS[scenario])
    preset.update(overrides)
    return ScenarioSpec(scenario=scenario, N=N, n_i=n_i, p=p, **preset)


@dataclass(frozen=True)
class TrueStructure:
    """Ground-truth constant effects and centered deviation functions."""

    mu0: np.ndarray
    template_ids: tuple          # one template per varying index, in order
    amplitude: float
    s_vary: frozenset
    s_const: frozenset
    s_zero: frozenset

    @property
    def p(self) -> int:
        return len(self.mu0)

    def _template(self, k: int):
        pos = sorted(self.s_vary).index(k)
        return _TEMPLATES[self.template_ids[pos]]

    def g0(self, k: int, t) -> np.ndarray:
        """Centered deviation of covariate k (zero off the varying set)."""
        t = np.asarray(t, dtype=float)
        if k not in self.s_vary:
            return np.zeros_like(t)
        fn, _, offset = self._template(k)
        return self.amplitude * (fn(t) - offset)

    def g0_second_derivative(self, k: int, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if k not in self.s_vary:
            return np.zeros_like(t)
        _, dd, _ = self._template(k)
        return self.amplitude * dd(t)

    def beta(self, k: int, t) -> np.ndarray:
        return self.mu0[k] + self.g0(k, t)

    def labels(self) -> list[str]:
        return [CLASS_VARY if k in self.s_vary else
                CLASS_CONST if k in self.s_const else CLASS_ZERO
                for k in range(self.p)]


def make_truth(spec: ScenarioSpec) -> TrueStructure:
    """Assign templates and +-1 constant effects per the scenario layout.

    Varying effects take templates 1..s_v; scenario F swaps the last one for
    the half-sine template when s_v < 6 so mild non-smoothness is always
    represented.  Constant effects split evenly into +1 / -1.
    """
    s_vary = frozenset(range(spec.s_v))
    s_const = frozenset(range(spec.s_v, spec.s_v + spec.s_c))
    s_zero = frozenset(range(spec.s_v + spec.s_c, spec.p))
    mu0 = np.zeros(spec.p)
    const_sorted = sorted(s_const)
    half = (len(const_sorted) + 1) // 2
    for k in const_sorted[:half]:
        mu0[k] = 1.0
    for k in const_sorted[half:]:
        mu0[k] = -1.0
    ids = list(range(spec.s_v))
    if spec.scenario == "F" and spec.s_v < MAX_TEMPLATES and spec.s_v >= 1:
        ids[-1] = MAX_TEMPLATES - 1
    mu0.setflags(write=False)
    return TrueStructure(mu0=mu0, template_ids=tuple(ids), amplitude=spec.amplitude,
                         s_vary=s_vary, s_const=s_const, s_zero=s_zero)


def _draw_errors(spec: ScenarioSpec, t: np.ndarray, rng) -> np.ndarray:
    n = len(t)
    if spec.error_model == ERROR_GAUSS:
        return spec.sigma * rng.standard_normal(n)
    if spec.error_model == ERROR_STUDENT_T:
        scale = spec.sigma * math.sqrt((spec.t_df - 2.0) / spec.t_df)
        return scale * rng.standard_t(spec.t_df, size=n)
    if spec.error_model == ERROR_HETEROSCEDASTIC:
        sd = spec.sigma * (1.0 + 0.5 * np.sin(2 * np.pi * t))
        return sd * rng.standard_normal(n)
    # AR(1) within subject: Sigma = sigma^2 * alpha^{|j-l|}
    lags = np.abs(np.subtract.outer(np.arange(spec.n_i), np.arange(spec.n_i)))
    chol = np.linalg.cholesky(spec.alpha ** lags)
    eps = rng.standard_normal((spec.N, spec.n_i))
    return spec.sigma * (eps @ chol.T).ravel()


def generate(spec: ScenarioSpec, truth: TrueStructure | None = None, *,
             seed) -> LongitudinalDataset:
    """Draw one longitudinal dataset from the scenario's data-generating process.

    Returned covariates are raw; standardize before fitting to mirror the
    benchmark pipeline.  Times are already on [0,1].
    """
    if truth is None:
        truth = make_truth(spec)
    rng = np.random.default_rng(seed)
    N, n_i, p = spec.N, spec.n_i, spec.p
    n = N * n_i

    if spec.time_design == TIME_REGULAR:
        times = np.tile(np.arange(n_i) / (n_i - 1), N)
    else:
        times = np.sort(rng.uniform(0.0, 1.0, size=(N, n_i)), axis=1).ravel()

    lags = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    cov = spec.rho ** lags
    base = rng.standard_normal((N, p)) @ np.linalg.cholesky(cov).T
    X = np.repeat(base, n_i, axis=0)
    if spec.covariate_design == COV_TIME_VARYING:
        X = X + math.sqrt(spec.sigma_x2) * rng.standard_normal((n, p))

    y = X @ truth.mu0
    for k in sorted(truth.s_vary):
        y = y + X[:, k] * truth.g0(k, times)
    y = y + _draw_errors(spec, times, rng)

    sids = np.repeat([f"s{i:06d}" for i in range(N)], n_i)
    return from_arrays(sids, times, y, X, rescale=False)


def score_fit(fit: ModelFit, truth: TrueStructure, prep: PreprocessState = PreprocessState(),
              test_set: LongitudinalDataset | None = None) -> dict:
    """All single-replication metrics; coefficient errors on the raw scale.

    The fit lives on the scale of the training record `prep`, so curves and
    mu are divided by its scales before comparison with the truth, and the
    raw test rows are mapped onto that scale before prediction.
    Classification stays on the standardized scale.
    """
    p = fit.p
    scale = np.ones(p) if prep.scale is None else prep.scale
    tgrid = np.linspace(0.0, 1.0, CURVE_GRID_SIZE)
    curves = fit.coefficient_curves(tgrid) / scale[:, None]
    truth_curves = np.vstack([truth.beta(k, tgrid) for k in range(p)])
    ise = float(np.mean((curves - truth_curves) ** 2))

    mu_raw = fit.mu / scale
    mse_mu = float(np.sum((mu_raw - truth.mu0) ** 2)) / p
    const = sorted(truth.s_const)
    mse_mu_act = (float(np.sum((mu_raw[const] - truth.mu0[const]) ** 2)) / len(const)
                  if const else 0.0)

    vary_true = sorted(truth.s_vary)
    if vary_true:
        tq = np.linspace(0.0, 1.0, 1000)
        d2 = fit.basis.eval_second_derivative(tq)
        total = 0.0
        for k in vary_true:
            ghat_dd = d2 @ fit.theta[k] / scale[k]
            diff = ghat_dd - truth.g0_second_derivative(k, tq)
            total += float(np.trapezoid(diff ** 2, tq))
        re = total / len(vary_true)
    else:
        re = 0.0

    part = classify(fit)
    s_hat = part.s_vary
    n_true = len(truth.s_vary)
    n_false = p - n_true
    tpr = len(s_hat & truth.s_vary) / n_true if n_true else 1.0
    fpr = len(s_hat - truth.s_vary) / n_false if n_false else 0.0
    class_acc = float(np.mean([a == b for a, b in zip(part.labels(), truth.labels())]))

    out = {"ise": ise, "mse_mu": mse_mu, "mse_mu_act": mse_mu_act, "re": re,
           "tpr_vary": tpr, "fpr_vary": fpr, "class_acc": class_acc}
    if test_set is not None:
        pred = predict(fit, *prep.to_model_scale(test_set.X, test_set.times))
        out["mspe"] = float(np.mean((test_set.y - pred) ** 2))
    return out


def stability(selected_sets) -> float:
    """Average pairwise Jaccard similarity of selected index sets.

    Two empty sets count as perfectly stable; an empty set against a
    non-empty one counts as 0.
    """
    sets = [frozenset(s) for s in selected_sets]
    if len(sets) < 2:
        raise ConfigurationError("stability needs at least 2 replications")
    total, pairs = 0.0, 0
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            a, b = sets[i], sets[j]
            if not a and not b:
                total += 1.0
            else:
                union = len(a | b)
                total += len(a & b) / union if union else 1.0
            pairs += 1
    return total / pairs


@dataclass(frozen=True)
class StudyOptions:
    """Knobs for the replicated study; defaults mirror the benchmark design.

    Fits use `SolverOptions()` and the lambda1 path of `default_grid`.  The
    study lambda2 grid reaches lower than the generic tuning default:
    the curvature matrix has operator norm in the thousands, so useful
    smoothing levels for the 1/(2n)-scaled loss sit near 1e-6..1e-3.
    """

    methods: tuple = METHODS
    gamma: float = 0.5
    lambda1_count: int = 20
    lambda2_values: tuple = tuple(np.logspace(0.0, -6.0, 5))
    n_test: int = 500

    def __post_init__(self):
        if not self.methods:
            raise ConfigurationError(f"methods must name at least one of {METHODS}")
        for m in self.methods:
            if m not in METHODS or self.methods.count(m) > 1:
                raise ConfigurationError(f"unknown or repeated method '{m}', expected distinct "
                                         f"names from {METHODS}")
        if self.n_test < 1:
            raise ConfigurationError("n_test must be >= 1")
        if self.lambda1_count < 1:
            raise ConfigurationError("lambda1_count must be >= 1")
        # every replication's tuning grid checks these; refuse them before any data are drawn
        TuningGrid((0.0,), sorted(map(float, self.lambda2_values), reverse=True), self.gamma)


@dataclass(frozen=True)
class MetricsReport:
    """Mean and Monte Carlo standard error of each metric for one method, and
    the raw-scale curves (p, CURVE_GRID_SIZE) of its replication-0 fit, None if that failed."""

    spec: ScenarioSpec
    method: str
    means: dict
    ses: dict
    n_replications: int
    n_failures: int
    curves: np.ndarray | None = None

    def rows(self):
        for name in METRIC_NAMES:
            if name in self.means:
                yield (self.spec.scenario, self.spec.config_label(), self.method,
                       name, self.means[name], self.ses.get(name, float("nan")))


def _child_seeds(seed: int, spec: ScenarioSpec, r: int):
    scen = SCENARIOS.index(spec.scenario)
    ss = np.random.SeedSequence(entropy=(int(seed), scen, int(r)))
    return ss.spawn(2)


def fit_study_methods(design, basis, opts: StudyOptions) -> dict:
    """EBIC-tuned fit per method on a shared design (paired comparison)."""
    sopt = SolverOptions()
    grid_tv = default_grid(design, gamma=opts.gamma, lambda1_count=opts.lambda1_count,
                           lambda2_values=opts.lambda2_values)
    fits = {}
    if METHOD_TV_SELECT in opts.methods:
        fits[METHOD_TV_SELECT] = tune_ebic(design, basis, grid_tv, sopt).best_fit
    gl_result = None
    if METHOD_GROUP_LASSO in opts.methods or METHOD_SCREEN_REFIT in opts.methods:
        grid_gl = TuningGrid(grid_tv.lambda1_values, (0.0,), opts.gamma)
        gl_result = tune_ebic(design, basis, grid_gl, sopt, method=METHOD_GROUP_LASSO)
    if METHOD_GROUP_LASSO in opts.methods:
        fits[METHOD_GROUP_LASSO] = gl_result.best_fit
    if METHOD_SCREEN_REFIT in opts.methods:
        pen = PenaltyConfig(lambda1=gl_result.best_lambda1, lambda2=0.0)
        fits[METHOD_SCREEN_REFIT] = fit_baseline(design, basis, METHOD_SCREEN_REFIT,
                                                 pen, sopt)
    if METHOD_VC_RIDGE in opts.methods:
        grid_vc = TuningGrid((0.0,), grid_tv.lambda2_values, opts.gamma)
        fits[METHOD_VC_RIDGE] = tune_ebic(design, basis, grid_vc, sopt,
                                          method=METHOD_VC_RIDGE).best_fit
    return fits


def _run_replication(payload):
    """Draw, fit and score one replication: each method's metrics and selected set,
    and for replication 0 only (else None) its raw-scale curves on CURVE_GRID_SIZE times."""
    spec, r, seed, opts = payload
    train_ss, test_ss = _child_seeds(seed, spec, r)
    truth = make_truth(spec)
    test = generate(replace(spec, N=opts.n_test), truth, seed=test_ss)
    train_std = standardize(generate(spec, truth, seed=train_ss))
    prep = train_std.preprocessing
    basis = build_basis(SplineConfig.from_q(spec.q))
    fits = fit_study_methods(build_design(train_std, basis), basis, opts)
    metrics = {m: score_fit(fit, truth, prep, test_set=test) for m, fit in fits.items()}
    selected = {m: tuple(sorted(select_vary(fit))) for m, fit in fits.items()}
    tgrid = np.linspace(0.0, 1.0, CURVE_GRID_SIZE)
    curves = None if r else {m: fit.coefficient_curves(tgrid) / prep.scale[:, None]
                             for m, fit in fits.items()}
    return metrics, selected, curves


def run_study(spec: ScenarioSpec, R: int, seed: int = 0, parallelism: int = 1,
              options: StudyOptions = StudyOptions()) -> list[MetricsReport]:
    """Replicated paired comparison of the configured methods; one report per method.

    Reports follow `options.methods`.  `seed` is the study's only seed.  Each
    replication is drawn, fitted and scored once, and the report's `curves`
    come from replication 0's fits.  A replication that raises a package
    error or `LinAlgError` is recorded as failed (`n_failures`); more than
    MAX_FAILURE_FRACTION of R raise `StudyError`, and any other exception
    propagates.  Replications run in min(parallelism, R) processes, serially
    when that is 1.  Aggregation is deterministic and independent of `parallelism`.
    """
    if R < 1:
        raise ConfigurationError("R must be >= 1")
    if parallelism < 1:
        raise ConfigurationError(f"parallelism must be >= 1, got {parallelism}")
    workers = min(parallelism, R)
    payloads = [(spec, r, seed, options) for r in range(R)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_run_replication_safe, payloads))
    else:
        raw = [_run_replication_safe(pl) for pl in payloads]

    failures = [err for err in raw if isinstance(err, str)]
    results = [res for res in raw if not isinstance(res, str)]
    curves = None if isinstance(raw[0], str) else raw[0][2]
    if len(failures) > MAX_FAILURE_FRACTION * R:
        raise StudyError(
            f"{len(failures)}/{R} replications failed for scenario {spec.scenario}; "
            f"first failure: {failures[0]}"
        )
    reports = []
    for method in options.methods:
        rows = [metrics[method] for metrics, _, _ in results]
        means, ses = {}, {}
        for name in rows[0].keys():
            vals = np.array([row[name] for row in rows])
            means[name] = float(vals.mean())
            ses[name] = (float(vals.std(ddof=1) / math.sqrt(len(vals)))
                         if len(vals) > 1 else float("nan"))
        if len(rows) >= 2:
            means["stab"] = stability([selected[method] for _, selected, _ in results])
        ses["stab"] = float("nan")
        reports.append(MetricsReport(
            spec=spec, method=method, means=means, ses=ses,
            n_replications=len(rows), n_failures=len(failures),
            curves=None if curves is None else curves[method],
        ))
    return reports


def _run_replication_safe(payload):
    try:
        return _run_replication(payload)
    except (TVSelectError, np.linalg.LinAlgError) as exc:   # recorded; run_study caps them
        return f"{type(exc).__name__}: {exc}"


def format_summary(reports) -> str:
    """Human-readable study table."""
    lines = []
    header = f"{'scenario':>8} {'config':>20} {'method':>13} " + " ".join(
        f"{m:>10}" for m in METRIC_NAMES)
    lines.append(header)
    lines.append("-" * len(header))
    for rep in reports:
        cells = []
        for m in METRIC_NAMES:
            v = rep.means.get(m)
            cells.append(f"{v:>10.4f}" if v is not None else f"{'--':>10}")
        lines.append(f"{rep.spec.scenario:>8} {rep.spec.config_label():>20} "
                     f"{rep.method:>13} " + " ".join(cells))
    return "\n".join(lines)
