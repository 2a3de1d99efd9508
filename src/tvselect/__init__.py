"""Doubly penalized varying-coefficient models for longitudinal data.

Decomposes each covariate effect into a constant part and a centered
time-varying deviation, selects nonzero deviations with a group penalty,
smooths them with a curvature penalty, and classifies every covariate as
zero, constant, or time-varying.
"""

from .basis import (
    CenteredSplineBasis,
    SplineConfig,
    build_basis,
    build_basis_from_interior,
)
from .data import (
    DesignBlocks,
    LongitudinalDataset,
    PreprocessState,
    SubjectRecord,
    build_design,
    demean_within_subject,
    from_arrays,
    load_long_csv,
    standardize,
)
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
    fit_oracle,
    fitted_values,
    objective,
    predict,
    residuals,
)
from .structure import StructuralPartition, classify, select_vary, threshold
from .tuning import (
    TuningGrid,
    TuningResult,
    default_grid,
    ebic,
    lambda1_max,
    tune_cv,
    tune_ebic,
)
from .simulate import (
    MetricsReport,
    ScenarioSpec,
    StudyOptions,
    TrueStructure,
    generate,
    make_scenario,
    make_truth,
    run_study,
    score_fit,
    stability,
)
from .artifact import load_fit, save_fit

__version__ = "0.1.0"
