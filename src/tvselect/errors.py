"""Exception types shared across the package.

The class alone says what a failure means.  A `UsageError` is a property
of the input or the options: it aborts a tuning grid, whose points all
share one design, and the CLI exits 2.  Any other `TVSelectError`, and
numpy's `LinAlgError`, is a numerical failure: a tuning grid records it
for its point and goes on, and the CLI exits 1.  A simulation study records
either kind, and only these, as a failed replication, since each
replication draws its own data; any other exception ends the study.
"""


class TVSelectError(Exception):
    """Base class for all package errors."""


class UsageError(TVSelectError):
    """The input or the options cannot be used, whatever the fit."""


class ConfigurationError(UsageError):
    """Invalid configuration value (degree, knot count, grid, folds, ...)."""


class DegenerateDesignError(UsageError):
    """The observed design cannot support the requested construction."""


class DegenerateColumnError(UsageError):
    """A covariate column is constant or identically zero."""


class ParseError(UsageError):
    """Malformed input file; message names the offending row/column."""


class ArtifactMismatchError(UsageError):
    """A stored fit artifact is incompatible with the supplied data."""


class DimensionError(TVSelectError):
    """Inconsistent array dimensions between inputs."""


class DomainError(TVSelectError):
    """An evaluation point is outside the supported domain."""


class SingularBlockError(TVSelectError):
    """A block system could not be factorized even after jitter."""


class OracleNonconvergenceError(TVSelectError):
    """The reference solver could not certify its solution as optimal."""


class TuningError(TVSelectError):
    """No grid point produced a usable fit."""


class StudyError(TVSelectError):
    """Too many replications of a simulation study failed."""
