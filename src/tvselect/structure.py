"""Three-way structural classification of covariate effects.

A covariate whose spline block is exactly nonzero is time-varying.  Among
the rest, constant effects are separated from null effects by comparing
|mu_k| to the vanishing threshold c * sqrt(log(p) / n); the comparison is
strict, so a value exactly at the threshold is classified as zero.
Classification operates on the (standardized) scale the model was fitted
on; reporting may back-transform mu, but the threshold rule does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .solver import ModelFit

CLASS_ZERO = "zero"
CLASS_CONST = "const"
CLASS_VARY = "vary"


@dataclass(frozen=True)
class StructuralPartition:
    """Disjoint index sets (0-based) covering {0..p-1}."""

    s_vary: frozenset
    s_const: frozenset
    s_zero: frozenset
    threshold_used: float

    @property
    def p(self) -> int:
        return len(self.s_vary) + len(self.s_const) + len(self.s_zero)

    def label(self, k: int) -> str:
        if k in self.s_vary:
            return CLASS_VARY
        if k in self.s_const:
            return CLASS_CONST
        return CLASS_ZERO

    def labels(self) -> list[str]:
        return [self.label(k) for k in range(self.p)]


def select_vary(fit: ModelFit) -> frozenset:
    """Indices with a nonzero spline block (exact-zero storage is decisive)."""
    return frozenset(k for k, th in enumerate(fit.theta) if th.any())


def threshold(n: int, p: int, multiplier: float = 1.0) -> float:
    """c * sqrt(log(p) / n) for a finite c >= 0; zero when p = 1."""
    if n < 2:
        raise ConfigurationError(f"need n >= 2 observations, got {n}")
    if p < 1:
        raise ConfigurationError(f"need p >= 1 covariates, got {p}")
    if not 0.0 <= multiplier < math.inf:
        raise ConfigurationError(f"threshold multiplier must be finite and >= 0, got {multiplier}")
    return multiplier * math.sqrt(math.log(p) / n)


def classify(fit: ModelFit, threshold_multiplier: float = 1.0) -> StructuralPartition:
    """Partition covariates into zero / constant / time-varying effects.

    The threshold uses the fit's n_train and p.  Varying status is decided by
    the nonzero blocks alone; mu is not consulted for those indices.
    """
    tau = threshold(fit.n_train, fit.p, threshold_multiplier)
    vary = select_vary(fit)
    const, zero = set(), set()
    for k in range(fit.p):
        if k in vary:
            continue
        (const if abs(fit.mu[k]) > tau else zero).add(k)
    return StructuralPartition(
        s_vary=vary, s_const=frozenset(const), s_zero=frozenset(zero),
        threshold_used=tau,
    )
