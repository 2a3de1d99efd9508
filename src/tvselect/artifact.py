"""Round-trip serialization of fitted models as self-describing JSON.

The artifact carries the penalty configuration, basis construction, fitted
coefficients, convergence diagnostics, and the preprocessing state needed
to score new data; floats survive exactly via Python's repr round-trip.
"""

from __future__ import annotations

import json

import numpy as np

from .basis import CenteredSplineBasis, SplineConfig, build_basis_from_interior
from .data import LongitudinalDataset
from .errors import ArtifactMismatchError, ParseError
from .solver import ModelFit, PenaltyConfig

FORMAT_NAME = "tvselect-fit"
FORMAT_VERSION = 1


def _basis_payload(basis: CenteredSplineBasis) -> dict:
    return {
        "degree": basis.config.degree,
        "num_internal_knots": basis.config.num_internal_knots,
        "knot_placement": basis.config.knot_placement,
        "interior_knots": [float(v) for v in basis.interior_knots],
    }


def _rebuild_basis(payload: dict) -> CenteredSplineBasis:
    config = SplineConfig(
        degree=payload["degree"],
        num_internal_knots=payload["num_internal_knots"],
        knot_placement=payload["knot_placement"],
    )
    return build_basis_from_interior(config, payload["interior_knots"])


def fit_to_dict(fit: ModelFit, dataset: LongitudinalDataset | None = None) -> dict:
    state = dataset.preprocessing if dataset is not None else None
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "method": fit.method,
        "penalty": {
            "lambda1": fit.penalty.lambda1,
            "lambda2": fit.penalty.lambda2,
        },
        "basis": _basis_payload(fit.basis),
        "coefficients": {
            "beta0": fit.beta0,
            "mu": [float(v) for v in fit.mu],
            "theta": [[float(v) for v in th] for th in fit.theta],
        },
        "objective_trace": [float(v) for v in fit.objective_trace],
        "iterations": fit.iterations,
        "converged": fit.converged,
        "intercept": fit.intercept,
        "n_train": fit.n_train,
        "preprocessing": None,
    }
    if dataset is not None:
        payload["preprocessing"] = {
            "demeaned": state.demeaned,
            "center": [float(v) for v in state.center] if state.standardized else None,
            "scale": [float(v) for v in state.scale] if state.standardized else None,
            "time_domain": [float(dataset.time_domain[0]), float(dataset.time_domain[1])],
            "covariate_names": list(dataset.covariate_names),
        }
    return payload


def save_fit(fit: ModelFit, path, dataset: LongitudinalDataset | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fit_to_dict(fit, dataset), fh, indent=1, sort_keys=True)
        fh.write("\n")


def fit_from_dict(payload: dict) -> tuple[ModelFit, dict | None]:
    """Rebuild (fit, preprocessing payload) from a parsed artifact.

    A missing or ill-typed field, or a non-finite coefficient, raises
    `ParseError`.  Artifacts written by earlier versions carry
    `penalty.epsilon_prox`; it is ignored.
    """
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise ParseError(f"not a {FORMAT_NAME} artifact")
    if payload.get("version") != FORMAT_VERSION:
        raise ParseError(f"unsupported artifact version {payload.get('version')}")
    try:
        basis = _rebuild_basis(payload["basis"])
        coef = payload["coefficients"]
        beta0 = float(coef["beta0"])
        mu = np.asarray(coef["mu"], dtype=float)
        theta = np.asarray(coef["theta"], dtype=float)
        if mu.ndim != 1 or theta.shape != (mu.size, basis.q):
            raise ParseError("coefficient shapes inconsistent with the stored basis")
        if not (np.isfinite(beta0) and np.isfinite(mu).all() and np.isfinite(theta).all()):
            raise ParseError("coefficients beta0, mu and theta must be finite")
        pen = payload["penalty"]
        fit = ModelFit(
            beta0=beta0, mu=mu, theta=tuple(theta),
            objective_trace=np.asarray(payload["objective_trace"], dtype=float),
            iterations=int(payload["iterations"]), converged=bool(payload["converged"]),
            method=str(payload["method"]),
            penalty=PenaltyConfig(lambda1=float(pen["lambda1"]), lambda2=float(pen["lambda2"])),
            basis=basis, intercept=bool(payload["intercept"]),
            n_train=int(payload["n_train"]),
        )
        prep = payload.get("preprocessing")
        if prep is not None:
            _check_preprocessing(prep, fit.p)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {FORMAT_NAME} artifact: {type(exc).__name__}: {exc}") from exc
    return fit, prep


def _check_preprocessing(prep, p: int) -> None:
    """Raise unless `prep` can map new rows of p covariates onto the model scale."""
    if not isinstance(prep, dict):
        raise ParseError("preprocessing must be an object or null")

    def array(key, default=None):
        value = prep.get(key, default)
        return None if value is None else np.asarray(value, dtype=float)

    center, scale, domain = array("center"), array("scale"), array("time_domain", (0.0, 1.0))
    shapes = {None if arr is None else arr.shape for arr in (center, scale)}
    if shapes not in ({None}, {(p,)}):
        raise ParseError(f"preprocessing center and scale must both be null or hold {p} numbers")
    if center is not None and not (np.isfinite(center).all() and np.isfinite(scale).all()
                                   and (scale > 0.0).all()):
        raise ParseError("preprocessing center must be finite, and scale finite and > 0")
    if domain is None or domain.shape != (2,) or not (np.isfinite(domain).all()
                                                      and domain[0] < domain[1]):
        raise ParseError("preprocessing time_domain must hold 2 finite numbers lo < hi")
    names = prep.get("covariate_names")
    if names is not None and (not isinstance(names, list) or len(names) != p
                              or not all(isinstance(v, str) for v in names)):
        raise ParseError(f"preprocessing covariate_names must be null or {p} strings")


def load_fit(path) -> tuple[ModelFit, dict | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return fit_from_dict(payload)


def check_compatible(fit: ModelFit, preprocessing: dict | None,
                     dataset: LongitudinalDataset) -> None:
    """Raise unless the artifact can score the dataset."""
    if dataset.p != fit.p:
        raise ArtifactMismatchError(
            f"artifact expects {fit.p} covariates, data has {dataset.p}")
    if preprocessing and preprocessing.get("covariate_names"):
        stored = list(preprocessing["covariate_names"])
        if list(dataset.covariate_names) != stored:
            raise ArtifactMismatchError(
                f"covariate names differ: artifact {stored}, "
                f"data {list(dataset.covariate_names)}")
