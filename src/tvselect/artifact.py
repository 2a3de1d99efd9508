"""Round-trip serialization of fitted models as self-describing JSON.

The artifact carries the penalty configuration, basis construction, fitted
coefficients, convergence diagnostics, and the preprocessing state needed
to score new data; floats survive exactly via Python's repr round-trip.
"""

from __future__ import annotations

import json

import numpy as np

from .basis import CenteredSplineBasis, SplineConfig, build_basis_from_interior
from .data import LongitudinalDataset, PreprocessState
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


def fit_to_dict(fit: ModelFit, dataset: LongitudinalDataset) -> dict:
    state = dataset.preprocessing
    return {
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
            "mu": fit.mu.tolist(),
            "theta": fit.theta.tolist(),
        },
        "objective_trace": [float(v) for v in fit.objective_trace],
        "iterations": fit.iterations,
        "converged": fit.converged,
        "intercept": fit.intercept,
        "n_train": fit.n_train,
        "preprocessing": {
            "demeaned": state.demeaned,
            "center": [float(v) for v in state.center] if state.standardized else None,
            "scale": [float(v) for v in state.scale] if state.standardized else None,
            "time_domain": [float(v) for v in state.time_domain],
            "covariate_names": list(dataset.covariate_names),
        },
    }


def save_fit(fit: ModelFit, path, dataset: LongitudinalDataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fit_to_dict(fit, dataset), fh, indent=1, sort_keys=True)
        fh.write("\n")


def fit_from_dict(payload: dict) -> tuple[ModelFit, PreprocessState, tuple | None]:
    """Rebuild (fit, preprocessing record, covariate names) from a parsed artifact.

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
            beta0=beta0, mu=mu, theta=theta,
            objective_trace=np.asarray(payload["objective_trace"], dtype=float),
            iterations=int(payload["iterations"]), converged=bool(payload["converged"]),
            method=str(payload["method"]),
            penalty=PenaltyConfig(lambda1=float(pen["lambda1"]), lambda2=float(pen["lambda2"])),
            basis=basis, intercept=bool(payload["intercept"]),
            n_train=int(payload["n_train"]),
        )
        state, names = _read_preprocessing(payload.get("preprocessing"), fit.p)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed {FORMAT_NAME} artifact: {type(exc).__name__}: {exc}") from exc
    return fit, state, names


def _read_preprocessing(prep, p: int) -> tuple[PreprocessState, tuple | None]:
    """The record mapping new rows of p covariates onto the model scale, and the names.

    Null is the identity map with no names; a record without `time_domain`
    leaves times as they are.  Raises unless the record is usable.
    """
    if prep is None:
        return PreprocessState(), None
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
    state = PreprocessState(demeaned=bool(prep.get("demeaned", False)), center=center,
                            scale=scale, time_domain=tuple(domain.tolist()))
    return state, None if names is None else tuple(names)


def load_fit(path) -> tuple[ModelFit, PreprocessState, tuple | None]:
    """(fit, preprocessing record, covariate names) of a saved artifact; see `fit_from_dict`."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return fit_from_dict(payload)


def check_compatible(fit: ModelFit, names: tuple | None,
                     dataset: LongitudinalDataset) -> None:
    """Raise unless the artifact can score the dataset; names of None match any."""
    if dataset.p != fit.p:
        raise ArtifactMismatchError(
            f"artifact expects {fit.p} covariates, data has {dataset.p}")
    if names is not None and dataset.covariate_names != names:
        raise ArtifactMismatchError(
            f"covariate names differ: artifact {list(names)}, "
            f"data {list(dataset.covariate_names)}")
