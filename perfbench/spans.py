"""Spans around tvselect's public functions, installed from outside the package.

`install` replaces each target function with a wrapper that records a span
(name, layer, start, end, parent) per call.  A module that did
`from .solver import fit_bcd` holds its own reference to the function, so
the wrapper is written into every tvselect module (and class) that binds the
original object, not only the defining one.  Spans stay in memory until the
run writes them out.

`layer_metrics` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import time

import numpy as np

from tvselect.solver import METHODS

LAYERS = ("basis", "data", "solver", "structure", "tuning", "simulate", "cli", "artifact")
TUNING_SPANS = ("tuning.tune_ebic", "tuning.tune_cv")


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "start", "end", "info")

    def __init__(self, sid, parent, name, layer):
        self.sid, self.parent, self.name, self.layer = sid, parent, name, layer
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "name": self.name,
                "layer": self.layer, "start": self.start, "end": self.end,
                "info": self.info}


class Tracer:
    """Span recorder; one per run, single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, layer, name, fn, describe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1].sid if stack else -1, name, layer)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        return traced

    def mark(self) -> int:
        return len(self.spans)

    def since(self, mark: int) -> list[Span]:
        return self.spans[mark:]

    def surfaces(self, mark: int = 0) -> list[tuple[int, int]]:
        """(cells, NaN cells) of every tuning surface returned since `mark`."""
        return [(s.info["cells"], s.info["nan"]) for s in self.since(mark)
                if s.name in TUNING_SPANS and s.info]

    def write(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": [s.as_dict() for s in self.spans]}, fh)
            fh.write("\n")


# ---------------------------------------------------------------- describers
# Each runs after the wrapped call returns and keeps only plain numbers.

def _fit_info(args, kwargs, fit):
    design, basis = args[0], args[1]
    n_vary = sum(1 for th in fit.theta if np.any(th))
    return {"method": fit.method, "iterations": int(fit.iterations),
            "converged": bool(fit.converged), "n": design.n, "p": design.p,
            "q": basis.q, "n_vary": n_vary}


def _baseline_info(args, kwargs, fit):
    method = kwargs.get("method", args[2] if len(args) > 2 else None)
    return {"method": method}


def _tuning_info(args, kwargs, result):
    surface = np.asarray(result.criterion_surface)
    return {"cells": int(surface.size), "nan": int(np.isnan(surface).sum())}


def _design_info(args, kwargs, design):
    nbytes = design.y.nbytes + design.X.nbytes + sum(Zk.nbytes for Zk in design.Z)
    return {"bytes": int(nbytes)}


def _load_info(args, kwargs, dataset):
    return {"rows": int(dataset.n_total)}


def _save_info(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _study_info(args, kwargs, reports):
    # one scenario: every method's report carries the same counts
    return {"replications": reports[0].n_replications, "failed": reports[0].n_failures}


def _main_info(args, kwargs, code):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0], "exit": code}


# (layer, module, attribute path, describer)
TARGETS = (
    ("basis", "tvselect.basis", "build_basis", None),
    ("basis", "tvselect.basis", "build_basis_from_interior", None),
    ("basis", "tvselect.basis", "CenteredSplineBasis.eval_centered", None),
    ("basis", "tvselect.basis", "CenteredSplineBasis.eval_second_derivative", None),
    ("data", "tvselect.data", "from_arrays", None),
    ("data", "tvselect.data", "load_long_csv", _load_info),
    ("data", "tvselect.data", "standardize", None),
    ("data", "tvselect.data", "demean_within_subject", None),
    ("data", "tvselect.data", "build_design", _design_info),
    ("solver", "tvselect.solver", "precompute_block_factors", None),
    ("solver", "tvselect.solver", "fit_bcd", _fit_info),
    ("solver", "tvselect.solver", "fit_baseline", _baseline_info),
    ("solver", "tvselect.solver", "fitted_values", None),
    ("solver", "tvselect.solver", "residuals", None),
    ("structure", "tvselect.structure", "classify", None),
    ("tuning", "tvselect.tuning", "lambda1_max", None),
    ("tuning", "tvselect.tuning", "default_grid", None),
    ("tuning", "tvselect.tuning", "ebic", None),
    ("tuning", "tvselect.tuning", "tune_ebic", _tuning_info),
    ("tuning", "tvselect.tuning", "tune_cv", _tuning_info),
    ("simulate", "tvselect.simulate", "run_study", _study_info),
    ("simulate", "tvselect.simulate", "fit_study_methods", None),
    ("simulate", "tvselect.simulate", "generate", None),
    ("simulate", "tvselect.simulate", "score_fit", None),
    ("cli", "tvselect.cli", "main", _main_info),
    ("artifact", "tvselect.artifact", "save_fit", _save_info),
    ("artifact", "tvselect.artifact", "load_fit", None),
)

# Untraced runs wrap only these: a few calls per pass, enough to read the
# tuning surfaces that run_study does not return (NaN cells are failures).
SURFACE_TARGETS = tuple(t for t in TARGETS if f"{t[0]}.{t[2]}" in TUNING_SPANS)


def _package_namespaces():
    import tvselect
    mods = [tvselect]
    for info in pkgutil.iter_modules(tvselect.__path__):
        mods.append(importlib.import_module(f"tvselect.{info.name}"))
    spaces = []
    for mod in mods:
        spaces.append(mod)
        spaces.extend(v for v in vars(mod).values()
                      if isinstance(v, type) and v.__module__ == mod.__name__)
    return spaces


class Installed:
    """The patches one `install` made; `uninstall` restores the originals."""

    def __init__(self, patches):
        self.patches = patches

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.patches):
            setattr(owner, key, original)
        self.patches = []


def install(tracer: Tracer, targets=TARGETS) -> Installed:
    spaces = _package_namespaces()
    patches = []
    for layer, modname, attr_path, describe in targets:
        owner = importlib.import_module(modname)
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = tracer.wrap(layer, f"{layer}.{attr}", original, describe)
        for space in spaces:
            for key, value in list(vars(space).items()):
                if value is original:
                    setattr(space, key, wrapper)
                    patches.append((space, key, original))
    return Installed(patches)


# ------------------------------------------------------------------ metrics


def span_counts(spans) -> dict:
    counts = {}
    for s in spans:
        counts[s.name] = counts.get(s.name, 0) + 1
    return counts


def _child_time(spans) -> dict:
    """span id -> summed duration of its direct children."""
    child = {}
    for s in spans:
        child[s.parent] = child.get(s.parent, 0.0) + s.duration
    return child


def _self_of(spans, child_time) -> float:
    return float(sum(s.duration - child_time.get(s.sid, 0.0) for s in spans))


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one pass, as {name: (value, unit)}."""
    by_id = {s.sid: s for s in spans}
    names = {}
    for s in spans:
        names.setdefault(s.name, []).append(s)

    def get(name):
        return names.get(name, [])

    def total(*span_names):
        """Summed duration; spans nested in another span of the set count once."""
        wanted = set(span_names)
        return float(sum(s.duration for name in wanted for s in get(name)
                         if not _has_ancestor(s, by_id, wanted)))

    child_time = _child_time(spans)

    fits = [s for s in get("solver.fit_bcd") if s.info is not None]
    fit_time = sum(s.duration for s in fits)
    sweeps = [s.info["iterations"] for s in fits]
    block_sweeps = sum(s.info["iterations"] * s.info["p"] for s in fits)
    saturated = sum(s.duration for s in fits
                    if s.info["p"] + s.info["q"] * s.info["n_vary"] >= s.info["n"])
    baselines = get("solver.fit_baseline")

    method_s = {m: 0.0 for m in METHODS}
    for s in fits:
        parent = by_id.get(s.parent)
        if parent is None or parent.name != "solver.fit_baseline":
            method_s[s.info["method"]] += s.duration
    for s in baselines:
        if s.info and s.info["method"] in method_s:
            method_s[s.info["method"]] += s.duration
    refit_s = _self_of([s for s in baselines if s.info and s.info["method"] == "screen-refit"],
                       child_time)

    loads = get("data.load_long_csv")
    load_s = float(sum(s.duration for s in loads))
    rows = sum(s.info["rows"] for s in loads if s.info)
    tunes = [s for name in TUNING_SPANS for s in get(name)]
    studies = get("simulate.run_study")
    mains = get("cli.main")

    def cli_time(command):
        return float(sum(s.duration for s in mains if s.info and s.info["command"] == command))

    m = {
        "solver.fit_s": (fit_time, "s"),
        "solver.fits": (len(get("solver.fit_bcd")), "count"),
        "solver.sweeps": (sum(sweeps), "count"),
        "solver.sweeps_max": (max(sweeps, default=0), "count"),
        "solver.nonconverged": (sum(1 for s in fits if not s.info["converged"]), "count"),
        "solver.block_sweep_us": (1e6 * fit_time / block_sweeps if block_sweeps else 0.0, "us"),
        "solver.saturated_share": (saturated / fit_time if fit_time else 0.0, "ratio"),
        "solver.factor_s": (total("solver.precompute_block_factors"), "s"),
        "solver.refit_s": (refit_s, "s"),
    }
    for method in METHODS:
        m[f"solver.{method}_s"] = (method_s[method], "s")
    m.update({
        "data.load_s": (load_s, "s"),
        "data.load_rows_per_s": (rows / load_s if load_s else 0.0, "rows/s"),
        "data.prep_s": (total("data.standardize", "data.demean_within_subject"), "s"),
        "data.design_s": (total("data.build_design"), "s"),
        "data.design_mb": (sum(s.info["bytes"] for s in get("data.build_design") if s.info)
                           / 1e6, "MB"),
        "tuning.grid_points": (sum(s.info["cells"] for s in tunes if s.info), "count"),
        "tuning.failed_points": (sum(s.info["nan"] for s in tunes if s.info), "count"),
        "tuning.ebic_s": (total("tuning.ebic"), "s"),
        "tuning.path_self_s": (_self_of(get("tuning.tune_ebic"), child_time), "s"),
        "tuning.cv_self_s": (_self_of(get("tuning.tune_cv"), child_time), "s"),
        "simulate.replications": (sum(s.info["replications"] for s in studies if s.info),
                                  "count"),
        "simulate.failed_replications": (sum(s.info["failed"] for s in studies if s.info),
                                         "count"),
        "simulate.generate_s": (total("simulate.generate"), "s"),
        "simulate.score_s": (total("simulate.score_fit"), "s"),
        "basis.build_s": (total("basis.build_basis", "basis.build_basis_from_interior"), "s"),
        "basis.eval_s": (total("basis.eval_centered", "basis.eval_second_derivative"), "s"),
        "structure.classify_s": (total("structure.classify"), "s"),
        "cli.fit_s": (cli_time("fit"), "s"),
        "cli.tune_s": (cli_time("tune"), "s"),
        "cli.predict_s": (cli_time("predict"), "s"),
        "cli.classify_s": (cli_time("classify"), "s"),
        "cli.nonzero_exits": (sum(1 for s in mains if not s.info or s.info["exit"] != 0),
                              "count"),
        "artifact.save_s": (total("artifact.save_fit"), "s"),
        "artifact.load_s": (total("artifact.load_fit"), "s"),
        "artifact.bytes": (sum(s.info["bytes"] for s in get("artifact.save_fit") if s.info),
                           "B"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (_self_of([s for s in spans if s.layer == layer], child_time),
                                "s")
    return m


def _has_ancestor(span, by_id, names) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name in names:
            return True
        parent = by_id.get(parent.parent)
    return False

