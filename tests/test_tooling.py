"""Checks on the repository around the package rather than on its numbers.

The benchmark's span targets must name functions that exist in the package:
`perfbench/spans.py` wraps each target by `vars(owner)[attr]`, and its
describers read what the targets return; a rename in `src/` would otherwise
surface only when a traced benchmark run crashes, and a panel pass must make
the calls that the traced run's span-count check expects of its outputs and
reproduce the benchmark's recorded reference outputs.
The package's imports must match its declared runtime dependencies, and
importing it must not pull in scipy, whose import would dominate start-up, nor
the process pool, which only `simulate --parallel` uses; nor may `fit`, `tune`
and `classify` pull in `numpy.ma`.  A private helper
that nothing else in the package calls is dead code, and one that another
package module imports is not private.
"""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "tvselect")


def load_perfbench(name):
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_perfbench("spans")


def test_every_span_target_resolves():
    missing = []
    for _, modname, attr_path, _ in load_spans().TARGETS:
        owner = importlib.import_module(modname)
        *outer, attr = attr_path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            vars(owner)[attr]
        except (AttributeError, KeyError):
            missing.append(f"{modname}.{attr_path}")
    assert missing == []


def test_span_install_wraps_every_binding_and_restores_it():
    # install must find each target where it is defined and where a module
    # imported it by name; uninstall must leave the package as it was
    spans = load_spans()
    from tvselect import cli, solver, tuning
    originals = (solver.fit_bcd, tuning.fit_bcd, tuning.fit_baseline,
                 cli.fit_bcd, cli.main)
    installed = spans.install(spans.Tracer())
    try:
        wrapped = (solver.fit_bcd, tuning.fit_bcd, tuning.fit_baseline,
                   cli.fit_bcd, cli.main)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
    finally:
        installed.uninstall()
    assert (solver.fit_bcd, tuning.fit_bcd, tuning.fit_baseline,
            cli.fit_bcd, cli.main) == originals


def test_span_describers_read_every_workload(tmp_path):
    # each workload's warm-up under the full set of spans: every described
    # target is called, and its describer reads what the call returned
    spans, workloads = load_spans(), load_perfbench("workloads")
    described = {f"{layer}.{path.split('.')[-1]}"
                 for layer, _, path, describe in spans.TARGETS if describe is not None}
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        for name, workload in workloads.WORKLOADS.items():
            workload.warm_up(str(tmp_path / name))
    finally:
        installed.uninstall()
    got = [s for s in tracer.spans if s.name in described]
    assert {s.name for s in got} == described
    assert [s.name for s in got if s.info is None] == []
    assert [s.info for s in got if s.name == "cli.main" and s.info["exit"] != 0] == []


def test_panel_pass_makes_the_calls_its_outputs_imply(tmp_path):
    # the span counts a traced panel-cli pass checks, on the warm-up's inputs:
    # a drift in build_design or fit_bcd calls fails here, not only in a --trace 1 run
    spans, workloads = load_spans(), load_perfbench("workloads")
    d = str(tmp_path)
    workloads.write_panel(d, {"N": 30, "n_i": 4, "p": 4, "s_v": 1, "s_c": 1}, (0,), 5)
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        exits = workloads.run_cli(workloads._commands(d, 0, "0.1,0.01", "0.01", 2,
                                                      workloads.PANEL_FIT_PENALTY))
    finally:
        installed.uninstall()
    assert set(exits.values()) == {0}
    implied = workloads.PanelWorkload().summarize({"workdir": d}, exits, []).implied_spans
    counts = spans.span_counts(tracer.spans)
    assert {name: counts.get(name, 0) for name in implied} == implied


def pass_against_reference(name, workdir):
    """Failures and reference mismatches of one benchmark pass on input set 0."""
    workloads = load_perfbench("workloads")
    with open(workloads.reference_path(name), encoding="utf-8") as fh:
        reference = json.load(fh)["input_sets"]["0"]["summary"]
    workload = workloads.WORKLOADS[name]
    state = workload.prepare(0, workdir)
    out = workload.summarize(state, workload.run_pass(state), [])
    return out.failures, workload.compare(out.summary, reference)


def test_panel_pass_matches_the_recorded_reference(tmp_path):
    assert pass_against_reference("panel-cli", str(tmp_path / "panel")) == (0, [])


def test_desk_study_pass_matches_the_recorded_reference(tmp_path):
    # the study path from run_study's seed down, checked as the benchmark checks it
    assert pass_against_reference("desk-study", str(tmp_path)) == (0, [])


def test_import_leaves_scipy_unloaded():
    # multiprocessing is loaded only by `simulate --parallel` > 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = ("import sys, tvselect, tvselect.cli; "
            "print(sorted(m for m in sys.modules if m == 'concurrent.futures' "
            "or m.split('.')[0] in ('scipy', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_fit_tune_and_classify_leave_numpy_ma_unloaded(tmp_path):
    # numpy imports numpy.ma on the first np.unique (or np.quantile) of floats,
    # a start-up cost that building an equally spaced basis used to pay
    rng = np.random.default_rng(5)
    rows = ["subject,time,y,x1,x2"]
    for i in range(12):
        base = rng.standard_normal(2)
        for t in np.sort(rng.uniform(0.0, 1.0, 4)):
            x = base + 0.5 * rng.standard_normal(2)
            y = x[0] * np.sin(2 * np.pi * t) - x[1] + 0.1 * rng.standard_normal()
            rows.append(",".join([f"s{i}", *(repr(float(v)) for v in (t, y, *x))]))
    data = tmp_path / "train.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = (f"import sys; from tvselect.cli import main; d, o = {str(data)!r}, {str(tmp_path)!r}; "
            "codes = [main(['fit', '--data', d, '--out', o, '--knots', '2']), "
            "main(['tune', '--data', d, '--out', o, '--knots', '2']), "
            "main(['classify', '--artifact', o + '/fit.json', '--out', o])]; "
            "print(codes, 'numpy.ma' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stderr.strip().splitlines()[-1] == "[0, 0, 0] False"


def module_trees():
    """(file name, syntax tree) of every module in the package."""
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def third_party_imports():
    found = set()
    for _, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"tvselect"}


def test_runtime_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
             for req in declared}
    assert third_party_imports() == names


def test_every_private_helper_is_used():
    defined, used = [], set()
    for name, tree in module_trees():
        defined.extend(f"{name}:{node.name}" for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and node.name.startswith("_") and not node.name.endswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [d for d in defined if d.split(":")[1] not in used] == []


def test_no_module_imports_a_private_name_of_another():
    imported = []
    for name, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "tvselect"
                                                     or node.module.startswith("tvselect.")):
                imported.extend(f"{name}: {node.module}.{alias.name}" for alias in node.names
                                if alias.name.startswith("_"))
    assert imported == []


def calls_by_function(tree, callee):
    """The innermost function (or '<module>') around each call of `callee`, by name."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == callee or getattr(func, "attr", None) == callee:
                    found.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(tree, "<module>")
    return found


def test_model_fits_are_built_in_one_place():
    # every solver returns one coefficient vector that `solver._model_fit` turns
    # into a fit; an artifact is the only other source of one
    built = [f"{name}:{owner}" for name, tree in module_trees()
             for owner in calls_by_function(tree, "ModelFit")]
    assert sorted(built) == ["artifact.py:fit_from_dict", "solver.py:_model_fit"]


def test_the_oracle_stays_independent_of_the_sweep():
    # fit_oracle certifies fit_bcd, so neither it, its polish nor its KKT residual
    # may reach the sweep's block solve, factorizations, tables (which hold the
    # rotated Gram), the design's slot for them, the Gram or the cold start; the
    # certificate's gradient is computed on the design rows, and the polish's
    # Hessian is the one thing the oracle takes from the Gram
    tree = dict(module_trees())["solver.py"]
    oracle = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name in ("fit_oracle", "_active_set_polish", "_oracle_kkt_residual")}
    assert len(oracle) == 3
    calls = [f"{name}->{callee}" for name, node in oracle.items()
             for callee in ("fit_bcd", "_solve_block_subproblem", "precompute_block_factors",
                            "_sweep_tables")
             if calls_by_function(node, callee)]
    reads = [f"{name}->{ref}" for name, node in oracle.items() for sub in ast.walk(node)
             for ref in (getattr(sub, "attr", None), getattr(sub, "id", None))
             if ref in ("_sweep_tables", "solver_slot", "gram", "cold_constants")]
    assert calls == [] and reads == []
    assert len(calls_by_function(oracle["fit_oracle"], "smooth_hessian")) == 1


def test_errors_module_holds_the_one_failure_policy():
    # what a failure means follows from its class alone: every package error
    # is a TVSelectError, and the five usage classes (exit 2, abort a grid)
    # are exactly the subclasses of UsageError
    from tvselect import errors
    classes = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and cls.__module__ == errors.__name__}
    assert [c.__name__ for c in classes if not issubclass(c, errors.TVSelectError)] == []
    assert sorted(c.__name__ for c in classes if issubclass(c, errors.UsageError)) == [
        "ArtifactMismatchError", "ConfigurationError", "DegenerateColumnError",
        "DegenerateDesignError", "ParseError", "UsageError"]


def handled_names(function):
    """Each class an `except` clause inside `function` names, by its last dotted part."""
    names = []
    for node in ast.walk(function):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.extend(getattr(t, "id", None) or t.attr for t in types)
    return names


@pytest.mark.parametrize("module, function", [("cli.py", "main"), ("tuning.py", "_fit_grid"),
                                              ("simulate.py", "_run_replication_safe")])
def test_failure_handlers_name_only_the_policy_classes(module, function):
    # a concrete error class in these handlers would be a second, hand-kept policy
    tree = dict(module_trees())[module]
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    names = handled_names(node)
    assert names and set(names) <= {"UsageError", "TVSelectError", "OSError", "LinAlgError"}
