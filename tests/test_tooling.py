"""The benchmark's span targets must name functions that exist in the package.

`perfbench/spans.py` wraps each target by `vars(owner)[attr]`; a rename in
`src/` would otherwise surface only when a traced benchmark run crashes.
"""

import importlib
import importlib.util
import os

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
