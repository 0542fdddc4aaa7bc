"""Every binding the benchmark tracer wraps exists in gausshelp.

perfbench/spans.py imports only the standard library, so it is loaded by
path; a layer renamed or removed without updating its TARGETS fails here
instead of only in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = []
    for name, bindings, _ in targets:
        for binding in bindings:
            mod_name, attr = binding.split(".")
            module = importlib.import_module(f"gausshelp.{mod_name}")
            if not callable(getattr(module, attr, None)):
                missing.append(f"{name}: gausshelp.{binding}")
    assert not missing, missing
