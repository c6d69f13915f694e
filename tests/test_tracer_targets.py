"""Every name the benchmark tracer patches must exist in the package.

``benchmark/tracer.py`` wraps functions and methods by name from outside
``src/``; a name deleted from the package would leave its layer silently
untraced, so the suite checks the table here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    missing = []
    for layer, module_name, attr, _, _ in _targets():
        owner = importlib.import_module(module_name)
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or name not in vars(owner):
            missing.append(f"{layer}: {module_name}.{attr}")
    assert not missing
