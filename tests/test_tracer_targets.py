"""Every name the benchmark tracer patches must exist in the package, and
every work-count hook must read a real result of its target.

``benchmark/tracer.py`` wraps functions and methods by name from outside
``src/``; a name deleted from the package would leave its layer silently
untraced, and a result its hook cannot read would crash a traced run, so
the suite checks the table here.
"""

import importlib
import importlib.util
from pathlib import Path

from dyckgram.grammar import D, EPSILON, Grammar, NonTerm, U, seq
from dyckgram.intsets import RestrictionQuad
from dyckgram.paths import DyckPath

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"

CATALAN = Grammar({"P": (EPSILON, seq(U, NonTerm("P"), D, NonTerm("P")))})

# a call of each hooked target, as (args, kwargs), and the counts its hook adds
HOOK_CALLS = {
    "oracle.enumerate_paths": (((3,), {}), {"oracle.enumerate_paths.paths_out": 5}),
    "oracle.count_brute": (((3,), {}), {"oracle.count_brute.leaves": 1 + 1 + 2 + 5}),
    "grammar.words": (((CATALAN, "P", 6), {}), {"grammar.words.out": 1 + 1 + 2 + 5}),
    "paths.satisfies": (((DyckPath.from_text("UD"), RestrictionQuad()), {}),
                        {"paths.satisfies.kept": 1}),
}


def _tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _tracer().TARGETS


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


def test_every_hook_reads_a_real_result():
    tracer = _tracer()
    hooked = {}
    for layer, module_name, attr, _, hook in tracer.TARGETS:
        if hook is not None:
            hooked[layer] = (getattr(importlib.import_module(module_name), attr), hook)
    assert sorted(hooked) == sorted(HOOK_CALLS)
    for layer, (fn, hook) in hooked.items():
        (args, kwargs), counts = HOOK_CALLS[layer]
        t = tracer.Tracer()
        hook(t, args, kwargs, fn(*args, **kwargs))
        assert dict(t.counts) == counts, layer
