"""The per-layer timing scripts under scripts/ still import and run.

Each script is imported by path, with scripts/ on sys.path as when it is
run directly, and the two count scripts time one small row, so a script
left behind by an API change fails here rather than when next run.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from dyckgram.intsets import RestrictionQuad

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
LAYER_SCRIPTS = sorted(SCRIPTS.glob("*_layer.py"))


def _load(path: Path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_there_are_layer_scripts():
    assert [p.stem for p in LAYER_SCRIPTS] == [
        "brute_layer", "dp_layer", "language_layer", "lower_layer", "word_layer"]


@pytest.mark.parametrize("path", LAYER_SCRIPTS, ids=lambda p: p.stem)
def test_layer_script_imports(path, monkeypatch):
    assert callable(_load(path, monkeypatch).main)


def test_dp_layer_row(monkeypatch):
    row = _load(SCRIPTS / "dp_layer.py", monkeypatch)._row(RestrictionQuad(), 3)
    assert row["counts_sha256"] == hashlib.sha256(b"1,1,2,5").hexdigest()[:16]


def test_brute_layer_row(monkeypatch):
    brute_layer = _load(SCRIPTS / "brute_layer.py", monkeypatch)
    row = brute_layer._row("unrestricted", [RestrictionQuad()], 3)
    want = hashlib.sha256(repr([(str(RestrictionQuad()), (1, 1, 2, 5))]).encode())
    assert row["counts_sha256"] == want.hexdigest()[:16]
    assert row["work"]["walk_calls"] > 0
