"""The scripts under scripts/ still import and run.

Each script is imported by path, with scripts/ on sys.path as when it is
run directly; the two count scripts and the series script time one
small row, the brute script also times one count in a child
interpreter, the verify script counts the oracle work of two instances,
the word script times three and takes their memory peak, the lowering
script's synthetic grammar is lowered, and the CLI byte hasher runs a
small subset of its command lines, so a script left
behind by an API change fails here rather than when next run.  Every
script also imports with src/ alone, as the scripts never import tests.
"""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dyckgram.families import build, deep_set, verify_pool
from dyckgram.grammar import lower, word_codes
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
        "brute_layer", "dp_layer", "language_layer", "lower_layer", "series_layer",
        "verify_layer", "word_layer"]


@pytest.mark.parametrize("path", LAYER_SCRIPTS, ids=lambda p: p.stem)
def test_layer_script_imports(path, monkeypatch):
    assert callable(_load(path, monkeypatch).main)


def test_scripts_need_only_src():
    # a child interpreter in scripts/, as a script is run, with src/ alone on
    # PYTHONPATH and the test-only hypothesis blocked
    names = sorted(p.stem for p in SCRIPTS.glob("*.py"))
    code = ("import importlib, sys; sys.modules['hypothesis'] = None\n"
            "for name in sys.argv[1:]: importlib.import_module(name)")
    done = subprocess.run([sys.executable, "-c", code, *names], cwd=SCRIPTS, text=True,
                          env={**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")},
                          capture_output=True)
    assert (len(names), done.returncode, done.stderr) == (8, 0, "")


def test_dp_layer_row(monkeypatch):
    row = _load(SCRIPTS / "dp_layer.py", monkeypatch)._row(RestrictionQuad(), 3)
    assert row["counts_sha256"] == hashlib.sha256(b"1,1,2,5").hexdigest()[:16]
    assert type(row["peak_kib"]) is int and row["peak_kib"] > 0


def test_series_layer_row(monkeypatch):
    row = _load(SCRIPTS / "series_layer.py", monkeypatch)._row([build("F3")], 8)
    assert row["coeffs_sha256"] == hashlib.sha256(b"P:1,1,2,4,9,21,51,127;").hexdigest()[:16]


def test_brute_layer_row(monkeypatch):
    brute_layer = _load(SCRIPTS / "brute_layer.py", monkeypatch)
    row = brute_layer._row("unrestricted", [RestrictionQuad()], 3)
    want = hashlib.sha256(repr([(str(RestrictionQuad()), (1, 1, 2, 5))]).encode())
    assert row["counts_sha256"] == want.hexdigest()[:16]
    work = row["work"]
    assert work["walks"] > 0 and work["accepts_calls"] > 0
    # the midpoint join walks one letter a call and judges each end state
    # with the empty suffix
    assert work["letters"] == work["walks"]
    assert work["peak_mb"] > 0


def test_brute_layer_fresh_row(monkeypatch):
    row = _load(SCRIPTS / "brute_layer.py", monkeypatch).fresh_row(6)
    assert row["n"] == 6 and row["s"] > 0 and row["peak_rss_mb"] > 0


def test_verify_layer_row(monkeypatch):
    # F1 and F2 at max_len 8, n_max 5: one joins pass each, to semilength 5,
    # which walks what count_brute(5) walks
    verify_layer = _load(SCRIPTS / "verify_layer.py", monkeypatch)
    pool = [build(f, **p) for f, p in verify_pool()[:2]]
    best, row = verify_layer._row(pool, 8, 5, repeats=1)
    assert list(best) == ["F1", "F2"]
    assert row["joins_calls"] == 2
    brute_layer = _load(SCRIPTS / "brute_layer.py", monkeypatch)
    assert row["walks"] == brute_layer.brute_work([i.quad for i in pool], 5)["walks"]
    assert row["peak_mb"] > 0
    assert re.fullmatch("[0-9a-f]{16}", row["reports_sha256"])


def test_word_layer_row(monkeypatch):
    # one grammar and two equations, heavy and light, at max_len 8
    word_layer = _load(SCRIPTS / "word_layer.py", monkeypatch)
    pool = [build(f, **p) for f, p in (verify_pool()[i] for i in (0, 3, 54))]
    named = word_layer.calls(pool, 8)
    assert {entry: list(calls) for entry, calls in named.items()} == {
        "word_codes": ["F1"], "check_equation": [str(pool[1]), str(pool[2])]}
    best, row = word_layer._row("word_codes", named["word_codes"], repeats=1)
    assert list(best) == ["F1"]
    want = repr([("F1", [sorted(ws.items()) for ws in word_codes(pool[0].body, "P", 8)])])
    assert row["results_sha256"] == hashlib.sha256(want.encode()).hexdigest()[:16]
    assert type(row["products"]) is int and row["products"] > 0
    best, row = word_layer._row("check_equation", named["check_equation"], repeats=1)
    assert list(row) == ["entry", "instances", "best_s", "results_sha256", "products",
                         "peak_mb"]
    assert (row["entry"], row["instances"]) == ("check_equation", 2)
    assert re.fullmatch("[0-9a-f]{16}", row["results_sha256"])
    assert type(row["products"]) is int and row["products"] > 0
    assert row["peak_mb"] > 0


def test_lower_layer_synthetic(monkeypatch):
    # alternative i is U P^a D Q^b R^c for the i-th triple (a, b, c)
    grammar = _load(SCRIPTS / "lower_layer.py", monkeypatch).synthetic(60)
    terms = lower(grammar).equations["P"].terms
    assert len(terms) == 60
    assert {c for _, _, c in terms} == {1}
    assert {z for z, _, _ in terms} == {1}


def test_cli_bytes_subset(monkeypatch):
    cli_bytes = _load(SCRIPTS / "cli_bytes.py", monkeypatch)
    census = _load(SCRIPTS / "brute_layer.py", monkeypatch).census_quads(2)
    named = cli_bytes.groups(verify_pool()[:2], census, deep_set()[:2])
    for name, argvs in named.items():
        want = 2 if name == "exit 2" else 0
        assert [cli_bytes.run(argv)[2] for argv in argvs] == [want] * len(argvs), name
    rows = cli_bytes.digests(named)
    assert rows == cli_bytes.digests(named)
    assert {name: row["runs"] for name, row in rows.items()} == {
        name: len(argvs) for name, argvs in named.items()}
    assert all(re.fullmatch("[0-9a-f]{16}", row["sha256"]) for row in rows.values())
