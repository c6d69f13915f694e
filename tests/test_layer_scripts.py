"""The scripts under scripts/ still import and run.

Each script is imported by path, with scripts/ on sys.path as when it is
run directly; the oracle, DP and series scripts time one small row, the
oracle script also times one count in a child interpreter, the verify
script counts the oracle work of two instances, the word script times
three and takes their memory peak, the series script's synthetic grammar
is lowered, the startup script times one round of child interpreters,
and the CLI byte hasher runs a small subset of its command lines, then
all of them against pinned digests, so a script left behind by an API
change fails here rather than when next run.  The harness the scripts
share counts, restores, times and runs children as it says.  Every
script also imports with src/ alone, as the scripts never import tests.
"""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from dyckgram.families import build, deep_set, verify_pool
from dyckgram.grammar import lower, word_codes
from dyckgram.intsets import RestrictionQuad
from dyckgram.oracle import language

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
LAYER_SCRIPTS = sorted(SCRIPTS.glob("*_layer.py"))

# what cli_bytes.py prints for each group; a change to the CLI's bytes
# updates these and names the groups it changed
CLI_DIGESTS = {
    "verify": "fb1003667c7cf442", "series --dump-grammar": "904c44a19be53cba",
    "count --method both": "effc41aaf640b1d6", "verify --json": "d23a83fd1c9f5738",
    "series --dump-grammar --json": "54614149dbb34c1e",
    "count --method both --json": "987a2dcb27c4769b", "deep": "6f6658dc77b80290",
    "bijection": "87c063599d71eeaa"}
# these carry argparse's own formatting, so they hold on the Python that
# recorded them
ARGPARSE_DIGESTS = {"exit 2": "a2fa833ef77e8fe6", "help": "43c769f2f9e59756"}
ARGPARSE_PYTHON = (3, 11)


def _load(path: Path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_there_are_layer_scripts():
    assert [p.stem for p in LAYER_SCRIPTS] == [
        "dp_layer", "oracle_layer", "series_layer", "startup_layer", "verify_layer",
        "word_layer"]


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


def test_harness_best_of_keeps_least_time_and_last_result(monkeypatch):
    harness = _load(SCRIPTS / "harness.py", monkeypatch)
    clock, order = [0.0], []
    monkeypatch.setattr(harness.time, "perf_counter", lambda: clock[0])
    spans = {"a": iter([3.0, 1.0, 2.0]), "b": iter([5.0, 6.0, 4.0])}

    def call(name):
        clock[0] += next(spans[name])
        order.append(name)
        return name, len(order)

    best, results = harness.best_of({name: partial(call, name) for name in spans}, 3)
    assert order == ["a", "b"] * 3
    assert best == {"a": 1.0, "b": 4.0}
    assert results == {"a": ("a", 5), "b": ("b", 6)}


def test_harness_measured_counts_and_restores(monkeypatch):
    harness = _load(SCRIPTS / "harness.py", monkeypatch)
    space = SimpleNamespace(f=lambda steps: len(steps), g=lambda steps, k=0: k)
    f, g = space.f, space.g
    with harness.measured([(space, "f", "calls"), (space, "g", "calls")],
                          letters=True) as work:
        assert (space.f("UD"), space.g("UUD", k=2)) == (2, 2)
        held = [0] * 1000
    assert held and (space.f, space.g) == (f, g)
    assert work["calls"] == 2 and work["letters"] == 5 and work["peak_bytes"] >= 8000
    with pytest.raises(RuntimeError):
        with harness.measured([(space, "f", "calls"), (space, "g", "other")]):
            assert space.f is not f
            raise RuntimeError
    assert (space.f, space.g) == (f, g)
    assert not tracemalloc.is_tracing()


def test_harness_child_reports_its_own_peak(monkeypatch):
    harness = _load(SCRIPTS / "harness.py", monkeypatch)
    held = b"x" * (64 << 20)  # this process's peak passes 64 MiB
    seconds, out, peak_mib = harness.child("import sys; print(sys.argv[1:])", "a", "b")
    assert held and seconds > 0 and out == "['a', 'b']\n"
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read a peak from")
    assert 0 < peak_mib < 64


def test_harness_child_must_exit_0(monkeypatch):
    harness = _load(SCRIPTS / "harness.py", monkeypatch)
    with pytest.raises(subprocess.CalledProcessError):
        harness.child("import sys; sys.exit(3)")


def test_dp_layer_row(monkeypatch):
    row = _load(SCRIPTS / "dp_layer.py", monkeypatch)._row(RestrictionQuad(), 3)
    assert row["counts_sha256"] == hashlib.sha256(b"1,1,2,5").hexdigest()[:16]
    assert type(row["peak_kib"]) is int and row["peak_kib"] > 0


def test_series_layer_row(monkeypatch):
    row = _load(SCRIPTS / "series_layer.py", monkeypatch)._row([build("F3")], 8)
    assert row["coeffs_sha256"] == hashlib.sha256(b"P:1,1,2,4,9,21,51,127;").hexdigest()[:16]


def test_brute_layer_row(monkeypatch):
    # the oracle script's brute and language sub-rows of one set
    oracle_layer = _load(SCRIPTS / "oracle_layer.py", monkeypatch)
    full = oracle_layer._row("unrestricted", [RestrictionQuad()], 3)
    assert (full["set"], full["quads"], full["n_max"]) == ("unrestricted", 1, 3)
    row = full["brute"]
    want = hashlib.sha256(repr([(str(RestrictionQuad()), (1, 1, 2, 5))]).encode())
    assert row["counts_sha256"] == want.hexdigest()[:16]
    words = full["language"]
    assert words["words"] == 1 + 1 + 2 + 5 and words["best_s"] >= 0
    want = "".join(repr((str(RestrictionQuad()), n, language(n, cap=3))) for n in range(4))
    assert words["words_sha256"] == hashlib.sha256(want.encode()).hexdigest()[:16]
    work = row["work"]
    assert work["walks"] > 0 and work["accepts_calls"] > 0
    # the midpoint join walks one letter a call and judges each end state
    # with the empty suffix
    assert work["letters"] == work["walks"]
    assert work["peak_mb"] > 0


def test_brute_layer_fresh_row(monkeypatch):
    row = _load(SCRIPTS / "oracle_layer.py", monkeypatch).fresh_row(6)
    assert row["n"] == 6 and row["s"] > 0 and row["peak_rss_mb"] > 0


def test_startup_layer_one_round(monkeypatch):
    src = SCRIPTS.parent / "src"
    fields = _load(SCRIPTS / "startup_layer.py", monkeypatch).startup([src], runs=1)
    (row,) = fields["trees"]
    assert fields["runs"] == 1 and row["src"] == str(src)
    for mode in ("source", "cached"):
        assert fields["bare"][mode]["ms"] > 0 and row[mode]["ms"] > 0
    assert "dyckgram.cli" in row["adds"] and "dataclasses" not in row["adds"]


def test_verify_layer_row(monkeypatch):
    # F1 and F2 at max_len 8, n_max 5: one joins pass each, to semilength 5,
    # which walks what count_brute(5) walks
    verify_layer = _load(SCRIPTS / "verify_layer.py", monkeypatch)
    pool = [build(f, **p) for f, p in verify_pool()[:2]]
    best, row = verify_layer._row(pool, 8, 5, repeats=1)
    assert list(best) == ["F1", "F2"]
    assert row["joins_calls"] == 2
    oracle_layer = _load(SCRIPTS / "oracle_layer.py", monkeypatch)
    assert row["walks"] == oracle_layer.brute_work([i.quad for i in pool], 5)["walks"]
    assert row["peak_mb"] > 0
    assert re.fullmatch("[0-9a-f]{16}", row["reports_sha256"])


def test_word_layer_row(monkeypatch):
    # one grammar and two equations, heavy and light, at max_len 8
    word_layer = _load(SCRIPTS / "word_layer.py", monkeypatch)
    pool = [build(f, **p) for f, p in (verify_pool()[i] for i in (0, 3, 54))]
    named = word_layer.calls(pool, 8)
    assert {entry: list(calls) for entry, calls in named.items()} == {
        "word_codes": ["F1"], "word_lists": ["F1"],
        "check_equation": [str(pool[1]), str(pool[2])]}
    want = repr([("F1", [sorted(ws.items()) for ws in word_codes(pool[0].body, "P", 8)])])
    # the list pass digests its counted lists, as word_codes' dicts
    for entry in ("word_codes", "word_lists"):
        best, row = word_layer._row(entry, named[entry], repeats=1)
        assert list(best) == ["F1"]
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
    grammar = _load(SCRIPTS / "series_layer.py", monkeypatch).synthetic(60)
    terms = lower(grammar).equations["P"].terms
    assert len(terms) == 60
    assert {c for _, _, c in terms} == {1}
    assert {z for z, _, _ in terms} == {1}


def test_cli_bytes_subset(monkeypatch):
    cli_bytes = _load(SCRIPTS / "cli_bytes.py", monkeypatch)
    census = _load(SCRIPTS / "harness.py", monkeypatch).census_quads(2)
    named = cli_bytes.groups(verify_pool()[:2], census, deep_set()[:2])
    for name, argvs in named.items():
        want = 2 if name == "exit 2" else 0
        assert [cli_bytes.run(argv)[2] for argv in argvs] == [want] * len(argvs), name
    rows = cli_bytes.digests(named)
    assert rows == cli_bytes.digests(named)
    assert {name: row["runs"] for name, row in rows.items()} == {
        name: len(argvs) for name, argvs in named.items()}
    assert all(re.fullmatch("[0-9a-f]{16}", row["sha256"]) for row in rows.values())


def test_cli_bytes_digests(monkeypatch):
    # every command line of cli_bytes.py writes the bytes it wrote when the
    # digests were recorded, at the width the script sets
    monkeypatch.setenv("COLUMNS", "80")
    cli_bytes = _load(SCRIPTS / "cli_bytes.py", monkeypatch)
    census = _load(SCRIPTS / "harness.py", monkeypatch).census_quads()
    rows = cli_bytes.digests(cli_bytes.groups(verify_pool(), census, deep_set()))
    assert sum(row["runs"] for row in rows.values()) == 429
    got = {name: row["sha256"] for name, row in rows.items()}
    want = {**CLI_DIGESTS, **ARGPARSE_DIGESTS}
    assert set(got) == set(want)
    if sys.version_info[:2] != ARGPARSE_PYTHON:
        want.update((name, got[name]) for name in ARGPARSE_DIGESTS)
    assert got == want
