"""Time ``import dyckgram.cli`` in fresh interpreters, net of a bare one.

    PYTHONPATH=src python3 scripts/startup_layer.py [OTHER_SRC ...]

The trees: the ``src`` dyckgram is imported from (see ``harness.py``) and
each OTHER_SRC, another checkout's ``src``.  Each tree's ``dyckgram``
sources are copied to a temporary directory, so that no ``__pycache__``
a test run left in the checkout is read and none is written there.  Two
modes: ``source``, with ``PYTHONDONTWRITEBYTECODE=1`` as the benchmark's
workers run, so every dyckgram module compiles from source while the
standard library reads its installed bytecode; and ``cached``, with
bytecode cached under a temporary ``PYTHONPYCACHEPREFIX``, filled by one
untimed run before timing.  A round runs, in every mode, one bare child,
which imports nothing, and one child that imports ``dyckgram.cli`` per
tree, so that on a shared host a slow phase falls on all alike.  Per tree
and mode, ``ms`` is the median wall time of a child, spawn to exit, and
``net_ms`` that less the bare child's median; ``peak_rss_mb`` is the
median of the child's peak resident set in MiB and ``net_rss_mb`` that
less the bare child's, as ``harness.child`` reads them.  ``adds`` lists
the modules the import adds to those the bare interpreter holds.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import median

import dyckgram
from harness import child, report

RUNS = 30
IMPORT = "import dyckgram.cli\n"
ADDS = ("import sys; bare = set(sys.modules); import dyckgram.cli; "
        "print(*sorted(set(sys.modules) - bare))")
MODES = ("source", "cached")


def _envs(path: Path, prefix: str) -> dict:
    """The child environment of each mode, with ``path`` alone on PYTHONPATH."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    base["PYTHONPATH"] = str(path)
    return {"source": {**base, "PYTHONDONTWRITEBYTECODE": "1"},
            "cached": {**base, "PYTHONPYCACHEPREFIX": prefix}}


def startup(trees: list[Path], runs: int = RUNS) -> dict:
    """The report's fields for ``trees`` (each a checkout's ``src``)."""
    with tempfile.TemporaryDirectory() as tmp:
        prefix = str(Path(tmp) / "pycache")
        copies = []
        for i, src in enumerate(trees):
            copy = Path(tmp) / f"tree{i}"
            shutil.copytree(src / "dyckgram", copy / "dyckgram",
                            ignore=shutil.ignore_patterns("__pycache__"))
            copies.append(copy)
        empty = Path(tmp) / "bare"
        empty.mkdir()
        # label -> (code, environment of each mode); the bare child first
        jobs = {"bare": ("", _envs(empty, prefix))}
        jobs.update((str(src), (IMPORT, _envs(copy, prefix)))
                    for src, copy in zip(trees, copies))
        for code, envs in jobs.values():  # fills the bytecode cache
            child(code, env=envs["cached"])
        samples = {(label, mode): [] for label in jobs for mode in MODES}
        for _ in range(runs):
            for mode in MODES:
                for label, (code, envs) in jobs.items():
                    samples[label, mode].append(child(code, env=envs[mode]))
        adds = {label: child(ADDS, env=envs["source"])[1].split()
                for label, (_, envs) in jobs.items() if label != "bare"}

    def stats(label, mode):
        seconds, _, rss = zip(*samples[label, mode])
        return median(seconds) * 1000, median(rss)

    bare = {mode: stats("bare", mode) for mode in MODES}
    rows = []
    for label in adds:
        row = {"src": label}
        for mode in MODES:
            ms, rss = stats(label, mode)
            row[mode] = {"ms": round(ms, 1), "net_ms": round(ms - bare[mode][0], 1),
                         "peak_rss_mb": round(rss, 2),
                         "net_rss_mb": round(rss - bare[mode][1], 2)}
        row["adds"] = adds[label]
        rows.append(row)
    return {"runs": runs,
            "bare": {mode: {"ms": round(ms, 1), "peak_rss_mb": round(rss, 2)}
                     for mode, (ms, rss) in bare.items()},
            "trees": rows}


def main() -> None:
    here = Path(dyckgram.__file__).resolve().parents[1]
    report(**startup([here, *(Path(a).resolve() for a in sys.argv[1:])]))


if __name__ == "__main__":
    main()
