"""Time the word engine (``grammar.words`` and ``grammar.check_equation``)
over the 81 verify-pool instances at max_len = 20.

    PYTHONPATH=src python3 scripts/word_layer.py

The pool is ``tests/conftest.verify_pool()``: F1-F3 plus the 48
run-progression instances of acceptance criterion 05 and the 30 short-run
instances of criterion 06, 15 grammars and 66 equations.  dyckgram is imported from PYTHONPATH, so pointing it
at another checkout's ``src`` times that checkout with the same script.
Prints one JSON object: for each entry point, the best of three wall
times over its instances and a digest of every word multiset or equation
report, so that two checkouts can be compared for equal results as well
as for speed.
"""

import hashlib
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import verify_pool  # noqa: E402
from dyckgram.grammar import Grammar, check_equation, words  # noqa: E402

MAX_LEN = 20
REPEATS = 3


def _words(inst):
    return sorted(words(inst.body, inst.start, MAX_LEN).counts.items())


def _equation(inst):
    report = check_equation(inst.body, {inst.start: inst.quad}, MAX_LEN)
    return (report.passed, report.witness, report.lhs_multiplicity,
            report.rhs_multiplicity)


def main() -> None:
    instances = verify_pool()
    grammars = [i for i in instances if isinstance(i.body, Grammar)]
    equations = [i for i in instances if not isinstance(i.body, Grammar)]
    rows = []
    for name, run, group in (("words", _words, grammars),
                             ("check_equation", _equation, equations)):
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            results = [(str(inst), run(inst)) for inst in group]
            best = min(best, time.perf_counter() - t0)
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        rows.append({"entry": name, "instances": len(group),
                     "best_s": round(best, 3), "results_sha256": digest[:16]})
    print(json.dumps({"python": platform.python_version(), "max_len": MAX_LEN,
                      "repeats": REPEATS, "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
