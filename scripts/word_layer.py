"""Time the word engine (``grammar.words`` and ``grammar.check_equation``)
over the 81 verify-pool instances at max_len = 20.

    PYTHONPATH=src python3 scripts/word_layer.py

The pool is ``dyckgram.families.verify_pool()``: F1-F3 plus the 48
run-progression instances of acceptance criterion 05 and the 30 short-run
instances of criterion 06, 15 grammars and 66 equations.  dyckgram is
imported from PYTHONPATH, so pointing it at another checkout's ``src``
times that checkout with the same script.  An equation's word lists are
built once, untimed, as codes of one ``oracle.joins`` pass
(``oracle.joined_codes``), as ``verify_family`` builds them, so the
equation times are the word engine's alone.
Prints one JSON object: for each entry point, the time of its instances
and a digest of every word multiset or equation report, so that two
checkouts can be compared for equal results as well as for speed; then
the time of each of the three groups of ``verify_layer.py``, the heavy
equations (F6, F8), the light ones (F9-F11) and the grammars, so that a
change that speeds up the large multisets but slows the cheap instances
shows.  A time is the sum over the instances of each one's best of five
wall times: on a shared host a slow phase then costs one instance one
run, not a whole pass.
"""

import hashlib
import json
import platform
import time
from functools import partial

from dyckgram.families import build, verify_pool
from dyckgram.grammar import Grammar, check_equation, words
from dyckgram.oracle import joined_codes, joins
from verify_layer import GROUPS

MAX_LEN = 20
REPEATS = 5


def _words(inst):
    return sorted(words(inst.body, "P", MAX_LEN).items())


def _equation(inst, lang):
    report = check_equation(inst.body, {"P": lang}, MAX_LEN)
    return (report.passed, report.witness, report.lhs_multiplicity,
            report.rhs_multiplicity)


def main() -> None:
    instances = [build(f, **p) for f, p in verify_pool()]
    run = {}
    for inst in instances:
        if isinstance(inst.body, Grammar):
            run[str(inst)] = partial(_words, inst)
        else:
            lang = [joined_codes(join, n)
                    for n, join in enumerate(joins(MAX_LEN // 2, inst.quad))]
            run[str(inst)] = partial(_equation, inst, lang)
    times = {str(i): [] for i in instances}
    for _ in range(REPEATS):
        results = {}
        for inst in instances:
            t0 = time.perf_counter()
            results[str(inst)] = run[str(inst)]()
            times[str(inst)].append(time.perf_counter() - t0)

    def best(names):
        return round(sum(min(times[n]) for n in names), 3)

    rows = []
    for name, entry in (("words", _words), ("check_equation", _equation)):
        names = [n for n in times if run[n].func is entry]
        digest = hashlib.sha256(repr([(n, results[n]) for n in names]).encode())
        rows.append({"entry": name, "instances": len(names), "best_s": best(names),
                     "results_sha256": digest.hexdigest()[:16]})
    for group, families in GROUPS:
        names = [n for n in times if n.split("(")[0] in families]
        rows.append({"group": group, "instances": len(names), "best_s": best(names)})
    print(json.dumps({"python": platform.python_version(), "max_len": MAX_LEN,
                      "repeats": REPEATS, "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
