"""Time the word engine over the 81 verify-pool instances at max_len = 20:
``grammar.word_codes``, the counts a failing grammar's details read,
``grammar.word_lists``, each length sorted, the list pass ``verify_family``
makes over a grammar, and ``grammar.check_equation``.

    PYTHONPATH=src python3 scripts/word_layer.py

The pool is ``dyckgram.families.verify_pool()``: F1-F3 plus the 48
run-progression instances of acceptance criterion 05 and the 30 short-run
instances of criterion 06, 15 grammars and 66 equations.  dyckgram is
imported from PYTHONPATH, so pointing it at another checkout's ``src``
times that checkout with the same script.  An equation's word lists are
built once, untimed, as codes of one ``oracle.joins`` pass
(``oracle.joined_codes``), as ``verify_family`` builds them, so the
equation times are the word engine's alone.
Prints one JSON object: for each entry point, the time of its instances,
a digest of every word multiset (each length's codes counted and sorted,
so equal multisets built in another order or form digest equally, and
the two grammar rows must agree) or equation report, so that two
checkouts can be compared for equal results as well as for speed; and,
from one more, untimed pass of its instances, ``products``, the number
of calls of the product kernels (``grammar._product`` and
``grammar._codes``), a count that repeats exactly, and ``peak_mb``, the
most memory ``tracemalloc`` saw allocated at once, in MiB, so the word
engine's work and memory show next to its time.  Then it prints the time
of each of the three groups of ``verify_layer.py``, the heavy equations
(F6, F8), the light ones (F9-F11) and the grammars (their list pass), so
that a change that speeds up the large multisets but slows the cheap
instances shows.  A time is the sum over the instances of each one's
best of five wall times: on a shared host a slow phase then costs one
instance one run, not a whole pass.
"""

import hashlib
import json
import platform
import time
import tracemalloc
from collections import Counter
from functools import partial

from dyckgram import grammar
from dyckgram.families import build, verify_pool
from dyckgram.grammar import Grammar, check_equation, word_codes, word_lists
from dyckgram.oracle import joined_codes, joins
from verify_layer import GROUPS

MAX_LEN = 20
REPEATS = 5


def _equation(inst, lang, max_len):
    report = check_equation(inst.body, {"P": lang}, max_len)
    return (report.passed, report.witness, report.lhs_multiplicity,
            report.rhs_multiplicity)


def _sorted_lists(body, max_len):
    return [sorted(ws) for ws in word_lists(body, "P", max_len)]


def calls(instances, max_len) -> dict:
    """For each entry point, each of its instances' calls by name: a
    grammar's ``word_codes`` and its sorted ``word_lists``, an equation's
    ``check_equation`` on word lists built here, untimed."""
    out = {"word_codes": {}, "word_lists": {}, "check_equation": {}}
    for inst in instances:
        if isinstance(inst.body, Grammar):
            out["word_codes"][str(inst)] = partial(word_codes, inst.body, "P", max_len)
            out["word_lists"][str(inst)] = partial(_sorted_lists, inst.body, max_len)
        else:
            lang = [joined_codes(join, n)
                    for n, join in enumerate(joins(max_len // 2, inst.quad))]
            out["check_equation"][str(inst)] = partial(_equation, inst, lang, max_len)
    return out


def _canonical(result):
    """A grammar's words of each length, dicts or lists, as sorted (code,
    count) lists; an equation report as it is."""
    if type(result) is list:
        return [sorted(Counter(ws).items()) for ws in result]
    return result


def _products(named) -> int:
    """Product-kernel calls (recursive ones too) over one pass of the
    calls."""
    count = 0
    saved = grammar._product, grammar._codes

    def counting(fn):
        def counted(pairs):
            nonlocal count
            count += 1
            return fn(pairs)
        return counted

    grammar._product, grammar._codes = map(counting, saved)
    try:
        for call in named.values():
            call()
    finally:
        grammar._product, grammar._codes = saved
    return count


def _row(entry, named, repeats=REPEATS):
    """Each instance's best time, and the entry point's row: the sum of
    those times, a digest of the results, and the product-kernel calls and
    ``tracemalloc`` peak of one more, untimed pass."""
    times = {name: [] for name in named}
    for _ in range(repeats):
        results = {}
        for name, call in named.items():
            t0 = time.perf_counter()
            results[name] = call()
            times[name].append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        products = _products(named)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    best = {name: min(ts) for name, ts in times.items()}
    digest = hashlib.sha256(repr([(name, _canonical(result))
                                  for name, result in results.items()]).encode())
    return best, {"entry": entry, "instances": len(named),
                  "best_s": round(sum(best.values()), 3),
                  "results_sha256": digest.hexdigest()[:16],
                  "products": products,
                  "peak_mb": round(peak / 2 ** 20, 3)}


def main() -> None:
    best, rows = {}, []
    instances = [build(f, **p) for f, p in verify_pool()]
    for entry, named in calls(instances, MAX_LEN).items():
        entry_best, row = _row(entry, named)
        best.update(entry_best)
        rows.append(row)
    for group, families in GROUPS:
        names = [n for n in best if n.split("(")[0] in families]
        rows.append({"group": group, "instances": len(names),
                     "best_s": round(sum(best[n] for n in names), 3)})
    print(json.dumps({"python": platform.python_version(), "max_len": MAX_LEN,
                      "repeats": REPEATS, "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
