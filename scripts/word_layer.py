"""Time the word engine over the 81 verify-pool instances at max_len = 20:
``grammar.word_codes``, the counts a failing grammar's details read,
``grammar.word_lists``, each length sorted, the list pass ``verify_family``
makes over a grammar, and ``grammar.check_equation``.

    PYTHONPATH=src python3 scripts/word_layer.py

An equation's word lists are built once, untimed, as codes of one
``oracle.joins`` pass (``oracle.joined_codes``), as ``verify_family``
builds them, so the equation times are the word engine's alone.  Prints
for each entry point the summed best times of its instances, a digest of
every word multiset (each length's codes counted and sorted, so equal
multisets built in another order or form digest equally, and the two
grammar rows must agree) or equation report, and, from one more, untimed
pass, ``products``, the calls of the product kernels (``grammar._product``
and ``grammar._codes``), and ``peak_mb``, its ``tracemalloc`` peak in MiB;
then the time of each group of ``harness.GROUPS`` (the grammars by their
list pass).
"""

from collections import Counter
from functools import partial

from dyckgram import grammar
from dyckgram.families import build, verify_pool
from dyckgram.grammar import Grammar, check_equation, word_codes, word_lists
from dyckgram.oracle import joined_codes, joins
from harness import REPEATS, best_of, digest, group_rows, measured, report

MAX_LEN = 20


def _equation(inst, lang, max_len):
    sides = check_equation(inst.body, {"P": lang}, max_len)
    return sides.passed, sides.witness, sides.lhs_multiplicity, sides.rhs_multiplicity


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


def _row(entry, named, repeats=REPEATS):
    """Each instance's best time, and the entry point's row: the sum of
    those times, a digest of the results, and the product-kernel calls
    (recursive ones too) and ``tracemalloc`` peak of one more, untimed
    pass."""
    best, results = best_of(named, repeats)
    with measured([(grammar, "_product", "products"),
                   (grammar, "_codes", "products")]) as work:
        for call in named.values():
            call()
    return best, {"entry": entry, "instances": len(named),
                  "best_s": round(sum(best.values()), 3),
                  "results_sha256": digest([repr([(name, _canonical(result))
                                                  for name, result in results.items()])]),
                  "products": work["products"],
                  "peak_mb": round(work["peak_bytes"] / 2 ** 20, 3)}


def main() -> None:
    best, rows = {}, []
    instances = [build(f, **p) for f, p in verify_pool()]
    for entry, named in calls(instances, MAX_LEN).items():
        entry_best, row = _row(entry, named)
        best.update(entry_best)
        rows.append(row)
    report(max_len=MAX_LEN, repeats=REPEATS, rows=rows + group_rows(best))


if __name__ == "__main__":
    main()
