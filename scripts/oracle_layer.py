"""Time the oracle's one path generator (``oracle.joins``) alone, read as
brute-force counts (``oracle.count_brute``) and as the oracle language
(``oracle.language``), on three sets.

    PYTHONPATH=src python3 scripts/oracle_layer.py

The sets: the 24 census quads at n <= 12, the quads of the 81 verify-pool
instances at n <= 10, and the unrestricted quad at n <= 14 (see
``harness.py``, which also says how times and digests are taken).  Each
set has two sub-rows, each with the summed best times of its quads.
``brute`` adds a digest of every count sequence and the work of one
untimed pass: the ``walk`` calls of the midpoint joins (``oracle.joins``
interns each walker state it meets as an int id and walks each (id,
letter) pair it reads once per call, so these are the distinct
transitions of each quad's join, summed), their ``accepts`` calls, and
the letters all of them were given; ``peak_mb`` is that pass's
``tracemalloc`` peak in MiB (the first halves' code and id lists and the
two id-indexed levels of suffix lists ``oracle.joins`` keeps alive are
most of it).  ``language`` asks for each semilength's words in turn and
keeps only their number, so one word tuple is alive at a time (the
unrestricted set alone holds 3.7 M words); it adds the number of words
and a digest of every word tuple (content and order), taken in one more,
untimed pass.  Last, ``fresh`` times the unrestricted
``count_brute(n, cap=n)`` at n = 16, 18 and 20, each in a child
interpreter of its own (``harness.child``), and reports the count's
seconds, as the child times it, and the child's peak resident set in MiB.
"""

import os
from functools import partial
from pathlib import Path

from dyckgram import oracle
from dyckgram.families import build, verify_pool
from dyckgram.intsets import RestrictionQuad
from dyckgram.oracle import count_brute, language
from harness import REPEATS, best_of, census_quads, child, digest, measured, report

FRESH_SEMILENGTHS = (16, 18, 20)
FRESH = ("import sys, time\n"
         "from dyckgram.oracle import count_brute\n"
         "n = int(sys.argv[1])\n"
         "t0 = time.perf_counter()\n"
         "count_brute(n, cap=n)\n"
         "print(time.perf_counter() - t0)\n")


def brute_work(quads, n_max: int) -> dict:
    """Calls to oracle.walk and oracle.accepts, the letters they walked and
    the peak of traced memory, over one count_brute pass on every quad."""
    with measured([(oracle, "walk", "walks"), (oracle, "accepts", "accepts_calls")],
                  letters=True) as work:
        for q in quads:
            count_brute(n_max, q)
    work["peak_mb"] = round(work.pop("peak_bytes") / 2 ** 20, 3)
    return work


def _sizes(q, n_max: int) -> int:
    return sum(len(language(n, q, cap=n_max)) for n in range(n_max + 1))


def _row(name: str, quads, n_max: int) -> dict:
    brute, counts = best_of({i: partial(count_brute, n_max, q) for i, q in enumerate(quads)})
    words, sizes = best_of({i: partial(_sizes, q, n_max) for i, q in enumerate(quads)})
    return {"set": name, "quads": len(quads), "n_max": n_max,
            "brute": {"best_s": round(sum(brute.values()), 3),
                      "counts_sha256": digest([repr([(str(q), counts[i])
                                                     for i, q in enumerate(quads)])]),
                      "work": brute_work(quads, n_max)},
            "language": {"best_s": round(sum(words.values()), 3),
                         "words": sum(sizes.values()),
                         "words_sha256": digest(repr((str(q), n, language(n, q, cap=n_max)))
                                                for q in quads for n in range(n_max + 1))}}


def fresh_row(n: int) -> dict:
    """Unrestricted count_brute(n, cap=n) in a child interpreter importing
    the same dyckgram: the count's seconds and the child's peak RSS in MiB."""
    env = {**os.environ, "PYTHONPATH": str(Path(oracle.__file__).resolve().parents[1])}
    _, out, peak_mib = child(FRESH, str(n), env=env)
    return {"n": n, "s": round(float(out), 6), "peak_rss_mb": round(peak_mib, 1)}


def main() -> None:
    pool = [build(f, **p).quad for f, p in verify_pool()]
    sets = (("census", census_quads(), 12), ("pool", pool, 10),
            ("unrestricted", [RestrictionQuad()], 14))
    report(repeats=REPEATS, rows=[_row(name, quads, n_max) for name, quads, n_max in sets],
           fresh=[fresh_row(n) for n in FRESH_SEMILENGTHS])


if __name__ == "__main__":
    main()
