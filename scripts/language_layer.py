"""Time the oracle language (``oracle.language``) alone on three sets.

    PYTHONPATH=src python3 scripts/language_layer.py

The sets: the quads of the 81 verify-pool instances at n <= 10, the 24
census quads at n <= 12, and the unrestricted quad at n <= 14.  A quad's
call asks for each semilength's words in turn and keeps only their number,
so one word tuple is alive at a time: the unrestricted set alone holds
3.7 M words.  Prints for each set the summed best times of its quads, the
number of words and a digest of every word tuple (content and order),
taken in one more, untimed pass.
"""

from functools import partial

from dyckgram.families import build, verify_pool
from dyckgram.intsets import RestrictionQuad
from dyckgram.oracle import language
from harness import REPEATS, best_of, census_quads, digest, report


def _sizes(q, n_max: int) -> int:
    return sum(len(language(n, q, cap=n_max)) for n in range(n_max + 1))


def main() -> None:
    pool = [build(f, **p).quad for f, p in verify_pool()]
    sets = (("pool", pool, 10), ("census", census_quads(), 12),
            ("unrestricted", [RestrictionQuad()], 14))
    rows = []
    for name, quads, n_max in sets:
        best, sizes = best_of({i: partial(_sizes, q, n_max) for i, q in enumerate(quads)})
        words = digest(repr((str(q), n, language(n, q, cap=n_max)))
                       for q in quads for n in range(n_max + 1))
        rows.append({"set": name, "quads": len(quads), "n_max": n_max,
                     "best_s": round(sum(best.values()), 3), "words": sum(sizes.values()),
                     "words_sha256": words})
    report(repeats=REPEATS, rows=rows)


if __name__ == "__main__":
    main()
