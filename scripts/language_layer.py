"""Time the oracle language (``oracle.language``) alone on three sets.

    PYTHONPATH=src python3 scripts/language_layer.py

The sets: the quads of the 81 verify-pool instances
(``dyckgram.families.verify_pool()``: F1-F3 and acceptance criteria 05 and
06) at n <= 10, the 24 seeded census-style quads of
``brute_layer.census_quads`` at n <= 12, and the unrestricted quad at
n <= 14.  dyckgram is imported from PYTHONPATH, so
pointing it at another checkout's ``src`` times that checkout with the
same script.  Prints one JSON object: for each set, the sum over its
quads of each quad's best of five times in seconds spent inside
``language`` (on a shared host a slow phase then costs one quad one run,
not a whole pass), the number of words and a digest of every word tuple
(content and order), so that two checkouts can be compared for equal
languages as well as for speed.
"""

import hashlib
import json
import platform
import time

from brute_layer import census_quads
from dyckgram.families import build, verify_pool
from dyckgram.intsets import RestrictionQuad
from dyckgram.oracle import language

REPEATS = 5


def main() -> None:
    pool = [build(f, **p).quad for f, p in verify_pool()]
    sets = (("pool", pool, 10), ("census", census_quads(), 12),
            ("unrestricted", [RestrictionQuad()], 14))
    rows = []
    for name, quads, n_max in sets:
        times: list[list[float]] = [[] for _ in quads]
        count, digest = 0, hashlib.sha256()
        for repeat in range(REPEATS):
            for q, spent in zip(quads, times):
                # one tuple at a time: the unrestricted set alone holds 3.7 M words
                elapsed = 0.0
                for n in range(n_max + 1):
                    t0 = time.perf_counter()
                    got = language(n, q, cap=n_max)
                    elapsed += time.perf_counter() - t0
                    if not repeat:
                        count += len(got)
                        digest.update(repr((str(q), n, got)).encode())
                spent.append(elapsed)
        rows.append({"set": name, "quads": len(quads), "n_max": n_max,
                     "best_s": round(sum(map(min, times)), 3), "words": count,
                     "words_sha256": digest.hexdigest()[:16]})
    print(json.dumps({"python": platform.python_version(), "repeats": REPEATS,
                      "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
