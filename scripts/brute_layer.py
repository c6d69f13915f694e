"""Time brute-force counting (``oracle.count_brute``) alone on three sets.

    PYTHONPATH=src python3 scripts/brute_layer.py

The sets: the 24 census quads at n <= 12, the quads of the 81 verify-pool
instances at n <= 10, and the unrestricted quad at n <= 14 (see
``harness.py``, which also says how times and digests are taken).  Prints
for each set the summed best times of its quads, a digest of every count
sequence and the work of one untimed pass: the ``walk`` calls of the
midpoint joins (``oracle.joins`` interns each walker state it meets as an
int id and walks each (id, letter) pair it reads once per call, so these
are the distinct transitions of each quad's join, summed), their
``accepts`` calls, and the letters all of them were given; ``peak_mb`` is
that pass's ``tracemalloc`` peak in MiB (the first halves' code and id
lists and the two id-indexed levels of suffix lists ``oracle.joins``
keeps alive are most of it).  Last, ``fresh`` times the unrestricted
``count_brute(n, cap=n)`` at n = 16, 18 and 20, each in a child
interpreter of its own, and reports its wall seconds and the child's peak
resident set (``ru_maxrss``) in MiB.
"""

import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

from dyckgram import oracle
from dyckgram.families import build, verify_pool
from dyckgram.intsets import RestrictionQuad
from dyckgram.oracle import count_brute
from harness import REPEATS, best_of, census_quads, digest, measured, report

FRESH_SEMILENGTHS = (16, 18, 20)


def brute_work(quads, n_max: int) -> dict:
    """Calls to oracle.walk and oracle.accepts, the letters they walked and
    the peak of traced memory, over one count_brute pass on every quad."""
    with measured([(oracle, "walk", "walks"), (oracle, "accepts", "accepts_calls")],
                  letters=True) as work:
        for q in quads:
            count_brute(n_max, q)
    work["peak_mb"] = round(work.pop("peak_bytes") / 2 ** 20, 3)
    return work


def _row(name: str, quads, n_max: int) -> dict:
    best, results = best_of({i: partial(count_brute, n_max, q) for i, q in enumerate(quads)})
    return {"set": name, "quads": len(quads), "n_max": n_max,
            "best_s": round(sum(best.values()), 3),
            "counts_sha256": digest([repr([(str(q), results[i])
                                           for i, q in enumerate(quads)])]),
            "work": brute_work(quads, n_max)}


def fresh_row(n: int) -> dict:
    """Unrestricted count_brute(n, cap=n) in a fresh child interpreter that
    imports the same dyckgram: its wall seconds and peak RSS in MiB."""
    code = ("import json, resource, sys, time\n"
            "from dyckgram.oracle import count_brute\n"
            "n = int(sys.argv[1])\n"
            "t0 = time.perf_counter()\n"
            "count_brute(n, cap=n)\n"
            "print(json.dumps([time.perf_counter() - t0,\n"
            "                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(oracle.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code, str(n)], env=env, check=True,
                         capture_output=True, text=True).stdout
    seconds, maxrss_kib = json.loads(out)
    return {"n": n, "s": round(seconds, 6), "peak_rss_mb": round(maxrss_kib / 1024, 1)}


def main() -> None:
    pool = [build(f, **p).quad for f, p in verify_pool()]
    sets = (("census", census_quads(), 12), ("pool", pool, 10),
            ("unrestricted", [RestrictionQuad()], 14))
    report(repeats=REPEATS, rows=[_row(name, quads, n_max) for name, quads, n_max in sets],
           fresh=[fresh_row(n) for n in FRESH_SEMILENGTHS])


if __name__ == "__main__":
    main()
