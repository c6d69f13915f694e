"""Time brute-force counting (``oracle.count_brute``) alone on three sets.

    PYTHONPATH=src python3 scripts/brute_layer.py

The sets: 24 seeded census-style quads (every avoid-set holds one or two
atoms, as in the benchmark's ``census`` workload) at n <= 12, the quads
of the 81 verify-pool instances (``dyckgram.families.verify_pool()``: F1-F3
and acceptance criteria 05 and 06) at n <= 10, and the unrestricted quad at
n <= 14.  dyckgram is imported from PYTHONPATH, so pointing it at
another checkout's ``src`` times that checkout with the same script.
Prints one JSON object: for each set, the sum over its quads of each
quad's best of five wall times in seconds (on a shared host a slow phase
then costs one quad one run, not a whole pass) and a digest of every
count sequence, so that two checkouts can be compared for equal counts as
well as for speed.  After the timed repeats, one untimed pass per set
wraps ``dyckgram.oracle.walk`` and ``accepts`` and reports the work done:
the ``walk`` calls of the midpoint joins (``oracle.joins`` interns each
walker state it meets as an int id and walks each (id, letter) pair it
reads once per call, so these are the distinct transitions of each
quad's join, summed), their ``accepts`` calls, and the letters all of
them were given; ``tracemalloc`` follows that pass, and ``peak_mb`` is
the most memory it saw allocated at once, in MiB (the first halves'
code and id lists and the two id-indexed levels of suffix lists
``oracle.joins`` keeps alive are most of it).  Last, ``fresh`` times the unrestricted
``count_brute(n, cap=n)`` at n = 16, 18 and 20, each in a child
interpreter of its own, and reports its wall seconds and the child's peak
resident set (``ru_maxrss``) in MiB.
"""

import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from dyckgram import oracle
from dyckgram.families import build, verify_pool
from dyckgram.intsets import RestrictionQuad
from dyckgram.oracle import count_brute

REPEATS = 5
CENSUS_SEED = 9129
FRESH_SEMILENGTHS = (16, 18, 20)


def census_quads(count: int = 24, seed: int = CENSUS_SEED):
    rng = random.Random(seed)

    def atom():
        kind = rng.randrange(3)
        if kind == 0:
            return str(rng.randint(1, 8))
        if kind == 1:
            lo = rng.randint(1, 6)
            return f"{lo}..{lo + rng.randint(0, 5)}"
        return f"ap({rng.randint(1, 4)},{rng.randint(1, 6)})"

    return [RestrictionQuad.parse(**{k: ",".join(atom() for _ in range(rng.randint(1, 2)))
                                     for k in ("peaks", "valleys", "up_runs", "down_runs")})
            for _ in range(count)]


def brute_work(quads, n_max: int) -> dict:
    """Calls to oracle.walk and oracle.accepts, the letters they walked and
    the peak of traced memory, over one count_brute pass on every quad."""
    work = {"walks": 0, "accepts_calls": 0, "letters": 0}

    def counting(key, fn):
        def counted(steps, *rest):
            work[key] += 1
            work["letters"] += len(steps)
            return fn(steps, *rest)
        return counted

    saved = oracle.walk, oracle.accepts
    oracle.walk = counting("walks", saved[0])
    oracle.accepts = counting("accepts_calls", saved[1])
    tracemalloc.start()
    try:
        for q in quads:
            count_brute(n_max, q)
        work["peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 3)
    finally:
        tracemalloc.stop()
        oracle.walk, oracle.accepts = saved
    return work


def _row(name: str, quads, n_max: int) -> dict:
    times: list[list[float]] = [[] for _ in quads]
    for _ in range(REPEATS):
        results = []
        for q, spent in zip(quads, times):
            t0 = time.perf_counter()
            results.append((str(q), count_brute(n_max, q)))
            spent.append(time.perf_counter() - t0)
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    return {"set": name, "quads": len(quads), "n_max": n_max,
            "best_s": round(sum(map(min, times)), 3), "counts_sha256": digest[:16],
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
    rows = [_row(name, quads, n_max) for name, quads, n_max in sets]
    print(json.dumps({"python": platform.python_version(), "repeats": REPEATS,
                      "rows": rows, "fresh": [fresh_row(n) for n in FRESH_SEMILENGTHS]},
                     indent=1))


if __name__ == "__main__":
    main()
