"""Time the run-state DP (``oracle.count_dp``) alone: on the 8 instances
of the benchmark's ``deep`` workload (``dyckgram.families.deep_set()``) at
n = 64, and on three quads at n = 200 and 400.

    PYTHONPATH=src python3 scripts/dp_layer.py

dyckgram is imported from PYTHONPATH, so pointing it at another
checkout's ``src`` times that checkout with the same script.  Prints one
JSON object: for each quad and n, the best of five wall times in seconds,
the ``tracemalloc`` peak in KiB of one more, untimed call, and a digest of
the count sequence, so that two checkouts can be compared for equal counts
as well as for speed and memory.  Each row is one instance, so its
time is that instance's best of five, as in ``word_layer.py``.
"""

import hashlib
import json
import platform
import time
import tracemalloc

from dyckgram.families import build, deep_set
from dyckgram.intsets import RestrictionQuad
from dyckgram.oracle import count_dp

DEEP_N = 64
QUADS = (RestrictionQuad.parse(),
         RestrictionQuad.parse(up_runs="ap(4,2)"),
         RestrictionQuad.parse(peaks="ap(2,3)", down_runs="ap(3,5)"))
SEMILENGTHS = (200, 400)
REPEATS = 5


def _row(quad: RestrictionQuad, n: int) -> dict:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        counts = count_dp(n, quad)
        best = min(best, time.perf_counter() - t0)
    tracemalloc.start()
    count_dp(n, quad)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    digest = hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()
    return {"quad": str(quad), "n": n, "best_s": round(best, 6),
            "peak_kib": -(-peak // 1024),  # rounded up, so never 0
            "counts_sha256": digest[:16]}


def main() -> None:
    rows = [{"instance": str(inst), **_row(inst.quad, DEEP_N)}
            for inst in (build(f, **p) for f, p in deep_set())]
    rows += [_row(quad, n) for quad in QUADS for n in SEMILENGTHS]
    print(json.dumps({"python": platform.python_version(), "repeats": REPEATS,
                      "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
