"""Time the run-state DP (``oracle.count_dp``) alone at n = 200 and 400.

    PYTHONPATH=src python3 scripts/dp_layer.py

dyckgram is imported from PYTHONPATH, so pointing it at another
checkout's ``src`` times that checkout with the same script.  Prints one
JSON object: for each quad and n, the best of three wall times in seconds
and a digest of the count sequence, so that two checkouts can be compared
for equal counts as well as for speed.
"""

import hashlib
import json
import platform
import time

from dyckgram.oracle import count_dp
from dyckgram.intsets import RestrictionQuad

QUADS = (RestrictionQuad.parse(),
         RestrictionQuad.parse(up_runs="ap(4,2)"),
         RestrictionQuad.parse(peaks="ap(2,3)", down_runs="ap(3,5)"))
SEMILENGTHS = (200, 400)
REPEATS = 3


def main() -> None:
    rows = []
    for quad in QUADS:
        for n in SEMILENGTHS:
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                counts = count_dp(n, quad).sequence()
                best = min(best, time.perf_counter() - t0)
            digest = hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()
            rows.append({"quad": str(quad), "n": n, "best_s": round(best, 4),
                         "counts_sha256": digest[:16]})
    print(json.dumps({"python": platform.python_version(), "repeats": REPEATS,
                      "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
