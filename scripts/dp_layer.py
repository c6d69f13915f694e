"""Time the run-state DP (``oracle.count_dp``) alone: on the 8 instances
of the benchmark's ``deep`` workload at n = 64, and on three quads at
n = 200 and 400.

    PYTHONPATH=src python3 scripts/dp_layer.py

Prints for each quad and n its best time (each row is one call), the
``tracemalloc`` peak in KiB of one more, untimed call, and a digest of the
count sequence.
"""

from functools import partial

from dyckgram.families import build, deep_set
from dyckgram.intsets import RestrictionQuad
from dyckgram.oracle import count_dp
from harness import REPEATS, best_of, digest, measured, report

DEEP_N = 64
QUADS = (RestrictionQuad.parse(),
         RestrictionQuad.parse(up_runs="ap(4,2)"),
         RestrictionQuad.parse(peaks="ap(2,3)", down_runs="ap(3,5)"))
SEMILENGTHS = (200, 400)


def _row(quad: RestrictionQuad, n: int) -> dict:
    best, results = best_of({"dp": partial(count_dp, n, quad)})
    with measured() as work:
        count_dp(n, quad)
    return {"quad": str(quad), "n": n, "best_s": round(best["dp"], 6),
            "peak_kib": -(-work["peak_bytes"] // 1024),  # rounded up, so never 0
            "counts_sha256": digest([",".join(map(str, results["dp"]))])}


def main() -> None:
    rows = [{"instance": str(inst), **_row(inst.quad, DEEP_N)}
            for inst in (build(f, **p) for f, p in deep_set())]
    rows += [_row(quad, n) for quad in QUADS for n in SEMILENGTHS]
    report(repeats=REPEATS, rows=rows)


if __name__ == "__main__":
    main()
