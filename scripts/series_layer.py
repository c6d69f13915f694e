"""Time the series solver (``series.solve``) alone: on the 8 instances of
the benchmark's ``deep`` workload at order 128, and on the 117 catalogue
instances (``dyckgram.families.catalogue()``) at order 64.

    PYTHONPATH=src python3 scripts/series_layer.py

Each instance's grammar is lowered once, untimed, as ``dyckgram series``
lowers it.  dyckgram is imported from PYTHONPATH, so pointing it at
another checkout's ``src`` times that checkout with the same script.
Prints one JSON object: for each deep instance, the best of five wall
times of its ``solve`` in seconds and a digest of every unknown's
coefficients; for the catalogue, the sum of each instance's best of five
and one digest of all of them, so that two checkouts can be compared for
equal coefficients as well as for speed.
"""

import hashlib
import json
import platform
import time

from dyckgram.families import build, catalogue, deep_set
from dyckgram.grammar import lower
from dyckgram.series import solve

DEEP_ORDER = 128
CATALOGUE_ORDER = 64
REPEATS = 5


def _row(instances, order: int) -> dict:
    """The sum of each instance's best of five solve times, and a digest of
    every solution, unknown by unknown."""
    systems = [lower(inst.body) for inst in instances]
    best, h = 0.0, hashlib.sha256()
    for system in systems:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            solution = solve(system, order)
            times.append(time.perf_counter() - t0)
        best += min(times)
        for name in system.unknowns:
            h.update(f"{name}:{','.join(map(str, solution[name].coeffs))};".encode())
    return {"order": order, "best_s": round(best, 5), "coeffs_sha256": h.hexdigest()[:16]}


def main() -> None:
    rows = [{"instance": str(inst), **_row([inst], DEEP_ORDER)}
            for inst in (build(f, **p) for f, p in deep_set())]
    instances = [build(f, **p) for f, p in catalogue()]
    rows.append({"instance": "catalogue", "instances": len(instances),
                 **_row(instances, CATALOGUE_ORDER)})
    print(json.dumps({"python": platform.python_version(), "repeats": REPEATS,
                      "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
