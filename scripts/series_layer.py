"""Time the series solver (``series.solve``) alone: on the 8 instances of
the benchmark's ``deep`` workload at order 128, and on the 117 catalogue
instances (``dyckgram.families.catalogue()``) at order 64.

    PYTHONPATH=src python3 scripts/series_layer.py

Each instance's grammar is lowered once, untimed, as ``dyckgram series``
lowers it.  Prints for each deep instance the best time of its ``solve``
and a digest of every unknown's coefficients; for the catalogue, the sum
of each instance's best time and one digest of all of them.
"""

from functools import partial

from dyckgram.families import build, catalogue, deep_set
from dyckgram.grammar import lower
from dyckgram.series import solve
from harness import REPEATS, best_of, digest, report

DEEP_ORDER = 128
CATALOGUE_ORDER = 64


def _row(instances, order: int) -> dict:
    """The sum of each instance's best solve time, and a digest of every
    solution, unknown by unknown."""
    systems = [lower(inst.body) for inst in instances]
    best, solutions = best_of({i: partial(solve, s, order) for i, s in enumerate(systems)})
    coeffs = digest(f"{name}:{','.join(map(str, solutions[i][name].coeffs))};"
                    for i, system in enumerate(systems) for name in system.unknowns)
    return {"order": order, "best_s": round(sum(best.values()), 5), "coeffs_sha256": coeffs}


def main() -> None:
    rows = [{"instance": str(inst), **_row([inst], DEEP_ORDER)}
            for inst in (build(f, **p) for f, p in deep_set())]
    instances = [build(f, **p) for f, p in catalogue()]
    rows.append({"instance": "catalogue", "instances": len(instances),
                 **_row(instances, CATALOGUE_ORDER)})
    report(repeats=REPEATS, rows=rows)


if __name__ == "__main__":
    main()
