"""Time the series route alone: lowering (``grammar.lower``), then the
series solver (``series.solve``).

    PYTHONPATH=src python3 scripts/series_layer.py

``lower``: the 81 verify-pool bodies, and synthetic one-rule grammars
with 1,000, 4,000 and 16,000 alternatives.  Alternative i of a synthetic
rule is U P^a D Q^b R^c, (a, b, c) being the i-th triple of range(26)^3,
so every alternative is a distinct monomial z P^a Q^b R^c.  Prints for
each set its best of three times, each a whole set's lowering, and a
digest of every ``str(system)``.

``solve``: the 8 instances of the benchmark's ``deep`` workload at order
128, and the 117 catalogue instances (``dyckgram.families.catalogue()``)
at order 64.  Each instance's grammar is lowered once, untimed, as
``dyckgram series`` lowers it.  Prints for each deep instance the best
time of its ``solve`` and a digest of every unknown's coefficients; for
the catalogue, the sum of each instance's best time and one digest of
all of them.
"""

from functools import partial
from itertools import islice, product

from dyckgram.families import build, catalogue, deep_set, verify_pool
from dyckgram.grammar import EPSILON, D, Grammar, NonTerm, U, lower, rep, seq
from dyckgram.series import solve
from harness import REPEATS, best_of, digest, report

LOWER_REPEATS = 3
SYNTHETIC_SIZES = (1_000, 4_000, 16_000)
DEEP_ORDER = 128
CATALOGUE_ORDER = 64


def synthetic(size: int) -> Grammar:
    P, Q, R = NonTerm("P"), NonTerm("Q"), NonTerm("R")
    alts = tuple(seq(U, rep(P, a), D, rep(Q, b), rep(R, c))
                 for a, b, c in islice(product(range(26), repeat=3), size))
    return Grammar({"P": alts, "Q": (EPSILON,), "R": (EPSILON,)})


def lower_rows() -> list[dict]:
    sets = [("pool", [build(f, **p).body for f, p in verify_pool()])]
    sets += [(f"one rule, {size} alternatives", [synthetic(size)])
             for size in SYNTHETIC_SIZES]
    rows = []
    for name, bodies in sets:
        best, systems = best_of({name: lambda: [lower(b) for b in bodies]}, LOWER_REPEATS)
        rows.append({"set": name, "bodies": len(bodies), "best_s": round(best[name], 4),
                     "systems_sha256": digest(["\n\n".join(map(str, systems[name]))])})
    return rows


def _row(instances, order: int) -> dict:
    """The sum of each instance's best solve time, and a digest of every
    solution, unknown by unknown."""
    systems = [lower(inst.body) for inst in instances]
    best, solutions = best_of({i: partial(solve, s, order) for i, s in enumerate(systems)})
    coeffs = digest(f"{name}:{','.join(map(str, solutions[i][name].coeffs))};"
                    for i, system in enumerate(systems) for name in system.unknowns)
    return {"order": order, "best_s": round(sum(best.values()), 5), "coeffs_sha256": coeffs}


def solve_rows() -> list[dict]:
    rows = [{"instance": str(inst), **_row([inst], DEEP_ORDER)}
            for inst in (build(f, **p) for f, p in deep_set())]
    instances = [build(f, **p) for f, p in catalogue()]
    rows.append({"instance": "catalogue", "instances": len(instances),
                 **_row(instances, CATALOGUE_ORDER)})
    return rows


def main() -> None:
    report(lower={"repeats": LOWER_REPEATS, "rows": lower_rows()},
           solve={"repeats": REPEATS, "rows": solve_rows()})


if __name__ == "__main__":
    main()
