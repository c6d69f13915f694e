"""Time lowering (``grammar.lower``) over the 81 verify-pool bodies and over
synthetic one-rule grammars with 1,000, 4,000 and 16,000 alternatives.

    PYTHONPATH=src python3 scripts/lower_layer.py

Alternative i of a synthetic rule is U P^a D Q^b R^c, (a, b, c) being the
i-th triple of range(26)^3, so every alternative is a distinct monomial
z P^a Q^b R^c.  Prints for each set its best of three times, each a whole
set's lowering, and a digest of every ``str(system)``.
"""

from itertools import islice, product

from dyckgram.families import build, verify_pool
from dyckgram.grammar import EPSILON, D, Grammar, NonTerm, U, lower, rep, seq
from harness import best_of, digest, report

REPEATS = 3
SYNTHETIC_SIZES = (1_000, 4_000, 16_000)


def synthetic(size: int) -> Grammar:
    P, Q, R = NonTerm("P"), NonTerm("Q"), NonTerm("R")
    alts = tuple(seq(U, rep(P, a), D, rep(Q, b), rep(R, c))
                 for a, b, c in islice(product(range(26), repeat=3), size))
    return Grammar({"P": alts, "Q": (EPSILON,), "R": (EPSILON,)})


def main() -> None:
    sets = [("pool", [build(f, **p).body for f, p in verify_pool()])]
    sets += [(f"one rule, {size} alternatives", [synthetic(size)])
             for size in SYNTHETIC_SIZES]
    rows = []
    for name, bodies in sets:
        best, systems = best_of({name: lambda: [lower(body) for body in bodies]}, REPEATS)
        rows.append({"set": name, "bodies": len(bodies), "best_s": round(best[name], 4),
                     "systems_sha256": digest(["\n\n".join(map(str, systems[name]))])})
    report(repeats=REPEATS, rows=rows)


if __name__ == "__main__":
    main()
