"""Time lowering (``grammar.lower``) over the 81 verify-pool bodies and over
synthetic one-rule grammars with 1,000, 4,000 and 16,000 alternatives.

    PYTHONPATH=src python3 scripts/lower_layer.py

The pool is ``dyckgram.families.verify_pool()``: F1-F3 plus the 48
run-progression instances of acceptance criterion 05 and the 30 short-run
instances of criterion 06, 15 grammars and 66 equations.  Alternative i of a synthetic rule is U P^a D Q^b R^c,
(a, b, c) being the i-th triple of range(26)^3, so every alternative is a
distinct monomial z P^a Q^b R^c.  dyckgram is imported from PYTHONPATH,
so pointing it at another checkout's ``src`` times that checkout with the
same script.  Prints one JSON object: for each set, the best of three
wall times and a digest of every ``str(system)``, so that two checkouts
can be compared for equal systems as well as for speed.
"""

import hashlib
import json
import platform
import time
from itertools import islice, product

from dyckgram.families import build, verify_pool
from dyckgram.grammar import EPSILON, D, Grammar, NonTerm, U, lower, rep, seq

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
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            systems = [lower(body) for body in bodies]
            best = min(best, time.perf_counter() - t0)
        digest = hashlib.sha256("\n\n".join(map(str, systems)).encode()).hexdigest()
        rows.append({"set": name, "bodies": len(bodies), "best_s": round(best, 4),
                     "systems_sha256": digest[:16]})
    print(json.dumps({"python": platform.python_version(), "repeats": REPEATS,
                      "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
