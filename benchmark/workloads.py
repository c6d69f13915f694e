"""Seeded operation streams for the three workloads, and the check of each result.

An operation is one ``dyckgram`` command line (with ``--json``) plus the
data needed to check its output.  ``ops(workload, seed)`` yields an
endless stream, the same for the same seed; the client takes as many as
fit in its time box.  Reference values are computed here from their
defining rules and never from ``dyckgram.sequences``.
"""

from __future__ import annotations

import json
import random
from math import comb

WORKLOADS = ("verify", "census", "deep")

VERIFY_MAX_LEN = 20
VERIFY_N_MAX = 10
BIJECTION_SEMILENGTH = 10
CENSUS_N_MAX = 12
DEEP_N_MAX = 64
DEEP_ORDER = 128


# --- reference sequences -------------------------------------------------

def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def powers_of_two(n: int) -> int:
    return 1 if n == 0 else 2 ** (n - 1)


def all_ones(n: int) -> int:
    return 1


def _table(rule):
    cache = []

    def term(n: int) -> int:
        while len(cache) <= n:
            cache.append(rule(cache, len(cache)))
        return cache[n]
    return term


# G_0 = G_1 = 1, G_m = G_{m-1} + sum_{k=1}^{m-2} G_k G_{m-2-k}
gen_catalan = _table(lambda g, m: 1 if m < 2 else
                     g[m - 1] + sum(g[k] * g[m - 2 - k] for k in range(1, m - 1)))
# (m + 2) M_m = (2m + 1) M_{m-1} + 3 (m - 1) M_{m-2}
motzkin = _table(lambda g, m: 1 if m < 2 else
                 ((2 * m + 1) * g[m - 1] + 3 * (m - 1) * g[m - 2]) // (m + 2))


def shifted_gen_catalan(n: int) -> int:
    return gen_catalan(n + 1)


def parity_paths(m: int) -> int:
    """Paths of semilength m with no peak or valley at positive even height."""
    if m == 0:
        return 1
    return comb(m - 1, m // 2) if m % 2 == 0 else comb(m - 1, (m - 1) // 2)


# family instance -> its count at semilength n, where the catalogue states one
REFERENCES = {
    ("F1", ()): powers_of_two,
    ("F2", ()): shifted_gen_catalan,
    ("F3", ()): motzkin,
    ("F6", (1, 3)): motzkin,
    ("F6", (1, 2)): all_ones,
}


# --- instance pools ------------------------------------------------------

def _run_sweep():
    """The 48 run-progression instances of acceptance criterion 05."""
    out = []
    for a in range(1, 5):
        for b in range(1, a):
            out += [("F5", {"A": a, "B": b}), ("F7", {"A": a, "B": b})]
        for b in range(a, 7):
            out += [("F6", {"A": a, "B": b}), ("F8", {"A": a, "B": b})]
    return out


def _short_run_sweep():
    """The 30 short-run instances of acceptance criterion 06."""
    out = [("F9", {"r": r}) for r in range(1, 5)]
    out += [("F10", {"m": m, "n": n}) for m in range(1, 5) for n in range(1, 5)]
    out += [("F11", {"r": r, "k": k}) for r in range(1, 5) for k in range(1, r + 1)]
    return out


_CLOSED = [("F1", {}), ("F2", {}), ("F3", {})]


def verify_pool():
    return _CLOSED + _run_sweep() + _short_run_sweep()


# One instance of every family with a stated system.  The set is fixed and
# the seed orders it, cycle after cycle: the 55 catalogue instances with a
# stated system cost 0.01-4 s each (DP plus series), and a seeded draw of
# the ~15 that fit in a 30 s run moved ops_per_s by 23% (IQR/median over 5
# seeds) on composition alone.
DEEP_SET = (("F1", {}), ("F2", {}), ("F3", {}), ("F5", {"A": 4, "B": 2}),
            ("F6", {"A": 2, "B": 4}), ("F7", {"A": 4, "B": 2}),
            ("F8", {"A": 3, "B": 5}), ("F9", {"r": 1}))


def _param_arg(params: dict) -> list[str]:
    return ["--param", ",".join(f"{k}={v}" for k, v in params.items())] if params else []


def _name(family: str, params: dict) -> str:
    return family + "(" + ",".join(f"{k}={v}" for k, v in params.items()) + ")"


def _quad_args(quad: dict) -> list[str]:
    return ["--peaks", quad["peaks"], "--valleys", quad["valleys"],
            "--upruns", quad["up_runs"], "--downruns", quad["down_runs"]]


# --- operation streams ---------------------------------------------------

def _spread_order(pool, rng):
    """A seeded permutation of pool whose every prefix is spread evenly
    over the pool's own order: position i takes the first free slot at or
    after fraction (u + i * 0.618...) mod 1 of the pool, u drawn once."""
    n = len(pool)
    u = rng.random()
    free = [True] * n
    for i in range(n):
        k = int(n * ((u + i * _GOLDEN) % 1.0))
        while not free[k]:
            k = (k + 1) % n
        free[k] = False
        yield pool[k]


_GOLDEN = (5 ** 0.5 - 1) / 2


def _verify_ops(rng):
    yield {"kind": "bijection", "name": f"bijection({BIJECTION_SEMILENGTH})",
           "argv": ["bijection", "--semilength", str(BIJECTION_SEMILENGTH), "--json"]}
    pool = verify_pool()
    while True:
        for family, params in _spread_order(pool, rng):
            yield {"kind": "verify", "name": _name(family, params),
                   "ref": [family, list(params.values())],
                   "argv": ["verify", "--family", family, *_param_arg(params),
                            "--max-len", str(VERIFY_MAX_LEN),
                            "--n-max", str(VERIFY_N_MAX), "--json"]}


def _census_atom(rng) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return str(rng.randint(1, 8))
    if kind == 1:
        lo = rng.randint(1, 6)
        return f"{lo}..{lo + rng.randint(0, 5)}"
    return f"ap({rng.randint(1, 4)},{rng.randint(1, 6)})"


def _census_ops(rng):
    while True:
        quad = {k: ",".join(_census_atom(rng) for _ in range(rng.randint(1, 2)))
                for k in ("peaks", "valleys", "up_runs", "down_runs")}
        yield {"kind": "census", "name": "count" + json.dumps(quad, sort_keys=True),
               "argv": ["count", "--n-max", str(CENSUS_N_MAX), *_quad_args(quad), "--json"]}


def _deep_ops(rng):
    from dyckgram.families import build

    cycle = []
    for family, params in DEEP_SET:
        q = build(family, **params).quad
        quad = {"peaks": str(q.peaks), "valleys": str(q.valleys),
                "up_runs": str(q.up_runs), "down_runs": str(q.down_runs)}
        cycle.append((_name(family, params), family, params, quad))
    while True:
        rng.shuffle(cycle)
        for name, family, params, quad in cycle:
            ref = [family, list(params.values())]
            yield {"kind": "deep_count", "name": name, "ref": ref,
                   "argv": ["count", "--method", "dp", "--n-max", str(DEEP_N_MAX),
                            *_quad_args(quad), "--json"]}
            yield {"kind": "deep_series", "name": name, "ref": ref,
                   "argv": ["series", "--family", family, *_param_arg(params),
                            "--order", str(DEEP_ORDER), "--json"]}


_STREAMS = {"verify": _verify_ops, "census": _census_ops, "deep": _deep_ops}


def ops(workload: str, seed: int):
    """The endless, seed-determined operation stream of one workload."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))


# --- checks --------------------------------------------------------------

def _counts(values, n_max: int, what: str) -> list[int]:
    if len(values) != n_max + 1:
        raise ValueError(f"{what}: {len(values)} counts, want {n_max + 1}")
    counts = [int(v) for v in values]
    if counts[0] != 1:
        raise ValueError(f"{what}: count at n=0 is {counts[0]}, want 1")
    for n, c in enumerate(counts):
        if not 0 <= c <= catalan(n):
            raise ValueError(f"{what}: count {c} at n={n} outside [0, Catalan({n})]")
    return counts


def _against_reference(op, counts, what: str) -> None:
    family, params = op["ref"]
    ref = REFERENCES.get((family, tuple(params)))
    if ref is None:
        return
    for n, c in enumerate(counts):
        if c != ref(n):
            raise ValueError(f"{what}: count {c} at n={n}, reference says {ref(n)}")


def check(op, rc, stdout: str, earlier=None) -> str | None:
    """None when the operation's output is right, else the reason it is wrong.

    ``earlier`` is the parsed output of the operation just before this
    one; a deep series is checked against the DP counts issued before it.
    """
    if rc != 0:
        return f"exit status {rc}"
    try:
        out = json.loads(stdout)
        _check_payload(op, out, earlier)
    except (ValueError, KeyError, TypeError) as e:
        return str(e) or type(e).__name__
    return None


def _check_payload(op, out, earlier) -> None:
    kind = op["kind"]
    if kind in ("bijection", "verify", "census", "deep_count") and out["passed"] is not True:
        raise ValueError("command reports passed = false")
    if kind == "bijection":
        rows = out["rows"]
        if [int(r["semilength"]) for r in rows] != list(range(BIJECTION_SEMILENGTH + 1)):
            raise ValueError("bijection rows do not cover every semilength")
        for r in rows:
            m = int(r["semilength"])
            want = parity_paths(m)
            if not (int(r["paths"]) == int(r["walks"]) == int(r["expected"]) == want
                    and r["round_trip"] is True):
                raise ValueError(f"bijection row m={m} is {r}, want {want} each way")
    elif kind == "verify":
        if not all(c["passed"] for c in out["checks"]):
            raise ValueError("a verify check failed")
        counts = {m: _counts(v, VERIFY_N_MAX, m) for m, v in out["counts"].items()}
        if set(counts) != {"brute", "dp", "series"} or \
                not counts["brute"] == counts["dp"] == counts["series"]:
            raise ValueError("brute, dp and series counts differ")
        _against_reference(op, counts["brute"], "verify")
    elif kind == "census":
        counts = {m: _counts(v, CENSUS_N_MAX, m) for m, v in out["counts"].items()}
        if set(counts) != {"brute", "dp"} or counts["brute"] != counts["dp"]:
            raise ValueError("brute and dp counts differ")
    elif kind == "deep_count":
        _against_reference(op, _counts(out["counts"]["dp"], DEEP_N_MAX, "dp"), "dp")
    elif kind == "deep_series":
        coeffs = _counts(out["coefficients"]["P"], DEEP_ORDER - 1, "series")
        _against_reference(op, coeffs, "series")
        if earlier is not None:
            dp = [int(c) for c in earlier["counts"]["dp"]]
            if dp != coeffs[:DEEP_N_MAX + 1]:
                raise ValueError("series differs from the DP counts")
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
