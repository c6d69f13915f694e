"""Acceptance suite: one test per release criterion, exact equality only.

Each test prints a single line, ``criterion NN PASS/FAIL [elapsed]``, and
asserts every sub-check it performed, so ``pytest tests/test_acceptance.py
-v -s`` reads as a checklist.  Where a criterion carries a time budget the
elapsed time is asserted too.
"""

import time
from math import comb

from conftest import downrun_variant_sides, sample_quads, swapped_runs

from dyckgram.bijection import PARITY_QUAD, verify_counts
from dyckgram.families import F2_IDENTITY, build, run_progression_sweep, short_run_sweep
from dyckgram.grammar import (D, EPSILON, Grammar, NonTerm, U, lower, seq)
from dyckgram.intsets import RestrictionQuad
from dyckgram.oracle import count_brute, count_dp
from dyckgram.sequences import GEN_CATALAN_IDENTITY, SeqId, reference
from dyckgram.series import Poly, TruncatedSeries, solve
from dyckgram.verify import verify_family


def _report(num, failures, t0, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed > budget:
        failures.append(f"over budget: {elapsed:.2f}s > {budget:.0f}s")
    print(f"criterion {num:02d} {'PASS' if not failures else 'FAIL'} [{elapsed:.2f}s]")
    assert not failures, "; ".join(failures)


def _counts_all_ways(instance, n_max, order=None):
    """(brute, dp, series) count tuples for semilengths 0..n_max."""
    order = order or n_max + 1
    brute = count_brute(n_max, instance.quad)
    dp = count_dp(n_max, instance.quad)
    sol = solve(lower(instance.body), order)["P"].require_counts()
    return brute, dp, sol.coeffs[:n_max + 1]


def _sweep(instances, failures):
    for inst in instances:
        report = verify_family(inst, max_len=20, n_max=10)
        if not report.passed:
            bad = [c.name for c in report.checks if not c.passed]
            failures.append(f"{inst}: {bad or ['counts']}")


def test_criterion_01_doubling_family():
    t0 = time.perf_counter()
    failures = []
    expected = (1,) + tuple(2 ** (n - 1) for n in range(1, 15))
    brute, dp, series = _counts_all_ways(build("F1"), 14)
    for name, got in [("brute", brute), ("dp", dp), ("series", series)]:
        if got != expected:
            failures.append(f"{name} counts {got} != {expected}")
    _report(1, failures, t0, budget=10.0)


def test_criterion_02_shifted_recurrence_family():
    t0 = time.perf_counter()
    failures = []
    # the recurrence, inline and independent of any module cache
    g = [1, 1]
    for m in range(2, 32):
        g.append(g[m - 1] + sum(g[k] * g[m - 2 - k] for k in range(1, m - 1)))
    expected = tuple(g[n + 1] for n in range(15))
    inst = build("F2")
    brute, dp, series = _counts_all_ways(inst, 14, order=31)
    for name, got in [("brute", brute), ("dp", dp), ("series", series)]:
        if got != expected:
            failures.append(f"{name} counts {got} != {expected}")
    # the closed forms as the integer identities they satisfy: each fixes
    # every coefficient, so a zero residual is agreement with the radical
    zero = TruncatedSeries.zero(31)
    path_series = solve(lower(inst.body), 31)["P"].require_counts()
    if F2_IDENTITY.eval({"P": path_series}, 31) != zero:
        failures.append("solved series does not satisfy the radical closed form's identity")
    shifted = (Poly.const(1) + Poly.z() * Poly.var("P")).eval({"P": path_series}, 31)
    if GEN_CATALAN_IDENTITY.eval({"G": shifted}, 31) != zero:
        failures.append("shift identity fails: z * first + 1 is not the second series")
    if GEN_CATALAN_IDENTITY.eval({"G": TruncatedSeries(tuple(g[:31]))}, 31) != zero:
        failures.append("recurrence does not satisfy the radical form's identity")
    _report(2, failures, t0, budget=10.0)


def test_criterion_03_motzkin_family():
    t0 = time.perf_counter()
    failures = []
    expected = tuple(reference(SeqId.MOTZKIN, n) for n in range(15))
    brute, dp, series = _counts_all_ways(build("F3"), 14)
    for name, got in [("brute", brute), ("dp", dp), ("series", series)]:
        if got != expected:
            failures.append(f"{name} counts {got} != {expected}")
    _report(3, failures, t0)


def test_criterion_04_parity_walk_correspondence():
    t0 = time.perf_counter()
    failures = []
    expected = tuple(reference(SeqId.PARITY_BINOM, m) for m in range(13))
    brute = count_brute(12, PARITY_QUAD)
    dp = count_dp(12, PARITY_QUAD)
    if brute != expected:
        failures.append(f"brute counts {brute} != {expected}")
    if dp != expected:
        failures.append(f"dp counts {dp} != {expected}")
    report = verify_counts(10)
    for row in report.rows:
        if not (row.path_count == row.walk_count == row.expected):
            failures.append(f"m={row.semilength}: counts disagree")
        if not row.round_trip_ok:
            failures.append(f"m={row.semilength}: round trip not the identity")
    _report(4, failures, t0, budget=60.0)


def test_criterion_05_run_progression_sweep():
    t0 = time.perf_counter()
    failures = []
    instances = [build(f, **p) for f, p in run_progression_sweep()]
    if len(instances) != 48:
        failures.append(f"expected 48 instances, built {len(instances)}")
    _sweep(instances, failures)
    _report(5, failures, t0, budget=300.0)


def test_criterion_06_short_run_sweep():
    t0 = time.perf_counter()
    failures = []
    instances = [build(f, **p) for f, p in short_run_sweep()]
    if len(instances) != 30:
        failures.append(f"expected 30 instances, built {len(instances)}")
    _sweep(instances, failures)
    _report(6, failures, t0)


def test_criterion_07_unrestricted_baseline():
    t0 = time.perf_counter()
    failures = []
    expected = tuple(comb(2 * n, n) // (n + 1) for n in range(15))
    quad = RestrictionQuad.parse()
    brute = count_brute(14, quad)
    dp = count_dp(14, quad)
    P = NonTerm("P")
    grammar = Grammar({"P": (EPSILON, seq(U, P, D, P))})
    series = solve(lower(grammar), 15)["P"].require_counts().coeffs
    for name, got in [("brute", brute), ("dp", dp), ("series", series)]:
        if got != expected:
            failures.append(f"{name} counts {got} != {expected}")
    _report(7, failures, t0)


def test_criterion_08_cross_identities():
    t0 = time.perf_counter()
    failures = []
    motzkin = solve(lower(build("F6", A=1, B=3).body), 31)["P"]
    if motzkin.require_counts().coeffs != \
            tuple(reference(SeqId.MOTZKIN, n) for n in range(31)):
        failures.append("F6(A=1,B=3) is not the Motzkin series to order 30")
    ones = solve(lower(build("F6", A=1, B=2).body), 31)["P"]
    if ones.require_counts().coeffs != (1,) * 31:
        failures.append("F6(A=1,B=2) is not the all-ones series to order 30")
    _report(8, failures, t0)


def test_criterion_09_run_swap_symmetry():
    t0 = time.perf_counter()
    failures = []
    for quad in sample_quads(20, seed=9129):
        direct = count_dp(9, quad)
        swapped = count_dp(9, swapped_runs(quad))
        if direct != swapped:
            failures.append(f"{quad}: {direct} != {swapped}")
    _report(9, failures, t0)


def test_criterion_10_downrun_variant_overcount():
    t0 = time.perf_counter()
    failures = []
    instances = [build("F7", A=a, B=b)
                 for a in range(2, 5) for b in range(1, a)]
    instances += [build("F8", A=a, B=b) for a, b in
                  [(1, 1), (1, 2), (2, 2), (2, 4), (3, 3), (4, 6)]]
    for inst in instances:
        sol = solve(lower(inst.body), 12)
        series = sol["P"].require_counts()
        brute = count_brute(8, inst.quad)
        if series.coeffs[:9] != brute:
            failures.append(f"{inst}: grammar series differs from brute force")
        lhs, rhs = downrun_variant_sides(inst)
        diff = rhs.eval(sol, 12) - lhs.eval(sol, 12)
        if diff != TruncatedSeries.one(12):
            failures.append(f"{inst}: k=0 variant difference is {diff}, not 1")
    _report(10, failures, t0)
