"""Cross-checking a family instance by every available route.

For one instance this runs: lowering against the stated closed form
(when the family has one), word-level checks of the grammar or equation
against the path oracle, a three-way count comparison (brute force, DP,
solved generating function; DP and series alone above the brute-force
cap), and the reference-sequence comparison for families with a known
count formula.  Brute force and the word checks read one oracle midpoint
join per semilength, the word checks as codes (``paths.encode``) of
each length, so a word is shown as text only in a failure's detail.
A grammar's words are compared as sorted code lists, as an equation's
sides are, and counted only from the first length that differs.
"""

from __future__ import annotations

from contextlib import suppress

from ._record import Record
from .families import FamilyInstance
from .grammar import Grammar, ambiguity, check_equation, lower, word_codes, word_lists
from .oracle import (DEFAULT_ENUMERATION_CAP, ResourceLimit, check_cap, check_joined,
                     count_brute, count_dp, joined_codes, joins, pair_count)
from .paths import decode
from .sequences import reference
from .series import solve

DEFAULT_MAX_LEN = 20
DEFAULT_N_MAX = 10


def row(counts: dict[str, tuple[int, ...]], n: int) -> tuple[int, ...]:
    """Semilength ``n``'s count by each method of ``counts``, in key order."""
    return tuple(c[n] for c in counts.values())


def first_mismatch(counts: dict[str, tuple[int, ...]]) -> int | None:
    """The least semilength whose counts in ``counts`` differ, or None."""
    return next((n for n, r in enumerate(zip(*counts.values())) if len(set(r)) > 1),
                None)


class CheckOutcome(Record):
    name: str
    passed: bool
    detail: str = ""


class FamilyReport(Record):
    instance: FamilyInstance
    checks: tuple[CheckOutcome, ...]
    counts: dict[str, tuple[int, ...]]  # method -> counts, as count_comparison gives

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def count_comparison(n_max, quad, methods=("brute", "dp"),
                     cap: int = DEFAULT_ENUMERATION_CAP) -> dict[str, tuple[int, ...]]:
    """Each method's counts of semilength 0..n_max, in ``methods`` order."""
    check_cap(cap)
    return {m: count_brute(n_max, quad, cap) if m == "brute"
            else count_dp(n_max, quad) for m in methods}


def verify_family(instance: FamilyInstance,
                  max_len: int = DEFAULT_MAX_LEN,
                  n_max: int = DEFAULT_N_MAX,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> FamilyReport:
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    # the word checks enumerate the oracle language up to semilength
    # max_len // 2 under the same cap that bounds brute force
    check_cap(cap)
    if max_len // 2 > cap:
        raise ValueError(f"--max-len {max_len} needs semilength {max_len // 2}, "
                         f"above --cap {cap}; lower --max-len or raise --cap")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    dp = count_dp(n_max, instance.quad)  # its budget fails before any other work
    checks: list[CheckOutcome] = []
    system = lower(instance.body)
    start = system.unknowns[0]  # a grammar's first rule, an equation's subject

    if instance.stated_system is not None:
        ok = system == instance.stated_system
        checks.append(CheckOutcome("lowering matches stated system", ok,
                                   "" if ok else f"derived {system}"))

    # beyond the brute-force cap the DP and the series still check each other
    brute = n_max <= cap
    top, half = n_max if brute else -1, max_len // 2
    # one midpoint join per semilength: the brute row's pairs, the checks'
    # words, all of which are counted against the budget before any is joined
    pairs, lang, joined = [], [], 0
    for n, join in enumerate(joins(max(top, half), instance.quad, cap)):
        count = pair_count(join)
        if n <= top:
            pairs.append(count)
        if n <= half:
            joined += count
            check_joined(joined)
            lang.append(joined_codes(join, n))
    counts = {"brute": tuple(pairs)} if brute else {}
    counts["dp"] = dp
    notes = []
    solution = solve(system, n_max + 1)[start]
    try:
        solution.require_counts()
    except ValueError as e:  # an equation's system subtracts: it can go negative
        notes.append(f"series stage: {e}")
    else:
        counts["series"] = solution.coeffs
    mismatch = first_mismatch(counts)
    if mismatch is not None:
        notes.append(f"first mismatch at n={mismatch}: {row(counts, mismatch)}")
    if not brute:
        notes.append(f"brute force skipped above cap {cap}")
    checks.append(CheckOutcome(
        f"counts agree ({' = '.join(counts)})",
        mismatch is None and "series" in counts, "; ".join(notes)))

    if isinstance(instance.body, Grammar):
        checks += _grammar_checks(instance.body, start, max_len, lang)
    else:
        eq = check_equation(instance.body, {start: lang}, max_len)
        detail = ""
        if not eq.passed:
            detail = (f"{eq.witness!r}: lhs {eq.lhs_multiplicity}, "
                      f"rhs {eq.rhs_multiplicity}")
        checks.append(CheckOutcome("equation multisets equal", eq.passed, detail))

    if instance.count_reference is not None:
        seq_id, offset = instance.count_reference
        expect = tuple(reference(seq_id, n + offset) for n in range(n_max + 1))
        ok = expect == dp
        checks.append(CheckOutcome(
            f"counts match {seq_id.value} (offset {offset})", ok,
            "" if ok else f"expected {expect}, got {dp}"))

    return FamilyReport(instance, tuple(checks), counts)


def _grammar_checks(grammar, start, max_len, lang) -> list[CheckOutcome]:
    """The ambiguity and language checks of a grammar's words of each
    length against the oracle's of each semilength: sorted ``word_lists``
    against the sorted language, and from the first length that differs
    (or past the word budget) ``word_codes``, for the details.  The extra
    and missing words are the first three by (length, word)."""
    with suppress(ResourceLimit):
        if all(sorted(ws) == ([] if length % 2 else sorted(lang[length // 2]))
               for length, ws in enumerate(word_lists(grammar, start, max_len))):
            return [CheckOutcome("grammar unambiguous", True),
                    CheckOutcome("grammar words = oracle language", True)]
    derived = word_codes(grammar, start, max_len)
    amb = ambiguity(derived)
    extra, missing = [], []
    for length, ws in enumerate(derived):
        want = set() if length % 2 else set(lang[length // 2])
        if ws.keys() != want:
            for found, new in ((extra, ws.keys() - want), (missing, want - ws.keys())):
                found += [decode(w, length) for w in sorted(new)[:3 - len(found)]]
    ok = not (extra or missing)
    return [CheckOutcome("grammar unambiguous", amb.passed, "" if amb.passed else
                         f"{amb.witness!r} derived {amb.multiplicity} ways"),
            CheckOutcome("grammar words = oracle language", ok,
                         "" if ok else f"extra={extra} missing={missing}")]
