import gc
from collections import Counter

import pytest

from conftest import midpoint_join
from dyckgram import grammar, oracle, verify
from dyckgram.families import build, verify_pool
from dyckgram.grammar import (D, EPSILON, U, Grammar, GrammaticalEquation, NonTerm,
                              check_equation, seq, words)
from dyckgram.intsets import RestrictionQuad
from dyckgram.oracle import DEFAULT_ENUMERATION_CAP, ResourceLimit, count_brute, language
from dyckgram.paths import accepts, avoid_tables, encode, walk
from dyckgram.verify import (CheckOutcome, count_comparison, first_mismatch, row,
                             verify_family)


def check_names(report):
    return [c.name for c in report.checks]


def outcome(report, name):
    return next(c for c in report.checks if c.name == name)


def test_count_comparison():
    counts = count_comparison(6, RestrictionQuad.parse())
    assert list(counts) == ["brute", "dp"]
    assert counts["brute"] == (1, 1, 2, 5, 14, 42, 132)
    assert first_mismatch(counts) is None
    assert row(counts, 3) == (5, 5)


def test_count_report_mismatch():
    counts = {"a": (1, 1, 2), "b": (1, 1, 3)}
    assert first_mismatch(counts) == 2
    assert row(counts, 2) == (2, 3)
    # the key order is the row order, and one method never mismatches
    assert row({"b": (1, 1, 3), "a": (1, 1, 2)}, 2) == (3, 2)
    assert first_mismatch({"a": (1, 1, 2)}) is None


def test_verify_grammar_family():
    report = verify_family(build("F1"), max_len=12, n_max=6)
    assert report.passed
    assert check_names(report) == [
        "lowering matches stated system",
        "counts agree (brute = dp = series)",
        "grammar unambiguous",
        "grammar words = oracle language",
        "counts match POWERS_OF_TWO (offset 0)",
    ]
    assert report.counts["series"] == (1, 1, 2, 4, 8, 16, 32)


def test_verify_equation_family():
    report = verify_family(build("F9", r=1), max_len=12, n_max=6)
    assert report.passed
    assert "equation multisets equal" in check_names(report)
    assert "grammar unambiguous" not in check_names(report)


def test_verify_family_without_stated_system():
    report = verify_family(build("F10", m=1, n=2), max_len=10, n_max=5)
    assert report.passed
    assert "lowering matches stated system" not in check_names(report)


def test_wrong_stated_system_is_caught():
    good = build("F3")
    bad = good._replace(stated_system=build("F1").stated_system)
    report = verify_family(bad, max_len=10, n_max=5)
    assert not report.passed
    failed = outcome(report, "lowering matches stated system")
    assert not failed.passed
    assert "derived" in failed.detail
    # everything not involving the stated form still passes
    assert outcome(report, "counts agree (brute = dp = series)").passed


def test_wrong_quad_is_caught():
    # Motzkin grammar against the unrestricted language: counts and words split
    bad = build("F3")._replace(quad=RestrictionQuad.parse(), count_reference=None)
    report = verify_family(bad, max_len=10, n_max=5)
    assert not report.passed
    counts = outcome(report, "counts agree (brute = dp = series)")
    assert not counts.passed
    assert "n=3" in counts.detail
    lang = outcome(report, "grammar words = oracle language")
    assert not lang.passed
    assert "missing=" in lang.detail


def test_grammar_witnesses_where_both_first_letters_occur():
    # DUUD and UDDU added twice each: at length 4 the extra words and the
    # ambiguous ones begin with D and with U, and D-led words come first
    good = build("F3")
    extra = (seq(U, D, D, U), seq(D, U, U, D)) * 2
    rules = good.body.rules
    bad = good._replace(body=Grammar({**rules, "P": rules["P"] + extra}))
    report = verify_family(bad, max_len=10, n_max=5)
    assert outcome(report, "grammar unambiguous").detail == "'DUUD' derived 2 ways"
    assert outcome(report, "grammar words = oracle language").detail == \
        "extra=['DUUD', 'UDDU', 'UDDUUD'] missing=[]"


POOL_GRAMMARS = [i for i in (build(f, **p) for f, p in verify_pool())
                 if isinstance(i.body, Grammar)]


@pytest.mark.parametrize("inst", POOL_GRAMMARS, ids=str)
def test_a_passing_grammar_builds_no_word_counts(inst, monkeypatch):
    # the pass compares sorted code lists; only a difference reads counts
    def no_counts(pairs):
        raise AssertionError("word counts built")

    monkeypatch.setattr(grammar, "_product", no_counts)
    assert verify_family(inst).passed


def test_doubled_eps_is_counted_from_the_first_length_that_differs():
    # listed, eps doubled compounds to over 10^7 codes by length 22; the
    # lists differ at length 0, so only counts reach length 24
    good = build("F7", A=4, B=3)
    rules = good.body.rules
    doubled = good._replace(body=Grammar({**rules, "P": rules["P"] + (EPSILON,)}))
    report = verify_family(doubled, max_len=24, n_max=6)
    assert outcome(report, "grammar unambiguous").detail == "'' derived 2 ways"
    assert outcome(report, "grammar words = oracle language").passed


def test_lists_over_the_word_budget_fall_back_to_counts(monkeypatch):
    # the lists hold repeats that counts fold, so they may outgrow a budget
    # that counts keep: the checks then read counts alone
    def over_budget(pairs):
        raise ResourceLimit(1, 0, what="generated words")

    monkeypatch.setattr(grammar, "_codes", over_budget)
    report = verify_family(build("F3"), max_len=12, n_max=6)
    assert report.passed and check_names(report)[-3:-1] == [
        "grammar unambiguous", "grammar words = oracle language"]


def test_wrong_reference_is_caught():
    from dyckgram.sequences import SeqId
    bad = build("F3")._replace(count_reference=(SeqId.CATALAN, 0))
    report = verify_family(bad, max_len=10, n_max=5)
    failed = outcome(report, "counts match CATALAN (offset 0)")
    assert not failed.passed
    assert "expected" in failed.detail


@pytest.mark.parametrize("family, params, dropped", [
    ("F8", {"A": 2, "B": 3}, 1), ("F8", {"A": 2, "B": 3}, 2),
    ("F9", {"r": 2}, 2), ("F6", {"A": 2, "B": 4}, 2),
], ids=str)
def test_negative_series_is_a_failed_check(family, params, dropped):
    # dropping one right-hand expression makes the solved series go
    # negative: the count check fails naming the series stage, and every
    # other check still runs
    good = build(family, **params)
    rhs = good.body.rhs[:dropped] + good.body.rhs[dropped + 1:]
    report = verify_family(good._replace(body=GrammaticalEquation(good.body.lhs, rhs)))
    assert not report.passed
    counts = outcome(report, "counts agree (brute = dp)")
    assert not counts.passed
    assert counts.detail.startswith("series stage: coefficient of z^")
    assert "is not a count: -" in counts.detail
    assert not outcome(report, "equation multisets equal").passed
    assert not outcome(report, "lowering matches stated system").passed
    assert list(report.counts) == ["brute", "dp"]


MUTANT_POOL = [build("F1"), build("F2"), build("F3"), build("F5", A=4, B=2),
               build("F6", A=2, B=4), build("F7", A=4, B=2), build("F8", A=3, B=5),
               build("F9", r=1), build("F10", m=2, n=1), build("F11", r=2, k=1)]


def _dropped_and_doubled(exprs, start=0):
    for i in range(start, len(exprs)):
        yield f"drop {i}", exprs[:i] + exprs[i + 1:]
        yield f"double {i}", exprs[:i + 1] + exprs[i:]


def _mutants(inst):
    """The instance with one alternative or equation expression dropped,
    or doubled, in turn.  The equation's bare left-hand P, which ``lower``
    rejects by design, is left alone."""
    body = inst.body
    if isinstance(body, Grammar):
        for name, alts in body.rules.items():
            for what, new in _dropped_and_doubled(alts):
                yield f"{name} {what}", inst._replace(body=Grammar({**body.rules, name: new}))
    else:
        assert body.lhs[0] == NonTerm("P")
        for side in ("lhs", "rhs"):
            start = 1 if side == "lhs" else 0
            for what, new in _dropped_and_doubled(getattr(body, side), start):
                yield f"{side} {what}", inst._replace(body=body._replace(**{side: new}))


def _word_check(inst, max_len):
    """The grammar or equation check as built from one ``oracle.language``
    call per semilength, apart from the brute-force count."""
    lang = [language(n, inst.quad) for n in range(max_len // 2 + 1)]
    if not isinstance(inst.body, Grammar):
        codes = [tuple(map(encode, ws)) for ws in lang]
        eq = check_equation(inst.body, {"P": codes}, max_len)
        return CheckOutcome("equation multisets equal", eq.passed, "" if eq.passed else
                            f"{eq.witness!r}: lhs {eq.lhs_multiplicity}, "
                            f"rhs {eq.rhs_multiplicity}")
    got = set(words(inst.body, "P", max_len))
    want = {w for ws in lang for w in ws}
    extra = sorted(got - want, key=lambda w: (len(w), w))[:3]
    missing = sorted(want - got, key=lambda w: (len(w), w))[:3]
    return CheckOutcome("grammar words = oracle language", got == want,
                        "" if got == want else f"extra={extra} missing={missing}")


# (max_len, n_max): the word checks' semilength max_len // 2 equal to,
# below and above n_max, and n_max above the brute-force cap
SIZES = [(10, 5), (12, 8), (8, 12), (10, 17)]


@pytest.mark.parametrize("inst, sizes", [(i, s) for s in SIZES for i in MUTANT_POOL],
                         ids=[str(i) if s == SIZES[0] else f"{i}-{s[0]}-{s[1]}"
                              for s in SIZES for i in MUTANT_POOL])
def test_every_single_expression_mutant_fails_a_named_check(inst, sizes):
    # none passes and none raises: each is a FAIL that names what failed;
    # its brute row is count_brute's and its word check is the one read
    # off oracle.language, whatever max_len // 2 is beside n_max
    max_len, n_max = sizes
    mutants = list(_mutants(inst))
    assert len(mutants) >= 6
    for label, mutant in mutants:
        report = verify_family(mutant, max_len=max_len, n_max=n_max)
        assert not report.passed, label
        assert any(not c.passed and c.name for c in report.checks), label
        brute = report.counts.get("brute")
        assert brute == (count_brute(n_max, mutant.quad)
                         if n_max <= DEFAULT_ENUMERATION_CAP else None), label
        word = _word_check(mutant, max_len)
        assert next(c for c in report.checks if c.name == word.name) == word, label


def _pairs_listed(top, tables):
    """Every (steps left, walker state) pair whose second halves some
    semilength n <= top reads: the states reachable from its midpoint
    states, pruned as the second halves are."""
    pairs = set()
    for n in range(top + 1):
        states = {state for _, state in midpoint_join(n, tables)[0]}
        for r in range(n, -1, -1):
            pairs |= {(r, state) for state in states}
            states = {nxt for state in states for s in "UD"
                      if (nxt := walk(s, tables, state)) and 0 <= nxt[0] <= r - 1}
    return pairs


@pytest.mark.parametrize("inst, max_len, n_max", [
    (build("F3"), 20, 10), (build("F6", A=1, B=2), 20, 10),
    (build("F3"), 10, 17), (build("F6", A=1, B=2), 12, 4)], ids=str)
def test_each_midpoint_join_is_built_once_per_call(inst, max_len, n_max, monkeypatch):
    # brute force and the word checks read one joins pass; above the cap
    # brute force is skipped, so it stops at the word checks' semilength.
    # Within it a state is walked on each letter exactly once, whether a
    # live first half grows from it or some (steps left, state) pair reads
    # its successors, and each pair at 0 steps left is judged once
    passes, walked, judged = [], Counter(), Counter()
    inner = oracle.joins

    def counted_joins(n_max, *rest):
        passes.append(n_max)
        return inner(n_max, *rest)

    def counted_walk(steps, tables, state):
        walked[state, steps] += 1
        return walk(steps, tables, state)

    def counted_accepts(steps, tables, state):
        judged[state, steps] += 1
        return accepts(steps, tables, state)

    for module in (oracle, verify):
        monkeypatch.setattr(module, "joins", counted_joins)
    monkeypatch.setattr(oracle, "walk", counted_walk)
    monkeypatch.setattr(oracle, "accepts", counted_accepts)
    assert verify_family(inst, max_len=max_len, n_max=n_max).passed
    top = max(max_len // 2, n_max if n_max <= DEFAULT_ENUMERATION_CAP else 0)
    assert passes == [top]
    tables = avoid_tables(inst.quad, top)
    grown = Counter((state, s) for n in range(top)
                    for _, state in midpoint_join(n, tables)[0] for s in "UD")
    pairs = _pairs_listed(top, tables)
    successors = Counter((state, s) for r, state in pairs if r for s in "UD")
    assert walked == Counter(set(grown + successors))
    assert judged == Counter((state, "") for r, state in pairs if not r)


@pytest.mark.parametrize("family, params", [("F2", {}), ("F3", {}), ("F6", {"A": 2, "B": 4})])
def test_verify_family_leaves_no_reference_cycle(family, params):
    # the word expander and the series solver free what they build as the
    # call returns, so a pass over many instances holds one instance's memory
    inst = build(family, **params)
    gc.collect()
    gc.disable()
    try:
        assert verify_family(inst).passed
        assert gc.collect() == 0
    finally:
        gc.enable()
