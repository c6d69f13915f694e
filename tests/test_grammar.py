from collections import Counter
from functools import lru_cache
from itertools import islice, product
from time import perf_counter

import pytest
from hypothesis import example, given, strategies as st

from conftest import quads
from dyckgram import grammar, oracle
from dyckgram.families import build, verify_pool
from dyckgram.grammar import (D, EPSILON, AmbiguityReport, EquationReport, Grammar,
                              GrammaticalEquation, NonTerm, U, UnbalancedGrammar,
                              check_equation, check_unambiguous, equation_sides,
                              lower, render, rep, seq, words)
from dyckgram.intsets import RestrictionQuad
from dyckgram.oracle import ResourceLimit, language
from dyckgram.paths import encode
from dyckgram.series import Poly, SeriesSystem, solve

P = NonTerm("P")
Q = NonTerm("Q")

CATALAN = Grammar({"P": (EPSILON, seq(U, P, D, P))})
UNRESTRICTED = RestrictionQuad.parse()


def _words_by_n(quad, max_len):
    """The codes of a quad's oracle language at each semilength
    0..max_len // 2, the per-nonterminal argument of ``check_equation``."""
    return [tuple(map(encode, language(n, quad))) for n in range(max_len // 2 + 1)]


def test_render():
    assert render(EPSILON) == "eps"
    assert render(seq(U, P, D, P)) == "U P D P"
    assert render(rep(seq(U, P), 3)) == "U P U P U P"
    assert render(rep(U, 0)) == "eps"


def test_expressions_are_token_tuples():
    # a maximal run of letters is one literal, a nonterminal a 1-tuple
    assert seq(U, seq(U, D)) == ("UUD",)
    assert seq(rep(U, 2), NonTerm("P"), D, D) == ("UU", ("P",), "DD")
    x = seq(U, P, D)
    assert rep(x, 0) == seq() == EPSILON == ()
    assert seq(U) == U


def test_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        rep(U, -1)


def test_to_text():
    g = Grammar({"P": (EPSILON, seq(U, U, D, NonTerm("Q"), D, P)),
                 "Q": (EPSILON,)})
    assert g.to_text() == ("P -> eps\n"
                           "P -> U U D Q D P\n"
                           "Q -> eps")


def test_words_catalan():
    ws = words(CATALAN, "P", 8)
    assert isinstance(ws, Counter)
    assert set(ws.values()) == {1}
    assert ws.total() == 1 + 1 + 2 + 5 + 14
    by_len = [sum(1 for w in ws if len(w) == 2 * n) for n in range(5)]
    assert by_len == [1, 1, 2, 5, 14]
    assert "UUDDUD" in ws
    assert "UDD" not in ws


def test_words_start_expression():
    ws = words(CATALAN, seq(U, P, D), 6)
    assert sorted(ws) == ["UD", "UUDD", "UUDUDD", "UUUDDD"]


def test_words_cap(monkeypatch):
    monkeypatch.setattr(oracle, "WORD_BUDGET", 1000)
    with pytest.raises(ResourceLimit):
        words(CATALAN, "P", 24)


def test_word_budget_counts_distinct_words(monkeypatch):
    # with eps doubled, F7(4,3) derives its 115k words of length <= 24 in
    # over 10^7 ways: the budget bounds the multisets held, not their sum
    body = build("F7", A=4, B=3).body
    doubled = Grammar({**body.rules, "P": body.rules["P"] + (EPSILON,)})
    report = check_unambiguous(doubled, "P", 24)
    assert (report.passed, report.witness, report.multiplicity) == (False, "", 2)
    monkeypatch.setattr(oracle, "WORD_BUDGET", 1000)
    with pytest.raises(ResourceLimit):
        words(build("F1").body, "P", 30)


def test_word_budget_counts_every_memo_entry(monkeypatch):
    # P's 1 + 1 + 2 + 5 + 14 words of length <= 8, and U P D P's 22 (its
    # rest P is P's own entry): 45 in all, a split's product charged too
    monkeypatch.setattr(oracle, "WORD_BUDGET", 45)
    words(CATALAN, "P", 8)
    monkeypatch.setattr(oracle, "WORD_BUDGET", 44)
    with pytest.raises(ResourceLimit, match="45 exceeds cap 44"):
        words(CATALAN, "P", 8)


def test_equation_budget_counts_every_code_held(monkeypatch):
    # P P = P | U P D P P over the unrestricted quad, to length 4.  An
    # equation's memo holds each word once per derivation.  P holds its
    # 1 + 0 + 1 + 0 + 2 words of length 0..4; P P the pairs of P's words,
    # 1 + 0 + 2 + 0 + 5 (at length 4 eps.UDUD, UD.UD, UDUD.eps, eps.UUDD
    # and UUDD.eps); U P D P P, U a D b for a word a of P and a code b of
    # P P, 0 + 0 + 1 + 0 + 3 (UD; UDUD from b = eps.UD and b = UD.eps,
    # UUDD from a = UD).  16 in all, where distinct words would be 11.
    eq = GrammaticalEquation((seq(P, P),), (P, seq(U, P, D, P, P)))
    languages = {"P": _words_by_n(UNRESTRICTED, 4)}
    monkeypatch.setattr(oracle, "WORD_BUDGET", 16)
    assert check_equation(eq, languages, 4).passed
    monkeypatch.setattr(oracle, "WORD_BUDGET", 15)
    with pytest.raises(ResourceLimit, match="16 exceeds cap 15"):
        check_equation(eq, languages, 4)


def test_check_equation_cap(monkeypatch):
    inst = build("F6", A=2, B=4)
    languages = {"P": _words_by_n(inst.quad, 20)}
    assert check_equation(inst.body, languages, 20).passed
    monkeypatch.setattr(oracle, "WORD_BUDGET", 1000)
    with pytest.raises(ResourceLimit):
        check_equation(inst.body, languages, 20)


def test_check_equation_stops_at_the_first_length_that_differs(monkeypatch):
    # P = eps differs at length 2; expanding P to length 20 holds the
    # 23,714 unrestricted words of semilength <= 10, over the budget
    languages = {"P": _words_by_n(UNRESTRICTED, 20)}
    monkeypatch.setattr(oracle, "WORD_BUDGET", 1000)
    with pytest.raises(ResourceLimit):
        words(CATALAN, "P", 20)
    report = check_equation(GrammaticalEquation((P,), (EPSILON,)), languages, 20)
    assert report == EquationReport(False, "UD", 1, 0)
    # the sides differ at UUDD and at UDUDUD, which is the lesser word: the
    # shorter one is the witness
    eq = GrammaticalEquation((P,), (EPSILON, seq(U, P, D, P), ("UUDD",),
                                    rep(seq(U, D), 3)))
    assert check_equation(eq, languages, 20) == EquationReport(False, "UUDD", 1, 2)


def test_check_equation_rejects_a_short_word_list():
    # P = eps | U P D P | (UD)^6 derives (UD)^6 twice on the right and
    # nothing else differs: read up to semilength 5 only, it would pass
    false_eq = GrammaticalEquation((P,), (EPSILON, seq(U, P, D, P), rep(seq(U, D), 6)))
    full = _words_by_n(UNRESTRICTED, 12)
    report = check_equation(false_eq, {"P": full}, 12)
    assert (report.witness, report.lhs_multiplicity, report.rhs_multiplicity) == \
        ("UD" * 6, 1, 2)
    with pytest.raises(ValueError, match="nonterminal P"):
        check_equation(false_eq, {"P": full[:6], "Q": full}, 12)
    with pytest.raises(ValueError, match="nonterminal P"):
        check_equation(GrammaticalEquation((P,), (EPSILON,)), {"P": []}, 0)


def test_negative_max_len_is_rejected():
    # at max_len = -1 nothing is expanded, so a false equation would pass
    false_eq = GrammaticalEquation((P,), (EPSILON,))
    with pytest.raises(ValueError, match="max_len"):
        words(CATALAN, "P", -1)
    with pytest.raises(ValueError, match="max_len"):
        check_unambiguous(CATALAN, "P", -1)
    with pytest.raises(ValueError, match="max_len"):
        check_equation(false_eq, {"P": _words_by_n(UNRESTRICTED, 0)}, -1)


def test_undefined_nonterminal():
    with pytest.raises(ValueError, match="undefined"):
        words(Grammar({"P": (NonTerm("Q"),)}), "P", 4)
    with pytest.raises(ValueError, match="no language bound to nonterminal Q"):
        check_equation(GrammaticalEquation((P,), (Q,)),
                       {"P": _words_by_n(UNRESTRICTED, 4)}, 4)


def test_unguarded_recursion():
    with pytest.raises(ValueError, match="unguarded"):
        words(Grammar({"P": (P,)}), "P", 4)
    # P reached again through an empty Q: it fires at length 0, which no
    # pruning by length may skip
    for rules in ({"P": (seq(P, Q),), "Q": (EPSILON,)},
                  {"P": (seq(U, D), seq(Q, P)), "Q": (EPSILON,)}):
        for max_len in (0, 1, 4):
            with pytest.raises(ValueError, match="unguarded"):
                words(Grammar(rules), "P", max_len)


def test_expander_builds_nothing_at_a_parity_dead_length(monkeypatch):
    # every nonterminal word has even length, so every word of an
    # expression has the parity of its letter count
    built = []

    class Recording(grammar._Expander):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(grammar, "_Expander", Recording)
    assert len(words(CATALAN, "P", 20)) == sum((1, 1, 2, 5, 14, 42, 132, 429,
                                                1430, 4862, 16796))
    inst = build("F6", A=2, B=4)
    assert check_equation(inst.body, {"P": _words_by_n(inst.quad, 20)}, 20).passed
    assert len(built) == 2
    for expander in built:
        assert expander._memo
        for tokens, length in expander._memo:
            letters = sum(len(t) for t in tokens if type(t) is str)
            assert (length - letters) % 2 == 0, (tokens, length)


def test_nonterminal_head_is_guarded_by_later_letters():
    # P -> P P U D never reaches P at the word's own length; P = 1 + z P^2
    # derives (UD)^n in Catalan(n) ways
    g = Grammar({"P": (EPSILON, seq(P, P, U, D))})
    assert words(g, "P", 10) == {"UD" * n: c for n, c in
                                 enumerate((1, 1, 2, 5, 14, 42))}
    report = check_unambiguous(g, "P", 10)
    assert (report.witness, report.multiplicity) == ("UDUD", 2)


def test_word_multiplicity_unambiguous():
    counts = words(CATALAN, "P", 6)
    assert counts["UUDDUD"] == 1
    assert counts[""] == 1
    assert "UDD" not in counts


def test_word_multiplicity_ambiguous():
    g = Grammar({"S": (EPSILON, seq(U, NonTerm("S"), D), seq(U, D))})
    counts = words(g, "S", 4)
    assert counts["UD"] == 2
    assert counts["UUDD"] == 2


def test_concatenation_multiplicity():
    # a word split several ways across one concatenation counts each split
    S = NonTerm("S")
    g = Grammar({"T": (seq(S, S, S),), "S": (EPSILON, seq(U, D))})
    assert words(g, "T", 8) == {"": 1, "UD": 3, "UDUD": 3, "UDUDUD": 1}
    eq = GrammaticalEquation(lhs=(seq(P, P),), rhs=(P,))
    report = check_equation(eq, {"P": _words_by_n(UNRESTRICTED, 6)}, max_len=6)
    assert (report.witness, report.lhs_multiplicity, report.rhs_multiplicity) == \
        ("UD", 2, 1)


def test_check_unambiguous():
    assert check_unambiguous(CATALAN, "P", 10).passed
    g = Grammar({"S": (EPSILON, seq(U, NonTerm("S"), D), seq(U, D))})
    report = check_unambiguous(g, "S", 8)
    assert not report.passed
    assert report.witness == "UD"
    assert report.multiplicity == 2
    # both first letters at one length: the D-led word is the least
    both = Grammar({"P": (seq(U, D), seq(D, U), seq(D, U), seq(U, D))})
    assert check_unambiguous(both, "P", 2) == AmbiguityReport(False, "DU", 2)


def test_check_equation_passes():
    eq = GrammaticalEquation(lhs=(P,), rhs=(EPSILON, seq(U, P, D, P)))
    report = check_equation(eq, {"P": _words_by_n(UNRESTRICTED, 12)}, max_len=12)
    assert report.passed


def test_check_equation_finds_witness():
    eq = GrammaticalEquation(lhs=(P,), rhs=(EPSILON,))
    report = check_equation(eq, {"P": _words_by_n(UNRESTRICTED, 6)}, max_len=6)
    assert not report.passed
    assert report.witness == "UD"
    assert (report.lhs_multiplicity, report.rhs_multiplicity) == (1, 0)
    # both first letters at one length: the D-led word is the least
    eq = GrammaticalEquation((seq(D, U),), (seq(U, D),))
    assert check_equation(eq, {}, 2) == EquationReport(False, "DU", 1, 0)


def test_equation_to_text():
    eq = GrammaticalEquation(lhs=(P, seq(U, D, P)), rhs=(EPSILON,))
    assert eq.to_text() == "P | U D P  =  eps"


def test_lower_grammar_solves_to_catalan():
    system = lower(CATALAN)
    assert solve(system, 8)["P"].coeffs == (1, 1, 2, 5, 14, 42, 132, 429)


def test_lower_two_rule_grammar():
    g = Grammar({"P": (EPSILON, seq(U, D, P), seq(U, U, D, NonTerm("Q"), D, P)),
                 "Q": (EPSILON, seq(U, D, NonTerm("Q")))})
    assert solve(lower(g), 6)["P"].coeffs == (1, 1, 2, 4, 8, 16)


def test_lower_rejects_unbalanced_grammar():
    with pytest.raises(UnbalancedGrammar):
        lower(Grammar({"P": (EPSILON, seq(U, P))}))
    # the shortest unbalanced word, U^5 D^4, has 9 letters
    with pytest.raises(UnbalancedGrammar):
        lower(Grammar({"P": (EPSILON, seq(U, P, D, P),
                             seq(rep(U, 5), rep(D, 4), P))}))


def test_lower_rejects_undefined_nonterminal():
    with pytest.raises(ValueError):
        lower(Grammar({"P": (NonTerm("Q"),)}))


def test_lower_rejects_unguarded_recursion():
    with pytest.raises(ValueError):
        lower(Grammar({"P": (P,)}))


def test_equation_sides():
    eq = GrammaticalEquation(lhs=(P, seq(U, D, P)),
                             rhs=(EPSILON, seq(U, P, D, P)))
    lhs, rhs = equation_sides(eq)
    assert str(lhs) == "P + z*P"
    assert str(rhs) == "1 + z*P^2"


def test_lower_equation_isolates_subject():
    # P + z P = 1 + z^2 P + z P^2 counts runs avoiding length 1
    eq = GrammaticalEquation(
        lhs=(P, seq(U, D, P)),
        rhs=(EPSILON, seq(U, rep(seq(U, D), 0), U, D, D, P), seq(U, P, D, P)))
    system = lower(eq)
    assert system.unknowns == ("P",)
    assert str(system.equations["P"]) == "1 - z*P + z*P^2 + z^2*P"
    assert solve(system, 8)["P"].coeffs == (1, 0, 1, 1, 2, 4, 8, 17)


def test_lower_equation_rejects_unbalanced_expression():
    eq = GrammaticalEquation(lhs=(P,), rhs=(seq(U, P),))
    with pytest.raises(UnbalancedGrammar):
        lower(eq)


def test_lower_equation_needs_one_bare_unknown():
    eq = GrammaticalEquation(lhs=(P, P), rhs=(EPSILON,))
    with pytest.raises(ValueError, match="bare unknown"):
        lower(eq)
    eq2 = GrammaticalEquation(lhs=(seq(U, D, P),), rhs=(EPSILON,))
    with pytest.raises(ValueError, match="bare unknown"):
        lower(eq2)


# --- differential check against a reference expander ---------------------

REFERENCE_MAX_LEN = 12


def _symbols(expr):
    """An expression one symbol at a time: each letter of each literal, and
    each nonterminal token as it is."""
    return tuple(s for t in expr for s in (t if type(t) is str else (t,)))


def _reference(symbols, length, nonterminal):
    """Words of one length of a symbol tuple, built with Counter products;
    only nonterminals are looked up, nothing is memoized.  The head takes
    at most the length the later letters leave, so a nonterminal in an
    alternative with a letter is only ever looked up shorter."""
    if not symbols:
        return Counter({"": 1}) if length == 0 else Counter()
    head = symbols[0]
    out = Counter()
    for l1 in range(length - sum(type(s) is str for s in symbols[1:]) + 1):
        if type(head) is str:
            left = Counter({head: 1}) if l1 == 1 else Counter()
        else:
            left = nonterminal(head[0], l1)
        if not left:
            continue
        right = _reference(symbols[1:], length - l1, nonterminal)
        for w1, c1 in left.items():
            for w2, c2 in right.items():
                out[w1 + w2] += c1 * c2
    return out


def _reference_union(exprs, nonterminal, max_len=REFERENCE_MAX_LEN):
    out = Counter()
    for e in exprs:
        for length in range(max_len + 1):
            out.update(_reference(_symbols(e), length, nonterminal))
    return out


def _reference_report(lhs, rhs):
    """The equation verdict as a multiset comparison of the two unions."""
    if lhs == rhs:
        return EquationReport(True)
    w = min((w for w in lhs | rhs if lhs[w] != rhs[w]), key=lambda x: (len(x), x))
    return EquationReport(False, w, lhs[w], rhs[w])


POOL = [build(f, **p) for f, p in verify_pool()]


@pytest.mark.parametrize("inst", [i for i in POOL if isinstance(i.body, Grammar)],
                         ids=str)
def test_words_match_reference_expander(inst):
    rules = inst.body.rules

    @lru_cache(maxsize=None)
    def nonterminal(name, length):
        return sum((_reference(_symbols(alt), length, nonterminal)
                    for alt in rules[name]), Counter())

    expect = _reference_union((NonTerm("P"),), nonterminal)
    assert words(inst.body, "P", REFERENCE_MAX_LEN) == dict(expect)


@pytest.mark.parametrize("inst", [i for i in POOL if not isinstance(i.body, Grammar)],
                         ids=str)
def test_equation_reports_match_reference_expander(inst):
    eq = inst.body
    languages = {"P": inst.quad}
    words_by_n = {"P": _words_by_n(inst.quad, REFERENCE_MAX_LEN)}

    @lru_cache(maxsize=None)
    def nonterminal(name, length):
        if length % 2:
            return Counter()
        return Counter(dict.fromkeys(language(length // 2, languages[name]), 1))

    each = {e: _reference_union((e,), nonterminal) for e in eq.lhs + eq.rhs}

    def side(exprs):
        return sum((each[e] for e in exprs), Counter())

    # the equation itself, each rhs alternative dropped, each lhs one doubled
    cases = [(eq.lhs, eq.rhs)]
    cases += [(eq.lhs, eq.rhs[:i] + eq.rhs[i + 1:]) for i in range(len(eq.rhs))]
    cases += [(eq.lhs + (e,), eq.rhs) for e in eq.lhs]
    reports = []
    for lhs, rhs in cases:
        got = check_equation(GrammaticalEquation(lhs, rhs), words_by_n,
                             REFERENCE_MAX_LEN)
        assert got == _reference_report(side(lhs), side(rhs)), (lhs, rhs)
        reports.append(got)
    assert reports[0].passed
    # doubling the bare P derives the empty word twice on the left
    doubled = reports[1 + len(eq.rhs)]
    assert (doubled.witness, doubled.lhs_multiplicity) == ("", 2)


# Random token tuples over U, D, P and Q.  The examples pin the shapes the
# catalogue lacks: literal-only, a leading literal before a lone P, a
# trailing literal, adjacent nonterminals (splits that collide, so counts
# must add) and epsilon; and P P = P | U P D P P, true only when each side
# counts a word once per split.
LITERAL_ONLY, LEAD_LONE, TRAILING, ADJACENT, INNER_ADJACENT = (
    seq(U, U, D), seq(U, U, P), seq(P, D, U), seq(P, P), seq(U, P, P, D))
_exprs = st.lists(st.sampled_from((U, D, P, Q, seq(U, D))), max_size=5).map(
    lambda parts: seq(*parts))
_sides = st.lists(_exprs, min_size=1, max_size=3).map(tuple)


@given(_sides, _sides, quads, quads)
@example((P, LITERAL_ONLY, EPSILON), (LEAD_LONE, TRAILING, P), UNRESTRICTED,
         UNRESTRICTED)
@example((ADJACENT, INNER_ADJACENT), (seq(P, Q, P), P, seq(U, D, P)),
         UNRESTRICTED, RestrictionQuad.parse(peaks="2"))
@example((ADJACENT,), (P, seq(U, P, D, P, P)), UNRESTRICTED, UNRESTRICTED)
def test_random_equations_match_reference_expander(lhs, rhs, quad_p, quad_q):
    languages = {"P": quad_p, "Q": quad_q}
    words_by_n = {name: _words_by_n(quad, REFERENCE_MAX_LEN)
                  for name, quad in languages.items()}

    @lru_cache(maxsize=None)
    def nonterminal(name, length):
        if length % 2:
            return Counter()
        return Counter(dict.fromkeys(language(length // 2, languages[name]), 1))

    def side(exprs):
        return _reference_union(exprs, nonterminal)

    # the drawn equation, each side against itself reordered, and a side
    # against itself with one expression dropped
    for a, b in ((lhs, rhs), (lhs, lhs[::-1]), (lhs + rhs, rhs + lhs),
                 (rhs, rhs[1:])):
        got = check_equation(GrammaticalEquation(a, b), words_by_n,
                             REFERENCE_MAX_LEN)
        assert got == _reference_report(side(a), side(b)), (a, b)


# an ambiguous rule: UD derives as U D and as U Q D, and Q Q U D splits
# its Q Q prefix every way
AMBIGUOUS_Q = (EPSILON, seq(U, D), seq(U, Q, D), seq(Q, Q, U, D))


def _guarded(expr):
    # an alternative with a nonterminal and a letter only looks up shorter
    # nonterminals, so the rules hold no unguarded recursion
    return all(type(t) is str for t in expr) or any(type(t) is str for t in expr)


@given(_exprs, st.lists(_exprs.filter(_guarded), max_size=3))
@example(INNER_ADJACENT, [EPSILON, LITERAL_ONLY, LEAD_LONE, TRAILING])
@example(ADJACENT, [seq(U, P, D, P), seq(U, Q, P, D)])
def test_random_grammars_match_reference_expander(start, alts):
    rules = {"P": (EPSILON, *alts), "Q": AMBIGUOUS_Q}

    @lru_cache(maxsize=None)
    def nonterminal(name, length):
        return sum((_reference(_symbols(alt), length, nonterminal)
                    for alt in rules[name]), Counter())

    expect = _reference_union((start,), nonterminal)
    assert words(Grammar(rules), start, REFERENCE_MAX_LEN) == dict(expect)


# --- differential check of lowering against a letter-by-letter reference --

R = NonTerm("R")


def _letter_poly(expr):
    """An expression's polynomial and its U-minus-D letter count, read one
    symbol at a time with Poly products."""
    out, rise = Poly.const(1), 0
    for s in _symbols(expr):
        if s == "U":
            out, rise = out * Poly.z(), rise + 1
        elif s == "D":
            rise -= 1
        else:
            out = out * Poly.var(s[0])
    return out, rise


def _letter_sum(exprs):
    total = Poly.zero()
    for e in exprs:
        poly, rise = _letter_poly(e)
        if rise:
            raise UnbalancedGrammar(f"expression {render(e)!r} is not balanced")
        total = total + poly
    return total


def _letter_lower(body, subject="P"):
    if isinstance(body, Grammar):
        return SeriesSystem(tuple(body.rules),
                            {name: _letter_sum(alts) for name, alts in body.rules.items()})
    phi = _letter_sum(body.rhs) - (_letter_sum(body.lhs) - Poly.var(subject))
    return SeriesSystem((subject,), {subject: phi})


EDGE_BODIES = {
    "zero power": Grammar({"P": (EPSILON, seq(U, rep(Q, 0), P, D, P))}),
    "nested power": Grammar({"P": (EPSILON, rep(seq(U, P, D), 3), seq(U, D, P))}),
    "squared nonterminal": Grammar({"P": (EPSILON, seq(U, D, rep(P, 2)), seq(U, P, D, P))}),
    "repeated alternative": Grammar({"P": (EPSILON, seq(U, P, D, P), seq(U, P, D, P))}),
    "epsilon-only rule": Grammar({"P": (EPSILON, seq(U, Q, D, P)), "Q": (EPSILON,)}),
    "equation with powers": GrammaticalEquation(
        lhs=(P, seq(U, D, P)),
        rhs=(EPSILON, rep(seq(U, P, D), 3), seq(rep(U, 0), U, rep(P, 2), D))),
}
LOWERING_CASES = {**{str(i): (i.body, "P") for i in POOL},
                  **{name: (body, "P") for name, body in EDGE_BODIES.items()}}


@pytest.mark.parametrize("case", LOWERING_CASES)
def test_lowering_matches_the_expression_tree(case):
    body, start = LOWERING_CASES[case]
    system, expect = lower(body), _letter_lower(body, start)
    assert system == expect
    assert str(system) == str(expect)
    if not isinstance(body, Grammar):
        assert equation_sides(body) == (_letter_sum(body.lhs), _letter_sum(body.rhs))


@pytest.mark.parametrize("body", [
    Grammar({"P": (EPSILON, seq(U, P, D, P), seq(rep(seq(U, P), 2), D, P))}),
    GrammaticalEquation(lhs=(P, seq(U, D, P)), rhs=(EPSILON, seq(rep(U, 3), D, D, P))),
], ids=("grammar", "equation"))
def test_unbalanced_expression_message_matches_the_expression_tree(body):
    with pytest.raises(UnbalancedGrammar) as expect:
        _letter_lower(body)
    with pytest.raises(UnbalancedGrammar) as got:
        lower(body)
    assert str(got.value) == str(expect.value)
    assert "not balanced" in str(got.value)


def test_lowering_is_linear_in_alternatives():
    # 16,000 distinct monomials z P^a Q^b R^c in one rule: summing them
    # one Poly at a time, re-sorting every term so far, is quadratic
    alts = tuple(seq(U, rep(P, a), D, rep(Q, b), rep(R, c))
                 for a, b, c in islice(product(range(26), repeat=3), 16_000))
    g = Grammar({"P": alts, "Q": (EPSILON,), "R": (EPSILON,)})
    t0 = perf_counter()
    system = lower(g)
    elapsed = perf_counter() - t0
    assert len(system.equations["P"].terms) == 16_000
    assert {c for _, _, c in system.equations["P"].terms} == {1}
    assert elapsed < 5, f"lowering 16,000 alternatives took {elapsed:.1f} s"
