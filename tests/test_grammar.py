import pytest

from dyckgram.grammar import (D, EPSILON, Grammar, GrammaticalEquation,
                              NonTerm, Power, U, UnbalancedGrammar,
                              check_equation, check_unambiguous,
                              equation_sides, lower, render, rep, seq, words)
from dyckgram.intsets import RestrictionQuad
from dyckgram.oracle import ResourceLimit
from dyckgram.series import Poly, solve

P = NonTerm("P")

CATALAN = Grammar({"P": (EPSILON, seq(U, P, D, P))})
UNRESTRICTED = RestrictionQuad.parse()


def test_render():
    assert render(EPSILON) == "eps"
    assert render(seq(U, P, D, P)) == "U P D P"
    assert render(rep(seq(U, P), 3)) == "U P U P U P"
    assert render(rep(U, 0)) == "eps"


def test_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        Power(U, -1)


def test_to_text():
    g = Grammar({"P": (EPSILON, seq(U, U, D, NonTerm("Q"), D, P)),
                 "Q": (EPSILON,)})
    assert g.to_text() == ("P -> eps\n"
                           "P -> U U D Q D P\n"
                           "Q -> eps")


def test_words_catalan():
    ws = words(CATALAN, "P", 8)
    assert set(ws.counts.values()) == {1}
    by_len = [sum(1 for w in ws.counts if len(w) == 2 * n) for n in range(5)]
    assert by_len == [1, 1, 2, 5, 14]
    assert "UUDDUD" in ws.counts
    assert "UDD" not in ws.counts


def test_words_start_expression():
    ws = words(CATALAN, seq(U, P, D), 6)
    assert sorted(ws.counts) == ["UD", "UUDD", "UUDUDD", "UUUDDD"]


def test_words_cap():
    with pytest.raises(ResourceLimit):
        words(CATALAN, "P", 24, cap=1000)


def test_undefined_nonterminal():
    with pytest.raises(ValueError, match="undefined"):
        words(Grammar({"P": (NonTerm("Q"),)}), "P", 4)


def test_unguarded_recursion():
    with pytest.raises(ValueError, match="unguarded"):
        words(Grammar({"P": (P,)}), "P", 4)


def test_word_multiplicity_unambiguous():
    counts = words(CATALAN, "P", 6).counts
    assert counts["UUDDUD"] == 1
    assert counts[""] == 1
    assert "UDD" not in counts


def test_word_multiplicity_ambiguous():
    g = Grammar({"S": (EPSILON, seq(U, NonTerm("S"), D), seq(U, D))})
    counts = words(g, "S", 4).counts
    assert counts["UD"] == 2
    assert counts["UUDD"] == 2


def test_check_unambiguous():
    assert check_unambiguous(CATALAN, "P", 10).passed
    g = Grammar({"S": (EPSILON, seq(U, NonTerm("S"), D), seq(U, D))})
    report = check_unambiguous(g, "S", 8)
    assert not report.passed
    assert report.witness == "UD"
    assert report.multiplicity == 2


def test_check_equation_passes():
    eq = GrammaticalEquation(lhs=(P,), rhs=(EPSILON, seq(U, P, D, P)),
                             nonterminals=("P",))
    report = check_equation(eq, {"P": UNRESTRICTED}, max_len=12)
    assert report.passed


def test_check_equation_finds_witness():
    eq = GrammaticalEquation(lhs=(P,), rhs=(EPSILON,), nonterminals=("P",))
    report = check_equation(eq, {"P": UNRESTRICTED}, max_len=6)
    assert not report.passed
    assert report.witness == "UD"
    assert (report.lhs_multiplicity, report.rhs_multiplicity) == (1, 0)


def test_equation_to_text():
    eq = GrammaticalEquation(lhs=(P, seq(U, D, P)), rhs=(EPSILON,),
                             nonterminals=("P",))
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
                             rhs=(EPSILON, seq(U, P, D, P)),
                             nonterminals=("P",))
    lhs, rhs = equation_sides(eq)
    assert str(lhs) == "P + z*P"
    assert str(rhs) == "1 + z*P^2"


def test_lower_equation_isolates_subject():
    # P + z P = 1 + z^2 P + z P^2 counts runs avoiding length 1
    eq = GrammaticalEquation(
        lhs=(P, seq(U, D, P)),
        rhs=(EPSILON, seq(U, rep(seq(U, D), 0), U, D, D, P), seq(U, P, D, P)),
        nonterminals=("P",))
    system = lower(eq)
    assert system.unknowns == ("P",)
    assert str(system.equations["P"]) == "1 - z*P + z*P^2 + z^2*P"
    assert solve(system, 8)["P"].coeffs == (1, 0, 1, 1, 2, 4, 8, 17)


def test_lower_equation_rejects_unbalanced_expression():
    eq = GrammaticalEquation(lhs=(P,), rhs=(seq(U, P),), nonterminals=("P",))
    with pytest.raises(UnbalancedGrammar):
        lower(eq)


def test_lower_equation_needs_one_bare_unknown():
    eq = GrammaticalEquation(lhs=(P, P), rhs=(EPSILON,), nonterminals=("P",))
    with pytest.raises(ValueError, match="bare unknown"):
        lower(eq)
    eq2 = GrammaticalEquation(lhs=(seq(U, D, P),), rhs=(EPSILON,),
                              nonterminals=("P",))
    with pytest.raises(ValueError, match="bare unknown"):
        lower(eq2)
