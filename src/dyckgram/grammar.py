"""Grammars and grammatical equations over the letters U and D.

An expression is its token tuple: each maximal run of terminals is one
literal string and each nonterminal a 1-tuple (name,), so epsilon is ();
``seq`` concatenates expressions and ``rep`` repeats one.  A grammar maps
each nonterminal to a tuple of alternatives (a union, with multiset
semantics: a word derived two ways counts twice).  A grammatical equation
asserts that two unions of expressions generate the same multiset of
words, where each nonterminal is interpreted not through rewrite rules
but as the language of an externally supplied restriction quad.

Lowering sends a grammar (or equation) to a polynomial fixed-point
system.  Each expression is one monomial, read off its tokens: z to the
number of its U letters times its nonterminals (D contributes 1), and a
union is the sum of its monomials, so z tracks the semilength of balanced
words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .intsets import RestrictionQuad
from .oracle import DEFAULT_ENUMERATION_CAP, ResourceLimit, language
from .series import Poly, SeriesSystem

DEFAULT_WORD_CAP = 10_000_000


class UnbalancedGrammar(ValueError):
    pass


GExpr = tuple  # of literal strings and (name,) nonterminal tokens

EPSILON: GExpr = ()
U: GExpr = ("U",)
D: GExpr = ("D",)


def NonTerm(name: str) -> GExpr:
    return ((name,),)


def seq(*parts: GExpr) -> GExpr:
    """Concatenation: the parts' tokens in order, each literal joined to a
    literal next to it."""
    out: list = []
    for part in parts:
        for t in part:
            if type(t) is str and out and type(out[-1]) is str:
                out[-1] += t
            else:
                out.append(t)
    return tuple(out)


def rep(expr: GExpr, k: int) -> GExpr:
    if k < 0:
        raise ValueError(f"exponent must be >= 0, got {k}")
    return seq(*[expr] * k)


def render(expr: GExpr) -> str:
    return " ".join(" ".join(t) if type(t) is str else t[0]
                    for t in expr) or "eps"


@dataclass(frozen=True)
class Grammar:
    rules: dict[str, tuple[GExpr, ...]]

    def to_text(self) -> str:
        lines = []
        for name, alts in self.rules.items():
            for alt in alts:
                lines.append(f"{name} -> {render(alt)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class GrammaticalEquation:
    """Multiset identity between two unions of expressions."""

    lhs: tuple[GExpr, ...]
    rhs: tuple[GExpr, ...]

    def to_text(self) -> str:
        def side(exprs):
            return " | ".join(render(e) for e in exprs)
        return f"{side(self.lhs)}  =  {side(self.rhs)}"


@dataclass(frozen=True)
class WordMultiset:
    max_len: int
    counts: dict[str, int]

    def total(self) -> int:
        return sum(self.counts.values())


class _Expander:
    """Exact-length word multisets of expressions (token tuples), memoized
    and budgeted.

    A literal at the head prefixes the rest's words; a nonterminal at the
    head is split over its possible lengths and absorbs the literal after
    it.  ``resolve(name, length)`` gives a nonterminal's words of one
    length; it is called once per (nonterminal, length), and a call that
    re-enters its own (nonterminal, length) is unguarded recursion.
    Returned dicts are shared with the memo and must not be mutated.

    ``generated``, the figure ``cap`` bounds, counts the distinct words of
    every multiset built (one per (nonterminal, length) and one per (token
    suffix, length) other than a lone nonterminal): the memo's size, and
    the work done to within a factor of the length.
    """

    def __init__(self, resolve, cap: int):
        self.resolve = resolve  # (name, length) -> dict
        self.cap = cap
        self.generated = 0
        self._memo: dict = {}   # (tokens, length) -> dict
        self._words: dict = {}  # (name, length) -> dict
        self._active: set = set()

    def _charge(self, words: dict) -> None:
        self.generated += len(words)
        if self.generated > self.cap:
            raise ResourceLimit(self.generated, self.cap, what="generated words")

    def nonterminal(self, name: str, length: int) -> dict:
        key = (name, length)
        out = self._words.get(key)
        if out is None:
            if key in self._active:
                raise ValueError(f"unguarded recursion on nonterminal {name}")
            self._active.add(key)
            out = self._words[key] = self.resolve(name, length)
            self._active.discard(key)
            self._charge(out)
        return out

    def expand(self, tokens: tuple, length: int) -> dict:
        if not tokens:
            return {"": 1} if length == 0 else {}
        head, rest = tokens[0], tokens[1:]
        if not rest and type(head) is tuple:
            return self.nonterminal(head[0], length)
        key = (tokens, length)
        out = self._memo.get(key)
        if out is not None:
            return out
        if type(head) is str:
            tail = self.expand(rest, length - len(head)) if length >= len(head) else {}
            out = {head + w: c for w, c in tail.items()}
        else:
            lit = ""
            if rest and type(rest[0]) is str:
                lit, rest = rest[0], rest[1:]
            out = {}
            for l1 in range(length - len(lit) + 1):
                left = self.nonterminal(head[0], l1)
                right = self.expand(rest, length - len(lit) - l1) if left else None
                if not right:
                    continue
                for w1, c1 in left.items():
                    w1 += lit
                    for w2, c2 in right.items():
                        w = w1 + w2
                        out[w] = out.get(w, 0) + c1 * c2
        self._memo[key] = out
        self._charge(out)
        return out


def _grammar_expander(grammar: Grammar, cap: int) -> _Expander:
    def resolve(name: str, length: int) -> dict:
        if name not in grammar.rules:
            raise ValueError(f"undefined nonterminal {name}")
        out: dict = {}
        for tokens in grammar.rules[name]:
            for w, c in expander.expand(tokens, length).items():
                out[w] = out.get(w, 0) + c
        return out

    expander = _Expander(resolve, cap)
    return expander


def _language_expander(languages: Mapping[str, RestrictionQuad], cap: int,
                       enum_cap: int) -> _Expander:
    def resolve(name: str, length: int) -> dict:
        if name not in languages:
            raise ValueError(f"no language bound to nonterminal {name}")
        if length % 2:
            return {}
        return dict.fromkeys(language(length // 2, languages[name], enum_cap), 1)

    return _Expander(resolve, cap)


def words(grammar: Grammar, start: GExpr | str, max_len: int,
          cap: int = DEFAULT_WORD_CAP) -> WordMultiset:
    """Multiset of derivable words of length <= max_len.

    Multiplicity is the number of distinct derivations, so an unambiguous
    grammar yields all-1 counts.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    tokens = NonTerm(start) if isinstance(start, str) else start
    expander = _grammar_expander(grammar, cap)
    out: dict = {}
    for length in range(max_len + 1):
        out.update(expander.expand(tokens, length))
    return WordMultiset(max_len, out)


@dataclass(frozen=True)
class AmbiguityReport:
    passed: bool
    max_len: int
    witness: str | None = None
    multiplicity: int | None = None


def check_unambiguous(grammar: Grammar, start: GExpr | str, max_len: int,
                      cap: int = DEFAULT_WORD_CAP) -> AmbiguityReport:
    return ambiguity(words(grammar, start, max_len, cap))


def ambiguity(ws: WordMultiset) -> AmbiguityReport:
    """Ambiguity verdict of an expanded word multiset; the witness is the
    shortest (then least) word derived more than once."""
    bad = [w for w, c in ws.counts.items() if c != 1]
    if not bad:
        return AmbiguityReport(True, ws.max_len)
    w = min(bad, key=lambda x: (len(x), x))
    return AmbiguityReport(False, ws.max_len, w, ws.counts[w])


@dataclass(frozen=True)
class EquationReport:
    passed: bool
    max_len: int
    witness: str | None = None
    lhs_multiplicity: int | None = None
    rhs_multiplicity: int | None = None


def check_equation(eq: GrammaticalEquation,
                   languages: Mapping[str, RestrictionQuad],
                   max_len: int,
                   cap: int = DEFAULT_WORD_CAP,
                   enum_cap: int = DEFAULT_ENUMERATION_CAP) -> EquationReport:
    """Compare both sides as word multisets up to max_len.

    Nonterminals are read as oracle languages (each word once); union and
    concatenation contribute multiplicities as usual, so overlapping
    alternatives on both sides must overlap equally for a PASS.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    expander = _language_expander(languages, cap, enum_cap)
    sides = (eq.lhs, eq.rhs)
    diff: dict = {}  # lhs minus rhs multiplicity
    for sign, side in zip((1, -1), sides):
        for tokens in side:
            for length in range(max_len + 1):
                for w, c in expander.expand(tokens, length).items():
                    diff[w] = diff.get(w, 0) + sign * c
    bad = [w for w, c in diff.items() if c]
    if not bad:
        return EquationReport(True, max_len)
    w = min(bad, key=lambda x: (len(x), x))
    lhs, rhs = (sum(expander.expand(t, len(w)).get(w, 0) for t in side)
                for side in sides)
    return EquationReport(False, max_len, w, lhs, rhs)


# --- lowering to series systems -----------------------------------------

def _monomials(exprs: tuple[GExpr, ...]) -> Poly:
    """Sum of the expressions' monomials, read off their tokens: z^(U
    letters) times the nonterminals.  Raises UnbalancedGrammar unless each
    expression has as many U as D letters."""
    counts: dict = {}
    for expr in exprs:
        zdeg = rise = 0
        names: dict[str, int] = {}
        for t in expr:
            if type(t) is str:
                ups = t.count("U")
                zdeg += ups
                rise += 2 * ups - len(t)
            else:
                names[t[0]] = names.get(t[0], 0) + 1
        if rise:
            raise UnbalancedGrammar(f"expression {render(expr)!r} is not balanced")
        key = (zdeg, tuple(sorted(names.items())))
        counts[key] = counts.get(key, 0) + 1
    return Poly(tuple(sorted((z, v, c) for (z, v), c in counts.items())))


def equation_sides(eq: GrammaticalEquation) -> tuple[Poly, Poly]:
    """Both sides as polynomials, before any rearrangement.  An unbalanced
    expression raises UnbalancedGrammar."""
    return _monomials(eq.lhs), _monomials(eq.rhs)


def lower(body: Grammar | GrammaticalEquation) -> SeriesSystem:
    """Send a grammar or equation to a solvable fixed-point system.

    Every alternative (every equation expression) must have as many U as D
    terminals; by induction on derivations, every derived word is then
    balanced.  For an equation the subject unknown is isolated: extra
    left-hand monomials move to the right with flipped sign.  They all
    carry z factors (any bare copy of the subject would make the system
    non-contractive), so solvability is preserved.  The system is
    validated, so an undefined nonterminal or a rule like P -> P raises
    ValueError here.
    """
    if isinstance(body, Grammar):
        equations = {name: _monomials(alts) for name, alts in body.rules.items()}
        system = SeriesSystem(tuple(body.rules), equations)
    else:
        lhs, rhs = equation_sides(body)
        bare = [(vars_[0][0], coeff) for zdeg, vars_, coeff in lhs.terms
                if zdeg == 0 and len(vars_) == 1 and vars_[0][1] == 1]
        if len(bare) != 1 or bare[0][1] != 1:
            raise ValueError("left-hand side must contain exactly one bare unknown")
        subject = bare[0][0]
        phi = rhs - (lhs - Poly.var(subject))
        system = SeriesSystem((subject,), {subject: phi})
    system.validate()
    return system
