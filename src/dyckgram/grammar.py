"""Grammars and grammatical equations over the letters U and D.

Expressions are trees built from epsilon, terminals, named nonterminals,
concatenation, and integer powers.  A grammar maps each nonterminal to a
tuple of alternatives (a union, with multiset semantics: a word derived
two ways counts twice).  A grammatical equation asserts that two unions
of expressions generate the same multiset of words, where each
nonterminal is interpreted not through rewrite rules but as the language
of an externally supplied restriction quad.

Lowering sends a grammar (or equation) to a polynomial fixed-point
system: U contributes a factor z, D contributes 1, union becomes sum and
concatenation product, so z tracks the semilength of balanced words.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Union

from .intsets import RestrictionQuad
from .oracle import DEFAULT_ENUMERATION_CAP, ResourceLimit, language
from .series import Poly, SeriesSystem

DEFAULT_WORD_CAP = 10_000_000


class UnbalancedGrammar(ValueError):
    pass


@dataclass(frozen=True)
class Epsilon:
    pass


@dataclass(frozen=True)
class Term:
    letter: str


@dataclass(frozen=True)
class NonTerm:
    name: str


@dataclass(frozen=True)
class Concat:
    parts: tuple["GExpr", ...]


@dataclass(frozen=True)
class Power:
    base: "GExpr"
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {self.exponent}")


GExpr = Union[Epsilon, Term, NonTerm, Concat, Power]

EPSILON = Epsilon()
U = Term("U")
D = Term("D")


def seq(*parts: GExpr) -> GExpr:
    if not parts:
        return EPSILON
    if len(parts) == 1:
        return parts[0]
    return Concat(tuple(parts))


def rep(expr: GExpr, k: int) -> GExpr:
    return Power(expr, k)


def _tokens(expr: GExpr) -> list[str]:
    if isinstance(expr, Epsilon):
        return []
    if isinstance(expr, Term):
        return [expr.letter]
    if isinstance(expr, NonTerm):
        return [expr.name]
    if isinstance(expr, Concat):
        return [t for p in expr.parts for t in _tokens(p)]
    return _tokens(expr.base) * expr.exponent


def render(expr: GExpr) -> str:
    return " ".join(_tokens(expr)) or "eps"


@dataclass(frozen=True)
class Grammar:
    rules: dict[str, tuple[GExpr, ...]]

    @property
    def nonterminals(self) -> tuple[str, ...]:
        return tuple(self.rules)

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
    nonterminals: tuple[str, ...]

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
    """Exact-length word multisets for expressions, memoized, budgeted.

    ``resolve(name, length)`` gives a nonterminal's words of one length; it
    is called once per (nonterminal, length), and a call that re-enters its
    own (nonterminal, length) is unguarded recursion.
    """

    def __init__(self, resolve, cap: int):
        self.resolve = resolve  # (name, length) -> Counter
        self.cap = cap
        self.generated = 0
        self._memo: dict = {}
        self._active: set = set()

    def _charge(self, words: Counter) -> None:
        self.generated += sum(words.values())
        if self.generated > self.cap:
            raise ResourceLimit(self.generated, self.cap, what="generated words")

    def exact(self, expr: GExpr, length: int) -> Counter:
        key = (expr, length)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if isinstance(expr, Epsilon):
            out = Counter({"": 1}) if length == 0 else Counter()
        elif isinstance(expr, Term):
            out = Counter({expr.letter: 1}) if length == 1 else Counter()
        elif isinstance(expr, NonTerm):
            if key in self._active:
                raise ValueError(f"unguarded recursion on nonterminal {expr.name}")
            self._active.add(key)
            out = self.resolve(expr.name, length)
            self._active.discard(key)
        elif isinstance(expr, Power):
            out = self.exact_seq((expr.base,) * expr.exponent, length)
        else:
            out = self.exact_seq(expr.parts, length)
        self._memo[key] = out
        self._charge(out)
        return out

    def exact_seq(self, parts: tuple[GExpr, ...], length: int) -> Counter:
        if not parts:
            return Counter({"": 1}) if length == 0 else Counter()
        if len(parts) == 1:
            return self.exact(parts[0], length)
        key = (parts, length)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out: Counter = Counter()
        for l1 in range(length + 1):
            left = self.exact(parts[0], l1)
            if not left:
                continue
            right = self.exact_seq(parts[1:], length - l1)
            for w2, c2 in right.items():
                for w1, c1 in left.items():
                    out[w1 + w2] += c1 * c2
        self._memo[key] = out
        self._charge(out)
        return out

    def up_to(self, exprs: tuple[GExpr, ...], max_len: int) -> Counter:
        """The union of every expression's words of length 0..max_len."""
        out: Counter = Counter()
        for e in exprs:
            for length in range(max_len + 1):
                out.update(self.exact(e, length))
        return out


def _grammar_expander(grammar: Grammar, cap: int) -> _Expander:
    def resolve(name: str, length: int) -> Counter:
        if name not in grammar.rules:
            raise ValueError(f"undefined nonterminal {name}")
        out: Counter = Counter()
        for alt in grammar.rules[name]:
            out.update(expander.exact(alt, length))
        return out

    expander = _Expander(resolve, cap)
    return expander


def _language_expander(languages: Mapping[str, RestrictionQuad], cap: int,
                       enum_cap: int) -> _Expander:
    def resolve(name: str, length: int) -> Counter:
        if name not in languages:
            raise ValueError(f"no language bound to nonterminal {name}")
        if length % 2:
            return Counter()
        return Counter(dict.fromkeys(language(length // 2, languages[name], enum_cap), 1))

    return _Expander(resolve, cap)


def words(grammar: Grammar, start: GExpr | str, max_len: int,
          cap: int = DEFAULT_WORD_CAP) -> WordMultiset:
    """Multiset of derivable words of length <= max_len.

    Multiplicity is the number of distinct derivations, so an unambiguous
    grammar yields all-1 counts.
    """
    expr = NonTerm(start) if isinstance(start, str) else start
    out = _grammar_expander(grammar, cap).up_to((expr,), max_len)
    return WordMultiset(max_len, dict(out))


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
    expander = _language_expander(languages, cap, enum_cap)
    left = expander.up_to(eq.lhs, max_len)
    right = expander.up_to(eq.rhs, max_len)
    if left == right:
        return EquationReport(True, max_len)
    diff = {w for w in left.keys() | right.keys() if left[w] != right[w]}
    w = min(diff, key=lambda x: (len(x), x))
    return EquationReport(False, max_len, w, left[w], right[w])


# --- lowering to series systems -----------------------------------------

def _poly(expr: GExpr) -> Poly:
    if isinstance(expr, Epsilon):
        return Poly.const(1)
    if isinstance(expr, Term):
        return Poly.z() if expr.letter == "U" else Poly.const(1)
    if isinstance(expr, NonTerm):
        return Poly.var(expr.name)
    if isinstance(expr, Power):
        return _poly(expr.base) ** expr.exponent
    out = Poly.const(1)
    for p in expr.parts:
        out = out * _poly(p)
    return out


def _terminal_balance(expr: GExpr) -> int:
    if isinstance(expr, Term):
        return 1 if expr.letter == "U" else -1
    if isinstance(expr, Concat):
        return sum(_terminal_balance(p) for p in expr.parts)
    if isinstance(expr, Power):
        return expr.exponent * _terminal_balance(expr.base)
    return 0


def _require_balanced(expr: GExpr) -> None:
    if _terminal_balance(expr) != 0:
        raise UnbalancedGrammar(f"expression {render(expr)!r} is not balanced")


def equation_sides(eq: GrammaticalEquation) -> tuple[Poly, Poly]:
    """Both sides as polynomials, before any rearrangement."""
    lhs = Poly.zero()
    for e in eq.lhs:
        lhs = lhs + _poly(e)
    rhs = Poly.zero()
    for e in eq.rhs:
        rhs = rhs + _poly(e)
    return lhs, rhs


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
        equations = {}
        for name, alts in body.rules.items():
            phi = Poly.zero()
            for alt in alts:
                _require_balanced(alt)
                phi = phi + _poly(alt)
            equations[name] = phi
        system = SeriesSystem(body.nonterminals, equations)
    else:
        for e in body.lhs + body.rhs:
            _require_balanced(e)
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
