"""Grammars and grammatical equations over the letters U and D.

An expression is its token tuple: each maximal run of terminals is one
literal string and each nonterminal a 1-tuple (name,), so epsilon is ();
``seq`` concatenates expressions and ``rep`` repeats one.  A grammar maps
each nonterminal to a tuple of alternatives (a union, with multiset
semantics: a word derived two ways counts twice).  A grammatical equation
asserts that two unions of expressions generate the same multiset of
words, where each nonterminal is interpreted not through rewrite rules
but as the language of an externally supplied restriction quad.

The word expander carries each word of a known length as its code
(``paths.encode``), and only a caller that reads text (``words``, a
witness) has it decoded.  It builds nothing at a length whose parity no
word of the expression has.  ``check_equation`` and ``word_lists``
(``verify``'s pass over a grammar) hold a length's words as a list of
codes, a word once per derivation; ``word_codes`` (so ``words``,
``check_unambiguous`` and a failed grammar check) as a dict from code to
derivation count, as a grammar's recursion compounds repeats.

Lowering sends a grammar (or equation) to a polynomial fixed-point
system.  Each expression is one monomial, read off its tokens: z to the
number of its U letters times its nonterminals (D contributes 1), and a
union is the sum of its monomials, so z tracks the semilength of balanced
words.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence

from . import oracle
from ._record import Record
from .oracle import ResourceLimit
from .paths import decode, encode
from .series import Poly, SeriesSystem


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


class Grammar(Record):
    rules: dict[str, tuple[GExpr, ...]]

    def to_text(self) -> str:
        lines = []
        for name, alts in self.rules.items():
            for alt in alts:
                lines.append(f"{name} -> {render(alt)}")
        return "\n".join(lines)


class GrammaticalEquation(Record):
    """Multiset identity between two unions of expressions."""

    lhs: tuple[GExpr, ...]
    rhs: tuple[GExpr, ...]

    def to_text(self) -> str:
        def side(exprs):
            return " | ".join(render(e) for e in exprs)
        return f"{side(self.lhs)}  =  {side(self.rhs)}"


def _union(parts: list) -> dict:
    """The sum of word multisets: each word's counts added."""
    out = {}
    for part in parts:
        for w, c in part.items():
            out[w] = out.get(w, 0) + c
    return out


def _product(pairs: list) -> dict:
    """The codes of pre + w1 + lit + w2, counts multiplied, for each
    (base, shift, left, right) of multisets and each w1 of left and w2 of
    right: base | w1 << shift | w2, where base holds pre and lit shifted
    into place and shift is the letter count of lit + w2.  Words of two
    pairs may coincide, and then their counts add.  Only ``word_codes``
    reads it, so ``words``, ``check_unambiguous`` and a failing grammar's
    details; the word passes of ``verify`` run on :func:`_codes`."""
    out = {}
    for base, shift, left, right in pairs:
        for w1, c1 in left.items():
            h = base | w1 << shift
            for w2, c2 in right.items():
                w = h | w2
                out[w] = out.get(w, 0) + c1 * c2
    return out


def _codes(pairs: list) -> list:
    """The words of :func:`_product` over lists of codes, a word once per
    derivation, so pairs that share a word need no merge and one list
    holds them all.  The hot kernel: the outer loop runs over the shorter
    list of a pair."""
    return ([h | w2 for base, shift, left, right in pairs if len(left) <= len(right)
             for w1 in left for h in (base | w1 << shift,) for w2 in right]
            + [h | w1 << shift for base, shift, left, right in pairs
               if len(left) > len(right) for w2 in right for h in (base | w2,)
               for w1 in left])


class _Expander:
    """Word multisets of expressions (token tuples), memoized and budgeted.
    The caller picks their form by the product it passes: ``_product``
    (``word_codes``, off ``verify``'s passing path) maps each word's code
    to its multiplicity, ``_codes`` (``check_equation``, ``word_lists``,
    the passes ``verify`` makes) lists a code per derivation.

    An expression with a nonterminal reads as ``[pre] N [lit] rest``: an
    optional leading literal, its first nonterminal N, the literal after N
    if any, and the remaining tokens, which start with a nonterminal or
    are empty.  Its words are pre + w1 + lit + w2 for w1 a word of N and w2
    one of rest, so no literal-headed suffix is ever materialised, and w1
    is at most as long as rest's letters leave room for.  A literal is
    planned as (code, letter count), so a word is built by shifts and ors.
    ``expand`` gives the words of one length, one product over that
    length's splits; a caller reads it length by length.  A literal-only
    expression is its one word, ``{code: 1}`` in either form (a dict
    iterates over its codes).  A lone nonterminal N is the one-token
    expression ``NonTerm(N)``, whose words of one length are
    ``resolve(expander, N, length)`` (an argument: a closure would cycle);
    a resolve that re-enters its own (N, length) is unguarded recursion.
    Every other result is kept in one memo keyed by (tokens, length), so
    a split reads N's words as the memo entry of ``NonTerm(N)``.  Returned
    multisets may be shared with the memo and must not be mutated.

    ``step`` is 2 when every nonterminal word has even length (always in
    ``check_equation``, whose languages are Dyck paths; in ``word_codes``
    unless an alternative has an odd letter count), else 1.  ``expand``
    gives ``{}``, with no memo entry, budget charge or ``resolve`` call, at
    a length whose excess over the expression's letters is no multiple of
    it, and a split steps N's length by it.  Such a call could only build
    empty entries, so no word, error or ``generated`` total moves (the two
    word-budget tests of ``test_grammar.py`` pin those totals), and length
    0, where unguarded recursion fires, is never pruned.

    ``generated``, the figure ``oracle.WORD_BUDGET`` bounds (read when the
    expander is built), adds up the size of every memo entry, each
    (nonterminal, length) resolved and each (expression, length) split; a
    literal builds none.  A dict's size is its distinct words, a list's its
    codes with their repeats.  Repeats stay few in an equation, whose
    nonterminals are bound languages: a side lists a word at most once per
    way of factoring it.  A grammar's recursion compounds them: listed,
    ``P -> eps | U P P P`` holds over 10^7 codes by length 12 (37 counted)
    and F7(4,3) with eps doubled 10,173,086 by length 22 (81,177), so a
    grammar is listed only by a caller that stops where a list differs.
    """

    def __init__(self, resolve, product, step):
        self.resolve = resolve  # (expander, name, length) -> multiset
        self.product = product
        self.step = step
        self.budget = oracle.WORD_BUDGET
        self.generated = 0
        self._memo: dict = {}  # (tokens, length) -> multiset
        self._active: set = set()
        self._plans: dict = {}  # tokens -> (pre, plen, N, lit, llen, rest, least)

    def _plan(self, tokens: tuple) -> tuple:
        """(pre, plen, N, lit, llen, rest, least) of ``[pre] N [lit] rest``:
        the literals as codes and letter counts, N the one-token expression
        of the first nonterminal and least the letter count of rest, a bound
        below its words' length; (word, its length, None, 0, 0, (), 0) for
        a literal-only expression."""
        i = 0
        while i < len(tokens) and type(tokens[i]) is str:
            i += 1
        pre = "".join(tokens[:i])
        if i == len(tokens):
            plan = (encode(pre), len(pre), None, 0, 0, (), 0)
        else:
            j = i + 1
            while j < len(tokens) and type(tokens[j]) is str:
                j += 1
            lit, rest = "".join(tokens[i + 1:j]), tokens[j:]
            plan = (encode(pre), len(pre), tokens[i:i + 1], encode(lit), len(lit),
                    rest, sum(len(t) for t in rest if type(t) is str))
        self._plans[tokens] = plan
        return plan

    def expand(self, tokens: tuple, length: int) -> dict:
        key = (tokens, length)
        out = self._memo.get(key)
        if out is not None:
            return out
        pre, plen, head, lit, llen, rest, least = (self._plans.get(tokens)
                                                   or self._plan(tokens))
        if (length - plen - llen - least) % self.step:
            return {}
        if head is None:
            return {pre: 1} if plen == length else {}
        if not (plen or llen or rest):
            if key in self._active:
                raise ValueError(f"unguarded recursion on nonterminal {tokens[0][0]}")
            self._active.add(key)
            out = self.resolve(self, tokens[0][0], length)
            self._active.discard(key)
        else:
            free = length - plen - llen
            memo, pairs = self._memo, []
            # with no rest, N's word takes all the free letters
            for l1 in range(0 if rest else max(free, 0), free - least + 1, self.step):
                left = memo.get((head, l1))
                if left is None:
                    left = self.expand(head, l1)
                if not left:
                    continue
                l2 = free - l1
                right = memo.get((rest, l2))
                if right is None:
                    right = self.expand(rest, l2)
                if right:
                    pairs.append((pre << length - plen | lit << l2, llen + l2,
                                  left, right))
            out = self.product(pairs)
        self._memo[key] = out
        self.generated += len(out)
        if self.generated > self.budget:
            raise ResourceLimit(self.generated, self.budget, what="generated words")
        return out


def words(grammar: Grammar, start: GExpr | str, max_len: int) -> Counter:
    """Multiset of derivable words of length <= max_len.

    Multiplicity is the number of distinct derivations, so an unambiguous
    grammar yields all-1 counts.  The text of :func:`word_codes`.
    """
    return Counter({decode(code, length): c
                    for length, ws in enumerate(word_codes(grammar, start, max_len))
                    for code, c in ws.items()})


def word_codes(grammar: Grammar, start: GExpr | str, max_len: int) -> list[dict]:
    """The derivable words of each length 0..max_len, as dicts from code
    (``paths.encode``) to number of derivations.  The dicts may be shared
    with the expander's memo and must not be mutated."""
    return list(_grammar_words(grammar, start, max_len, _product, _union))


def word_lists(grammar: Grammar, start: GExpr | str, max_len: int):
    """The derivable words of each length 0..max_len, yielded lazily as
    code lists, a word once per derivation (a dict over its codes for a
    literal or no word), shared with the expander's memo: do not mutate."""
    return _grammar_words(grammar, start, max_len, _codes,
                          lambda parts: [w for part in parts for w in part])


def _grammar_words(grammar, start, max_len, product, union):
    """Each length's words, lazily, in the form ``product`` and ``union`` build."""
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    tokens = NonTerm(start) if isinstance(start, str) else start

    def resolve(expander: _Expander, name: str, length: int):
        if name not in grammar.rules:
            raise ValueError(f"undefined nonterminal {name}")
        return union([expander.expand(alt, length) for alt in grammar.rules[name]])

    step = 1 if any(sum(len(t) for t in alt if type(t) is str) % 2
                    for alts in grammar.rules.values() for alt in alts) else 2
    expander = _Expander(resolve, product, step)
    return (expander.expand(tokens, length) for length in range(max_len + 1))


class AmbiguityReport(Record):
    passed: bool
    witness: str | None = None
    multiplicity: int | None = None


def check_unambiguous(grammar: Grammar, start: GExpr | str,
                      max_len: int) -> AmbiguityReport:
    return ambiguity(word_codes(grammar, start, max_len))


def ambiguity(derived: Sequence[Mapping[int, int]]) -> AmbiguityReport:
    """Ambiguity verdict of the word codes of each length, as
    :func:`word_codes` gives them; the witness is the least word of the
    shortest length derived more than once, and only it is decoded."""
    for length, ws in enumerate(derived):
        bad = [w for w, c in ws.items() if c != 1]
        if bad:
            w = min(bad)
            return AmbiguityReport(False, decode(w, length), ws[w])
    return AmbiguityReport(True)


class EquationReport(Record):
    passed: bool
    witness: str | None = None
    lhs_multiplicity: int | None = None
    rhs_multiplicity: int | None = None


def check_equation(eq: GrammaticalEquation,
                   languages: Mapping[str, Sequence[tuple[int, ...]]],
                   max_len: int) -> EquationReport:
    """Compare both sides as word multisets up to max_len.

    Nonterminals are read as languages (each word once), ``languages[name]``
    holding one tuple per semilength 0..max_len // 2 of the codes
    (``paths.encode``) of its words of that semilength, such as
    ``oracle.joined_codes`` gives, or ValueError is raised rather than
    compare against missing words.  Union and
    concatenation contribute multiplicities as usual, so overlapping
    alternatives on both sides must overlap equally for a PASS.  The sides
    are expanded and compared one length at a time, shortest first, each
    as one sorted list of codes, a word once per derivation; at the first
    length where they differ the check stops, the sides are counted, and
    the witness is the text of that length's least word whose
    multiplicities differ, so the shortest, then least, of all.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    for name, by_n in languages.items():
        if len(by_n) <= max_len // 2:
            raise ValueError(f"nonterminal {name} needs words of semilength "
                             f"0..{max_len // 2}, got {len(by_n)} lists")

    def resolve(_, name: str, length: int) -> Sequence[int]:
        if name not in languages:
            raise ValueError(f"no language bound to nonterminal {name}")
        return languages[name][length // 2]

    expander = _Expander(resolve, _codes, 2)
    for length in range(max_len + 1):
        lhs, rhs = [], []
        for side, codes in ((eq.lhs, lhs), (eq.rhs, rhs)):
            for tokens in side:
                codes += expander.expand(tokens, length)
            codes.sort()
        if lhs != rhs:
            lhs, rhs = Counter(lhs), Counter(rhs)
            w = min({w for w, _ in lhs.items() ^ rhs.items()})
            return EquationReport(False, decode(w, length), lhs.get(w, 0), rhs.get(w, 0))
    return EquationReport(True)


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
