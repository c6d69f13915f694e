"""Constructors for the catalogued families of restricted Dyck paths.

Each family id (F1..F3, F5..F11; there is no F4) names a parameterized
restriction on peak heights, valley heights, or run lengths, together
with a structural description of the language: either a grammar whose
words are exactly the restricted paths, or a grammatical equation whose
two sides agree as word multisets.  ``build`` returns the restriction
quad, the grammar or equation, and, where a closed form is stated for
the family, the lowered series system transcribed independently of the
grammar (so lowering can be tested against it).  The start symbol is
the lowered system's first unknown: a grammar's first rule, or an
equation's subject.

The paper's two algebraic closed forms, for F1 and F2, are stated as the
integer polynomials in z and P that they satisfy (``F1_IDENTITY``,
``F2_IDENTITY``), checked by ``Poly.eval`` at the counts.  In each, P's
linear coefficient has constant term 1 or -1, so coefficient n of the
residual fixes the count at n from the counts below it, an integer
recurrence that starts at P(0) = 1.  A residual that is zero to order N
therefore says the same as agreement with the radical form to order N.

The catalogue:

  F1   peaks avoid ap(2,3), up-runs avoid 3..       counts 1, 2^(n-1)
  F2   peaks avoid ap(2,3), up-runs avoid 4..       shifted GEN_CATALAN
  F3   up-runs avoid 3..                            Motzkin
  F5   up-runs avoid ap(A,B), 1 <= B < A            grammar
  F6   up-runs avoid ap(A,B), 1 <= A <= B           equation
  F7   down-runs avoid ap(A,B), 1 <= B < A          grammar
  F8   down-runs avoid ap(A,B), 1 <= A <= B         equation
  F9   both run kinds avoid 1..r                    equation
  F10  up-runs avoid 1..m, down-runs avoid 1..n     equation
  F11  up-runs avoid 1..r, down-runs avoid k+1..r   equation

F5..F8 are one family, built by ``_run_progression`` from one
run-progression system: up-runs or down-runs avoid ap(A, B), stated as a
grammar when B < A and as an equation when A <= B.
"""

from __future__ import annotations

from functools import partial

from ._record import Record
from .grammar import (D, EPSILON, GExpr, Grammar, GrammaticalEquation, NonTerm,
                      U, rep, seq)
from .intsets import IntSet, Progression, Range, RestrictionQuad
from .sequences import SeqId
from .series import Poly, SeriesSystem

_P = NonTerm("P")


class BadParams(ValueError):
    def __init__(self, family: str, params: dict, constraint: str):
        super().__init__(f"{family}{params}: requires {constraint}")
        self.family = family
        self.params = params
        self.constraint = constraint


class FamilyInstance(Record):
    family: str
    params: dict[str, int]
    quad: RestrictionQuad
    body: Grammar | GrammaticalEquation
    # lowered system as stated in closed form, or None to derive by lowering
    stated_system: SeriesSystem | None = None
    # (sequence, offset): count at semilength n should equal reference(seq, n + offset)
    count_reference: tuple[SeqId, int] | None = None

    def __str__(self) -> str:
        args = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.family}({args})" if args else self.family


def _pvar(k: int = 1) -> Poly:
    return Poly.var("P", k)


def _zP(zdeg: int, pexp: int) -> Poly:
    return Poly(((zdeg, (("P", pexp),) if pexp else (), 1),))


def _run_progression_system(A: int, B: int) -> SeriesSystem:
    """P = sum_{k<A} z^k P^k + z^A P^(A+1) - z^B P^B, stated for F5-F8.

    With B < A the subtracted term cancels the k = B summand, which is
    F5's and F7's sum over k != B; with B >= A it is F6's and F8's
    subtraction.  The k = 0 summand is the constant 1.
    """
    phi = Poly.zero()
    for k in range(A):
        phi = phi + _zP(k, k)
    return SeriesSystem(("P",), {"P": phi + _zP(A, A + 1) - _zP(B, B)})


F1_IDENTITY = (Poly.const(1) - Poly.z().scale(2)) * _pvar() - Poly.const(1) + Poly.z()
"""(1 - 2z) P - (1 - z): zero at F1's counts, P = (1 - z) / (1 - 2z)."""


def _f1() -> FamilyInstance:
    Q = NonTerm("Q")
    g = Grammar({
        "P": (EPSILON, seq(U, D, _P), seq(U, U, D, Q, D, _P)),
        "Q": (EPSILON, seq(U, D, Q)),
    })
    stated = SeriesSystem(("P", "Q"), {
        "P": Poly.const(1) + Poly.z() * Poly.var("P")
             + Poly.z(2) * Poly.var("Q") * Poly.var("P"),
        "Q": Poly.const(1) + Poly.z() * Poly.var("Q"),
    })
    quad = RestrictionQuad(peaks=IntSet((Progression(2, 3),)),
                           up_runs=IntSet((Progression(1, 3),)))
    return FamilyInstance("F1", {}, quad, g, stated_system=stated,
                          count_reference=(SeqId.POWERS_OF_TWO, 0))


def _f2() -> FamilyInstance:
    O, E = NonTerm("O"), NonTerm("E")
    g = Grammar({
        "P": (EPSILON, seq(U, D, _P), seq(U, U, D, O, D, _P)),
        "O": (EPSILON, seq(U, D, O), seq(U, U, U, D, O, D, E, D, O)),
        "E": (EPSILON, seq(U, U, D, O, D, E)),
    })
    stated = SeriesSystem(("P", "O", "E"), {
        "P": Poly.const(1) + Poly.z() * Poly.var("P")
             + Poly.z(2) * Poly.var("O") * Poly.var("P"),
        "O": Poly.const(1) + Poly.z() * Poly.var("O")
             + Poly.z(3) * Poly.var("E") * Poly.var("O") ** 2,
        "E": Poly.const(1) + Poly.z(2) * Poly.var("O") * Poly.var("E"),
    })
    quad = RestrictionQuad(peaks=IntSet((Progression(2, 3),)),
                           up_runs=IntSet((Progression(1, 4),)))
    return FamilyInstance("F2", {}, quad, g, stated_system=stated,
                          count_reference=(SeqId.GEN_CATALAN, 1))


F2_IDENTITY = (Poly.z(3) * _pvar(2)
               - (Poly.const(1) - Poly.z() - Poly.z(2)) * _pvar() + Poly.const(1))
"""z^3 P^2 - b P + 1 with b = 1 - z - z^2: zero at F2's counts.

It encodes P = 2 / (b + sqrt(D)), D = 1 - 2z - z^2 - 2z^3 + z^4: clearing
the root gives (b^2 - D) P^2 - 4b P + 4 = 0, and b^2 - D = 4z^3.
"""


def _f3() -> FamilyInstance:
    g = Grammar({"P": (EPSILON, seq(U, U, D, _P, D, _P), seq(U, D, _P))})
    stated = SeriesSystem(("P",), {
        "P": Poly.const(1) + Poly.z() * _pvar() + Poly.z(2) * _pvar(2),
    })
    quad = RestrictionQuad(up_runs=IntSet((Progression(1, 3),)))
    return FamilyInstance("F3", {}, quad, g, stated_system=stated,
                          count_reference=(SeqId.MOTZKIN, 0))


def _run_progression(family: str, runs: str, below: bool,
                     A: int, B: int) -> FamilyInstance:
    """F5-F8: the runs of one kind (``runs``, the quad field) avoid ap(A, B).

    The k-th summand is U^k (D P)^k for up-runs and (U P)^(k-1) U D^k P
    for down-runs (epsilon at k = 0); the long summand is U^A (P D)^A P or
    (U P)^A D^A P.  P is the summands k < A plus the long summand, less
    the B-th summand, as ``_run_progression_system`` states: with B < A
    (``below``; F5, F7) a grammar that leaves the B-th summand out, with
    A <= B (F6, F8) an equation that adds it to P's side.
    """
    params = {"A": A, "B": B}
    if not (1 <= B < A if below else 1 <= A <= B):
        raise BadParams(family, params, "1 <= B < A" if below else "1 <= A <= B")
    if runs == "up_runs":
        def summand(k: int) -> GExpr:
            return seq(rep(U, k), rep(seq(D, _P), k))
        long = seq(rep(U, A), rep(seq(_P, D), A), _P)
    else:
        def summand(k: int) -> GExpr:
            return seq(rep(seq(U, _P), k - 1), U, rep(D, k), _P) if k else EPSILON
        long = seq(rep(seq(U, _P), A), rep(D, A), _P)
    rhs = tuple(summand(k) for k in range(A) if k != B) + (long,)
    body = Grammar({"P": rhs}) if below else GrammaticalEquation((_P, summand(B)), rhs)
    ref = {("F6", 1, 3): (SeqId.MOTZKIN, 0),
           ("F6", 1, 2): (SeqId.ALL_ONES, 0)}.get((family, A, B))
    quad = RestrictionQuad(**{runs: IntSet((Progression(A, B),))})
    return FamilyInstance(family, params, quad, body,
                          stated_system=_run_progression_system(A, B),
                          count_reference=ref)


def _f9(r: int) -> FamilyInstance:
    if r < 1:
        raise BadParams("F9", {"r": r}, "r >= 1")
    lhs = (_P, seq(U, D, _P))
    rhs = (EPSILON, seq(rep(U, r + 1), rep(D, r + 1), _P), seq(U, _P, D, _P))
    eq = GrammaticalEquation(lhs, rhs)
    stated = (Poly.const(1) + _zP(r + 1, 1) + _zP(1, 2)) - _zP(1, 1)
    short = IntSet((Range(1, r),))
    quad = RestrictionQuad(up_runs=short, down_runs=short)
    return FamilyInstance("F9", {"r": r}, quad, eq,
                          stated_system=SeriesSystem(("P",), {"P": stated}))


def _f10(m: int, n: int) -> FamilyInstance:
    if m < 1 or n < 1:
        raise BadParams("F10", {"m": m, "n": n}, "m >= 1 and n >= 1")
    lhs = (_P, seq(U, D, _P))
    if m >= n:
        long_alt = seq(rep(U, m + 1), rep(D, n + 1), rep(seq(_P, D), m - n), _P)
    else:
        long_alt = seq(rep(seq(U, _P), n - m), rep(U, m + 1), rep(D, n + 1), _P)
    rhs = (EPSILON, seq(U, _P, D, _P), long_alt)
    eq = GrammaticalEquation(lhs, rhs)
    quad = RestrictionQuad(up_runs=IntSet((Range(1, m),)),
                           down_runs=IntSet((Range(1, n),)))
    return FamilyInstance("F10", {"m": m, "n": n}, quad, eq)


def _f11(r: int, k: int) -> FamilyInstance:
    if r < 1 or not 1 <= k <= r:
        raise BadParams("F11", {"r": r, "k": k}, "1 <= k <= r")
    lhs = (_P, seq(U, D, _P), seq(rep(U, r + 1), rep(D, k), rep(seq(D, _P), r + 1 - k)))
    rhs = (EPSILON, seq(U, _P, D, _P), seq(rep(U, r + 1), rep(D, r + 1), _P),
           seq(rep(U, r + 1), rep(seq(D, _P), r + 1)))
    eq = GrammaticalEquation(lhs, rhs)
    down = IntSet((Range(k + 1, r),)) if k < r else IntSet()
    quad = RestrictionQuad(up_runs=IntSet((Range(1, r),)), down_runs=down)
    return FamilyInstance("F11", {"r": r, "k": k}, quad, eq)


_BUILDERS = {
    "F1": (_f1, ()),
    "F2": (_f2, ()),
    "F3": (_f3, ()),
    "F5": (partial(_run_progression, "F5", "up_runs", True), ("A", "B")),
    "F6": (partial(_run_progression, "F6", "up_runs", False), ("A", "B")),
    "F7": (partial(_run_progression, "F7", "down_runs", True), ("A", "B")),
    "F8": (partial(_run_progression, "F8", "down_runs", False), ("A", "B")),
    "F9": (_f9, ("r",)),
    "F10": (_f10, ("m", "n")),
    "F11": (_f11, ("r", "k")),
}

FAMILY_IDS = tuple(_BUILDERS)


def build(family: str, **params: int) -> FamilyInstance:
    if family not in _BUILDERS:
        raise BadParams(family, params, f"family id in {FAMILY_IDS}")
    fn, names = _BUILDERS[family]
    if set(params) != set(names):
        raise BadParams(family, params,
                        f"parameters {names}" if names else "no parameters")
    return fn(*(params[name] for name in names))


# The instance sets the catalogue's claims are checked on.  Each call
# returns a fresh list of (family, params) pairs, in a fixed order, for
# ``build``: reading a set builds nothing.

def run_progression_sweep() -> list[tuple[str, dict[str, int]]]:
    """The 48 F5-F8 instances of acceptance criterion 05 (A <= 4, B <= 6)."""
    out = []
    for a in range(1, 5):
        out += [(f, {"A": a, "B": b}) for b in range(1, a) for f in ("F5", "F7")]
        out += [(f, {"A": a, "B": b}) for b in range(a, 7) for f in ("F6", "F8")]
    return out


def short_run_sweep() -> list[tuple[str, dict[str, int]]]:
    """The 30 F9-F11 instances of acceptance criterion 06."""
    out = [("F9", {"r": r}) for r in range(1, 5)]
    out += [("F10", {"m": m, "n": n}) for m in range(1, 5) for n in range(1, 5)]
    out += [("F11", {"r": r, "k": k}) for r in range(1, 5) for k in range(1, r + 1)]
    return out


def verify_pool() -> list[tuple[str, dict[str, int]]]:
    """F1-F3 and the instances of acceptance criteria 05 and 06 (81 in all)."""
    return [("F1", {}), ("F2", {}), ("F3", {})] + run_progression_sweep() + short_run_sweep()


def deep_set() -> list[tuple[str, dict[str, int]]]:
    """The 8 instances of the benchmark's ``deep`` workload, one per family
    with a stated system."""
    return [("F1", {}), ("F2", {}), ("F3", {}), ("F5", {"A": 4, "B": 2}),
            ("F6", {"A": 2, "B": 4}), ("F7", {"A": 4, "B": 2}),
            ("F8", {"A": 3, "B": 5}), ("F9", {"r": 1})]


def catalogue() -> list[tuple[str, dict[str, int]]]:
    """F1-F3, F5-F8 for A <= 6 and B <= 7, and the F9-F11 instances of
    acceptance criterion 06 (117 in all)."""
    out = [("F1", {}), ("F2", {}), ("F3", {})]
    for a in range(1, 7):
        for b in range(1, 8):
            out += [(f, {"A": a, "B": b}) for f in (("F5", "F7") if b < a else ("F6", "F8"))]
    return out + short_run_sweep()
