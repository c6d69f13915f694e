from math import prod
from operator import mul

import pytest
from hypothesis import given, strategies as st

from dyckgram.families import build, catalogue
from dyckgram.grammar import lower
from dyckgram.series import (NotContractive, OrderMismatch, Poly, SeriesSystem,
                             TruncatedSeries, solve)

S = TruncatedSeries.from_coeffs


def test_construction_and_padding():
    a = S([1, 2], 5)
    assert a.coeffs == (1, 2, 0, 0, 0)
    assert a.order == 5
    assert S([1, 2, 3], 2).coeffs == (1, 2)
    with pytest.raises(ValueError):
        TruncatedSeries(())


def test_series_record_validates_every_construction():
    with pytest.raises(ValueError, match="order must be at least 1"):
        TruncatedSeries(())
    with pytest.raises(ValueError, match="order must be at least 1"):
        S([1])._replace(coeffs=())
    assert S([1], 2)._replace(coeffs=(0, 1)) == S([0, 1])
    assert repr(S([1, 2])) == "TruncatedSeries(coeffs=(1, 2))"
    assert hash(S([1, 2])) == hash(((1, 2),))
    assert S([1, 2]) != Poly(((0, (), 1),)) and Poly.var("P") == Poly.var("P")


def test_add_sub_mul():
    one_plus = S([1, 1], 6)
    one_minus = S([1, -1], 6)
    assert (one_plus * one_minus).coeffs == (1, 0, -1, 0, 0, 0)
    assert (one_plus + one_minus).coeffs == (2, 0, 0, 0, 0, 0)
    assert (one_plus - one_minus).coeffs == (0, 2, 0, 0, 0, 0)


def test_pow():
    a = S([1, 1], 6)
    assert (a ** 0).coeffs == (1, 0, 0, 0, 0, 0)
    assert (a ** 3).coeffs == (1, 3, 3, 1, 0, 0)
    with pytest.raises(ValueError):
        a ** -1


def test_order_mismatch_rejected():
    with pytest.raises(OrderMismatch):
        S([1], 4) + S([1], 5)


def test_require_counts():
    assert S([1, 0, 2], 3).require_counts().coeffs == (1, 0, 2)
    with pytest.raises(ValueError):
        S([1, -1], 3).require_counts()


def test_poly_arithmetic_and_rendering():
    p = Poly.const(1) + Poly.z() * Poly.var("P") ** 2
    assert str(p) == "1 + z*P^2"
    assert p.unknowns() == {"P"}
    q = (Poly.var("P") + Poly.z()) ** 2
    assert str(q) == "P^2 + 2*z*P + z^2"
    assert str(Poly.zero()) == "0"
    with pytest.raises(ValueError):
        q ** -1


def test_poly_var_exponents():
    assert Poly.var("X", 0) == Poly.const(1)
    with pytest.raises(ValueError):
        Poly.var("X", -1)
    system = SeriesSystem(("X",), {"X": Poly.const(1) + Poly.z() * Poly.var("X", 0)})
    assert solve(system, 4)["X"].coeffs == (1, 1, 0, 0)


def test_poly_eval():
    p = Poly.const(2) + Poly.z(2) * Poly.var("X")
    x = S([1, 1], 5)
    assert p.eval({"X": x}, 5).coeffs == (2, 0, 1, 1, 0)
    # a monomial of z-degree at least the order adds nothing
    assert (p + Poly.z(5)).eval({"X": x}, 5).coeffs == (2, 0, 1, 1, 0)


def test_solve_catalan():
    system = SeriesSystem(("P",), {"P": Poly.const(1) + Poly.z() * Poly.var("P") ** 2})
    assert solve(system, 8)["P"].coeffs == (1, 1, 2, 5, 14, 42, 132, 429)


def test_solve_motzkin():
    m = Poly.var("M")
    system = SeriesSystem(("M",), {"M": Poly.const(1) + Poly.z() * m + Poly.z(2) * m ** 2})
    assert solve(system, 7)["M"].coeffs == (1, 1, 2, 4, 9, 21, 51)


def test_solve_pair_system():
    system = SeriesSystem(("P", "Q"), {
        "P": Poly.const(1) + Poly.z() * Poly.var("P")
             + Poly.z(2) * Poly.var("Q") * Poly.var("P"),
        "Q": Poly.const(1) + Poly.z() * Poly.var("Q")})
    assert solve(system, 5)["P"].coeffs == (1, 1, 2, 4, 8)


def test_solution_is_a_fixed_point():
    system = SeriesSystem(("P",), {"P": Poly.const(1) + Poly.z() * Poly.var("P") ** 2})
    sol = solve(system, 12)
    assert system.equations["P"].eval(sol, 12) == sol["P"]


def test_solution_is_a_fixed_point_of_every_catalogue_system():
    # checked by Poly.eval's full series products, not by the online recurrence
    for inst in (build(f, **p) for f, p in catalogue()):
        system = lower(inst.body)
        sol = solve(system, 64)
        for name in system.unknowns:
            assert system.equations[name].eval(sol, 64) == sol[name], (str(inst), name)


def test_solve_order_one_and_higher_powers():
    system = SeriesSystem(("A", "B"), {
        "A": Poly.const(1) + (Poly.z() * Poly.var("A") ** 3 * Poly.var("B") ** 2).scale(2),
        "B": Poly.const(2) + Poly.z(2) * Poly.var("A") - Poly.z(3)})
    assert {k: v.coeffs for k, v in solve(system, 1).items()} == {"A": (1,), "B": (2,)}
    sol = solve(system, 10)
    for name in system.unknowns:
        assert system.equations[name].eval(sol, 10) == sol[name]


def test_non_contractive_system_rejected():
    with pytest.raises(NotContractive):
        solve(SeriesSystem(("X",), {"X": Poly.var("X") + Poly.const(1)}), 4)


def test_unbound_unknown_rejected():
    with pytest.raises(ValueError):
        solve(SeriesSystem(("X",), {"X": Poly.z() * Poly.var("Y")}), 4)


# --- differential check against a one-factor-at-a-time reference ----------

def _reference_solve(system, order):
    """The relaxed solver with every product built as (the product without
    one factor) x that factor, one full convolution per n."""
    coeffs = {name: [] for name in system.unknowns}
    products = {(): [1] + [0] * (order - 1)}
    products.update({((name, 1),): cs for name, cs in coeffs.items()})
    recipes = []

    def product(key):
        if key not in products:
            (name, e), *others = key
            rest = product(tuple(others) if e == 1 else ((name, e - 1), *others))
            products[key] = []
            recipes.append((products[key], rest, coeffs[name]))
        return products[key]

    rhs = {name: [(zdeg, product(vars_), c) for zdeg, vars_, c in system.equations[name].terms]
           for name in system.unknowns}
    for n in range(order):
        for name in system.unknowns:
            coeffs[name].append(sum(c * p[n - zdeg] for zdeg, p, c in rhs[name] if zdeg <= n))
        if n + 1 < order:
            for p, rest, factor in recipes:
                p.append(sum(map(mul, rest, reversed(factor))))
    return {name: tuple(cs) for name, cs in coeffs.items()}


ORDERS = (1, 2, 3, 4, 64, 128)


def _assert_matches_reference(system, orders=ORDERS):
    for order in orders:
        got = {name: series.coeffs for name, series in solve(system, order).items()}
        assert got == _reference_solve(system, order), (str(system), order)


def test_solve_matches_the_reference_on_every_catalogue_system():
    for inst in (build(f, **p) for f, p in catalogue()):
        _assert_matches_reference(lower(inst.body))


def _monomial(zdeg, coeff, **exps):
    return prod((Poly.var(name, e) for name, e in exps.items()), start=Poly.z(zdeg)).scale(coeff)


def test_solve_matches_the_reference_on_squares_of_several_unknowns():
    # X^2 Y^2, X^4 Y^2 and Y^2 Z^4 are squares of X Y, X^2 Y and Y Z^2;
    # X^3 Y^4 and X^5 Y^2 Z^4 are an unknown times a square
    system = SeriesSystem(("X", "Y", "Z"), {
        "X": Poly.const(1) + _monomial(1, 1, X=2, Y=2) - _monomial(2, 1, X=3, Y=4),
        "Y": Poly.const(1) + _monomial(1, 2, X=4, Y=2) + _monomial(3, -1, X=5, Y=2, Z=4),
        "Z": Poly.const(1) + _monomial(1, 1, Y=2, Z=4) + _monomial(1, 1, X=1, Y=1)})
    _assert_matches_reference(system)


@st.composite
def contractive_systems(draw):
    """1-3 unknowns, each equation a few monomials with exponents <= 6,
    coefficients in -3..3 and a z factor on every unknown-bearing one."""
    names = ("X", "Y", "Z")[:draw(st.integers(1, 3))]
    equations = {}
    for name in names:
        phi = Poly.const(draw(st.integers(-3, 3)))
        for _ in range(draw(st.integers(0, 4))):
            exps = {n: draw(st.integers(0, 6)) for n in names}
            zdeg = draw(st.integers(1 if any(exps.values()) else 0, 3))
            phi = phi + _monomial(zdeg, draw(st.integers(-3, 3).filter(bool)), **exps)
        equations[name] = phi
    return SeriesSystem(names, equations)


@given(contractive_systems(), st.sampled_from(ORDERS))
def test_solve_matches_the_reference_on_drawn_systems(system, order):
    _assert_matches_reference(system, (order,))
