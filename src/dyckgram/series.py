"""Truncated formal power series with exact integer coefficients.

A series of order N carries coefficients for z^0 .. z^(N-1); everything
beyond is unknown, not zero.  Series form a ring under + - * and **, and
every coefficient is a Python int: a closed form is checked as the
integer polynomial it satisfies (``Poly.eval`` at the series), never by
dividing or taking a root.

The module also defines sparse polynomials in z and named unknowns
(:class:`Poly`) and fixed-point systems X = Phi(X) over them
(:class:`SeriesSystem`).  Such a system has a unique fixed point
whenever every unknown-bearing monomial carries a factor z^1 or higher:
coefficient n of each unknown then depends only on coefficients below n,
so :func:`solve` computes the coefficients online, in increasing n, each
exactly once (relaxed evaluation).
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import mul

from ._record import Record
from .oracle import ResourceLimit

DEFAULT_ORDER = 32
MAX_ORDER = 1000  # solve's budget, checked before anything is allocated


class OrderMismatch(ValueError):
    pass


class NotContractive(ValueError):
    pass


class TruncatedSeries(Record):
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("order must be at least 1")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None) -> "TruncatedSeries":
        """The given coefficients, cut or zero-padded to ``order`` if given."""
        cs = tuple(coeffs)
        if order is not None:
            cs = cs[:order] + (0,) * (order - len(cs))
        return cls(cs)

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls((0,) * order)

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls.from_coeffs((1,), order)

    def _match(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} vs {other.order}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._match(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._match(other)
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._match(other)
        n = self.order
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    def __pow__(self, k: int) -> "TruncatedSeries":
        if k < 0:
            raise ValueError(f"exponent must be >= 0, got {k}")
        result = TruncatedSeries.one(self.order)
        for _ in range(k):
            result = result * self
        return result

    def require_counts(self) -> "TruncatedSeries":
        """Assert every coefficient is nonnegative and return self."""
        for n, c in enumerate(self.coeffs):
            if c < 0:
                raise ValueError(f"coefficient of z^{n} is not a count: {c}")
        return self


# --- polynomials in z and named unknowns -------------------------------

_VarsKey = tuple[tuple[str, int], ...]


def _mul_vars(a: _VarsKey, b: _VarsKey) -> _VarsKey:
    d: dict[str, int] = {}
    for name, e in a + b:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))


class Poly(Record):
    """Sparse polynomial: monomials (z-degree, unknowns) -> int coefficient."""

    terms: tuple[tuple[int, _VarsKey, int], ...]  # (zdeg, vars, coeff), sorted

    @staticmethod
    def _from_dict(d: dict[tuple[int, _VarsKey], int]) -> "Poly":
        items = tuple(sorted((z, v, c) for (z, v), c in d.items() if c != 0))
        return Poly(items)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls._from_dict({(0, ()): c})

    @classmethod
    def z(cls, k: int = 1) -> "Poly":
        return cls._from_dict({(k, ()): 1})

    @classmethod
    def var(cls, name: str, k: int = 1) -> "Poly":
        if k < 0:
            raise ValueError(f"exponent must be >= 0, got {k}")
        return cls._from_dict({(0, ((name, k),) if k else ()): 1})

    def _dict(self) -> dict[tuple[int, _VarsKey], int]:
        return {(z, v): c for z, v, c in self.terms}

    def __add__(self, other: "Poly") -> "Poly":
        d = self._dict()
        for z, v, c in other.terms:
            d[(z, v)] = d.get((z, v), 0) + c
        return Poly._from_dict(d)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, c: int) -> "Poly":
        return Poly(tuple((z, v, c * k) for z, v, k in self.terms)) if c else Poly.zero()

    def __mul__(self, other: "Poly") -> "Poly":
        d: dict[tuple[int, _VarsKey], int] = {}
        for z1, v1, c1 in self.terms:
            for z2, v2, c2 in other.terms:
                key = (z1 + z2, _mul_vars(v1, v2))
                d[key] = d.get(key, 0) + c1 * c2
        return Poly._from_dict(d)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError(f"exponent must be >= 0, got {k}")
        result = Poly.const(1)
        for _ in range(k):
            result = result * self
        return result

    def unknowns(self) -> set[str]:
        return {name for _, vars_, _ in self.terms for name, _ in vars_}

    def eval(self, env: Mapping[str, TruncatedSeries], order: int) -> TruncatedSeries:
        total = TruncatedSeries.zero(order)
        for zdeg, vars_, coeff in self.terms:
            if zdeg >= order:
                continue
            term = TruncatedSeries.from_coeffs((0,) * zdeg + (coeff,), order)
            for name, e in vars_:
                term = term * (env[name] ** e)
            total = total + term
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for zdeg, vars_, coeff in self.terms:
            factors = []
            if zdeg == 1:
                factors.append("z")
            elif zdeg > 1:
                factors.append(f"z^{zdeg}")
            for name, e in vars_:
                factors.append(name if e == 1 else f"{name}^{e}")
            if abs(coeff) != 1 or not factors:
                factors.insert(0, str(abs(coeff)))
            body = "*".join(factors)
            parts.append(("- " if coeff < 0 else "+ ") + body)
        head = parts[0].removeprefix("+ ")
        if head.startswith("- "):
            head = "-" + head[2:]
        return " ".join([head] + parts[1:])


class SeriesSystem(Record):
    """Simultaneous fixed-point equations X = Phi_X(z, unknowns)."""

    unknowns: tuple[str, ...]
    equations: dict[str, Poly]

    def validate(self) -> None:
        known = set(self.unknowns)
        for name in self.unknowns:
            phi = self.equations[name]
            extra = phi.unknowns() - known
            if extra:
                raise ValueError(f"equation for {name} uses unbound {sorted(extra)}")
            for zdeg, vars_, _ in phi.terms:
                if vars_ and zdeg == 0:
                    raise NotContractive(
                        f"equation for {name} has unknown-bearing monomial with no z factor")

    def __str__(self) -> str:
        return "\n".join(f"{name} = {self.equations[name]}" for name in self.unknowns)


def _quotient(key: _VarsKey, sub: _VarsKey) -> _VarsKey | None:
    """The product ``key`` divided by ``sub``; None unless ``sub`` is a
    proper divisor."""
    d = dict(key)
    for name, e in sub:
        if d.get(name, 0) < e:
            return None
        d[name] -= e
    return tuple((name, e) for name, e in d.items() if e) or None


def _product(key: _VarsKey, products: dict, recipes: list) -> list:
    """:func:`solve`'s coefficient list of product ``key``, built if missing."""
    if key not in products:
        if not any(e % 2 for _, e in key):
            half = _product(tuple((name, e // 2) for name, e in key), products, recipes)
            factors = half, half
        else:
            split = next(((a, q) for a in products
                          if a and (q := _quotient(key, a)) in products), None)
            if split is None:
                unit = ((next(name for name, e in key if e % 2), 1),)
                split = unit, _quotient(key, unit)
            factors = (_product(split[0], products, recipes),
                       _product(split[1], products, recipes))
        products[key] = []
        recipes.append((products[key], *factors))
    return products[key]


def solve(system: SeriesSystem, order: int = DEFAULT_ORDER) -> dict[str, TruncatedSeries]:
    """The fixed point of X = Phi(X), one coefficient of every unknown at a time.

    Coefficient n of an unknown sums c * [z^(n - zdeg)] of each monomial's
    product of unknowns.  Every such product carries z^1 or higher, so it
    is read below index n.  Each distinct product keeps a growing
    coefficient list, one convolution per n.  A product whose exponents
    are all even is the square of its half, and its coefficient n sums
    half the terms: 2 * sum_{i < n/2} a_i a_(n-i), plus a_(n/2)^2 for even
    n.  Any other product is two products already built, where a split
    allows, or else an unknown of odd exponent times the rest.  The
    system's products are built lowest degree first, so a split reuses
    any smaller one: P^5 is P^2 * P^3 when the system needs P^3.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > MAX_ORDER:
        raise ResourceLimit(order, MAX_ORDER, what="series order")
    system.validate()
    coeffs: dict[str, list] = {name: [] for name in system.unknowns}
    products: dict[_VarsKey, list] = {(): [1] + [0] * (order - 1)}
    products.update({((name, 1),): cs for name, cs in coeffs.items()})
    recipes: list[tuple[list, list, list]] = []  # (product, a, b); a square's a and b are its half

    # lowest degree first, so that a split may reuse any smaller product the system needs
    for key in sorted({v for phi in system.equations.values() for _, v, _ in phi.terms},
                      key=lambda v: (sum(e for _, e in v), v)):
        _product(key, products, recipes)
    rhs = {name: [(zdeg, _product(vars_, products, recipes), c)
                  for zdeg, vars_, c in system.equations[name].terms]
           for name in system.unknowns}
    for n in range(order):
        for name in system.unknowns:
            coeffs[name].append(sum(c * prod[n - zdeg]
                                    for zdeg, prod, c in rhs[name] if zdeg <= n))
        if n + 1 < order:
            for prod, a, b in recipes:
                if a is b:
                    k = (n + 1) // 2
                    twice = 2 * sum(map(mul, a[:k], reversed(a)))
                    prod.append(twice + a[k] ** 2 if n % 2 == 0 else twice)
                else:
                    prod.append(sum(map(mul, a, reversed(b))))
    return {name: TruncatedSeries(tuple(cs)) for name, cs in coeffs.items()}
