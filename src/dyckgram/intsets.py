"""Avoid-sets of positive integers and restriction quads built from them.

A set is a finite union of atoms: single values, inclusive ranges, and
arithmetic progressions ``{A*r + B | r >= 0}``.  The concrete syntax used
by the CLI and by :func:`parse_set`:

    set  := "" | atom ("," atom)*
    atom := INT | INT ".." INT | INT ".." | "ap(" INT "," INT ")"

``"3.."`` is shorthand for ``ap(1,3)`` = {3, 4, 5, ...}, and ``"ap(2,3)"``
is {3, 5, 7, ...}.  All members are positive; a zero base or step is
rejected at parse time.  Sets are kept un-normalized: membership is
decided per query, directly from the defining atoms, and each atom lists
its own members up to a bound as a ``range`` (``upto``).
"""

from __future__ import annotations

from math import lcm

from ._record import Record


class SetSyntaxError(ValueError):
    """Malformed set text; ``position`` is the 0-based offending index."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at index {position}: {message}")
        self.position = position


class NonPositiveValue(ValueError):
    def __init__(self, value: int):
        super().__init__(f"set members must be positive, got {value}")
        self.value = value


class BadProgression(ValueError):
    def __init__(self, step: int, base: int):
        super().__init__(f"ap({step},{base}) needs step >= 1 and base >= 1")
        self.step = step
        self.base = base


class Single(Record):
    value: int

    def contains(self, v: int) -> bool:
        return v == self.value

    def upto(self, bound: int) -> range:
        return range(self.value, min(self.value, bound) + 1)

    def horizon(self) -> tuple[int, int]:
        return self.value, 1

    def __str__(self) -> str:
        return str(self.value)


class Range(Record):
    lo: int
    hi: int

    def contains(self, v: int) -> bool:
        return self.lo <= v <= self.hi

    def upto(self, bound: int) -> range:
        return range(self.lo, min(self.hi, bound) + 1)

    def horizon(self) -> tuple[int, int]:
        return self.hi, 1

    def __str__(self) -> str:
        return f"{self.lo}..{self.hi}"


class Progression(Record):
    """The arithmetic progression {step*r + base | r >= 0}."""

    step: int
    base: int

    def contains(self, v: int) -> bool:
        return v >= self.base and (v - self.base) % self.step == 0

    def upto(self, bound: int) -> range:
        return range(self.base, bound + 1, self.step)

    def horizon(self) -> tuple[int, int]:
        return self.base, self.step

    def __str__(self) -> str:
        if self.step == 1:
            return f"{self.base}.."
        return f"ap({self.step},{self.base})"


Atom = Single | Range | Progression


class IntSet(Record):
    atoms: tuple[Atom, ...] = ()

    def is_empty(self) -> bool:
        return not self.atoms

    def contains(self, v: int) -> bool:
        if v < 1:
            raise ValueError(f"membership is defined for positive integers, got {v}")
        return any(a.contains(v) for a in self.atoms)

    def horizon(self) -> tuple[int, int]:
        """(threshold T, period p): above T, membership of v depends only
        on v mod p.  T is the largest single value, range end or
        progression base (0 when empty); p is the lcm of the steps."""
        bounds = [a.horizon() for a in self.atoms]
        return max((t for t, _ in bounds), default=0), lcm(*(p for _, p in bounds))

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.atoms)


def _scan_int(text: str, i: int) -> tuple[int, int]:
    start = i
    while i < len(text) and "0" <= text[i] <= "9":  # ASCII digits only
        i += 1
    if i == start:
        raise SetSyntaxError(start, "expected an integer")
    return int(text[start:i]), i


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _expect(text: str, i: int, ch: str) -> int:
    if i >= len(text) or text[i] != ch:
        raise SetSyntaxError(i, f"expected {ch!r}")
    return i + 1


def _parse_atom(text: str, i: int) -> tuple[Atom, int]:
    if text.startswith("ap(", i):
        j = _skip_ws(text, i + 3)
        step, j = _scan_int(text, j)
        j = _expect(text, _skip_ws(text, j), ",")
        base, j = _scan_int(text, _skip_ws(text, j))
        j = _expect(text, _skip_ws(text, j), ")")
        if step < 1 or base < 1:
            raise BadProgression(step, base)
        return Progression(step, base), j
    start = i
    lo, j = _scan_int(text, i)
    if lo < 1:
        raise NonPositiveValue(lo)
    if text.startswith("..", j):
        j += 2
        k = _skip_ws(text, j)
        if k < len(text) and "0" <= text[k] <= "9":
            hi, j = _scan_int(text, k)
            if hi < 1:
                raise NonPositiveValue(hi)
            if hi < lo:
                raise SetSyntaxError(start, f"empty range {lo}..{hi}")
            return Range(lo, hi), j
        return Progression(1, lo), j
    return Single(lo), j


def parse_set(text: str) -> IntSet:
    """Parse the set mini-language; the empty string is the empty set."""
    i = _skip_ws(text, 0)
    if i == len(text):
        return IntSet(())
    atoms = []
    while True:
        atom, i = _parse_atom(text, i)
        atoms.append(atom)
        i = _skip_ws(text, i)
        if i == len(text):
            return IntSet(tuple(atoms))
        i = _skip_ws(text, _expect(text, i, ","))


class RestrictionQuad(Record):
    """Four avoid-sets: peak heights, valley heights, up-run and down-run lengths."""

    peaks: IntSet = IntSet()
    valleys: IntSet = IntSet()
    up_runs: IntSet = IntSet()
    down_runs: IntSet = IntSet()

    @classmethod
    def parse(cls, peaks: str = "", valleys: str = "",
              up_runs: str = "", down_runs: str = "") -> "RestrictionQuad":
        return cls(parse_set(peaks), parse_set(valleys),
                   parse_set(up_runs), parse_set(down_runs))

    def is_empty(self) -> bool:
        return (self.peaks.is_empty() and self.valleys.is_empty()
                and self.up_runs.is_empty() and self.down_runs.is_empty())

    def __str__(self) -> str:
        parts = []
        for name, s in (("peaks", self.peaks), ("valleys", self.valleys),
                        ("up-runs", self.up_runs), ("down-runs", self.down_runs)):
            if not s.is_empty():
                parts.append(f"{name} avoid {s}")
        return "; ".join(parts) if parts else "unrestricted"
