"""Dyck paths: U/D words that never go below height 0 and end there.

A path is its validated text, the string the walker reads
(:func:`walk`, :func:`accepts`) and every caller is shown.  Inside the
enumerators (the oracle's joins, the grammar's word expander) a word of
known length L is carried as its code (:func:`encode`, :func:`decode`):
the int whose L binary digits, most significant first, are the word's
letters, U = 1 and D = 0.  The length travels beside the code, so a
D-led word is the code of its suffix, and at one length code order is
text order, as "D" < "U".  Sizes are semilengths (half the number of
steps).  The feature vocabulary:

  peak      a UD factor; its height is the height just after the U
  valley    a DU factor; its height is the height just after the D
  up-run    a maximal block of consecutive U steps (length counted)
  down-run  a maximal block of consecutive D steps

The empty path has no features at all; by convention it satisfies every
restriction quad (it is the path that vacuously has "a peak at 0 but no
valley", and 0 never belongs to an avoid-set).
"""

from __future__ import annotations

from ._record import Record
from .intsets import RestrictionQuad


class InvalidPath(ValueError):
    pass


class NegativePrefix(InvalidPath):
    """Prefix sum went negative; ``position`` is the 1-based offending step."""

    def __init__(self, position: int):
        super().__init__(f"prefix sum negative after step {position}")
        self.position = position


class UnbalancedPath(InvalidPath):
    def __init__(self, final_height: int):
        super().__init__(f"path ends at height {final_height}, not 0")
        self.final_height = final_height


class DyckPath(Record):
    text: str

    def __post_init__(self):
        h = 0
        for i, c in enumerate(self.text):
            if c == "U":
                h += 1
            elif c == "D":
                h -= 1
                if h < 0:
                    raise NegativePrefix(i + 1)
            else:
                raise InvalidPath(f"unexpected character {c!r} at index {i}")
        if h != 0:
            raise UnbalancedPath(h)

    @classmethod
    def from_text(cls, text: str) -> "DyckPath":
        return cls(text)

    @property
    def semilength(self) -> int:
        return len(self.text) // 2

    def __str__(self) -> str:
        return self.text

    def __len__(self) -> int:
        return len(self.text)


def encode(text: str) -> int:
    """The code of a U/D word (module docstring)."""
    return int(text.replace("U", "1").replace("D", "0") or "0", 2)


def decode(code: int, length: int) -> str:
    """The U/D word of ``length`` letters whose code is ``code``, the
    inverse of :func:`encode`."""
    return bin(code | 1 << length)[3:].replace("1", "U").replace("0", "D")


def avoid_tables(quad: RestrictionQuad, bound: int) -> tuple[list[bool], ...]:
    """Membership of 0..max(bound, 1) in the peak, valley, up-run and
    down-run avoid-sets, as four boolean lists.

    Each table starts all False and every atom of the set marks its own
    members up to the bound (``upto``), so no value is looked up atom by
    atom.  Index 0 is never avoided: avoid-sets hold positive integers
    only, which is what exempts valleys at height 0.  A bound of the
    semilength covers every feature of a path.
    """
    bound = max(bound, 1)
    tables = []
    for s in (quad.peaks, quad.valleys, quad.up_runs, quad.down_runs):
        table = [False] * (bound + 1)
        for atom in s.atoms:
            for v in atom.upto(bound):
                table[v] = True
        tables.append(table)
    return tuple(tables)


def walk(steps, tables, state=(0, 0, "")):
    """The walker's ``(height, run length, last step)`` after the "U"/"D"
    ``steps`` from ``state``, or None once a peak, valley or completed run
    lands in its table, each feature checked as it ends.  A left fold, so
    walking ``a + b`` resumes ``a``'s walk on ``b``.
    """
    peak_t, valley_t, up_t, down_t = tables
    h, run, prev = state
    for s in steps:
        if s == "U":
            if prev == "D":
                if valley_t[h] or down_t[run]:
                    return None
                run = 1
            else:
                run += 1
            h += 1
        else:
            if prev == "U":
                if peak_t[h] or up_t[run]:
                    return None
                run = 1
            else:
                run += 1
            h -= 1
        prev = s
    return h, run, prev


def accepts(steps, tables, state=(0, 0, "")) -> bool:
    """True iff no feature of the balanced step sequence lands in its table:
    :func:`walk` from ``state`` (by default the empty prefix), then the
    check of the closing down-run.  ``tables`` comes from :func:`avoid_tables`.
    """
    end = walk(steps, tables, state)
    return end is not None and not tables[3][end[1]]


def satisfies(path: DyckPath, quad: RestrictionQuad) -> bool:
    """True iff none of the path's features lands in the matching avoid-set."""
    return accepts(path.text, avoid_tables(quad, path.semilength))
