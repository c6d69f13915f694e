"""Ground-truth enumeration and counting of restricted Dyck paths.

Two deliberately independent methods:

* brute force: one unpruned depth-first scan over every path of the
  given semilength, with the definitional feature check applied to each
  complete path; enumeration of the satisfying paths is the same scan,
  collecting what it counts;
* a dynamic program over run states (height, current run direction,
  current run length), where peak/valley and run-length checks fire at
  direction changes and the final pending down-run is checked when the
  path closes.  One left-to-right sweep over 2*n_max steps reads off
  every semilength n as the closing states at height 0 after step 2n.

Counts are exact Python integers throughout.  Brute force is guarded by
an enumeration cap on the semilength; the DP has no cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .intsets import RestrictionQuad
from .paths import DyckPath, accepts, avoid_tables

DEFAULT_ENUMERATION_CAP = 16

_EMPTY_QUAD = RestrictionQuad()


class ResourceLimit(RuntimeError):
    def __init__(self, requested: int, cap: int, what: str = "semilength"):
        super().__init__(f"requested {what} {requested} exceeds cap {cap}")
        self.requested = requested
        self.cap = cap


class Method(Enum):
    BRUTE = "brute"
    DP = "dp"


@dataclass(frozen=True)
class CountTable:
    method: Method
    entries: dict[int, int]

    def sequence(self, n_max: int | None = None) -> tuple[int, ...]:
        if n_max is None:
            n_max = max(self.entries)
        return tuple(self.entries[n] for n in range(n_max + 1))


def check_cap(cap: int) -> None:
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")


def _check_semilength(n: int, cap: int) -> None:
    check_cap(cap)
    if n < 0:
        raise ValueError(f"semilength must be >= 0, got {n}")
    if n > cap:
        raise ResourceLimit(n, cap)


def _scan(n: int, tables, out: list[str] | None = None) -> int:
    """Visit every path of semilength n depth-first, U before D.

    Returns the number of leaves that pass the membership walk, and
    appends the text of each to ``out`` when one is given.
    """
    buf = [""] * (2 * n)
    total = 0

    def grow(i: int, h: int, rem: int):
        nonlocal total
        if rem == 0:
            if accepts(buf, tables):
                total += 1
                if out is not None:
                    out.append("".join(buf))
            return
        if h < rem:  # room to go up and still return
            buf[i] = "U"
            grow(i + 1, h + 1, rem - 1)
        if h > 0:
            buf[i] = "D"
            grow(i + 1, h - 1, rem - 1)

    grow(0, 0, 2 * n)
    return total


def language(n: int, quad: RestrictionQuad = _EMPTY_QUAD,
             cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[str, ...]:
    """Text of every satisfying path of semilength ``n``, in lexicographic
    order (U < D)."""
    _check_semilength(n, cap)
    out: list[str] = []
    _scan(n, avoid_tables(quad, n), out)
    return tuple(out)


def enumerate_paths(n: int, quad: RestrictionQuad = _EMPTY_QUAD,
                    cap: int = DEFAULT_ENUMERATION_CAP) -> list[DyckPath]:
    """All satisfying paths of semilength ``n`` in lexicographic order (U < D)."""
    return [DyckPath.from_text(w) for w in language(n, quad, cap)]


def count_brute(n_max: int, quad: RestrictionQuad = _EMPTY_QUAD,
                cap: int = DEFAULT_ENUMERATION_CAP) -> CountTable:
    _check_semilength(n_max, cap)
    tables = avoid_tables(quad, n_max)
    entries = {n: _scan(n, tables) for n in range(n_max + 1)}
    return CountTable(Method.BRUTE, entries)


def count_dp(n_max: int, quad: RestrictionQuad = _EMPTY_QUAD) -> CountTable:
    if n_max < 0:
        raise ValueError(f"semilength must be >= 0, got {n_max}")
    peak_t, valley_t, up_t, down_t = avoid_tables(quad, n_max)
    total_steps = 2 * n_max
    entries = {0: 1}
    # state after i steps: (height, run direction as +1/-1, run length);
    # a state at height 0 is a complete path that may still carry on, as
    # valleys at height 0 are never avoided
    states: dict[tuple[int, int, int], int] = {(1, 1, 1): 1}
    for i in range(1, total_steps):
        new: dict[tuple[int, int, int], int] = {}
        for (h, d, r), c in states.items():
            # step up
            h2 = h + 1
            if h2 <= total_steps - i - 1:  # must still be able to return to 0
                if d == 1:
                    key = (h2, 1, r + 1)
                    new[key] = new.get(key, 0) + c
                elif not (down_t[r] or valley_t[h]):
                    key = (h2, 1, 1)
                    new[key] = new.get(key, 0) + c
            # step down
            if h > 0:
                h2 = h - 1
                if d == -1:
                    key = (h2, -1, r + 1)
                    new[key] = new.get(key, 0) + c
                elif not (up_t[r] or peak_t[h]):
                    key = (h2, -1, 1)
                    new[key] = new.get(key, 0) + c
        states = new
        if i % 2:  # i + 1 steps taken: read off semilength (i + 1) / 2
            entries[(i + 1) // 2] = sum(c for (h, d, r), c in states.items()
                                        if h == 0 and d == -1 and not down_t[r])
    return CountTable(Method.DP, entries)
