"""Paths without peaks or valleys at positive even height, and their
correspondence with free walks.

Such a path of semilength s is determined by its heights after the odd
steps 1, 3, ..., 2s - 1, and those read off as a +-1 walk of length
s - 1 starting at 0: the walk ends at 0 when s is odd and at -1 when s
is even.  The invariant is that the path's height after step 2k + 1 is
|2d + 1|, where d is the walk's height after k steps.  The first path
step is always U and the last always D, and each pair of path steps
(2k, 2k + 1), k = 1 .. s-1, is fixed by the height difference that walk
step k makes:

  U then U   +2, the walk moves away from the boundary between 0 and -1
  D then U    0, the walk crosses that boundary and the path returns to 0
  D then D   -2, the walk moves toward the boundary

A peak or valley of the path between positions 2k+1 and 2k+2 sits at an
odd height, and within a pair only the height-0 valley of "D then U" can
appear, which is why every walk produces a valid restricted path.  The
inverse reads the walk back off the heights, flipping the walk's side of
the boundary at each "D then U".  Crossings inherit a parity law: the
walk can step 0 -> -1 only at odd indices and -1 -> 0 only at even
indices (walk steps counted from 1).

A path is its U/D text and a walk the tuple of its +-1 steps; each map
checks its own argument, and :func:`verify_counts` certifies the
correspondence by enumerating both sides.
"""

from __future__ import annotations

from itertools import accumulate, product

from ._record import Record
from .intsets import IntSet, Progression, RestrictionQuad
from .oracle import (DEFAULT_ENUMERATION_CAP, check_joined, joined_words, joins,
                     pair_count)
from .paths import accepts, avoid_tables
from .sequences import SeqId, reference

#: no peak and no valley at positive even height
PARITY_QUAD = RestrictionQuad(peaks=IntSet((Progression(2, 2),)),
                              valleys=IntSet((Progression(2, 2),)))


class NotInDomain(ValueError):
    pass


class NotInCodomain(ValueError):
    pass


def path_to_walk(text: str) -> tuple[int, ...]:
    """Forward direction, a path's text to its walk's steps.  NotInDomain
    for the empty path (counted separately, not mapped), for text that is
    not a Dyck path, and for a peak or valley at positive even height."""
    if not text:
        raise NotInDomain("the empty path is counted separately, not mapped")
    heights = list(accumulate(1 if c == "U" else -1 for c in text))
    if set(text) - {"U", "D"} or min(heights) < 0 or heights[-1]:
        raise NotInDomain(f"{text!r} is not a Dyck path")
    if not accepts(text, avoid_tables(PARITY_QUAD, len(text) // 2)):
        raise NotInDomain("path has a peak or valley at positive even height")
    odd = heights[::2]  # heights after path steps 1, 3, ..., 2s - 1
    walk_heights, side = [0], 1
    for before, after in zip(odd, odd[1:]):
        if after == before:  # D then U: the walk crosses between 0 and -1
            side = -side
        walk_heights.append((side * after - 1) // 2)  # side * after = 2d + 1
    return tuple(b - a for a, b in zip(walk_heights, walk_heights[1:]))


#: the path steps (2k, 2k + 1) of each height difference they make
_PAIRS = {2: "UU", 0: "DU", -2: "DD"}


def walk_to_path(steps: tuple[int, ...], semilength: int | None = None) -> str:
    """Inverse direction, a walk's +-1 steps (else ValueError) to its path's text.

    A walk of even length must end at 0 (odd semilength), a walk of odd
    length at -1 (even semilength); anything else is outside the codomain,
    as is a stated semilength other than len(steps) + 1.
    """
    if any(s not in (1, -1) for s in steps):
        raise ValueError("walk steps must be +1 or -1")
    n, end = len(steps), sum(steps)
    expected_end = 0 if n % 2 == 0 else -1
    if end != expected_end:
        raise NotInCodomain(f"walk of length {n} must end at {expected_end}, ends at {end}")
    if semilength is not None and semilength != n + 1:
        raise NotInCodomain(f"walk of length {n} yields semilength {n + 1}, not {semilength}")
    odd = [abs(2 * d + 1) for d in accumulate(steps, initial=0)]
    pairs = (_PAIRS[after - before] for before, after in zip(odd, odd[1:]))
    return "U" + "".join(pairs) + "D"


class BijectionRow(Record):
    semilength: int
    path_count: int
    walk_count: int
    expected: int
    round_trip_ok: bool


class BijectionReport(Record):
    rows: tuple[BijectionRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.path_count == r.walk_count == r.expected and r.round_trip_ok
                   for r in self.rows)


def verify_counts(max_semilength: int,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> BijectionReport:
    """Enumerate both sides for every semilength and certify the bijection.

    Checks, per semilength m <= max_semilength: the path count matches the
    binomial reference ``SeqId.PARITY_BINOM``, the walk count matches it
    too, the forward map is injective onto the full walk set, and both
    composites are identities.  The paths are the texts of one pass of
    ``oracle.joins`` and the walks are step tuples, compared as they are.
    After the cap check, the 2^(m - 1) +-1 sequences tried and each m's
    paths are held to ``oracle.WORD_BUDGET`` before any is listed.
    """
    passes = joins(max_semilength, PARITY_QUAD, cap)  # checks the cap
    check_joined(1 << max_semilength >> 1, what="walk candidates")
    rows = []
    for m, join in enumerate(passes):
        check_joined(pair_count(join))
        paths = joined_words(join, m)
        expected = reference(SeqId.PARITY_BINOM, m)
        if m == 0:
            # the empty path, outside the mapped sets
            rows.append(BijectionRow(0, len(paths), 1, expected, True))
            continue
        end = 0 if m % 2 else -1  # the walks of length m - 1 in the codomain
        walks = [w for w in product((1, -1), repeat=m - 1) if sum(w) == end]
        images = [path_to_walk(p) for p in paths]
        ok = (set(images) == set(walks)
              and len(set(images)) == len(images)
              and all(walk_to_path(w, m) == p for p, w in zip(paths, images))
              and all(path_to_walk(walk_to_path(w)) == w for w in walks))
        rows.append(BijectionRow(m, len(paths), len(walks), expected, ok))
    return BijectionReport(tuple(rows))
