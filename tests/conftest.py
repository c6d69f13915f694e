"""Shared strategies and samplers for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from hypothesis import settings, strategies as st

from dyckgram.families import FamilyInstance
from dyckgram.intsets import IntSet, Progression, Range, RestrictionQuad, Single
from dyckgram.oracle import enumerate_paths
from dyckgram.paths import DyckPath, InvalidPath, accepts, walk
from dyckgram.series import Poly

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@lru_cache(maxsize=None)
def unrestricted_paths(n: int):
    return tuple(enumerate_paths(n))


@st.composite
def dyck_paths(draw, max_semilength: int = 7):
    n = draw(st.integers(0, max_semilength))
    paths = unrestricted_paths(n)
    return paths[draw(st.integers(0, len(paths) - 1))]


def heights(path: DyckPath) -> tuple[int, ...]:
    """Partial sums after each step."""
    return tuple(accumulate(1 if c == "U" else -1 for c in path.text))


@dataclass(frozen=True)
class PathFeatures:
    peaks: tuple[int, ...]
    valleys: tuple[int, ...]
    up_runs: tuple[int, ...]
    down_runs: tuple[int, ...]


def features(path: DyckPath) -> PathFeatures:
    """All four feature lists, left to right: the definitional reference
    of the membership walk ``paths.walk``.

    A run is recorded when it ends (at a direction change, or at the end
    of the path).  Peak and valley heights are recorded at the same
    moments, so peaks interleave with up-run endings and valleys with
    down-run endings.
    """
    peaks: list[int] = []
    valleys: list[int] = []
    up_runs: list[int] = []
    down_runs: list[int] = []
    h = 0
    run = 0
    prev = ""
    for s in path.text:
        if s == "U":
            if prev == "D":
                valleys.append(h)
                down_runs.append(run)
                run = 1
            else:
                run += 1
            h += 1
        else:
            if prev == "U":
                peaks.append(h)
                up_runs.append(run)
                run = 1
            else:
                run += 1
            h -= 1
        prev = s
    if prev == "D":
        down_runs.append(run)
    return PathFeatures(tuple(peaks), tuple(valleys), tuple(up_runs), tuple(down_runs))


def midpoint_join(n: int, tables) -> tuple[list, dict]:
    """The midpoint join of semilength ``n`` alone, built from scratch: the
    definitional reference of ``oracle.joins``, which shares first halves
    and second halves between semilengths.

    The pruned first halves as (text, walker state), U before D, and each
    reachable midpoint state's accepted second halves.  The first halves
    (n steps) grow one step at a time, U before D, each step a walk from
    the prefix's state; a prefix is cut once its walk dies, its height
    goes below 0 or it has no room left to return to 0.  A forward pass
    walks the states reachable from the midpoint, pruned the same way, and
    a backward pass builds each state's suffixes, keeping the endings whose
    closing down-run passes ``paths.accepts``.
    """
    steps = 2 * n

    def step(i, state, s):
        # the walk's state after taking s as step i + 1, or None if it is cut
        nxt = walk(s, tables, state)
        return nxt if nxt is not None and 0 <= nxt[0] <= steps - i - 1 else None

    firsts = [("", (0, 0, ""))]
    for i in range(n):
        firsts = [(w + s, nxt) for w, state in firsts for s in "UD"
                  if (nxt := step(i, state, s))]
    # forward: the up and down successor of every reachable state per step
    moves: list[dict] = []
    states = {state for _, state in firsts}
    for i in range(n, steps):
        moves.append({state: (step(i, state, "U"), step(i, state, "D")) for state in states})
        states = {nxt for pair in moves[-1].values() for nxt in pair if nxt}
    # backward: the accepted suffixes from each state, U before D
    tails = {state: [""] for state in states if accepts("", tables, state)}
    for level in reversed(moves):
        tails = {state: ["U" + t for t in tails.get(up, ())]
                 + ["D" + t for t in tails.get(down, ())]
                 for state, (up, down) in level.items()}
    return firsts, tails


_FLIP = str.maketrans("UD", "DU")


def reverse_complement(path: DyckPath) -> DyckPath:
    """Reverse the step order and flip every step.

    An involution on Dyck paths.  It mirrors the height profile, so peak
    and valley heights are preserved while up-runs and down-runs trade
    places.
    """
    return DyckPath(path.text[::-1].translate(_FLIP))


def swapped_runs(quad: RestrictionQuad) -> RestrictionQuad:
    """The same quad with the two run-length sets exchanged: the quad that
    ``reverse_complement`` of a path satisfies when the path satisfies
    ``quad``."""
    return RestrictionQuad(quad.peaks, quad.valleys, quad.down_runs, quad.up_runs)


def is_parity_path(text: str) -> bool:
    """In the domain of ``bijection.path_to_walk``: a nonempty Dyck path
    text with no peak or valley at positive even height, read off
    :func:`features`."""
    try:
        found = features(DyckPath(text))
    except InvalidPath:
        return False
    return len(text) > 0 and not any(h > 0 and h % 2 == 0
                                     for h in found.peaks + found.valleys)


def downrun_variant_sides(instance: FamilyInstance) -> tuple[Poly, Poly]:
    """Down-run closed form with the union index started at k = 0.

    This variant keeps the explicit constant 1 for the empty path *and*
    lets the sum contribute its k = 0 term, so its right-hand side
    over-counts the empty path once: RHS - LHS = 1 exactly, when the true
    counting series is substituted for P.  It is read off the instance's
    stated system P = phi.
    """
    if instance.family not in ("F7", "F8"):
        raise ValueError(f"no k=0 variant for family {instance.family}")
    A, B = instance.params["A"], instance.params["B"]
    phi = instance.stated_system.equations["P"]
    # F8's phi subtracts z^B P^B; the variant adds it back on both sides
    back = Poly.z(B) * Poly.var("P", B) if B >= A else Poly.zero()
    return Poly.var("P") + back, Poly.const(1) + phi + back


_atoms = st.one_of(
    st.builds(Single, st.integers(1, 8)),
    st.integers(1, 8).flatmap(
        lambda lo: st.builds(Range, st.just(lo), st.integers(lo, lo + 6))),
    st.builds(Progression, st.integers(1, 4), st.integers(1, 6)),
)

int_sets = st.builds(lambda atoms: IntSet(tuple(atoms)), st.lists(_atoms, max_size=2))

quads = st.builds(RestrictionQuad, int_sets, int_sets, int_sets, int_sets)


def sample_quads(count: int, seed: int) -> list[RestrictionQuad]:
    """Deterministic quad corpus for fixed-size sweeps."""
    rng = random.Random(seed)

    def atom():
        kind = rng.randrange(3)
        if kind == 0:
            return Single(rng.randint(1, 8))
        if kind == 1:
            lo = rng.randint(1, 6)
            return Range(lo, lo + rng.randint(0, 5))
        return Progression(rng.randint(1, 4), rng.randint(1, 6))

    def int_set():
        return IntSet(tuple(atom() for _ in range(rng.randrange(3))))

    return [RestrictionQuad(int_set(), int_set(), int_set(), int_set())
            for _ in range(count)]
