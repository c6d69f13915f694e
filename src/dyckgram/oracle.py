"""Ground-truth enumeration and counting of restricted Dyck paths.

Two methods, deliberately independent of each other:

* one path generator on the walker of ``paths.walk``, a midpoint join:
  pruned first halves, each joined to the second halves of its walker
  state.  :func:`joins` builds the join of every semilength up to n_max in
  three straight passes that share work between them, on int ids: a
  walker state is interned once per call, its two successors walked once,
  id 0 standing for every cut one.  Forward, each semilength's first
  halves are the live one-letter extensions of the last one's (no first
  half is ever cut for want of room); top down, the ids read with r steps
  left, each successor cut once it leaves 0..r - 1; bottom up, the lists
  of second halves of r steps, indexed by id, are built from those of
  r - 1 steps, and only those two levels are alive at once.  Halves are
  carried as codes (``paths.encode``), their length being the semilength:
  a D-led second half is the very int of the shorter one.
  One join is read two ways: the language joins each pair
  (:func:`joined_codes`, and :func:`joined_words` as text), and brute
  force, a definitional count, adds up the lengths of those explicit
  lists of second halves without joining them (:func:`pair_count`); it
  reads no run class or height slot of the DP;
* a dynamic program over run states (height, run direction, run class),
  where peak/valley and run-length checks fire at direction changes and
  the final pending down-run is checked when the path closes.  A run's
  class is its length up to the horizon (T, p) of its avoid-set and its
  residue mod p above it, or, if that comes first, one class for every
  length above the largest avoided one up to n_max; so the states per
  height stay bounded however long the runs grow (the transfer-matrix
  view).  After i steps every height has the parity of i, so each (run
  direction, run class) is one Python int whose W-bit slot j counts the
  prefixes at height 2j + (i mod 2), W = 2*n_max + 1: a slot counts
  distinct prefixes of at most 2*n_max - 1 steps, so it never carries
  into the next.  A step is a few shifts and masks per class: an up-run
  moves up one slot from an odd height and a down-run down one from an
  even height (height 0 drops out), each staying put otherwise, and a
  peak or valley masks off the avoided heights of the runs it ends, one
  mask per parity.  One left-to-right sweep over 2*n_max steps reads off
  every semilength n as slot 0 of the closing down-runs after step 2n.

Both counters return a tuple whose entry n is the count at semilength n,
for n = 0 .. n_max.  Counts are exact Python integers throughout.  Brute
force and enumeration are guarded by an enumeration cap on the
semilength, and no caller joins more than ``WORD_BUDGET`` words
(:func:`check_joined`, read off :func:`pair_count` first); the DP by the
fixed budget ``DP_MAX_SEMILENGTH``, which it checks before it allocates
anything.
"""

from __future__ import annotations

from itertools import compress

from .intsets import IntSet, RestrictionQuad
from .paths import DyckPath, accepts, avoid_tables, decode, walk

DEFAULT_ENUMERATION_CAP = 16
# the DP holds up to ~n_max classes of (n_max // 2 + 1) * (2 * n_max + 1) bits;
# at n_max = 500, up-runs avoiding 500 and down-runs 499 (500 classes each)
# took 6.5 s and 59 MB (2 cores, Python 3.11.7), the unrestricted quad 0.05 s
DP_MAX_SEMILENGTH = 500
# the most words one call may join, and the most words one word expander
# may hold in its memo (distinct for a grammar, with repeats for an equation)
WORD_BUDGET = 10_000_000

_EMPTY_QUAD = RestrictionQuad()


class ResourceLimit(RuntimeError):
    def __init__(self, requested: int, cap: int, what: str = "semilength"):
        super().__init__(f"requested {what} {requested} exceeds cap {cap}")
        self.requested = requested
        self.cap = cap


def check_cap(cap: int) -> None:
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")


def check_semilength(n: int, cap: int) -> None:
    check_cap(cap)
    if n < 0:
        raise ValueError(f"semilength must be >= 0, got {n}")
    if n > cap:
        raise ResourceLimit(n, cap)


def check_joined(words: int, what: str = "joined words") -> None:
    """Raise ResourceLimit if ``words`` words (named by ``what``) exceed ``WORD_BUDGET``;
    a caller checks a join's :func:`pair_count` before it joins a word."""
    if words > WORD_BUDGET:
        raise ResourceLimit(words, WORD_BUDGET, what=what)


def pair_count(join) -> int:
    """The (first half, second half) pairs of a midpoint join, never joined."""
    _, ids, tails = join
    return sum(map(len, map(tails.__getitem__, ids)))


def joined_codes(join, n: int) -> tuple[int, ...]:
    """The codes of the words of semilength ``n``'s midpoint join, U-led
    first (descending)."""
    codes, ids, tails = join
    return tuple([h | b for a, i in zip(codes, ids) for h in (a << n,) for b in tails[i]])


def joined_words(join, n: int) -> tuple[str, ...]:
    """The words of semilength ``n``'s midpoint join, lexicographic with
    U < D; each half is decoded once, never each word.  A second half is
    one int in the lists of many states, so it is decoded once for all."""
    codes, ids, tails = join
    seconds = {t: decode(t, n) for t in {t for i in set(ids) for t in tails[i]}}
    text = {i: [seconds[t] for t in tails[i]] for i in set(ids)}
    return tuple([a + b for code, i in zip(codes, ids) for a in (decode(code, n),)
                  for b in text[i]])


def joins(n_max: int, quad: RestrictionQuad = _EMPTY_QUAD,
          cap: int = DEFAULT_ENUMERATION_CAP):
    """The midpoint join of each semilength 0..n_max on the walker of
    ``paths.walk``, unjoined: the codes (``paths.encode``) of the pruned
    first halves, U before D, the int id of each one's walker state (two
    share an id exactly when they share a state), and a list indexed by id
    of each state's accepted second halves, one empty list for all unread.

    Three straight passes share work between semilengths, and each state's
    two successors are walked once per call, when a pass first reads its
    id.  Forward, the first halves of n are the live one-letter extensions
    of those of n - 1: a prefix is cut once its walk dies or goes below 0,
    never for want of room, since i <= n steps reach no height above n.  A
    second half of r steps from a state is U or D, then one of r - 1 steps,
    cut once its walk dies or leaves 0..r - 1, so its list depends only on
    (r, state).  Top down, the ids read with r steps left are those of the
    first halves of r and the uncut successors of level r + 1.  Bottom up,
    level r's lists come from level r - 1's (at r = 0 by ``paths.accepts``):
    a U-led half is the new int 1 << (r - 1) | t, a D-led one the very int
    t.  Join r is yielded and level r - 1 dropped, so two levels stay
    alive.  No reader may change a list.
    """
    check_semilength(n_max, cap)
    return _joins(n_max, avoid_tables(quad, n_max))


def _joins(n_max, tables, lo=0):
    # the joins of semilengths lo..n_max: no state is read for a lower one.
    # Walker states are interned as int ids, id 0 standing for every cut one
    index, state, up, down = {}, [None], [0], [0]

    def intern(s):
        if s is None or s[0] < 0:
            return 0
        if (i := index.setdefault(s, len(state))) == len(state):
            state.append(s)
            up.append(None)
            down.append(None)
        return i

    def read(ids):
        for i in ids:
            if up[i] is None:
                up[i] = intern(walk("U", tables, state[i]))
                down[i] = intern(walk("D", tables, state[i]))

    # forward: each semilength's first halves, the last one's live extensions
    codes, ids = [0], [intern((0, 0, ""))]
    firsts = [(codes, ids)]
    for _ in range(n_max):
        read(set(ids))
        grown, grown_ids = [], []
        for w, i in zip(codes, ids):
            w <<= 1  # then U's digit 1 or D's 0, as ``paths.encode`` puts them
            if u := up[i]:
                grown.append(w | 1)
                grown_ids.append(u)
            if d := down[i]:
                grown.append(w)
                grown_ids.append(d)
        codes, ids = grown, grown_ids
        firsts.append((codes, ids))
    firsts[:lo] = [((), ())] * lo
    # top down: the ids read with r steps left, successors cut outside 0..r - 1
    levels, level = [], set()
    for r in range(n_max, 0, -1):
        level.update(firsts[r][1])
        levels.append(level)
        read(level)
        level = {up[i] for i in level if state[i][0] < r}  # heights here have r's parity
        level.update(map(down.__getitem__, levels[-1]))
        level.discard(0)
    # bottom up: each level's suffixes from the level below, which then
    # goes; an id a level does not read holds the one shared empty list
    level.update(firsts[0][1])
    empty = []
    tails = [empty] * len(state)
    for i in level:
        if accepts("", tables, state[i]):
            tails[i] = [0]
    for r in range(n_max + 1):
        if r:
            u = 1 << r - 1  # U ahead of r - 1 letters, as ``paths.encode`` puts it
            below, tails = tails, [empty] * len(state)
            for i in levels.pop():
                # level r - 1 holds the successors the top-down pass kept,
                # and no state outside 0..r - 1, so none it cut
                ups = below[up[i]]
                suffixes = [u | t for t in ups] if ups else []
                suffixes += below[down[i]]  # a copy: no list is shared
                tails[i] = suffixes
            del below
        if r >= lo:
            yield firsts[r] + (tails,)
        firsts[r] = None


def language(n: int, quad: RestrictionQuad = _EMPTY_QUAD,
             cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[str, ...]:
    """Text of every satisfying path of semilength ``n``, in lexicographic
    order: the last join of :func:`joins`, whose passes read the states of
    semilength n's first halves alone.  More than ``WORD_BUDGET`` paths
    raise ResourceLimit before any is joined."""
    check_semilength(n, cap)
    (join,) = _joins(n, avoid_tables(quad, n), lo=n)
    check_joined(pair_count(join))
    return joined_words(join, n)


def enumerate_paths(n: int, quad: RestrictionQuad = _EMPTY_QUAD,
                    cap: int = DEFAULT_ENUMERATION_CAP) -> list[DyckPath]:
    """All satisfying paths of semilength ``n`` in lexicographic order (U < D)."""
    return [DyckPath.from_text(w) for w in language(n, quad, cap)]


def count_brute(n_max: int, quad: RestrictionQuad = _EMPTY_QUAD,
                cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[int, ...]:
    """Number of paths of each semilength 0..n_max that pass the membership
    walk: the pairs of each midpoint join, one join alive at a time."""
    return tuple(map(pair_count, joins(n_max, quad, cap)))


def _run_successors(s: IntSet, avoided: list[bool]) -> list[int]:
    """The class after each run class of avoid-set ``s``, whose membership
    of 0..n_max is the table ``avoided``.

    With (T, p) = s.horizon(), run length r has class r up to T + p and
    T + 1 + (r - T - 1) % p above it, so membership of r is membership of
    its class, and the class after T + p is T + 1.  No run is longer than
    n_max, so no run longer than L, the largest avoided length in the
    table (0 if none), is avoided: if L + 1 < T + p, the classes stop at
    L + 1, which stands for every longer run and follows itself.  The
    classes never pass n_max; when that cuts the table short, its last
    entry is never followed.
    """
    t, p = s.horizon()
    last = max((r for r, a in enumerate(avoided) if a), default=0)
    top = min(t + p, last + 1, len(avoided) - 1)
    nxt = list(range(1, top + 2))
    if top == t + p:
        nxt[top] = t + 1
    elif top == last + 1:
        nxt[top] = top
    return nxt


def count_dp(n_max: int, quad: RestrictionQuad = _EMPTY_QUAD) -> tuple[int, ...]:
    if n_max < 0:
        raise ValueError(f"semilength must be >= 0, got {n_max}")
    if n_max > DP_MAX_SEMILENGTH:
        raise ResourceLimit(n_max, DP_MAX_SEMILENGTH, what="DP semilength")
    # a run class c <= n_max is itself a run length, so the run tables
    # index classes as they index lengths
    peak_t, valley_t, up_t, down_t = avoid_tables(quad, n_max)
    up_nxt = _run_successors(quad.up_runs, up_t)
    down_nxt = _run_successors(quad.down_runs, down_t)
    total_steps = 2 * n_max
    # ups[r] / downs[r]: after i steps W-bit slot j counts the prefixes at
    # height 2j + i % 2 in an up / down run of class r (module docstring)
    w = 2 * n_max + 1
    slot = (1 << w) - 1
    # not_peak[q] / not_valley[q]: every slot but those of the avoided
    # heights of parity q, where no peak / valley may be
    full = (1 << w * (n_max // 2 + 1)) - 1
    not_peak, not_valley = [full, full], [full, full]
    for masks, avoided in ((not_peak, peak_t), (not_valley, valley_t)):
        for h in compress(range(n_max + 1), avoided):
            masks[h % 2] -= slot << w * (h // 2)
    counts = [1]
    ups, downs = [0] * len(up_nxt), [0] * len(down_nxt)
    ups[1] = 1  # one step: height 1 (slot 0), an up-run of class 1
    # a down slot at height 0 is a complete path that may still carry on,
    # as valleys at height 0 are never avoided
    for i in range(1, total_steps):
        q = i % 2  # the parity of the heights after i steps
        # room: the slots of step i + 1's parity up to the highest height,
        # min(total_steps - i - 1, n_max), it can still return to 0 from
        room = (1 << w * ((min(total_steps - i, n_max + 1) + q) // 2)) - 1
        new_ups, new_downs = [0] * len(ups), [0] * len(downs)
        peaks = valleys = 0  # the runs whose class may end at this step
        # a run that cannot go on is skipped before its successor is looked
        # up, so a cut-short successor list is never read past its end
        for r, v in enumerate(ups):
            if v:
                if u := (v << w if q else v) & room:  # the up-run goes on
                    new_ups[up_nxt[r]] += u
                if not up_t[r]:
                    peaks += v
        for r, v in enumerate(downs):
            if v:
                if d := v if q else v >> w:  # the down-run goes on; height 0 drops out
                    new_downs[down_nxt[r]] += d
                if not down_t[r]:
                    valleys += v
        peaks, valleys = peaks & not_peak[q], valleys & not_valley[q]
        new_downs[1] += peaks if q else peaks >> w
        new_ups[1] += (valleys << w if q else valleys) & room
        ups, downs = new_ups, new_downs
        if q:  # i + 1 steps taken: read off semilength (i + 1) / 2
            counts.append(sum(v & slot for r, v in enumerate(downs) if not down_t[r]))
    return tuple(counts)
