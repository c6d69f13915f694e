import gc
from collections import Counter
from functools import lru_cache
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (features, midpoint_join, quads, sample_quads, swapped_runs,
                      unrestricted_paths)
from dyckgram.families import build, verify_pool
from dyckgram.grammar import lower
from dyckgram.intsets import RestrictionQuad
from dyckgram import oracle
from dyckgram.oracle import (ResourceLimit, count_brute, count_dp,
                             enumerate_paths, language)
from dyckgram.paths import accepts, avoid_tables, decode, encode, satisfies, walk
from dyckgram.series import solve

# a fixed corpus mixing family quads with arbitrary ones
CORPUS = [
    RestrictionQuad.parse(),
    RestrictionQuad.parse(peaks="ap(2,3)", up_runs="3.."),
    RestrictionQuad.parse(peaks="ap(2,3)", up_runs="4.."),
    RestrictionQuad.parse(up_runs="3.."),
    RestrictionQuad.parse(up_runs="ap(2,1)"),
    RestrictionQuad.parse(down_runs="ap(2,1)"),
    RestrictionQuad.parse(up_runs="1..1", down_runs="1..1"),
    RestrictionQuad.parse(peaks="ap(2,2)", valleys="ap(2,2)"),
    RestrictionQuad.parse(valleys="2..3", down_runs="2"),
    RestrictionQuad.parse(peaks="1", valleys="1", up_runs="4..", down_runs="ap(3,2)"),
] + sample_quads(6, seed=411)


def test_enumeration_order_puts_up_before_down():
    assert [p.text for p in enumerate_paths(2)] == ["UUDD", "UDUD"]
    got = [p.text for p in enumerate_paths(4)]
    assert got == sorted(got, key=lambda w: w.replace("U", "A"))
    assert got[0] == "UUUUDDDD" and got[-1] == "UDUDUDUD"


def test_enumerate_semilength_zero():
    assert [p.text for p in enumerate_paths(0)] == [""]


def test_enumerate_applies_restrictions():
    quad = RestrictionQuad.parse(up_runs="ap(2,1)")
    got = [p.text for p in enumerate_paths(4, quad)]
    assert got == ["UUUUDDDD", "UUDUUDDD", "UUDDUUDD"]


def test_unrestricted_counts_are_catalan():
    expected = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)
    assert count_brute(10) == expected
    assert count_dp(10) == expected


def test_count_table_shape():
    assert count_brute(3) == (1, 1, 2, 5)


def test_restricted_count_examples():
    doubling = RestrictionQuad.parse(peaks="ap(2,3)", up_runs="3..")
    assert count_brute(8, doubling) == (1, 1, 2, 4, 8, 16, 32, 64, 128)
    even_up_runs = RestrictionQuad.parse(up_runs="ap(2,1)")
    assert count_brute(4, even_up_runs) == (1, 0, 1, 0, 3)
    even_down_runs = RestrictionQuad.parse(down_runs="ap(2,1)")
    assert count_dp(4, even_down_runs) == (1, 0, 1, 0, 3)


def test_methods_agree_on_corpus():
    for quad in CORPUS:
        assert count_brute(9, quad) == count_dp(9, quad), str(quad)


def test_methods_agree_deeper_on_a_few_quads():
    for quad in CORPUS[1:3]:
        assert count_brute(12, quad) == count_dp(12, quad), str(quad)


def test_methods_agree_on_census_quads(monkeypatch):
    # the benchmark's census shape: every avoid-set restricted, n up to 12
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    from harness import census_quads
    census = census_quads()
    assert len(census) == 24
    assert all(s.atoms for q in census for s in (q.peaks, q.valleys, q.up_runs, q.down_runs))
    for quad in census:
        assert count_brute(12, quad) == count_dp(12, quad), str(quad)


def _check_joins(quad, n_max):
    # per semilength, the same first halves in the same order as a join
    # built from scratch for that semilength alone, each first half's id
    # holding the reference suffix list of its walker state, as codes, and
    # the same texts once decoded; two first halves share an id exactly
    # when they share a walker state
    tables = avoid_tables(quad, n_max)
    got = list(oracle.joins(n_max, quad, cap=n_max))
    want = [midpoint_join(n, tables) for n in range(n_max + 1)]
    assert len(got) == len(want), str(quad)
    for n, ((codes, ids, tails), (firsts, suffixes)) in enumerate(zip(got, want)):
        assert codes == [encode(a) for a, _ in firsts], (str(quad), n)
        assert [decode(a, n) for a in codes] == [a for a, _ in firsts], (str(quad), n)
        states = [walk(decode(a, n), tables) for a in codes]
        assert states == [state for _, state in firsts], (str(quad), n)
        assert len(ids) == len(codes), (str(quad), n)
        assert len(set(zip(ids, states))) == len(set(ids)) == len(set(states)), (str(quad), n)
        for i, state in zip(ids, states):
            assert tails[i] == list(map(encode, suffixes[state])), (str(quad), n)
            assert [decode(t, n) for t in tails[i]] == suffixes[state], (str(quad), n)


def test_joins_equal_each_semilength_built_alone(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    from harness import census_quads
    for quad in census_quads():
        _check_joins(quad, 12)
    for family, params in verify_pool():
        _check_joins(build(family, **params).quad, 10)
    _check_joins(RestrictionQuad(), 14)


@given(quads, st.integers(0, 10))
def test_joins_equal_each_semilength_built_alone_on_drawn_quads(quad, n_max):
    _check_joins(quad, n_max)


def test_joins_keep_no_suffix_list_two_semilengths_back():
    # while joins advances to semilength r, the suffix lists of r - 2
    # are the caller's alone: only two levels of steps left stay alive
    it = oracle.joins(10, cap=10)
    for _ in range(6):
        _, ids, held = next(it)
    next(it), next(it)
    suffixes = held[ids[0]]
    assert suffixes and gc.get_referrers(suffixes) == [held]


def test_joins_share_only_the_empty_list(monkeypatch):
    # within one join every id a level reads has a list of its own, and
    # every other id (id 0, the cut successor, among them) the one shared
    # empty list, which no pass extends
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    from harness import census_quads
    for quad in census_quads() + [RestrictionQuad()]:
        empty = None
        for codes, ids, tails in oracle.joins(12, quad, cap=12):
            empty = tails[0] if empty is None else empty
            assert tails[0] is empty, str(quad)
            assert all(tails[i] is not empty for i in ids), str(quad)
            live = [t for t in tails if t is not empty]
            assert len(set(map(id, live))) == len(live), str(quad)
        assert empty == [], str(quad)


def test_language_reads_one_semilength(monkeypatch):
    # language(n) is the last join of joins(n), but its passes read the
    # states of semilength n's first halves alone.  A state is walked once
    # per call, and joins(n) reads every state language(n) reads, so the
    # language walks no more; on the census quads it judges fewer end
    # states in all
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    from harness import census_quads
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(oracle, "walk", counting("walk", walk))
    monkeypatch.setattr(oracle, "accepts", counting("accepts", accepts))
    totals = {"joins": Counter(), "language": Counter()}
    for quad in census_quads():
        for n in (7, 12):
            calls.clear()
            *_, last = oracle.joins(n, quad, cap=n)
            from_joins = Counter(calls)
            calls.clear()
            assert language(n, quad, cap=n) == oracle.joined_words(last, n), (str(quad), n)
            assert calls["walk"] <= from_joins["walk"], (str(quad), n)
            totals["joins"] += from_joins
            totals["language"] += calls
    assert totals["language"]["accepts"] < totals["joins"]["accepts"]


def test_a_join_leaves_nothing_behind_in_the_module():
    # the successor table is a local of one call: brute force and the
    # language leave the module's names bound to the same objects, and
    # its containers as they were
    def snapshot():
        return {name: (value, value.copy() if isinstance(value, (dict, list, set)) else None)
                for name, value in vars(oracle).items()}

    before = snapshot()
    for quad in CORPUS[:4]:
        count_brute(10, quad)
        language(8, quad)
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[name][0] is value and after[name][1] == held
               for name, (value, held) in before.items())


def test_enumeration_matches_counts_and_satisfaction():
    for quad in CORPUS:
        paths = enumerate_paths(7, quad)
        assert all(satisfies(p, quad) for p in paths)
        assert len(paths) == count_brute(7, quad)[7]
        assert len(paths) == count_dp(7, quad)[7]


def test_one_sweep_reads_every_semilength_as_a_sweep_to_it_would():
    # the return-to-zero height bound depends on n_max; a longer sweep
    # keeps extra states, which must not leak into the shorter counts
    for quad in CORPUS:
        long = count_dp(20, quad)
        for k in range(21):
            assert long[:k + 1] == count_dp(k, quad), (str(quad), k)


def test_dp_matches_series_beyond_brute_force_reach():
    n = 400
    for inst in (build("F1"), build("F2"), build("F3"), build("F6", A=1, B=3)):
        series = solve(lower(inst.body), n + 1)["P"].coeffs
        assert count_dp(n, inst.quad) == series, str(inst)
    assert count_dp(n) == tuple(comb(2 * k, k) // (k + 1) for k in range(n + 1))


def test_dp_matches_series_where_run_classes_wrap():
    # at n = 60 every run class of these quads wraps round its period many
    # times; at the brute-force depths most never leave the identity range
    for inst in (build(f, **p) for f, p in verify_pool()):
        series = solve(lower(inst.body), 61)["P"].coeffs
        assert count_dp(60, inst.quad) == series, str(inst)


def test_dp_run_tables_stay_within_the_semilength(monkeypatch):
    # a huge range or step must not size a table: no run outgrows n
    n = 8
    sizes = []
    successors = oracle._run_successors

    def recording(s, avoided):
        nxt = successors(s, avoided)
        sizes.append(len(nxt))
        return nxt

    monkeypatch.setattr(oracle, "_run_successors", recording)
    for quad in (RestrictionQuad.parse(up_runs="1..1000000000"),
                 RestrictionQuad.parse(down_runs="ap(1000000000,1)")):
        sizes.clear()
        assert count_dp(n, quad) == count_brute(n, quad), str(quad)
        assert sizes and max(sizes) <= n + 1, str(quad)


def test_dp_lengths_above_every_avoided_one_share_a_class():
    # no run of a path of semilength n is longer than n, so avoided lengths
    # above n restrict nothing and cost no classes
    far = RestrictionQuad.parse(up_runs="3,999", down_runs="998")
    assert oracle._run_successors(far.up_runs, avoid_tables(far, 64)[2]) == [1, 2, 3, 4, 4]
    assert oracle._run_successors(far.down_runs, avoid_tables(far, 64)[3]) == [1, 1]
    assert count_dp(64, far) == count_dp(64, RestrictionQuad.parse(up_runs="3"))
    assert count_dp(64, RestrictionQuad.parse(up_runs="ap(7,300)")) == count_dp(64)
    assert count_dp(10, far) == count_brute(10, far)


# --- differential check against a per-state reference DP ------------------

def _reference_dp(n_max, quad=RestrictionQuad()):
    """The run-state DP one state at a time: a dict keyed by (height, run
    direction as +1/-1, run length), updated entry by entry on every step.
    No run class and no horizon: a run longer than L, the largest avoided
    length of its direction up to n_max, is never avoided, so its length
    is kept as L + 1."""
    peak_t, valley_t, up_t, down_t = avoid_tables(quad, n_max)
    up_cap, down_cap = (1 + max((r for r, a in enumerate(t) if a), default=0)
                        for t in (up_t, down_t))
    total_steps = 2 * n_max
    counts = [1]
    states = {(1, 1, 1): 1}
    for i in range(1, total_steps):
        new = {}
        for (h, d, r), c in states.items():
            # step up, if it can still return to 0
            if h + 1 <= total_steps - i - 1:
                if d == 1:
                    key = (h + 1, 1, min(r + 1, up_cap))
                    new[key] = new.get(key, 0) + c
                elif not (down_t[r] or valley_t[h]):
                    key = (h + 1, 1, 1)
                    new[key] = new.get(key, 0) + c
            # step down
            if h > 0:
                if d == -1:
                    key = (h - 1, -1, min(r + 1, down_cap))
                    new[key] = new.get(key, 0) + c
                elif not (up_t[r] or peak_t[h]):
                    key = (h - 1, -1, 1)
                    new[key] = new.get(key, 0) + c
        states = new
        if i % 2:
            counts.append(sum(c for (h, d, r), c in states.items()
                              if h == 0 and d == -1 and not down_t[r]))
    return tuple(counts)


def test_dp_matches_the_per_state_reference():
    far = [RestrictionQuad.parse(up_runs="ap(7,300)"),
           RestrictionQuad.parse(up_runs="3,999", down_runs="998")]
    corpus = ([build(f, **p).quad for f, p in verify_pool()] + CORPUS + far
              + sample_quads(20, 9129) + sample_quads(60, 77))
    for quad in corpus:
        for n in (0, 1, 2, 7, 20, 64):
            assert count_dp(n, quad) == _reference_dp(n, quad), (str(quad), n)
    # peaks, then valleys, avoiding only even heights (ap(2,2)) or only odd
    # ones (ap(2,1)), alone and with a run restriction: a peak or valley
    # mask read at the wrong parity of the step's heights changes the counts
    parities = [RestrictionQuad.parse(**{turn: heights}, **runs)
                for turn in ("peaks", "valleys") for heights in ("ap(2,2)", "ap(2,1)")
                for runs in ({}, {"down_runs": "2"})]
    for quad in parities:
        for n in (*range(6), 63, 64):
            assert count_dp(n, quad) == _reference_dp(n, quad), (str(quad), n)


@given(quads, st.integers(0, 12))
def test_dp_matches_the_per_state_reference_on_drawn_quads(quad, n):
    assert count_dp(n, quad) == _reference_dp(n, quad)


def test_dp_edge_cases():
    assert count_dp(0) == (1,)
    assert count_dp(1) == (1, 1)
    # every peak height or every up-run length avoided: only the empty path
    no_peaks = RestrictionQuad.parse(peaks="1..")
    assert count_dp(9, no_peaks) == (1,) + (0,) * 9
    huge = RestrictionQuad.parse(up_runs="1..1000000000")
    assert count_dp(3, huge) == (1, 0, 0, 0)
    for quad in (no_peaks, huge):
        assert count_dp(3, quad) == _reference_dp(3, quad), str(quad)


@given(quads, st.integers(0, 6))
@settings(max_examples=40)
def test_counting_respects_mirror_symmetry(quad, n):
    assert count_dp(n, quad)[n] == count_dp(n, swapped_runs(quad))[n]


def test_mirror_symmetry_at_depth_ten():
    for quad in CORPUS[:6]:
        assert count_dp(10, quad) == count_dp(10, swapped_runs(quad))


def test_enumeration_cap():
    with pytest.raises(ResourceLimit):
        enumerate_paths(17)
    with pytest.raises(ResourceLimit):
        count_brute(17)
    with pytest.raises(ResourceLimit):
        enumerate_paths(5, cap=4)
    assert count_dp(17)[17] == 129644790  # the DP is not capped


def test_negative_semilength_rejected():
    with pytest.raises(ValueError):
        enumerate_paths(-1)
    with pytest.raises(ValueError):
        count_brute(-1)
    with pytest.raises(ValueError):
        count_dp(-1)


def _satisfies_by_definition(path, quad):
    # the rule as stated: no feature in its avoid-set, valleys at 0 exempt
    f = features(path)
    return not (any(quad.peaks.contains(v) for v in f.peaks)
                or any(v > 0 and quad.valleys.contains(v) for v in f.valleys)
                or any(quad.up_runs.contains(v) for v in f.up_runs)
                or any(quad.down_runs.contains(v) for v in f.down_runs))


def test_membership_rule_matches_its_definition():
    paths = [p for n in range(9) for p in unrestricted_paths(n)]
    for quad in CORPUS:
        for p in paths:
            assert satisfies(p, quad) == _satisfies_by_definition(p, quad), (p.text, str(quad))


def _end_height(word):
    """Height after ``word``, or None if it dips below 0."""
    h = 0
    for s in word:
        h += 1 if s == "U" else -1
        if h < 0:
            return None
    return h


@lru_cache(maxsize=None)
def _dyck_words(n):
    """Every Dyck word of semilength n, by filtering the full product of
    U/D words (independent of the oracle's midpoint join)."""
    return [w for w in map("".join, product("UD", repeat=2 * n)) if _end_height(w) == 0]


def test_pruned_language_counts_as_brute_force_does():
    # brute force adds up the unjoined (first half, second half) pairs of
    # the midpoint join: their number must be the length of the joined list
    for quad in CORPUS:
        brute = count_brute(12, quad)
        for n in range(13):
            assert len(language(n, quad)) == brute[n], (str(quad), n)


def test_pruned_language_is_the_filtered_word_list():
    for n in range(9):
        for quad in CORPUS:
            tables = avoid_tables(quad, n)
            kept = [w for w in _dyck_words(n) if accepts(w, tables)]
            assert list(language(n, quad)) == kept, (str(quad), n)


@given(quads)
@settings(max_examples=25)
def test_pruned_language_is_the_filtered_word_list_on_drawn_quads(quad):
    for n in range(9):
        tables = avoid_tables(quad, n)
        got = list(language(n, quad))
        assert got == [w for w in _dyck_words(n) if accepts(w, tables)], (str(quad), n)
        assert len(set(got)) == len(got), (str(quad), n)


def test_pruned_language_prunes_both_halves(monkeypatch):
    # one path per semilength, against exponentially many unpruned first
    # halves and second halves: only live states may be walked, so the
    # walks stay within a small polynomial in n, for the language and for
    # brute force over every semilength up to n
    calls = limit = 0

    def counting(verdict):
        def counted(*args):
            nonlocal calls
            calls += 1
            assert calls <= limit, f"more than {limit} walks at n = {n}"
            return verdict(*args)
        return counted

    monkeypatch.setattr(oracle, "walk", counting(walk))
    monkeypatch.setattr(oracle, "accepts", counting(accepts))
    inst = build("F6", A=1, B=2)
    for n in (60, 200):
        calls, limit = 0, 2 * n * n
        got = language(n, inst.quad, cap=n)
        assert len(got) == count_dp(n, inst.quad)[n] == 1, n
        assert calls > 0
    n = 60
    calls, limit = 0, n ** 3
    assert count_brute(n, inst.quad, cap=n) == count_dp(n, inst.quad)
    assert calls > 0


def test_brute_force_counts_the_filtered_word_list():
    # the midpoint split and its halves against an independent generator
    for quad in CORPUS:
        brute = count_brute(8, quad)
        tables = avoid_tables(quad, 8)
        for n in range(9):
            kept = sum(accepts(w, tables) for w in _dyck_words(n))
            assert brute[n] == kept, (str(quad), n)


@given(quads)
@settings(max_examples=25)
def test_brute_force_counts_the_filtered_word_list_on_drawn_quads(quad):
    # drawn quads reach cases CORPUS may miss: second halves that start
    # with U, second halves of a single run, the single-run D^n
    brute = count_brute(8, quad)
    tables = avoid_tables(quad, 8)
    for n in range(9):
        assert brute[n] == sum(accepts(w, tables) for w in _dyck_words(n)), (str(quad), n)


def _check_fold(quad, n_max=8):
    tables = avoid_tables(quad, n_max)
    for n in range(n_max + 1):
        for p in _dyck_words(n):
            whole = accepts(p, tables)
            for i in range(len(p) + 1):
                state = walk(p[:i], tables)
                resumed = state is not None and accepts(p[i:], tables, state)
                assert resumed == whole, (str(quad), p, i)


def test_walk_resumes_at_every_split_point():
    for quad in CORPUS:
        _check_fold(quad)


@given(quads)
@settings(max_examples=25)
def test_walk_resumes_at_every_split_point_on_drawn_quads(quad):
    _check_fold(quad)


def test_pruned_language_reaches_past_the_recursion_limit():
    quad = RestrictionQuad.parse(up_runs="2..", down_runs="2..")
    assert language(600, quad, cap=600) == ("UD" * 600,)
