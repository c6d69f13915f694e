import pytest
from hypothesis import given, strategies as st

from conftest import (PathFeatures, dyck_paths, features, heights, quads,
                      reverse_complement, sample_quads, swapped_runs, unrestricted_paths)
from dyckgram.intsets import RestrictionQuad
from dyckgram.paths import (DyckPath, NegativePrefix, UnbalancedPath, InvalidPath,
                            avoid_tables, decode, encode, satisfies)


def P(text: str) -> DyckPath:
    return DyckPath.from_text(text)


def test_valid_construction():
    assert P("").semilength == 0
    assert P("UUDD").semilength == 2
    assert str(P("UDUD")) == "UDUD"
    assert DyckPath("UD") == P("UD")
    assert P("UUDD").text == "UUDD"


def test_negative_prefix_position_is_one_indexed():
    with pytest.raises(NegativePrefix) as e:
        P("UDDU")
    assert e.value.position == 3
    with pytest.raises(NegativePrefix) as e:
        DyckPath("UDDU")
    assert e.value.position == 3
    with pytest.raises(NegativePrefix) as e:
        P("D")
    assert e.value.position == 1


def test_unbalanced_final_height():
    with pytest.raises(UnbalancedPath) as e:
        P("UU")
    assert e.value.final_height == 2
    with pytest.raises(UnbalancedPath) as e:
        P("UUD")
    assert e.value.final_height == 1


def test_rejects_other_letters():
    with pytest.raises(InvalidPath):
        P("UX")
    with pytest.raises(InvalidPath, match=r"^unexpected character 'X' at index 1$"):
        DyckPath("UX")


def test_path_record_validates_every_construction():
    with pytest.raises(UnbalancedPath):
        DyckPath("UUD")
    with pytest.raises(UnbalancedPath):
        DyckPath(text="UUD")
    with pytest.raises(NegativePrefix):
        P("UD")._replace(text="DU")
    assert P("UD")._replace(text="UUDD") == P("UUDD")
    assert repr(P("UD")) == "DyckPath(text='UD')"
    assert hash(P("UD")) == hash(("UD",))
    with pytest.raises(AttributeError):
        P("UD").text = "UUDD"


_UD_TEXT = st.text("UD", max_size=24)


@given(_UD_TEXT, _UD_TEXT)
def test_codes_round_trip_and_keep_text_order_at_one_length(t, other):
    assert decode(encode(t), len(t)) == t
    assert encode(t) < 2 ** len(t)
    u = (other + "D" * len(t))[:len(t)]  # another word of t's length
    assert (encode(t) < encode(u)) == (t < u)


def test_code_examples():
    assert encode("") == 0 and decode(0, 0) == ""
    assert encode("UDD") == 0b100 and decode(0b100, 3) == "UDD"
    assert encode("DDU") == encode("U") == 1
    assert decode(1, 3) == "DDU" and decode(1, 1) == "U"


def test_heights():
    assert heights(P("UUDD")) == (1, 2, 1, 0)
    assert heights(P("")) == ()


def test_features_examples():
    assert features(P("UUUDUDDD")) == PathFeatures(
        peaks=(3, 3), valleys=(2,), up_runs=(3, 1), down_runs=(1, 3))
    assert features(P("UDUDUD")) == PathFeatures(
        peaks=(1, 1, 1), valleys=(0, 0), up_runs=(1, 1, 1), down_runs=(1, 1, 1))
    assert features(P("UUDD")) == PathFeatures((2,), (), (2,), (2,))
    assert features(P("")) == PathFeatures((), (), (), ())


@given(dyck_paths())
def test_feature_count_invariants(path):
    f = features(path)
    if path.semilength == 0:
        assert f == PathFeatures((), (), (), ())
        return
    assert len(f.peaks) == len(f.valleys) + 1
    assert len(f.up_runs) == len(f.peaks)
    assert len(f.down_runs) == len(f.valleys) + 1
    assert sum(f.up_runs) == path.semilength == sum(f.down_runs)


def test_satisfies_examples():
    quad = RestrictionQuad.parse(peaks="ap(2,2)")
    assert not satisfies(P("UUDD"), quad)      # peak at 2
    assert satisfies(P("UDUD"), quad)          # peaks at 1 only
    assert satisfies(P("UDUD"), RestrictionQuad.parse(valleys="1.."))  # valley at 0 exempt
    assert not satisfies(P("UUDUDD"), RestrictionQuad.parse(valleys="1"))


def test_empty_path_satisfies_everything():
    quad = RestrictionQuad.parse(peaks="1..", valleys="1..",
                                 up_runs="1..", down_runs="1..")
    assert satisfies(P(""), quad)
    assert not satisfies(P("UD"), quad)


def test_reverse_complement_examples():
    assert reverse_complement(P("UUDD")) == P("UUDD")
    assert reverse_complement(P("UUDDUD")) == P("UDUUDD")
    assert reverse_complement(P("")) == P("")


@given(dyck_paths())
def test_reverse_complement_is_involution(path):
    assert reverse_complement(reverse_complement(path)) == path


@given(dyck_paths())
def test_reverse_complement_mirrors_features(path):
    f = features(path)
    g = features(reverse_complement(path))
    assert g.peaks == tuple(reversed(f.peaks))
    assert g.valleys == tuple(reversed(f.valleys))
    assert g.up_runs == tuple(reversed(f.down_runs))
    assert g.down_runs == tuple(reversed(f.up_runs))


@given(dyck_paths(max_semilength=6), quads)
def test_satisfaction_transfers_through_mirror(path, quad):
    assert satisfies(path, quad) == satisfies(reverse_complement(path),
                                              swapped_runs(quad))


def test_all_paths_of_small_semilengths_are_catalan_many():
    assert [len(unrestricted_paths(n)) for n in range(6)] == [1, 1, 2, 5, 14, 42]


def _assert_tables_match_membership(quad):
    sets = (quad.peaks, quad.valleys, quad.up_runs, quad.down_runs)
    members = [[False] + [s.contains(v) for v in range(1, 71)] for s in sets]
    for bound in range(71):
        want = tuple(m[:max(bound, 1) + 1] for m in members)
        assert avoid_tables(quad, bound) == want, (str(quad), bound)


def test_avoid_tables_match_membership_including_atoms_beyond_the_bound():
    far = [RestrictionQuad.parse(peaks="999", valleys="1..1000000000",
                                 up_runs="ap(1000000000,1)", down_runs="3,999,ap(1000000000,7)"),
           RestrictionQuad.parse(peaks="ap(1000000000,1000000000)", valleys="70..999",
                                 up_runs="5..71", down_runs="ap(7,64),71")]
    for quad in far + sample_quads(40, 4242):
        _assert_tables_match_membership(quad)


@given(quads)
def test_avoid_tables_match_membership_on_drawn_quads(quad):
    _assert_tables_match_membership(quad)
