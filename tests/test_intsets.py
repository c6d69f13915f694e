import pytest
from hypothesis import given

from conftest import int_sets, sample_quads, swapped_runs
from dyckgram._record import Record
from dyckgram.intsets import (BadProgression, IntSet, NonPositiveValue,
                              Progression, Range, RestrictionQuad, SetSyntaxError,
                              Single, parse_set)


def members(s: IntSet, bound: int = 40) -> set[int]:
    return {v for v in range(1, bound + 1) if s.contains(v)}


def test_empty_string_is_empty_set():
    s = parse_set("")
    assert s.is_empty()
    assert members(s) == set()


def test_single_atom():
    assert parse_set("5").atoms == (Single(5),)
    assert members(parse_set("5")) == {5}


def test_range_atom():
    assert parse_set("2..4").atoms == (Range(2, 4),)
    assert members(parse_set("2..4")) == {2, 3, 4}
    assert members(parse_set("3..3")) == {3}


def test_open_range_is_step_one_progression():
    assert parse_set("3..").atoms == (Progression(1, 3),)
    assert members(parse_set("3..")) == set(range(3, 41))


def test_progression_atom():
    assert parse_set("ap(2,3)").atoms == (Progression(2, 3),)
    assert members(parse_set("ap(2,3)"), 12) == {3, 5, 7, 9, 11}


def test_union_of_atoms():
    s = parse_set("1,4..6,ap(10,9)")
    assert members(s, 30) == {1, 4, 5, 6, 9, 19, 29}


def test_whitespace_tolerated():
    assert parse_set(" 2 , 4..6 , ap( 2 , 3 ) ") == parse_set("2,4..6,ap(2,3)")


def test_rendering_round_trips():
    for text in ("", "5", "2..4", "3..", "ap(2,3)", "1,4..6,ap(3,2)"):
        assert str(parse_set(str(parse_set(text)))) == str(parse_set(text))


def test_zero_rejected():
    with pytest.raises(NonPositiveValue) as e:
        parse_set("0")
    assert e.value.value == 0
    with pytest.raises(NonPositiveValue):
        parse_set("1,0..4")
    with pytest.raises(NonPositiveValue) as e:
        parse_set("3..0")
    assert e.value.value == 0


def test_bad_progression_rejected():
    with pytest.raises(BadProgression):
        parse_set("ap(0,3)")
    with pytest.raises(BadProgression):
        parse_set("ap(2,0)")


def test_syntax_errors_carry_positions():
    with pytest.raises(SetSyntaxError) as e:
        parse_set("x")
    assert e.value.position == 0
    with pytest.raises(SetSyntaxError) as e:
        parse_set("3,,4")
    assert e.value.position == 2
    with pytest.raises(SetSyntaxError):
        parse_set("-3")
    with pytest.raises(SetSyntaxError):
        parse_set("ap(2;3)")
    with pytest.raises(SetSyntaxError):
        parse_set("3..4 5")


def test_only_ascii_digits_are_integers():
    with pytest.raises(SetSyntaxError) as e:
        parse_set("²")
    assert e.value.position == 0
    with pytest.raises(SetSyntaxError):
        parse_set("ap(٣,٣)")
    with pytest.raises(SetSyntaxError):
        parse_set("2..٣")


def test_reversed_range_rejected():
    with pytest.raises(SetSyntaxError) as e:
        parse_set("5..3")
    assert e.value.position == 0


def test_membership_needs_positive_query():
    with pytest.raises(ValueError):
        parse_set("3").contains(0)


def test_progression_membership_matches_generated_values():
    # exhaustive check against the defining form {step*r + base}
    for step in range(1, 11):
        for base in range(1, 11):
            generated = {step * r + base for r in range(120)}
            p = Progression(step, base)
            for v in range(1, 101):
                assert p.contains(v) == (v in generated)


def test_quad_parse_and_emptiness():
    q = RestrictionQuad.parse(peaks="ap(2,3)", up_runs="3..")
    assert not q.is_empty()
    assert q.valleys.is_empty()
    assert RestrictionQuad.parse().is_empty()


def test_quad_swapped_runs():
    q = RestrictionQuad.parse(up_runs="2", down_runs="3..")
    s = swapped_runs(q)
    assert s.up_runs == q.down_runs and s.down_runs == q.up_runs
    assert s.peaks == q.peaks and s.valleys == q.valleys


def test_records_equal_by_class_and_fields():
    assert Range(1, 2) == Range(lo=1, hi=2)
    assert Range(1, 2) != Range(1, 3)
    assert Range(1, 2) != Progression(1, 2)
    assert Range(1, 2).__eq__(Progression(1, 2)) is NotImplemented
    assert Range(1, 2).__eq__((1, 2)) is NotImplemented
    assert parse_set("1,2..3") == IntSet((Single(1), Range(2, 3)))


def test_record_hash_is_the_hash_of_the_field_tuple():
    assert hash(Single(5)) == hash((5,))
    assert hash(Range(2, 4)) == hash((2, 4))
    q = RestrictionQuad.parse(peaks="1", down_runs="ap(2,3)")
    assert hash(q) == hash((q.peaks, q.valleys, q.up_runs, q.down_runs))
    assert len({Range(1, 2), Range(1, 2), Progression(1, 2)}) == 2


def test_record_repr():
    assert repr(Range(1, 2)) == "Range(lo=1, hi=2)"
    assert repr(parse_set("ap(2,3)")) == "IntSet(atoms=(Progression(step=2, base=3),))"
    assert repr(RestrictionQuad.parse(valleys="4")) == (
        "RestrictionQuad(peaks=IntSet(atoms=()), valleys=IntSet(atoms=(Single(value=4),)),"
        " up_runs=IntSet(atoms=()), down_runs=IntSet(atoms=()))")
    assert str(Range(1, 2)) == "1..2"


def test_records_are_frozen():
    r = Range(1, 2)
    with pytest.raises(AttributeError, match="cannot assign to field 'lo'"):
        r.lo = 5
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        r.extra = 5
    with pytest.raises(AttributeError, match="cannot delete field 'hi'"):
        del r.hi
    assert r == Range(1, 2) and vars(r) == {"lo": 1, "hi": 2}


def test_record_construction_checks_its_fields():
    with pytest.raises(TypeError, match="takes 2 positional arguments but 3 were given"):
        Range(1, 2, 3)
    with pytest.raises(TypeError, match=r"missing \['hi'\]"):
        Range(1)
    with pytest.raises(TypeError, match=r"unknown or repeated \['top'\]"):
        Range(1, top=2)
    with pytest.raises(TypeError, match=r"unknown or repeated \['lo'\]"):
        Range(1, 2, lo=1)
    assert Range(hi=2, lo=1) == Range(1, 2)
    with pytest.raises(TypeError, match="a field without a default follows a default"):
        class Bad(Record):
            lo: int = 1
            hi: int


def test_quad_defaults_are_four_empty_sets():
    q = RestrictionQuad()
    assert (q.peaks, q.valleys, q.up_runs, q.down_runs) == (IntSet(),) * 4
    assert q == RestrictionQuad.parse() and q.is_empty() and IntSet() == IntSet(())
    s = parse_set("3")
    assert RestrictionQuad(s) == RestrictionQuad(peaks=s) == RestrictionQuad.parse(peaks="3")
    assert RestrictionQuad(up_runs=s).up_runs == s and RestrictionQuad(up_runs=s).peaks == IntSet()


def test_record_replace():
    q = RestrictionQuad.parse(peaks="1", valleys="2")
    r = q._replace(valleys=parse_set("5"))
    assert r == RestrictionQuad.parse(peaks="1", valleys="5")
    assert q == RestrictionQuad.parse(peaks="1", valleys="2")
    assert q._replace() == q
    with pytest.raises(TypeError, match="unknown or repeated"):
        q._replace(hills=IntSet())


def _class_of(v: int, threshold: int, period: int) -> int:
    if v <= threshold + period:
        return v
    return threshold + 1 + (v - threshold - 1) % period


def _assert_classes_keep_membership(s: IntSet) -> None:
    t, p = s.horizon()
    for v in range(1, 301):
        assert s.contains(v) == s.contains(_class_of(v, t, p)), (str(s), v)


def test_horizon_examples():
    assert IntSet().horizon() == (0, 1)
    assert parse_set("ap(4,2),3..5").horizon() == (5, 4)
    assert parse_set("7,ap(2,1),ap(3,1)").horizon() == (7, 6)
    assert parse_set("2..9").horizon() == (9, 1)


def test_horizon_classes_keep_membership_on_corpora():
    from test_oracle import CORPUS
    for quad in CORPUS + sample_quads(40, seed=5077):
        for s in (quad.peaks, quad.valleys, quad.up_runs, quad.down_runs):
            _assert_classes_keep_membership(s)


@given(int_sets)
def test_horizon_classes_keep_membership(s):
    _assert_classes_keep_membership(s)
