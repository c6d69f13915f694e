import pytest
from hypothesis import given, strategies as st

from conftest import is_parity_path
from dyckgram.bijection import (PARITY_QUAD, NotInCodomain, NotInDomain, path_to_walk,
                                verify_counts, walk_to_path)
from dyckgram.oracle import language
from dyckgram.paths import accepts, avoid_tables
from dyckgram.sequences import SeqId, reference


def test_walk_basics():
    # a walk is a tuple of +-1 steps; any other step is rejected
    assert walk_to_path((-1,)) == "UDUD"
    for steps in ((1, 0), (2, -2), (1, 1, 1, -1, 0)):
        with pytest.raises(ValueError, match="must be [+]1 or -1"):
            walk_to_path(steps)


def test_quad_meaning():
    def ok(text):
        return accepts(text, avoid_tables(PARITY_QUAD, len(text) // 2))
    assert ok("UUUDDD")
    # peak at height 2
    assert not ok("UUDD")
    # valley at height 2
    assert not ok("UUUDUDDD")


def test_is_parity_path_excludes_empty():
    assert not is_parity_path("")
    assert is_parity_path("UD")
    assert not is_parity_path("UUDD")
    for text in ("DU", "UUD", "UDD", "UXD", "UXUD"):
        assert not is_parity_path(text)


def test_forward_anchors():
    assert path_to_walk("UD") == ()
    assert path_to_walk("UUUDDD") == (1, -1)
    assert path_to_walk("UDUDUD") == (-1, 1)
    assert path_to_walk("UDUD") == (-1,)


def test_forward_rejections():
    # the empty path, a peak or valley at positive even height, a negative
    # prefix, an unbalanced path and a bad letter are all outside the domain
    for text in ("", "UUDD", "UUUDUDDD", "DU", "UUD", "UDD", "UXD", "UXUD"):
        with pytest.raises(NotInDomain):
            path_to_walk(text)


def test_inverse_anchors():
    assert walk_to_path(()) == "UD"
    assert walk_to_path((1, -1)) == "UUUDDD"
    assert walk_to_path((-1, 1)) == "UDUDUD"
    assert walk_to_path((-1,), semilength=2) == "UDUD"


def test_inverse_rejects_wrong_endpoint():
    # even length must end at 0, odd at -1
    with pytest.raises(NotInCodomain):
        walk_to_path((1, 1))
    with pytest.raises(NotInCodomain):
        walk_to_path((1,))
    with pytest.raises(NotInCodomain):
        walk_to_path((-1, 1), semilength=4)


def test_inverse_image_is_in_domain():
    for steps in [(-1,), (1, -1), (-1, 1), (1, -1, -1), (-1, 1, 1, -1)]:
        p = walk_to_path(steps)
        assert is_parity_path(p)


def test_path_counts_match_binomials():
    for m in range(9):
        assert len(language(m, PARITY_QUAD)) == reference(SeqId.PARITY_BINOM, m)


@given(st.integers(1, 7), st.data())
def test_round_trip_from_path(m, data):
    p = data.draw(st.sampled_from(language(m, PARITY_QUAD)))
    w = path_to_walk(p)
    assert len(w) == m - 1
    assert set(w) <= {1, -1}
    assert walk_to_path(w, m) == p


@given(st.lists(st.sampled_from([1, -1]), max_size=8))
def test_round_trip_from_walk(steps):
    n = len(steps)
    w = tuple(steps)
    if sum(steps) != (0 if n % 2 == 0 else -1):
        with pytest.raises(NotInCodomain):
            walk_to_path(w)
        return
    p = walk_to_path(w)
    assert len(p) == 2 * (n + 1)
    assert path_to_walk(p) == w


def test_verify_counts():
    report = verify_counts(8)
    assert report.passed
    assert [r.path_count for r in report.rows] == [1, 1, 1, 2, 3, 6, 10, 20, 35]
    assert all(r.walk_count == r.expected for r in report.rows)
