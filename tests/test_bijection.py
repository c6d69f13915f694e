import pytest
from hypothesis import given, strategies as st

from conftest import is_parity_path
from dyckgram.bijection import (PARITY_QUAD, NotInCodomain, NotInDomain, Walk,
                                path_to_walk, verify_counts, walk_to_path)
from dyckgram.oracle import enumerate_paths
from dyckgram.paths import DyckPath, satisfies
from dyckgram.sequences import SeqId, reference


def walk(*steps):
    return Walk(tuple(steps))


def test_walk_basics():
    w = walk(1, -1, -1)
    assert w.heights() == (1, 0, -1)
    assert w.end() == -1
    assert len(w) == 3
    with pytest.raises(ValueError):
        Walk((1, 0))


def test_quad_meaning():
    assert satisfies(DyckPath.from_text("UUUDDD"), PARITY_QUAD)
    # peak at height 2
    assert not satisfies(DyckPath.from_text("UUDD"), PARITY_QUAD)
    # valley at height 2
    assert not satisfies(DyckPath.from_text("UUUDUDDD"), PARITY_QUAD)


def test_is_parity_path_excludes_empty():
    assert not is_parity_path(DyckPath.from_text(""))
    assert is_parity_path(DyckPath.from_text("UD"))


def test_forward_anchors():
    assert path_to_walk(DyckPath.from_text("UD")) == walk()
    assert path_to_walk(DyckPath.from_text("UUUDDD")) == walk(1, -1)
    assert path_to_walk(DyckPath.from_text("UDUDUD")) == walk(-1, 1)
    assert path_to_walk(DyckPath.from_text("UDUD")) == walk(-1)


def test_forward_rejections():
    with pytest.raises(NotInDomain):
        path_to_walk(DyckPath.from_text(""))
    with pytest.raises(NotInDomain):
        path_to_walk(DyckPath.from_text("UUDD"))


def test_inverse_anchors():
    assert walk_to_path(walk()).text == "UD"
    assert walk_to_path(walk(1, -1)).text == "UUUDDD"
    assert walk_to_path(walk(-1, 1)).text == "UDUDUD"
    assert walk_to_path(walk(-1), semilength=2).text == "UDUD"


def test_inverse_rejects_wrong_endpoint():
    # even length must end at 0, odd at -1
    with pytest.raises(NotInCodomain):
        walk_to_path(walk(1, 1))
    with pytest.raises(NotInCodomain):
        walk_to_path(walk(1))
    with pytest.raises(NotInCodomain):
        walk_to_path(walk(-1, 1), semilength=4)


def test_inverse_image_is_in_domain():
    for steps in [(-1,), (1, -1), (-1, 1), (1, -1, -1), (-1, 1, 1, -1)]:
        p = walk_to_path(Walk(steps))
        assert is_parity_path(p)


def test_path_counts_match_binomials():
    for m in range(9):
        assert len(enumerate_paths(m, PARITY_QUAD)) == reference(SeqId.PARITY_BINOM, m)


@given(st.integers(1, 7), st.data())
def test_round_trip_from_path(m, data):
    paths = enumerate_paths(m, PARITY_QUAD)
    p = data.draw(st.sampled_from(paths))
    w = path_to_walk(p)
    assert len(w) == m - 1
    assert walk_to_path(w, m) == p


@given(st.lists(st.sampled_from([1, -1]), max_size=8))
def test_round_trip_from_walk(steps):
    n = len(steps)
    w = Walk(tuple(steps))
    if sum(steps) != (0 if n % 2 == 0 else -1):
        with pytest.raises(NotInCodomain):
            walk_to_path(w)
        return
    p = walk_to_path(w)
    assert p.semilength == n + 1
    assert path_to_walk(p) == w


def test_verify_counts():
    report = verify_counts(8)
    assert report.passed
    assert [r.path_count for r in report.rows] == [1, 1, 1, 2, 3, 6, 10, 20, 35]
    assert all(r.walk_count == r.expected for r in report.rows)
