import pytest

from dyckgram import sequences
from dyckgram.sequences import (GEN_CATALAN_IDENTITY, SeqId, identify,
                                reference)
from dyckgram.series import TruncatedSeries


def prefix(sid, k):
    return [reference(sid, n) for n in range(k)]


def test_reference_anchors():
    assert prefix(SeqId.CATALAN, 9) == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    assert prefix(SeqId.MOTZKIN, 9) == [1, 1, 2, 4, 9, 21, 51, 127, 323]
    assert prefix(SeqId.GEN_CATALAN, 9) == [1, 1, 1, 2, 4, 8, 17, 37, 82]
    assert prefix(SeqId.POWERS_OF_TWO, 7) == [1, 1, 2, 4, 8, 16, 32]
    assert prefix(SeqId.PARITY_BINOM, 9) == [1, 1, 1, 2, 3, 6, 10, 20, 35]
    assert prefix(SeqId.ALL_ONES, 5) == [1, 1, 1, 1, 1]


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        reference(SeqId.CATALAN, -1)
    with pytest.raises(ValueError, match="unknown sequence"):
        reference("catalan", 3)


def test_gen_catalan_recurrence_inline():
    # G_m = G_{m-1} + sum G_k G_{m-2-k}, independently of the module's recurrence
    g = [1, 1]
    for m in range(2, 20):
        g.append(g[m - 1] + sum(g[k] * g[m - 2 - k] for k in range(1, m - 1)))
    assert g == prefix(SeqId.GEN_CATALAN, 20)


def test_gen_catalan_linear_recurrence_matches_the_convolution_to_200():
    g = [1, 1]
    for m in range(2, 201):
        g.append(g[m - 1] + sum(g[k] * g[m - 2 - k] for k in range(1, m - 1)))
    assert [reference(SeqId.GEN_CATALAN, n) for n in range(201)] == g


def test_sequences_keeps_no_list_valued_module_state():
    # each term is computed per call; no module-level list grows with use
    assert not [name for name, value in vars(sequences).items() if isinstance(value, list)]


def test_gen_catalan_closed_form_matches_recurrence():
    series = TruncatedSeries(tuple(prefix(SeqId.GEN_CATALAN, 30)))
    assert GEN_CATALAN_IDENTITY.eval({"G": series}, 30) == TruncatedSeries.zero(30)


def test_identify_unique():
    assert identify([1, 1, 2, 5, 14]) == [SeqId.CATALAN]
    assert identify([1, 1, 2, 4, 9, 21]) == [SeqId.MOTZKIN]
    assert identify([1, 1, 2, 4, 8, 16]) == [SeqId.POWERS_OF_TWO]
    assert identify([1, 1, 1, 1, 1]) == [SeqId.ALL_ONES]


def test_identify_shared_prefixes():
    assert identify([1, 1, 2, 4]) == [SeqId.MOTZKIN, SeqId.POWERS_OF_TWO]
    assert identify([1, 1, 1, 2]) == [SeqId.GEN_CATALAN, SeqId.PARITY_BINOM]


def test_identify_no_match():
    assert identify([2, 7, 1, 8]) == []


def test_identify_needs_four_terms():
    with pytest.raises(ValueError):
        identify([1, 1, 2])
