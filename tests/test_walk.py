"""The abacus walk behind the per-value character views.

A class's first value is a backward walk from the label; a second,
different label at the class walks the class's whole column, and later
values there are lookups.  Both directions must give the same values and
reject the same bad labels.
"""

import re
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dweyl.bchar import BClassType, b_char_value, b_classes
from dweyl.dchar import DClassType, DIrrLabel, d_char_value, d_classes, d_irr_labels, make_irr_label
from dweyl.partitions import enumerate_bipartitions, enumerate_partitions
from dweyl.symchar import column, memo, sym_char_value

VIEWS = {
    "S": (sym_char_value, enumerate_partitions, enumerate_partitions),
    "B": (b_char_value, enumerate_bipartitions, b_classes),
    "D": (d_char_value, d_irr_labels, d_classes),
}


def both_directions(view, label, other, cls):
    """label's value at cls asked first (a backward walk), and asked after
    a different label (read from the column)."""
    memo.cache_clear()
    single = view(label, cls)
    memo.cache_clear()
    column.cache_clear()
    view(other, cls)
    whole = view(label, cls)
    assert column.cache_info().currsize >= 1
    return single, whole


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(VIEWS)), n=st.integers(1, 10), data=st.data())
def test_single_value_walk_equals_column(kind, n, data):
    view, labels_of, classes_of = VIEWS[kind]
    labels = labels_of(n)
    assume(len(labels) > 1)
    label, other = data.draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True))
    cls = data.draw(st.sampled_from(classes_of(n)))
    single, whole = both_directions(view, label, other, cls)
    assert single == whole


def test_rank_one_values_walk_no_column():
    memo.cache_clear()
    column.cache_clear()
    assert sym_char_value((1,), (1,)) == 1
    assert b_char_value(((), (1,)), BClassType((), (1,))) == -1
    assert column.cache_info().currsize == 0


def test_one_row_walks_no_column():
    memo.cache_clear()
    column.cache_clear()
    labels, classes = d_irr_labels(10), d_classes(10)
    assert len(classes) == 251
    row = [d_char_value(labels[40], c) for c in classes]
    assert column.cache_info().currsize == 0
    assert row[classes.index(DClassType((1,) * 10, (), None))] > 0
    identity = DClassType((1,) * 10, (), None)
    d_char_value(labels[41], identity)
    assert column.cache_info().currsize == 1
    assert d_char_value(labels[40], identity) == row[classes.index(identity)]


def test_degenerate_row_walks_no_column():
    memo.cache_clear()
    column.cache_clear()
    chi = make_irr_label((3, 1), (3, 1), -1)
    row = [d_char_value(chi, c) for c in d_classes(8)]
    assert column.cache_info().currsize == 0
    memo.cache_clear()
    assert row == [d_char_value(chi, c) for c in d_classes(8)]


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: sym_char_value((1500,), (1,) * 1500), 1),
        (lambda: sym_char_value((1,) * 1500, (1500,)), -1),
        (lambda: b_char_value(((1500,), ()), BClassType((1,) * 1500, ())), 1),
        (lambda: b_char_value(((), (1500,)), BClassType((), (1,) * 1500)), 1),
        (lambda: d_char_value(make_irr_label((1500,), ()), DClassType((1,) * 1500, (), None)), 1),
    ],
)
def test_fifteen_hundred_parts_answer_fast(call, expected):
    memo.cache_clear()
    start = time.perf_counter()
    assert call() == expected
    assert time.perf_counter() - start < 1.0


# Bad labels: each is rejected the same way whether its class has no
# value yet (the backward walk would run) or already holds its column.

BAD_LABELS = [
    (sym_char_value, (1, 2), (3,), [(3,), (2, 1)], "[1,2] is not a partition"),
    (b_char_value, ((1, 2), ()), BClassType((3,), ()), [((3,), ()), ((2, 1), ())], "[1,2] is not a partition"),
    (
        d_char_value,
        DIrrLabel(((2,), (1,)), 1),
        DClassType((3,), (), None),
        [make_irr_label((3,), ()), make_irr_label((2,), (1,))],
        "label ([2],[1]) is non-degenerate; no sign allowed",
    ),
    (
        d_char_value,
        DIrrLabel(((1,), (2,)), 0),
        DClassType((3,), (), None),
        [make_irr_label((3,), ()), make_irr_label((2,), (1,))],
        "label ([1],[2]) is not canonical: write ([2],[1])",
    ),
    (d_char_value, DIrrLabel(((2,), (2,)), 0), DClassType((4,), (), 1), [make_irr_label((4,), ())], "degenerate and needs a sign"),
    (sym_char_value, (2,), (1, 2), [], "[1,2] is not a partition"),
    (d_char_value, make_irr_label((3,), ()), DClassType((3,), (), 1), [], "+/- tag"),
]


@pytest.mark.parametrize("view, label, cls, warm, message", BAD_LABELS)
def test_bad_labels_rejected_in_both_directions(view, label, cls, warm, message):
    memo.cache_clear()
    with pytest.raises(ValueError, match=re.escape(message)):
        view(label, cls)
    for good in warm:
        view(good, cls)
    entries = memo.cache_info().currsize
    with pytest.raises(ValueError, match=re.escape(message)):
        view(label, cls)
    assert memo.cache_info().currsize == entries


def test_bad_classes_leave_no_memo_entry():
    memo.cache_clear()
    sym_char_value((3,), (3,))
    bad = [(sym_char_value, (3,), (i + 1, i + 2)) for i in range(3)] + [
        (b_char_value, ((3,), ()), BClassType((1, 2), ())),
        (d_char_value, make_irr_label((3,), ()), DClassType((3,), (), 1)),
        (d_char_value, make_irr_label((2,), (1,)), DClassType((2,), (1,), None)),
    ]
    for view, label, cls in bad:
        with pytest.raises(ValueError):
            view(label, cls)
        assert memo.cache_info().currsize == 1
