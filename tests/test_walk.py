"""The abacus walk behind the per-value character views.

A class's first value is a backward walk from the label; a second,
different label at the class walks the class's whole column, and later
values there are lookups.  Both directions must give the same values and
reject the same bad labels.
"""

import re
import time
from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dweyl import dchar, symchar
from dweyl.bchar import BClassType, b_char_value, b_classes
from dweyl.dchar import DClassType, DIrrLabel, d_char_column, d_char_value, d_classes, d_irr_labels, make_irr_label
from dweyl.partitions import enumerate_bipartitions, enumerate_partitions
from dweyl.symchar import COLUMN_LABELS, _cycles, _fold, _moves, _shape, memo, read_column, sym_char_value

VIEWS = {
    "S": (sym_char_value, enumerate_partitions, enumerate_partitions),
    "B": (b_char_value, enumerate_bipartitions, b_classes),
    "D": (d_char_value, d_irr_labels, d_classes),
}


@contextmanager
def counted_walks():
    """The class types of the forward column walks made in the block:
    calls of _fold, which symchar makes for S_n and B_n columns and dchar
    for D_n columns."""
    walks = []

    def counted(cls):
        walks.append(cls)
        return _fold(cls)

    with pytest.MonkeyPatch.context() as patch:
        for module in (symchar, dchar):
            patch.setattr(module, "_fold", counted)
        yield walks


def both_directions(view, label, other, cls, count):
    """label's value at cls asked first (a backward walk), and asked after
    a different label (read from the one walk of cls's column, next to
    which a split D class may walk S_{n/2} columns for its degenerate
    labels: memo then holds the values of all count labels of the rank)."""
    key = (cls, None) if view is sym_char_value else cls[:2]
    memo.cache_clear()
    with counted_walks() as walks:
        single = view(label, cls)
        memo.cache_clear()
        view(other, cls)
        assert not walks
        whole = view(label, cls)
    assert walks.count(key) == 1
    assert len(memo((cls, None) if view is sym_char_value else cls)[0]) == count
    return single, whole


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(VIEWS)), n=st.integers(1, 10), data=st.data())
def test_single_value_walk_equals_column(kind, n, data):
    view, labels_of, classes_of = VIEWS[kind]
    labels = labels_of(n)
    assume(len(labels) > 1)
    label, other = data.draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True))
    cls = data.draw(st.sampled_from(classes_of(n)))
    single, whole = both_directions(view, label, other, cls, len(labels))
    assert single == whole


def test_rank_one_values_walk_no_column():
    memo.cache_clear()
    with counted_walks() as walks:
        assert sym_char_value((1,), (1,)) == 1
        assert b_char_value(((), (1,)), BClassType((), (1,))) == -1
    assert not walks


def test_one_row_walks_no_column():
    memo.cache_clear()
    labels, classes = d_irr_labels(10), d_classes(10)
    assert len(classes) == 251
    identity = DClassType((1,) * 10, (), None)
    with counted_walks() as walks:
        row = [d_char_value(labels[40], c) for c in classes]
        assert not walks
        assert row[classes.index(identity)] > 0
        d_char_value(labels[41], identity)
    assert walks == [identity[:2]]
    assert d_char_value(labels[40], identity) == row[classes.index(identity)]


def test_degenerate_row_walks_no_column():
    memo.cache_clear()
    chi = make_irr_label((3, 1), (3, 1), -1)
    with counted_walks() as walks:
        row = [d_char_value(chi, c) for c in d_classes(8)]
    assert not walks
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


# The folded column walk against the walk that keeps both orders of every
# state, its reference.


def unfolded_walk(cls) -> dict:
    """{(first, second) bead masks: coefficient} of the forward walk from
    the empty shape at class cls, both orders kept."""
    states = {(0, 0): 1}
    for k, twist in _cycles(cls):
        out: dict = {}
        for (first, second), coef in states.items():
            for sub, sign in _moves(first, k):
                out[sub, second] = out.get((sub, second), 0) + sign * coef
            if twist:
                for sub, sign in _moves(second, k):
                    out[first, sub] = out.get((first, sub), 0) + twist * sign * coef
        states = out
    return states


def masks(label) -> tuple[int, int]:
    return _shape(label[0])[0], _shape(label[1])[0]


@pytest.mark.parametrize("n", list(range(1, 9)) + [pytest.param(10, marks=pytest.mark.slow)])
def test_folded_b_and_s_columns_equal_unfolded_walk(n):
    for c in b_classes(n):
        states = unfolded_walk(c)
        assert read_column(c) == {label: states.get(masks(label), 0) for label in enumerate_bipartitions(n)}
    for mu in enumerate_partitions(n + 4):
        states = unfolded_walk((mu, None))
        assert read_column((mu, None)) == {lam: states.get((_shape(lam)[0], 0), 0) for lam in enumerate_partitions(n + 4)}


@pytest.mark.parametrize("n", list(range(1, 11)) + [pytest.param(12, marks=pytest.mark.slow)])
def test_folded_d_columns_equal_unfolded_walk(n):
    for c in d_classes(n):
        states = unfolded_walk(c[:2])
        expected = {X: dchar._restrict(X, c, states.get(masks(X.label), 0)) for X in d_irr_labels(n)}
        assert dchar._column(c, n) == expected


def test_d_table_walks_each_type_once():
    """A split class's column walk fills the memo of the other class of
    its type, with that class's own values."""
    classes, labels = d_classes(8), d_irr_labels(8)
    memo.cache_clear()
    with counted_walks() as walks:
        table = [[d_char_value(X, c) for X in labels] for c in classes]
    types = [w for w in walks if w[1] is not None]  # not the S_4 walks of delta_value
    assert len(types) == len(set(types)) < len(classes)
    assert set(types) == {c[:2] for c in classes}
    for c, values in zip(classes, table):
        memo.cache_clear()
        assert [d_char_value(X, c) for X in labels] == values


def test_d_column_reads_the_memo_of_the_per_value_view():
    """d_char_column walks a fresh class's column with no backward walk
    first, each type once, and leaves the memo that d_char_value then
    reads; a column d_char_value already walked is read, not walked."""

    def refuse(*args):
        raise AssertionError(f"backward walk {args}")

    for n in (6, 8):
        classes, labels = d_classes(n), d_irr_labels(n)
        memo.cache_clear()
        table = [[d_char_value(X, c) for X in labels] for c in classes]
        memo.cache_clear()
        with counted_walks() as walks, pytest.MonkeyPatch.context() as patch:
            patch.setattr(dchar, "backward", refuse)
            assert [d_char_column(c) for c in classes] == table
            assert [[d_char_value(X, c) for X in labels] for c in classes] == table
        types = [w for w in walks if w[1] is not None]  # not the S_n/2 walks of delta_value
        assert sorted(types) == sorted({c[:2] for c in classes})
        with counted_walks() as walks:
            assert [d_char_column(c) for c in classes] == table
        assert walks == []


def test_folded_walk_keeps_about_half_the_states():
    folded = sum(len(_fold(c[:2])) for c in d_classes(9))
    assert folded <= 0.55 * sum(len(unfolded_walk(c[:2])) for c in d_classes(9))


def partitions_of(data, n):
    return data.draw(st.sampled_from(enumerate_partitions(n)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 20), data=st.data())
def test_swapped_label_is_delta_tensor(n, data):
    """[beta; alpha] = delta [alpha; beta], delta being -1 on each negative
    cycle: the identity the fold rests on, here through backward walks."""
    k, j = data.draw(st.integers(0, n)), data.draw(st.integers(0, n - 1))
    alpha, beta = partitions_of(data, k), partitions_of(data, n - k)
    c = BClassType(partitions_of(data, j), partitions_of(data, n - j))
    memo.cache_clear()
    swapped = b_char_value((beta, alpha), c)
    memo.cache_clear()
    assert swapped == (-1) ** len(c.negative) * b_char_value((alpha, beta), c)
    assert len(memo(c)[0]) == 1  # each value was its fresh class's first: a backward walk


def test_past_column_labels_every_label_walks_back(monkeypatch):
    memo.cache_clear()
    split = DClassType((2,) * 100, (), 1)
    plus, minus = make_irr_label((100,), (100,), 1), make_irr_label((100,), (100,), -1)
    with monkeypatch.context() as patch, counted_walks() as walks:
        patch.setattr(dchar, "_column", lambda c, n: pytest.fail(f"walked a rank-{n} column"))
        for chi in (plus, minus):
            start = time.perf_counter()
            d_char_value(chi, split)
            assert time.perf_counter() - start < 2.0
    assert not walks
    ambient = b_char_value(((100,), (100,)), BClassType((2,) * 100, ()))
    assert d_char_value(plus, split) + d_char_value(minus, split) == ambient
    # A D_10 table's second label still walks the column.
    assert len(enumerate_bipartitions(10)) <= COLUMN_LABELS
    identity = DClassType((1,) * 10, (), None)
    with counted_walks() as walks:
        d_char_value(d_irr_labels(10)[0], identity)
        d_char_value(d_irr_labels(10)[1], identity)
    assert walks == [identity[:2]]
