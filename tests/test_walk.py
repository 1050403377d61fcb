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

from dweyl import bchar, dchar, symchar
from dweyl.bchar import BClassType, b_char_value, b_classes, b_degree, b_memo
from dweyl.dchar import DClassType, DIrrLabel, d_char_column, d_char_value, d_classes, d_irr_labels, d_memo, delta_value, make_irr_label
from dweyl.partitions import enumerate_bipartitions, enumerate_partitions, format_bipartition
from dweyl.symchar import COLUMN_LABELS, _cycles, _fold, _moves, _shape, read_column, s_memo, sym_char_value

VIEWS = {
    "S": (sym_char_value, enumerate_partitions, enumerate_partitions),
    "B": (b_char_value, enumerate_bipartitions, b_classes),
    "D": (d_char_value, d_irr_labels, d_classes),
}
MEMOS = {sym_char_value: s_memo, b_char_value: b_memo, d_char_value: d_memo}


def clear_memos():
    for memo in MEMOS.values():
        memo.clear()


def labelled(entry) -> dict:
    """A store entry (index, values) as {label: value}, after checking that
    its index gives each value exactly one slot."""
    index, values = entry
    assert sorted(index.values()) == list(range(len(values)))
    return {label: values[i] for label, i in index.items()}


def memo_entries() -> int:
    """Values stored, over the three views."""
    return sum(len(labelled(entry)) for memo in MEMOS.values() for entry in memo.values())


@contextmanager
def counted_walks():
    """The class types of the forward column walks made in the block:
    calls of _fold, which symchar.read_column makes for the columns of
    every view."""
    walks = []

    def counted(cls):
        walks.append(cls)
        return _fold(cls)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symchar, "_fold", counted)
        yield walks


def both_directions(view, label, other, cls, count):
    """label's value at cls asked first (a backward walk), and asked after
    a different label (read from the one walk of cls's column, next to
    which a split D class may walk S_{n/2} columns for its degenerate
    labels: the view's memo then holds the values of all count labels of
    the rank)."""
    key = (cls, None) if view is sym_char_value else cls[:2]
    clear_memos()
    with counted_walks() as walks:
        single = view(label, cls)
        clear_memos()
        view(other, cls)
        assert not walks
        whole = view(label, cls)
    assert walks.count(key) == 1
    assert len(labelled(MEMOS[view][cls])) == count
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
    clear_memos()
    with counted_walks() as walks:
        assert sym_char_value((1,), (1,)) == 1
        assert b_char_value(((), (1,)), BClassType((), (1,))) == -1
    assert not walks


def test_one_row_walks_no_column():
    clear_memos()
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
    clear_memos()
    chi = make_irr_label((3, 1), (3, 1), -1)
    with counted_walks() as walks:
        row = [d_char_value(chi, c) for c in d_classes(8)]
    assert not walks
    clear_memos()
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
    clear_memos()
    start = time.perf_counter()
    assert call() == expected
    assert time.perf_counter() - start < 1.0


B3, D3 = BClassType((2,), (1,)), DClassType((2, 1), (), None)


@pytest.mark.parametrize(
    "module, counter, first, second",
    [
        (symchar, "partition_count", lambda: sym_char_value((2, 1), (2, 1)), lambda: sym_char_value((3,), (2, 1))),
        (bchar, "bipartition_count", lambda: b_char_value(((2,), (1,)), B3), lambda: b_char_value(((3,), ()), B3)),
        (
            dchar,
            "bipartition_count",
            lambda: d_char_value(make_irr_label((2,), (1,)), D3),
            lambda: d_char_value(make_irr_label((3,), ()), D3),
        ),
    ],
    ids=["S", "B", "D"],
)
def test_labels_are_counted_from_a_class_second_value_on(module, counter, first, second, monkeypatch):
    """Whether a class's column is walked depends on the number of labels
    of its rank, which a class's first value, a backward walk, never
    needs: a lone value at a large rank counts no partitions.  A second
    value counts the ranks from 2 up to the first whose labels pass
    COLUMN_LABELS, and no further, whatever its own rank."""
    clear_memos()
    counted, count = [], getattr(module, counter)
    monkeypatch.setattr(module, counter, lambda n: counted.append(n) or count(n))
    first()
    assert counted == []
    second()
    assert counted == list(range(2, counted[-1] + 1))
    assert count(counted[-1]) > COLUMN_LABELS >= count(counted[-2])


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
    (b_char_value, ((2, 1), (), 1), BClassType((1, 1, 1), ()), [((3,), ()), ((2, 1), ())], "label ([2,1],[],int 1) is not a type B label"),
    (b_char_value, ((3,),), BClassType((1, 1, 1), ()), [((3,), ()), ((2, 1), ())], "label ([3]) is not a type B label"),
]


@pytest.mark.parametrize("view, label, cls, warm, message", BAD_LABELS)
def test_bad_labels_rejected_in_both_directions(view, label, cls, warm, message):
    clear_memos()
    with pytest.raises(ValueError, match=re.escape(message)):
        view(label, cls)
    assert memo_entries() == 0
    for good in warm:
        view(good, cls)
    entries = memo_entries()
    with pytest.raises(ValueError, match=re.escape(message)):
        view(label, cls)
    assert memo_entries() == entries


def test_bad_classes_leave_no_memo_entry():
    clear_memos()
    sym_char_value((3,), (3,))
    bad = [(sym_char_value, (3,), (i + 1, i + 2)) for i in range(3)] + [
        (b_char_value, ((3,), ()), BClassType((1, 2), ())),
        (d_char_value, make_irr_label((3,), ()), DClassType((3,), (), 1)),
        (d_char_value, make_irr_label((2,), (1,)), DClassType((2,), (1,), None)),
    ]
    for view, label, cls in bad:
        with pytest.raises(ValueError):
            view(label, cls)
        assert memo_entries() == 1


# Classes of the full group are not classes of the D view: each is refused,
# with no store entry, whether or not b_char_value has walked its column.

B_CLASSES_IN_THE_D_VIEW = [
    (make_irr_label((3,), (1,)), BClassType((3,), (1,))),  # odd number of negative cycles
    (make_irr_label((3,), (1,)), BClassType((2, 2), ())),  # needs a +/- tag
    (make_irr_label((2,), (2,), 1), BClassType((2, 2), ())),
    (make_irr_label((2,), (1,)), BClassType((2, 1), ())),  # a D class but for its third field
]


@pytest.mark.parametrize("chi, c", B_CLASSES_IN_THE_D_VIEW)
def test_d_view_refuses_classes_of_the_full_group(chi, c):
    labels = enumerate_bipartitions(sum(c.positive) + sum(c.negative))
    clear_memos()
    for _ in range(2):  # before b_char_value walks c's column, then after
        for call in (lambda: d_char_value(chi, c), lambda: d_char_column(c)):
            with pytest.raises(ValueError, match=re.escape(f"class {format_bipartition(c)} is not a type D class")):
                call()
        assert not d_memo
        b_char_value(labels[0], c)
        b_char_value(labels[1], c)
        assert len(labelled(b_memo[c])) == len(labels)  # the B column is walked


# Nor does the B view take classes of W(D_n), or any class without two
# fields: each is refused on a miss, with no store entry, before and after
# the B class with the same cycles has its column.


@pytest.mark.parametrize("c", [DClassType((3,), (), None), ((3,), (), None, 0)], ids=["three fields", "four fields"])
def test_b_view_refuses_classes_without_two_fields(c):
    labels = enumerate_bipartitions(3)
    clear_memos()
    for _ in range(2):  # on a fresh class, then after BClassType((3,), ()) has its column
        with pytest.raises(ValueError, match=re.escape("class ([3],[]) is not a type B class: it needs two fields")):
            b_char_value(labels[0], c)
        assert c not in b_memo
        b_char_value(labels[0], BClassType((3,), ()))
        b_char_value(labels[1], BClassType((3,), ()))
        assert len(labelled(b_memo[BClassType((3,), ())])) == len(labels)


# Malformed classes, each named by every view it is not a class of, with
# no store entry, before and after the valid class of rank 3 has its column.

MALFORMED_CLASSES = [
    # (class, as the S, B and D views name it: None where it is a class of the view)
    (3, "3 is not a partition", "class int 3", "class int 3"),
    ([3], "[3] is not a partition", "class list [3]", "class list [3]"),
    (None, "None is not a partition", "class None", "class None"),
    ("x", "'x' is not a partition", "class str 'x'", "class str 'x'"),
    ((3,), None, "class (int 3) is", "class (int 3) is"),
    ((3, ()), "[3,()] is not", "class (int 3,[]) is", "class (int 3,[]) is"),
    ((3, (), None), "[3,(),None] is not", "class (int 3,[]) is", "class (int 3,[],None) is"),
    (((3,), 3, None), "[(3,),3,None] is not", "class ([3],int 3) is", "class ([3],int 3,None) is"),
    (((3,), [1]), "[(3,),[1]] is not", "class ([3],list [1]) is", "class ([3],list [1]) is"),
    (((3,), [], None), "[(3,),[],None] is not", "class ([3],list []) is", "class ([3],list [],None) is"),
    (((3,), (), None, 0), "[(3,),(),None,0] is not", "class ([3],[]) is", "class ([3],[],None) is"),
]


def warm_s():
    sym_char_value((3,), (3,))
    sym_char_value((2, 1), (3,))


def warm_b():
    b_char_value(((3,), ()), BClassType((3,), ()))
    b_char_value(((2, 1), ()), BClassType((3,), ()))


def warm_d():
    d_char_column(DClassType((3,), (), None))


# view: (column of MALFORMED_CLASSES naming the class, the call, its warm-up)
CLASS_VIEWS = {
    "sym_char_value": (1, lambda c: sym_char_value((3,), c), warm_s),
    "b_char_value": (2, lambda c: b_char_value(((3,), ()), c), warm_b),
    "d_char_value": (3, lambda c: d_char_value(make_irr_label((3,), ()), c), warm_d),
    "d_char_column": (3, d_char_column, warm_d),
    "delta_value": (3, lambda c: delta_value((1,), c), warm_d),
}


@pytest.mark.parametrize(
    "view, c, shown",
    [
        pytest.param(view, row[0], row[k], id=f"{view}: {row[0]!r}")
        for view, (k, _, _) in CLASS_VIEWS.items()
        for row in MALFORMED_CLASSES
        if row[k] is not None
    ],
)
def test_every_view_refuses_malformed_classes(view, c, shown):
    _, call, warm = CLASS_VIEWS[view]
    clear_memos()
    for _ in range(2):  # on empty stores, then after the valid class has its column
        entries = memo_entries()
        with pytest.raises(ValueError, match=re.escape(shown)):
            call(c)
        assert memo_entries() == entries
        warm()


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
        assert labelled(read_column(c, bchar._column_keys)) == {label: states.get(masks(label), 0) for label in enumerate_bipartitions(n)}
    for mu in enumerate_partitions(n + 4):
        states = unfolded_walk((mu, None))
        assert labelled(read_column((mu, None), symchar._labels)) == {lam: states.get((_shape(lam)[0], 0), 0) for lam in enumerate_partitions(n + 4)}


@pytest.mark.parametrize("n", list(range(1, 11)) + [pytest.param(12, marks=pytest.mark.slow)])
def test_folded_d_columns_equal_unfolded_walk(n):
    for c in d_classes(n):
        states = unfolded_walk(c[:2])
        expected = {X: dchar._restrict(X, c, states.get(masks(X.label), 0)) for X in d_irr_labels(n)}
        assert labelled(dchar._column(c, n)) == expected


def times_minus_one(cls):
    """The signed cycle type of w(-1), w of type cls = (positive, negative):
    negating every point flips the sign of each odd cycle of w."""
    positive, negative = cls
    moved = [(k, k % 2 == 0) for k in positive] + [(k, k % 2 == 1) for k in negative]
    return tuple(sorted((k for k, stays in moved if stays), reverse=True)), tuple(sorted((k for k, stays in moved if not stays), reverse=True))


def pairs_of(types) -> set:
    """The pairs {w, w(-1)} of a set of signed cycle types."""
    return {frozenset((t, times_minus_one(t))) for t in types}


def check_table_walks(kind, n, walked):
    """A whole table walks walked columns, one per pair {w, w(-1)} of
    class types and, for D_n, the S_{n/2} columns of the degenerate
    labels: a column walk fills the memo of the class of w(-1) (at odd n
    a class of D_n has no such partner) and, at a split type, of the
    other class of the type, each with that class's own values."""
    view, labels_of, classes_of = VIEWS[kind]
    classes, labels = classes_of(n), labels_of(n)
    clear_memos()
    with counted_walks() as walks:
        table = [[view(X, c) for X in labels] for c in classes]
    assert len(walks) == walked
    types = [w for w in walks if w[1] is not None]  # not the S_{n/2} walks
    expected = {c[:2] for c in classes}
    assert len(types) == len(set(types)) == (len(pairs_of(expected)) if kind == "B" or n % 2 == 0 else len(expected))
    assert {t for w in types for t in (w, times_minus_one(w))} >= expected >= set(types)
    for c, values in zip(classes, table):
        clear_memos()
        assert [view(X, c) for X in labels] == values


def test_d_table_walks_each_type_once():
    """The D_8 table walks 64 columns for its 100 classes: 59 of its 95
    class types and 5 of S_4."""
    check_table_walks("D", 8, 64)


@pytest.mark.parametrize("kind, n, walked", [("B", 6, 42), ("B", 7, 55), ("D", 7, 55), ("D", 9, 150)])
def test_table_walks_one_column_per_pair_of_types(kind, n, walked):
    """B_6 and B_7 walk 42 and 55 columns for their 65 and 110 classes;
    D_7 and D_9, where -1 is not in the group, one per class."""
    check_table_walks(kind, n, walked)


def test_d_column_reads_the_memo_of_the_per_value_view():
    """d_char_column walks a fresh class's column with no backward walk
    first, one type per pair {w, w(-1)} once, and leaves the memo that
    d_char_value then reads; a column d_char_value already walked is
    read, not walked."""

    def refuse(*args):
        raise AssertionError(f"backward walk {args}")

    for n in (6, 8):
        classes, labels = d_classes(n), d_irr_labels(n)
        clear_memos()
        table = [[d_char_value(X, c) for X in labels] for c in classes]
        clear_memos()
        with counted_walks() as walks, pytest.MonkeyPatch.context() as patch:
            patch.setattr(dchar, "backward", refuse)
            assert [d_char_column(c) for c in classes] == table
            assert [[d_char_value(X, c) for X in labels] for c in classes] == table
        types = [w for w in walks if w[1] is not None]  # not the S_n/2 walks of the degenerate labels
        assert len(types) == len(set(types)) == len(pairs_of({c[:2] for c in classes}))
        assert {t for w in types for t in (w, times_minus_one(w))} >= {c[:2] for c in classes} >= set(types)
        with counted_walks() as walks:
            assert [d_char_column(c) for c in classes] == table
        assert walks == []


def test_d_column_is_a_copy_of_the_store():
    """The list d_char_column returns is the caller's: changing it changes
    no value the store answers later, for either class of a split type."""
    clear_memos()
    labels = d_irr_labels(8)
    for c in (DClassType((4, 4), (), 1), DClassType((4, 4), (), -1), DClassType((3, 2, 1, 1, 1), (), None)):
        column = d_char_column(c)
        expected = list(column)
        column[:] = [None] * len(column)
        assert [d_char_value(X, c) for X in labels] == expected
        assert d_char_column(c) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_columns_at_w_and_minus_w_differ_by_the_central_character(n):
    """At a class of B_n with an odd cycle, the reference walk's column at
    w(-1) is its column at w times (-1)**|beta|, the central character at
    -1 of [alpha; beta]; at the class of -1 itself it is that sign times
    the degree.  The columns the views store at w(-1), after walking w,
    equal the reference walk there: for B_n, and for D_n at even n, where
    -1 lies in D_n."""
    labels, d_labels = enumerate_bipartitions(n), d_irr_labels(n)
    for c in b_classes(n):
        partner = times_minus_one(c)
        if partner == tuple(c):
            continue
        at_w, at_partner = unfolded_walk(c), unfolded_walk(partner)
        for label in labels:
            assert at_partner.get(masks(label), 0) == (-1) ** sum(label[1]) * at_w.get(masks(label), 0)
        clear_memos()
        for label in labels[:2]:
            b_char_value(label, c)  # the second label walks c's column
        assert labelled(b_memo[partner]) == {label: at_partner.get(masks(label), 0) for label in labels}
        if n % 2 == 0 and len(c.negative) % 2 == 0:
            d = DClassType(*c, None)
            clear_memos()
            d_char_column(d)
            assert labelled(d_memo[partner + (None,)]) == {X: dchar._restrict(X, d, at_partner.get(masks(X.label), 0)) for X in d_labels}
    minus_one = unfolded_walk(((), (1,) * n))
    assert {label: minus_one.get(masks(label), 0) for label in labels} == {label: (-1) ** sum(label[1]) * b_degree(label) for label in labels}


def test_folded_walk_keeps_about_half_the_states():
    folded = sum(len(_fold(c[:2])) for c in d_classes(9))
    assert folded <= 0.55 * sum(len(unfolded_walk(c[:2])) for c in d_classes(9))


def test_orbit_walk_keeps_about_a_quarter_of_the_pair_states():
    """Folding by the conjugation as well as by the swap: at most 30% of
    the unfolded states over the D_9 types, 55% over the S_13 classes."""
    types = {c[:2] for c in d_classes(9)}
    assert sum(len(_fold(t)) for t in types) <= 0.30 * sum(len(unfolded_walk(t)) for t in types)
    classes = [(mu, None) for mu in enumerate_partitions(13)]
    assert sum(len(_fold(c)) for c in classes) <= 0.55 * sum(len(unfolded_walk(c)) for c in classes)


def partitions_of(data, n):
    return data.draw(st.sampled_from(enumerate_partitions(n)))


def conjugate(p):
    return tuple(sum(part > j for part in p) for j in range(p[0])) if p else ()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 20), data=st.data())
def test_swapped_label_is_delta_tensor(n, data):
    """[beta; alpha] = delta [alpha; beta], delta being -1 on each negative
    cycle: the identity the fold rests on, here through backward walks."""
    k, j = data.draw(st.integers(0, n)), data.draw(st.integers(0, n - 1))
    alpha, beta = partitions_of(data, k), partitions_of(data, n - k)
    c = BClassType(partitions_of(data, j), partitions_of(data, n - j))
    clear_memos()
    swapped = b_char_value((beta, alpha), c)
    clear_memos()
    assert swapped == (-1) ** len(c.negative) * b_char_value((alpha, beta), c)
    assert len(labelled(b_memo[c])) == 1  # each value was its fresh class's first: a backward walk


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 20), data=st.data())
def test_conjugate_label_is_sign_tensor(n, data):
    """[lambda'] = sgn [lambda] on S_n, and [alpha'; beta'] = pi [alpha; beta]
    on B_n, pi the sign of the underlying permutation: the identities the
    orbit fold rests on besides the swap, here through backward walks."""
    lam, mu = partitions_of(data, n), partitions_of(data, n)
    clear_memos()
    conjugated = sym_char_value(conjugate(lam), mu)
    clear_memos()
    assert conjugated == (-1) ** (n - len(mu)) * sym_char_value(lam, mu)
    assert len(labelled(s_memo[mu])) == 1  # each value was its fresh class's first: a backward walk
    n = min(n, 12)
    k, j = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    alpha, beta = partitions_of(data, k), partitions_of(data, n - k)
    c = BClassType(partitions_of(data, j), partitions_of(data, n - j))
    clear_memos()
    conjugated = b_char_value((conjugate(alpha), conjugate(beta)), c)
    clear_memos()
    assert conjugated == (-1) ** (n - len(c.positive) - len(c.negative)) * b_char_value((alpha, beta), c)
    assert len(labelled(b_memo[c])) == 1


def test_past_column_labels_every_label_walks_back(monkeypatch):
    clear_memos()
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


def test_shared_index_never_grows():
    """Every walked column of a rank shares one index, which holds exactly
    that rank's labels after a whole D_10 table and after single values
    past COLUMN_LABELS, which a class keeps under a private index."""
    clear_memos()
    labels, classes = d_irr_labels(10), d_classes(10)
    for X in labels:
        for c in classes:
            d_char_value(X, c)
    split = DClassType((2,) * 100, (), 1)
    plus, minus = make_irr_label((100,), (100,), 1), make_irr_label((100,), (100,), -1)
    values = [d_char_value(plus, split), d_char_value(minus, split)]
    shared, keys, signs = dchar._column_keys(10)
    assert shared == {X: i for i, X in enumerate(labels)}
    assert len(keys) == len(labels) and all(len(column) == len(labels) for column in signs.values())
    assert all(d_memo[c][0] is shared for c in classes)
    assert d_memo[split] == ({plus: 0, minus: 1}, values)
    # The S_5 columns of the degenerate labels' difference share theirs too.
    walked = [mu for mu, (index, _) in s_memo.items() if sum(mu) == 5]
    assert walked and all(s_memo[mu][0] is symchar._labels(5)[0] for mu in walked)
    assert symchar._labels(5)[0] == {lam: i for i, lam in enumerate(enumerate_partitions(5))}
    assert s_memo[(1,) * 100] == ({(100,): 0}, [1])


@pytest.mark.parametrize(
    "view, first, second, cls",
    [
        (sym_char_value, (80000,), (79999, 1), (80000,)),
        (b_char_value, ((40000,), ()), ((39999, 1), ()), BClassType((40000,), ())),
    ],
    ids=["S_80000", "B_40000"],
)
def test_second_value_far_past_column_labels_answers_fast(view, first, second, cls):
    """Deciding that a rank is past COLUMN_LABELS counts no rank past the
    budget's, so a second value at a huge rank costs one backward walk."""
    clear_memos()
    assert view(first, cls) == 1
    start = time.perf_counter()
    assert view(second, cls) == -1
    assert time.perf_counter() - start < 0.1
