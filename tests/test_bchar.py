import re
from math import comb

import pytest

from dweyl.bchar import (
    BClassType,
    b_centralizer_order,
    b_char_value,
    b_classes,
    b_degree,
)
from dweyl.partitions import enumerate_bipartitions, length, size
from dweyl.symchar import sym_degree

from explicit import group_order_b


def test_classes_counts():
    assert b_classes(1) == (BClassType((1,), ()), BClassType((), (1,)))
    assert len(b_classes(2)) == 5
    assert len(b_classes(4)) == 20
    for n in range(1, 7):
        assert len(b_classes(n)) == len(enumerate_bipartitions(n))


def test_centralizer_orders():
    assert b_centralizer_order(BClassType((1,), ())) == 2
    assert b_centralizer_order(BClassType((2,), ())) == 4
    assert b_centralizer_order(BClassType((), (1, 1))) == 8
    for n in range(1, 7):
        order = group_order_b(n)
        assert sum(order // b_centralizer_order(c) for c in b_classes(n)) == order


def test_trivial_character():
    for n in range(1, 6):
        for c in b_classes(n):
            assert b_char_value(((n,), ()), c) == 1


def test_rank_one_table():
    classes = b_classes(1)
    assert [b_char_value(((1,), ()), c) for c in classes] == [1, 1]
    assert [b_char_value(((), (1,)), c) for c in classes] == [1, -1]


def test_underlying_sign_character():
    for n in range(1, 6):
        lam = ((1,) * n, ())
        for c in b_classes(n):
            parity = (size(c.positive) - length(c.positive)) + (size(c.negative) - length(c.negative))
            assert b_char_value(lam, c) == (-1) ** parity


def test_reflection_determinant_character():
    for n in range(1, 6):
        lam = ((), (1,) * n)
        for c in b_classes(n):
            parity = (size(c.positive) - length(c.positive)) + size(c.negative)
            assert b_char_value(lam, c) == (-1) ** parity


def test_degrees():
    for n in range(1, 6):
        identity = BClassType((1,) * n, ())
        for label in enumerate_bipartitions(n):
            expected = comb(n, size(label[0])) * sym_degree(label[0]) * sym_degree(label[1])
            assert b_char_value(label, identity) == expected
            assert b_degree(label) == expected


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        b_char_value(((2,), ()), BClassType((1,), ()))


def test_rank_two_table():
    # hand-computed via the strip recursion
    classes = b_classes(2)
    assert [c for c in classes] == [
        BClassType((2,), ()),
        BClassType((1, 1), ()),
        BClassType((1,), (1,)),
        BClassType((), (2,)),
        BClassType((), (1, 1)),
    ]
    expected = {
        ((2,), ()): [1, 1, 1, 1, 1],
        ((1, 1), ()): [-1, 1, 1, -1, 1],
        ((1,), (1,)): [0, 2, 0, 0, -2],
        ((), (2,)): [1, 1, -1, -1, 1],
        ((), (1, 1)): [-1, 1, -1, 1, 1],
    }
    for label, row in expected.items():
        assert [b_char_value(label, c) for c in classes] == row


def test_rank_three_table_fixture():
    # frozen after verifying anchors and full orthogonality
    classes = b_classes(3)
    expected = {
        ((3,), ()): [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        ((2, 1), ()): [-1, 0, 2, 0, 2, 0, 2, -1, 0, 2],
        ((1, 1, 1), ()): [1, -1, 1, -1, 1, -1, 1, 1, -1, 1],
        ((2,), (1,)): [0, 1, 3, -1, 1, 1, -1, 0, -1, -3],
        ((1, 1), (1,)): [0, -1, 3, 1, 1, -1, -1, 0, 1, -3],
        ((1,), (2,)): [0, 1, 3, 1, -1, -1, -1, 0, -1, 3],
        ((1,), (1, 1)): [0, -1, 3, -1, -1, 1, -1, 0, 1, 3],
        ((), (3,)): [1, 1, 1, -1, -1, -1, 1, -1, 1, -1],
        ((), (2, 1)): [-1, 0, 2, 0, -2, 0, 2, 1, 0, -2],
        ((), (1, 1, 1)): [1, -1, 1, 1, -1, 1, 1, -1, -1, -1],
    }
    assert set(expected) == set(enumerate_bipartitions(3))
    for label, row in expected.items():
        assert [b_char_value(label, c) for c in classes] == row


def test_orthogonality():
    for n in range(1, 5):
        order = group_order_b(n)
        labels = enumerate_bipartitions(n)
        classes = b_classes(n)
        sizes = [order // b_centralizer_order(c) for c in classes]
        for i, x in enumerate(labels):
            for y in labels[i:]:
                s = sum(w * b_char_value(x, c) * b_char_value(y, c) for w, c in zip(sizes, classes))
                assert s == (order if x == y else 0)
        # column orthogonality
        for i, c in enumerate(classes):
            for c2 in classes[i:]:
                s = sum(b_char_value(x, c) * b_char_value(x, c2) for x in labels)
                assert s == (b_centralizer_order(c) if c == c2 else 0)


def test_size_mismatch_message_uses_label_grammar():
    with pytest.raises(ValueError, match=re.escape("between ([2],[]) and ([1],[])")):
        b_char_value(((2,), ()), BClassType((1,), ()))
