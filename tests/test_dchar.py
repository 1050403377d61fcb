import re

import pytest

from dweyl.bchar import BClassType, b_centralizer_order, b_char_value
from dweyl.dchar import (
    DClassType,
    DIrrLabel,
    d_centralizer_order,
    d_char_column,
    d_char_value,
    d_classes,
    d_degree,
    d_irr_labels,
    d_memo,
    delta_value,
    format_class,
    format_irr_label,
    irr_label_key,
    group_order_d,
    make_irr_label,
    parse_class,
    parse_irr_label,
)
from dweyl.partitions import enumerate_partitions
from dweyl.symchar import check_class, sym_centralizer_order

from explicit import d_class_size, fuse_class


def test_label_counts():
    assert len(d_irr_labels(4)) == 13
    assert len(d_irr_labels(5)) == 18
    assert len(d_irr_labels(6)) == 37
    assert len(d_irr_labels(1)) == 1
    assert len(d_irr_labels(2)) == 4


def test_class_counts():
    assert len(d_classes(4)) == 13
    assert len(d_classes(2)) == 4
    assert len(d_classes(5)) == 18
    for n in range(1, 7):
        assert len(d_classes(n)) == len(d_irr_labels(n))


def test_make_irr_label_canonicalization():
    lab = make_irr_label((1,), (3,))
    assert lab.label == ((3,), (1,))
    assert lab.eps == 0
    with pytest.raises(ValueError):
        make_irr_label((2,), (2,))  # needs a sign
    with pytest.raises(ValueError):
        make_irr_label((3,), (1,), 1)  # sign on a non-degenerate label
    with pytest.raises(ValueError):
        make_irr_label((1, 3), ())  # not a partition


def test_centralizer_orders():
    assert d_centralizer_order(DClassType((2, 2), (), 1)) == 32
    assert d_centralizer_order(DClassType((1, 1, 1, 1), (), None)) == 192
    assert d_centralizer_order(DClassType((2, 1, 1), (), None)) == 16


def test_centralizer_orders_check_a_class_once(monkeypatch):
    import dweyl.bchar
    import dweyl.dchar
    import dweyl.symchar

    checked = []

    def check(cls, group):
        checked.append(group)
        return check_class(cls, group)

    for module in (dweyl.symchar, dweyl.bchar, dweyl.dchar):
        monkeypatch.setattr(module, "check_class", check)
    for call, c, order in [
        (sym_centralizer_order, (2, 2, 1), 8),
        (b_centralizer_order, BClassType((2, 1), (1, 1)), 64),
        (d_centralizer_order, DClassType((2, 2), (), 1), 32),
        (d_centralizer_order, DClassType((2, 1, 1), (), None), 16),
    ]:
        checked.clear()
        assert call(c) == order
        assert len(checked) == 1, (call.__name__, checked)


def test_class_size_sums():
    # class sizes from the centralizer formula partition the group
    for n in (4, 5, 6):
        assert sum(group_order_d(n) // d_centralizer_order(c) for c in d_classes(n)) == group_order_d(n)


def test_delta_values():
    assert delta_value((2,), DClassType((4,), (), 1)) == 2
    assert delta_value((2,), DClassType((2, 1, 1), (), None)) == 0
    assert delta_value((1, 1), DClassType((2, 2), (), -1)) == -4


def test_delta_orthogonality():
    # the difference characters are orthogonal with squared norm 2|W|
    for n in (2, 4, 6):
        order = group_order_d(n)
        gammas = enumerate_partitions(n // 2)
        for g1 in gammas:
            for g2 in gammas:
                s = sum(
                    d_class_size(c) * delta_value(g1, c) * delta_value(g2, c)
                    for c in d_classes(n)
                )
                assert s == (2 * order if g1 == g2 else 0)


def test_trivial_character():
    for n in range(2, 6):
        triv = make_irr_label((n,), ())
        for c in d_classes(n):
            assert d_char_value(triv, c) == 1


def test_degenerate_values():
    chi = DIrrLabel(((2,), (2,)), 1)
    identity = DClassType((1, 1, 1, 1), (), None)
    assert d_char_value(chi, identity) == 3
    assert d_degree(chi) == 3
    split = DClassType((4,), (), 1)
    pi_val = b_char_value(((2,), (2,)), BClassType((4,), ()))
    assert d_char_value(chi, split) == (pi_val + 2) // 2


def test_degenerate_integrality_everywhere():
    # d_char_value raises if the halved value were fractional
    for n in (2, 4, 6):
        for chi in d_irr_labels(n):
            for c in d_classes(n):
                d_char_value(chi, c)


def test_component_swap_invariance_on_even_classes():
    # restrictions of [a;b] and [b;a] agree on classes with an even
    # number of negative cycles
    for n in range(1, 6):
        for chi in d_irr_labels(n):
            first, second = chi.label
            if first == second:
                continue
            for c in d_classes(n):
                bc = BClassType(c.positive, c.negative)
                assert b_char_value((first, second), bc) == b_char_value((second, first), bc)


def test_d_restricts_b_at_every_class():
    # a non-degenerate label is [alpha; beta] restricted, and a degenerate
    # pair splits it (Geck-Pfeiffer 2000, 5.5-5.6): both for a value that
    # is its class's first (a backward walk) and for the walked column
    for n in range(1, 9):
        labels = d_irr_labels(n)
        for c in d_classes(n):
            first = {}
            for X in labels:
                d_memo.pop(c, None)
                first[X] = d_char_value(X, c)
            column = dict(zip(labels, d_char_column(c)))
            for X in labels:
                ambient = b_char_value(X.label, BClassType(c.positive, c.negative))
                if not X.eps:
                    assert first[X] == column[X] == ambient, (X, c)
                elif X.eps > 0:
                    twin = X._replace(eps=-1)
                    assert first[X] + first[twin] == column[X] + column[twin] == ambient, (X, c)


def test_orthogonality():
    for n in range(2, 6):
        order = group_order_d(n)
        labels = d_irr_labels(n)
        classes = d_classes(n)
        sizes = [d_class_size(c) for c in classes]
        for i, x in enumerate(labels):
            for y in labels[i:]:
                s = sum(w * d_char_value(x, c) * d_char_value(y, c) for w, c in zip(sizes, classes))
                assert s == (order if x == y else 0)
        for i, c in enumerate(classes):
            for c2 in classes[i:]:
                s = sum(d_char_value(x, c) * d_char_value(x, c2) for x in labels)
                assert s == (d_centralizer_order(c) if c == c2 else 0)


def test_fuse_class():
    plus = DClassType((2,), (), 1)
    minus = DClassType((2,), (), -1)
    assert fuse_class(plus, plus) == DClassType((2, 2), (), 1)
    assert fuse_class(minus, minus) == DClassType((2, 2), (), 1)
    assert fuse_class(plus, minus) == DClassType((2, 2), (), -1)
    odd = DClassType((2, 1), (), None)
    assert fuse_class(plus, odd) == DClassType((2, 2, 1), (), None)
    neg = DClassType((1,), (1, 1), None)
    assert fuse_class(plus, neg) == DClassType((2, 1), (1, 1), None)


def test_fuse_class_commutes():
    for ca in d_classes(2):
        for cb in d_classes(3):
            assert fuse_class(ca, cb) == fuse_class(cb, ca)


def test_degree_sum_of_squares():
    for n in range(2, 7):
        assert sum(d_degree(chi) ** 2 for chi in d_irr_labels(n)) == group_order_d(n)


def test_label_text_roundtrip():
    for n in range(1, 6):
        for chi in d_irr_labels(n):
            assert parse_irr_label(format_irr_label(chi)) == chi
        for c in d_classes(n):
            assert parse_class(format_class(c)) == c
    assert format_irr_label(DIrrLabel(((2,), (2,)), 1)) == "([2],[2])+"
    assert format_class(DClassType((4,), (), 1)) == "([4],[],+)"
    assert parse_irr_label("([1],[3])") == DIrrLabel(((3,), (1,)), 0)


@pytest.mark.parametrize("bad", ["([2],[2])", "([3],[1])+", "([2],[1]", "([2],[2])*"])
def test_parse_irr_label_rejects(bad):
    with pytest.raises(ValueError):
        parse_irr_label(bad)


@pytest.mark.parametrize("bad", ["([4],[])", "([2,1,1],[],+)", "([1],[1])", "([2],[2],*)"])
def test_parse_class_rejects(bad):
    with pytest.raises(ValueError):
        parse_class(bad)


def test_irr_label_key_reproduces_enumeration_order():
    for n in range(1, 11):
        assert sorted(d_irr_labels(n), key=irr_label_key) == list(d_irr_labels(n))


def test_size_mismatch_messages_use_label_grammar():
    with pytest.raises(ValueError, match=re.escape("between ([2],[]) and ([1],[])")):
        d_char_value(make_irr_label((2,), ()), DClassType((1,), (), None))
    with pytest.raises(ValueError, match=re.escape("gamma1=[1] and ([1],[])")):
        delta_value((1,), DClassType((1,), (), None))
