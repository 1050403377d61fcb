from math import comb

import pytest

from dweyl.lr import _horizontal_strips, lr_coefficient, lr_expand
from dweyl.partitions import enumerate_partitions
from dweyl.symchar import sym_degree

from explicit import lr_coefficient_by_characters


def test_basic_values():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2,), (1,), (1, 1, 1)) == 0  # gamma does not contain alpha
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2


def test_size_mismatch_gives_zero():
    assert lr_coefficient((2,), (1,), (2,)) == 0
    assert lr_coefficient((2,), (1,), (4,)) == 0


def test_empty_factor_is_unit():
    for n in range(7):
        for alpha in enumerate_partitions(n):
            for gamma in enumerate_partitions(n):
                assert lr_coefficient(alpha, (), gamma) == (1 if gamma == alpha else 0)
                assert lr_coefficient((), alpha, gamma) == (1 if gamma == alpha else 0)


def test_expand_examples():
    assert lr_expand((1,), (1,)) == {(2,): 1, (1, 1): 1}
    assert lr_expand((2,), (1,)) == {(3,): 1, (2, 1): 1}
    assert lr_expand((), ()) == {(): 1}


def test_symmetry_small():
    for total in range(7):
        for a in range(total + 1):
            for alpha in enumerate_partitions(a):
                for beta in enumerate_partitions(total - a):
                    for gamma in enumerate_partitions(total):
                        assert lr_coefficient(alpha, beta, gamma) == lr_coefficient(beta, alpha, gamma)


def test_dimension_sum_rule():
    for total in range(7):
        for a in range(total + 1):
            for alpha in enumerate_partitions(a):
                for beta in enumerate_partitions(total - a):
                    expanded = lr_expand(alpha, beta)
                    got = sum(c * sym_degree(g) for g, c in expanded.items())
                    assert got == comb(total, a) * sym_degree(alpha) * sym_degree(beta)


def test_against_character_inner_product_small():
    # full range up to 8 runs in the acceptance suite
    for total in range(6):
        for a in range(total + 1):
            for alpha in enumerate_partitions(a):
                for beta in enumerate_partitions(total - a):
                    for gamma in enumerate_partitions(total):
                        assert lr_coefficient(alpha, beta, gamma) == lr_coefficient_by_characters(alpha, beta, gamma)


def test_specific_inner_product_oracle_value():
    assert lr_coefficient_by_characters((2, 1), (2, 1), (3, 2, 1)) == 2


def test_strip_product_matches_tableau_filling():
    # the two LR rules are independent; compare them on every pair up to size 10
    for total in range(11):
        gammas = enumerate_partitions(total)
        for a in range(total + 1):
            for alpha in enumerate_partitions(a):
                for beta in enumerate_partitions(total - a):
                    expanded = lr_expand(alpha, beta)
                    assert list(expanded) == [g for g in gammas if g in expanded]
                    for gamma in gammas:
                        assert expanded.get(gamma, 0) == lr_coefficient(alpha, beta, gamma)


def test_expand_is_read_only():
    expanded = lr_expand((2, 1), (1,))
    with pytest.raises(TypeError):
        expanded[(3, 1)] = 5
    assert lr_expand((2, 1), (1,)) == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}


def test_expand_many_rows_without_recursion():
    column = (1,) * 1500
    assert lr_expand(column, (1,)) == {(2,) + (1,) * 1499: 1, (1,) * 1501: 1}


def test_coefficient_many_rows_without_recursion():
    column = (1,) * 1500
    assert lr_coefficient((), column, column) == 1
    assert lr_coefficient((1,) * 700, (1,) * 800, column) == 1


def test_lr_expand_checks_its_arguments_on_cache_hits():
    assert dict(lr_expand((2,), (1,))) == {(3,): 1, (2, 1): 1}
    with pytest.raises(ValueError, match=r"\[2\.0\] is not a partition"):
        lr_expand((2.0,), (1,))


def test_horizontal_strips_with_no_room_yield_nothing():
    # ballot: the two new letters fit only in the new row, and no more of
    # them than the previous letters above it, one in (1,), two in (2,)
    assert list(_horizontal_strips((2,), (1,), 2, True)) == []
    assert list(_horizontal_strips((2,), (2,), 2, True)) == [(2, 2)]
