"""Character data of the hyperoctahedral groups (signed permutations).

Conjugacy classes of the group of all signed permutations of n points
are indexed by pairs of partitions (positive cycle type, negative cycle
type); irreducible characters by bipartitions (alpha; beta) of n.

The fixed labelling convention, pinned by anchor characters and frozen
by a table fixture in the test suite:

* [(n); ()] is the trivial character;
* [(); (1^n)] is the determinant of the reflection representation;
* [(1^n); ()] is the sign of the underlying permutation.

Values follow the wreath-product Murnaghan-Nakayama rule, run by the
abacus walk of ``dweyl.symchar`` on pairs of bead masks: a k-cycle is a
k-box border strip on either component, with sign (-1)**height, and a
*negative* cycle on the second component takes an extra factor -1.  The
forward walk keeps one state per orbit of
{(alpha, beta), (beta, alpha), (alpha', beta'), (beta', alpha')}:
[beta; alpha] is [alpha; beta] tensored with the linear character that
is -1 on each negative cycle (Geck-Pfeiffer 2000, 5.5), and
[alpha'; beta'] is it tensored with the sign of the underlying
permutation, so a column reads each label through those signs.  The
column of a class with an odd cycle is walked once for two classes: that
of w(-1), each odd cycle's sign flipped, is the walked one times each
label's central character at -1, (-1)**|beta|, since -1 is central
(``symchar.central_partner``).  The values asked are kept in
``b_store``, a ``symchar.Store``.
"""

from __future__ import annotations

from functools import cache, partial
from math import comb
from operator import mul
from typing import NamedTuple

from .partitions import Bipartition, Partition, bipartition_count, enumerate_bipartitions, format_bipartition, size
from .symchar import Store, _given_shape, _z, backward, central_partner, check_class, column_keys, read_column, sym_degree, written


class BClassType(NamedTuple):
    """Conjugacy class label: cycle types of positive and negative cycles."""

    positive: Partition
    negative: Partition


@cache
def b_classes(n: int) -> tuple[BClassType, ...]:
    """All classes of the rank-n group, |positive| + |negative| = n.

    Frozen order: |negative| ascending, then each component in
    partition enumeration order, which is the bipartition order.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(BClassType(positive, negative) for positive, negative in enumerate_bipartitions(n))


def b_centralizer_order(c: BClassType) -> int:
    """Centralizer order of c, checked by check_class."""
    check_class(c, "B")
    return _b_centralizer_order(*c)


def _b_centralizer_order(positive: Partition, negative: Partition) -> int:
    """Centralizer order of the class (positive, negative), unchecked:
    2**(l(positive) + l(negative)) z(positive) z(negative)."""
    return 2 ** (len(positive) + len(negative)) * _z(positive) * _z(negative)


@cache
def _column_keys(n: int) -> tuple[dict, list, dict]:
    """column_keys of the bipartitions of n, in enumeration order."""
    labels = enumerate_bipartitions(n)
    return column_keys(labels, labels)


def b_char_value(label: Bipartition, c: BClassType) -> int:
    """Value of the irreducible character [alpha; beta] on class c.  On a
    miss, c is checked by check_class (a class of W(D_n) is refused), then
    the label; b_store never holds a bad one."""
    try:
        index, column = b_memo[c]
        return column[index[label]]
    except (KeyError, TypeError):  # a miss, or an unhashable class or label
        pass
    n = b_store.rank(c)
    if not isinstance(label, tuple) or len(label) != 2:
        raise ValueError(f"label {written(label, None)} is not a type B label: it needs two fields (alpha, beta)")
    (first, a), (second, b) = _given_shape(label[0]), _given_shape(label[1])
    if a + b != n:
        raise ValueError(f"size mismatch between {format_bipartition(label)} and {format_bipartition(c)}")
    return b_store.value(c, label, n, partial(backward, c, (first, second)))


def _columns(c: BClassType, n: int) -> tuple:
    """The walk of b_store: the column at c and, when the class of w(-1),
    w in c, is another, its column, c's times the central characters."""
    column = read_column(c, _column_keys)[1]
    partner = central_partner(c)
    if partner:
        return (c, column), (BClassType(*partner), list(map(mul, column, _column_keys(n)[2]["central"])))
    return ((c, column),)


b_store = Store("B", bipartition_count, _column_keys, _columns)
b_memo = b_store.entries


def b_degree(label: Bipartition) -> int:
    """Degree of [alpha; beta]: binom(n, |alpha|) * f(alpha) * f(beta)."""
    alpha, beta = label
    n = size(alpha) + size(beta)
    return comb(n, size(alpha)) * sym_degree(alpha) * sym_degree(beta)
