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
*negative* cycle on the second component takes an extra factor -1.  As
there, a class's first value walks back from the label and a second
label asked at the class walks its whole column forward, with no
recursion either way.  The forward walk keeps one state per orbit of
{(alpha, beta), (beta, alpha), (alpha', beta'), (beta', alpha')}:
[beta; alpha] is [alpha; beta] tensored with the linear character that
is -1 on each negative cycle (Geck-Pfeiffer 2000, 5.5), and
[alpha'; beta'] is it tensored with the sign of the underlying
permutation, so a column reads each label through those signs.  The
values asked are kept in ``b_memo``, {class: {label: value}}, and a
class with other than two fields is refused before it is walked.
"""

from __future__ import annotations

from functools import cache, partial
from math import comb, factorial
from typing import NamedTuple

from .partitions import Bipartition, Partition, bipartition_count, enumerate_bipartitions, format_bipartition, format_partition, size
from .symchar import _shape, backward, checked_rank, first_request, read_column, sym_centralizer_order, sym_degree


class BClassType(NamedTuple):
    """Conjugacy class label: cycle types of positive and negative cycles."""

    positive: Partition
    negative: Partition


def group_order_b(n: int) -> int:
    return 2**n * factorial(n)


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
    """Centralizer order: 2**(l(positive) + l(negative)) z(positive) z(negative)."""
    twos = 2 ** (len(c.positive) + len(c.negative))
    return twos * sym_centralizer_order(c.positive) * sym_centralizer_order(c.negative)


b_memo: dict = {}
"""{class: {label: value at the class}}: the values asked of B_n."""


def _fields_error(c) -> ValueError:
    fields = ",".join(map(format_partition, c[:2]))
    return ValueError(f"class ({fields}) is not a type B class: it needs two fields (positive, negative)")


def b_char_value(label: Bipartition, c: BClassType) -> int:
    """Value of the irreducible character [alpha; beta] on class c.  A
    class without the two fields of a class of this group, such as a
    class of W(D_n), is refused on a miss; b_memo never holds one."""
    try:
        return b_memo[c][label]
    except KeyError:
        pass
    if len(c) != 2:
        raise _fields_error(c)
    n = checked_rank(b_memo, c, c)
    (first, a), (second, b) = _shape(label[0]), _shape(label[1])
    if a + b != n:
        raise ValueError(f"size mismatch between {format_bipartition(label)} and {format_bipartition(c)}")
    return first_request(b_memo, c, label, bipartition_count, n, partial(backward, c, (first, second)), partial(read_column, c))


def b_degree(label: Bipartition) -> int:
    """Degree of [alpha; beta]: binom(n, |alpha|) * f(alpha) * f(beta)."""
    alpha, beta = label
    n = size(alpha) + size(beta)
    return comb(n, size(alpha)) * sym_degree(alpha) * sym_degree(beta)
