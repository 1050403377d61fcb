"""Character data of the hyperoctahedral groups (signed permutations).

Conjugacy classes of the group of all signed permutations of n points
are indexed by pairs of partitions (positive cycle type, negative cycle
type); irreducible characters by bipartitions (alpha; beta) of n.

The fixed labelling convention, pinned by anchor characters and frozen
by a table fixture in the test suite:

* [(n); ()] is the trivial character;
* [(); (1^n)] is the determinant of the reflection representation;
* [(1^n); ()] is the sign of the underlying permutation.

Values follow the wreath-product border-strip recursion: a cycle of
length k is peeled as a k-box border strip from either component, with
the usual sign (-1)**height, and a *negative* cycle peeled from the
second component contributes an extra factor -1.  The one implementation
is the abacus kernel ``dweyl.symchar.mn_value``.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial
from typing import NamedTuple

from .partitions import Bipartition, Partition, enumerate_bipartitions, size
from .symchar import mn_value, sym_centralizer_order, sym_degree


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


def b_char_value(label: Bipartition, c: BClassType) -> int:
    """Value of the irreducible character [alpha; beta] on class c."""
    alpha, beta = label
    if size(alpha) + size(beta) != size(c.positive) + size(c.negative):
        raise ValueError(f"size mismatch between {label} and {c}")
    return mn_value(alpha, beta, c.positive, c.negative)


def b_degree(label: Bipartition) -> int:
    """Degree of [alpha; beta]: binom(n, |alpha|) * f(alpha) * f(beta)."""
    alpha, beta = label
    n = size(alpha) + size(beta)
    return comb(n, size(alpha)) * sym_degree(alpha) * sym_degree(beta)
