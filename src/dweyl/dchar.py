"""Character data of the even-signed permutation groups (type D).

The rank-n group W(D_n) sits inside the full signed permutation group
as the index-2 subgroup with an even number of sign changes.  Its
irreducible characters come from restricting the ambient [alpha; beta]:
for alpha != beta the restriction stays irreducible and depends only on
the unordered pair (a *non-degenerate* label, stored with the larger
component first); for alpha = beta (n even) it splits into two
*degenerate* constituents distinguished by a sign.

Class labels are pairs (positive, negative) of cycle types with an even
number of negative cycles.  A class with no negative cycles and all
positive parts even splits into two classes of the subgroup, tagged +
and -.

Frozen conventions, validated by the explicit-group engine and the
orthogonality tests:

* The + split class with positive type 2*pi is the one containing the
  ordinary permutations of cycle type 2*pi (no sign changes anywhere);
  the - class is its conjugate under a single sign flip.
* The difference of the two degenerate constituents of [gamma; gamma]
  takes the value  s * (-1)**(n/2) * 2**len(pi) * chi_gamma(pi)  on the
  split class (2*pi, (), s) and 0 elsewhere; the + constituent is the
  one adding this difference with a plus sign.
* Classes of a product of two such groups acting on disjoint blocks
  fuse by concatenating cycle types; split tags multiply.

Values come from the abacus walk of ``dweyl.symchar``, with no
recursion, under its first-request rule: a class's first value walks
back from the label; a second label asked at the class reads every
label's value from the folded forward walk of the full group at its
cycle types, walked once for both classes of a split type.  A class
here has an even number of negative cycles, so the two orders of a pair
have one value there and an unordered label is one lookup in the folded
states, with no table of the full group in between; only the degenerate
labels then go through ``_restrict``, and the degenerate difference
reads the symmetric group at pi the same way.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat
from math import factorial
from typing import NamedTuple, Optional

from .bchar import BClassType, b_centralizer_order, b_classes, b_degree
from .partitions import (
    Bipartition,
    Partition,
    as_partition,
    bipartition_count,
    enumerate_bipartitions,
    format_bipartition,
    format_class,
    format_irr_label,
    format_partition,
    length,
    partition_count,
    read_label,
    size,
    union,
)
from .symchar import _fold, _labels, _shape, backward, check_class, first_request, memo, splittable, sym_char_value


class DIrrLabel(NamedTuple):
    """Irreducible character label: a bipartition plus a degeneracy sign.

    eps is 0 for non-degenerate labels (components differ, stored in
    canonical order) and +1/-1 for the two constituents of an equal
    pair.
    """

    label: Bipartition
    eps: int


class DClassType(NamedTuple):
    """Conjugacy class label: signed cycle types plus an optional split tag."""

    positive: Partition
    negative: Partition
    split: Optional[int] = None


def group_order_d(n: int) -> int:
    return 2 ** (n - 1) * factorial(n)


def _part_key(p: Partition) -> tuple[int, Partition]:
    # Frozen total order on partitions used only for canonicalization.
    return (size(p), p)


def make_irr_label(first: Partition, second: Partition, eps: int = 0) -> DIrrLabel:
    """The checked label of [first; second] with sign eps, the larger
    component (by size, then as a tuple) first."""
    if _part_key(as_partition(first)) < _part_key(as_partition(second)):
        first, second = second, first
    chi = DIrrLabel((first, second), eps)
    check_label(chi)
    return chi


def check_label(chi: DIrrLabel, n: Optional[int] = None) -> int:
    """Rank of chi (n if given) after checking it is as make_irr_label
    builds it: partitions, the larger first, a sign exactly when equal."""
    (first, second), eps = chi
    rank = size(as_partition(first)) + size(as_partition(second))
    if eps not in (-1, 0, 1):
        raise ValueError(f"eps must be -1, 0 or +1, got {eps}")
    if first == second and not eps:
        raise ValueError(f"label {format_bipartition((first, second))} is degenerate and needs a sign")
    if first != second and eps:
        raise ValueError(f"label {format_bipartition((first, second))} is non-degenerate; no sign allowed")
    if _part_key(first) < _part_key(second):
        raise ValueError(f"label {format_irr_label(chi)} is not canonical: write {format_irr_label(((second, first), 0))}")
    if n is not None and rank != n:
        raise ValueError(f"label {format_irr_label(chi)} has size {rank}, expected {n}")
    return rank


def irr_label_key(chi: DIrrLabel) -> tuple:
    """Sort key putting labels of one rank in d_irr_labels order.

    That order is |first| descending, then first and second each in
    partition enumeration order (descending tuples), then + before -.
    """
    first, second = chi.label
    return (-size(first), tuple(-x for x in first), tuple(-x for x in second), -chi.eps)


@cache
def d_irr_labels(n: int) -> tuple[DIrrLabel, ...]:
    """All irreducible character labels of the rank-n group, n >= 1.

    Rank 1 is the trivial group; its single character is labelled
    (((1),()), 0) so that rank-1 factors work uniformly in products.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    out = []
    for first, second in enumerate_bipartitions(n):
        if first == second:
            out.append(DIrrLabel((first, second), 1))
            out.append(DIrrLabel((first, second), -1))
        elif _part_key(first) > _part_key(second):
            out.append(DIrrLabel((first, second), 0))
    return tuple(out)


def d_label_count(n: int) -> int:
    """len(d_irr_labels(n)), counted without enumerating: an unordered
    pair of distinct partitions per two bipartitions, and two labels per
    equal pair (gamma; gamma) when n is even."""
    equal = partition_count(n // 2) if n % 2 == 0 else 0
    return (bipartition_count(n) + 3 * equal) // 2


@cache
def d_classes(n: int) -> tuple[DClassType, ...]:
    """All conjugacy class labels of the rank-n group, n >= 1."""
    out = []
    for c in b_classes(n):
        if length(c.negative) % 2:
            continue
        if splittable(c.positive, c.negative):
            out += [DClassType(c.positive, c.negative, 1), DClassType(c.positive, c.negative, -1)]
        else:
            out.append(DClassType(c.positive, c.negative, None))
    return tuple(out)


def d_centralizer_order(c: DClassType) -> int:
    """Centralizer order inside the even-signed group.

    Split classes keep the ambient centralizer (the ambient class
    halves); non-split classes halve it (the ambient class is a single
    class of the subgroup).
    """
    ambient = b_centralizer_order(BClassType(c.positive, c.negative))
    return ambient if c.split is not None else ambient // 2


def d_class_size(c: DClassType) -> int:
    n = size(c.positive) + size(c.negative)
    return group_order_d(n) // d_centralizer_order(c)


@cache
def _label_state(chi: DIrrLabel) -> tuple[tuple[int, int], int]:
    """Bead masks and rank of a character label, checked."""
    n = check_label(chi)
    return (_shape(chi.label[0])[0], _shape(chi.label[1])[0]), n


def delta_value(gamma1: Partition, c: DClassType) -> int:
    """Value of the degenerate difference character for [gamma1; gamma1].

    Supported on split classes only:  on (2*pi, (), s) the value is
    s * (-1)**(n/2) * 2**len(pi) * chi_gamma1(pi), with n = 2|gamma1|.
    """
    n = 2 * _shape(gamma1)[1]
    if n != memo(c)[1]:
        raise ValueError(f"size mismatch between gamma1={format_partition(gamma1)} and {format_class(c)}")
    if c.split is None:
        return 0
    pi = tuple(part // 2 for part in c.positive)
    return c.split * (-1) ** (n // 2) * 2 ** len(pi) * sym_char_value(gamma1, pi)


def _restrict(chi: DIrrLabel, c: DClassType, ambient: int) -> int:
    """chi's value at c from the value there of [chi.label] of the full
    group."""
    if chi.eps == 0:
        return ambient
    total = ambient + chi.eps * delta_value(chi.label[0], c)
    if total % 2:
        raise ArithmeticError(f"non-integral degenerate value for {format_irr_label(chi)} at {format_class(c)}")
    return total // 2


def d_char_value(chi: DIrrLabel, c: DClassType) -> int:
    """Value of the irreducible character chi on class c."""
    try:
        value = memo(c)[0].get(chi)
    except TypeError:  # unhashable: a bad label, which check_label names, or class
        check_label(chi)
        raise
    if value is None:
        state, n = _label_state(chi)
        if n != memo(c)[1]:
            raise ValueError(f"size mismatch between {format_irr_label(chi)} and {format_class(c)}")
        value = first_request(c, chi, lambda: _restrict(chi, c, backward(c[:2], state)), lambda: _column(c, n))
    return value


@cache
def _column_keys(n: int) -> tuple[tuple[DIrrLabel, ...], list, list]:
    """The labels of rank n, the state of each in the folded walk (that
    of its bipartition), and the degenerate labels."""
    labels = d_irr_labels(n)
    key = dict(zip(*_labels(n, True)[:2]))
    return labels, [key[X.label] for X in labels], [X for X in labels if X.eps]


def _column(c: DClassType, n: int) -> dict:
    """Value at c of every label of rank n, read straight from the folded
    walk of c's type: c has an even number of negative cycles, so a label
    and its swap have one value there, one lookup per label; only the
    degenerate labels go through _restrict.  The other class of a split
    type differs only there, and its memo gets its whole column too."""
    labels, keys, degenerate = _column_keys(n)
    col = dict(zip(labels, map(_fold(c[:2]).get, keys, repeat(0))))
    if c.split:
        twin = c._replace(split=-c.split)
        memo(twin)[0] = col | {X: _restrict(X, twin, col[X]) for X in degenerate}
    for X in degenerate:
        col[X] = _restrict(X, c, col[X])
    return col


def d_degree(chi: DIrrLabel) -> int:
    check_label(chi)
    deg = b_degree(chi.label)
    if chi.eps == 0:
        return deg
    return deg // 2


def fuse_class(ca: DClassType, cb: DClassType) -> DClassType:
    """Class of a blockwise product element from its block classes.

    Cycle types concatenate.  The fused type can split only when both
    block classes are split (a non-split block contributes an odd
    positive part or a negative cycle), and then the tags multiply.
    """
    positive = union(ca.positive, cb.positive)
    negative = union(ca.negative, cb.negative)
    if splittable(positive, negative):
        if ca.split is None or cb.split is None:
            raise ArithmeticError(f"impossible fusion {format_class(ca)} * {format_class(cb)}: unsplit block in a splittable product")
        return DClassType(positive, negative, ca.split * cb.split)
    return DClassType(positive, negative, None)


def class_size_sum_check(n: int) -> bool:
    """Class sizes from the centralizer formula partition the group."""
    order = group_order_d(n)
    return sum(order // d_centralizer_order(c) for c in d_classes(n)) == order


# ---------------------------------------------------------------------------
# Text forms, in partitions.GRAMMAR

def parse_irr_label(text: str) -> DIrrLabel:
    """Parse a character label: '([3],[1])' or '([2],[2])+'."""
    (first, second), eps = read_label(text, "D character")
    return make_irr_label(first, second, eps)


def parse_class(text: str) -> DClassType:
    """Parse a class label: '([2,1,1],[])' or '([4],[],+)'."""
    (positive, negative), split = read_label(text, "D class")
    c = DClassType(positive, negative, split or None)
    check_class(c)
    return c
