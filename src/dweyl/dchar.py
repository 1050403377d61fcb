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
cycle types, walked once for both classes of a split type.  That walk
keeps one state per orbit of the swap and the conjugation; a class here
has an even number of negative cycles, so the two orders of a pair have
one value there and an unordered label is one lookup in its orbit's
state, times the class's sign pi where the orbit conjugates it, with no
table of the full group in between; only the degenerate labels then go
through ``_restrict``, and the degenerate difference reads the
symmetric group at pi the same way.  ``d_char_column`` reads a class's
column whole, with no backward walk first.  The values asked are kept in
``d_memo``, {class: {label: value}}, apart from those of the full group,
and a class with other than three fields is refused before it is read.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import repeat
from math import factorial
from operator import mul
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
from .symchar import _fold, _orbit, _shape, backward, check_class, checked_rank, first_request, splittable, sym_char_value


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
        raise ValueError(f"eps must be -1, 0 or +1, got {eps!r} for {format_bipartition((first, second))}")
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


def _fields_error(c) -> ValueError:
    return ValueError(f"class {format_bipartition(c[:2])} is not a type D class: it needs three fields (positive, negative, split)")


def delta_value(gamma1: Partition, c: DClassType) -> int:
    """Value of the degenerate difference character for [gamma1; gamma1].

    Supported on split classes only:  on (2*pi, (), s) the value is
    s * (-1)**(n/2) * 2**len(pi) * chi_gamma1(pi), with n = 2|gamma1|.
    """
    if len(c) != 3:
        raise _fields_error(c)
    if 2 * _shape(gamma1)[1] != check_class(c):
        raise ValueError(f"size mismatch between gamma1={format_partition(gamma1)} and {format_class(c)}")
    return _delta(gamma1, c)


def _delta(gamma1: Partition, c: DClassType) -> int:
    """delta_value with gamma1 and c already checked."""
    if c.split is None:
        return 0
    pi = tuple(part // 2 for part in c.positive)
    return c.split * (-1) ** sum(gamma1) * 2 ** len(pi) * sym_char_value(gamma1, pi)


def _restrict(chi: DIrrLabel, c: DClassType, ambient: int) -> int:
    """chi's value at c from the value there of [chi.label] of the full
    group."""
    if chi.eps == 0:
        return ambient
    total = ambient + chi.eps * _delta(chi.label[0], c)
    if total % 2:
        raise ArithmeticError(f"non-integral degenerate value for {format_irr_label(chi)} at {format_class(c)}")
    return total // 2


d_memo: dict = {}
"""{class: {label: value at the class}}: the values asked of D_n."""


def d_char_value(chi: DIrrLabel, c: DClassType) -> int:
    """Value of the irreducible character chi on class c.  A class without
    the three fields of a class of this group, such as a class of the
    full group, is refused before d_memo is read."""
    if len(c) != 3:
        raise _fields_error(c)
    try:
        return d_memo[c][chi]
    except KeyError:
        pass
    except TypeError:  # unhashable: a bad label, which check_label names, or class
        check_label(chi)
        raise
    n = checked_rank(d_memo, c, c)
    try:
        state, size = _label_state(chi)
    except TypeError:  # unhashable label, at a class with no values yet
        check_label(chi)
        raise
    if size != n:
        raise ValueError(f"size mismatch between {format_irr_label(chi)} and {format_class(c)}")
    return first_request(d_memo, c, chi, bipartition_count, n, partial(_first_value, chi, c, state), partial(_column, c, n))


def _first_value(chi: DIrrLabel, c: DClassType, state: tuple[int, int]) -> int:
    """chi's value at c by a backward walk from its bead masks."""
    return _restrict(chi, c, backward(c[:2], state))


@cache
def _column_keys(n: int) -> tuple[tuple[DIrrLabel, ...], list, list, list]:
    """The labels of rank n; the state of each in the folded walk (that of
    its bipartition); the sign of its value on that state at a class
    where pi is -1; and the degenerate labels."""
    labels = d_irr_labels(n)
    orbits = [_orbit(_shape(X.label[0])[0], _shape(X.label[1])[0]) for X in labels]
    keys = [(first, second) for first, second, _ in orbits]
    return labels, keys, [-1 if via & 2 else 1 for *_, via in orbits], [X for X in labels if X.eps]


def d_char_column(c: DClassType) -> list[int]:
    """Value at c of every label of its rank, in d_irr_labels order: the
    column that d_char_value reads from a class's second label on, kept
    in the same store."""
    if len(c) != 3:
        raise _fields_error(c)
    n = checked_rank(d_memo, c, c)
    column = d_memo.get(c)
    if column is None or len(column) < d_label_count(n):
        d_memo[c] = column = _column(c, n)
    return list(map(column.__getitem__, d_irr_labels(n)))


def _column(c: DClassType, n: int) -> dict:
    """Value at c of every label of rank n, read straight from the folded
    walk of c's type: c has an even number of negative cycles, so a label
    and its swap have one value there, one lookup per label, times c's
    sign where the conjugation carries the label to its state; only the
    degenerate labels go through _restrict.  The other class of a split
    type differs only there, and its store entry gets its whole column
    too."""
    labels, keys, conjugated, degenerate = _column_keys(n)
    positive, negative, split = c
    values = map(_fold((positive, negative)).get, keys, repeat(0))
    if (n - len(positive) - len(negative)) % 2:  # pi(c) = -1
        values = map(mul, values, conjugated)
    col = dict(zip(labels, values))
    if split:
        twin = DClassType(positive, negative, -split)
        d_memo[twin] = col | {X: _restrict(X, twin, col[X]) for X in degenerate}
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
