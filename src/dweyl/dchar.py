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
  fuse by the union of their positive and of their negative cycle
  types, and split tags multiply: a conjugator onto the sign-free
  representative can be taken block by block, and sign changes add
  (``oracle._fused_counts``).

Values come from the abacus walk of ``dweyl.symchar``, with no
recursion.  A class's first value (``_first_value``) walks back, through
``_restrict``; its whole column is read with ``symchar.read_column``,
the column reader of the full group and of the symmetric groups too: the
folded forward walk of the full group at the class's cycle types, walked
once for both classes of a split type, read under the labels of this
group.  A class here has an even number of negative cycles, so the two
orders of a pair have one value there, and an unordered label reads the
state of its bipartition, with no table of the full group in between;
only the degenerate labels then change, halved, and at a split type
corrected by the degenerate difference, read from the whole column of
the symmetric group at pi.  At even n, -1 lies in this group, and the
column walked at a class with an odd cycle gives that of the class of
w(-1) too, each odd cycle's sign flipped: a label's value there is its
value at w times its central character at -1, (-1)**|beta|
(``symchar.central_partner``).  A split type has no odd cycle, so its
classes have no such partner.  The values asked are kept in
``d_store``, a ``symchar.Store``, in ``d_irr_labels`` order; a class is
checked, by ``symchar.check_class``, and a label, by ``check_label``,
only on a miss.
"""

from __future__ import annotations

from functools import cache, partial
from math import factorial
from operator import mul
from typing import NamedTuple, Optional

from .bchar import _b_centralizer_order, b_classes, b_degree
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
    partition_counts,
    read_label,
    size,
)
from .symchar import Store, _given_shape, _shape, backward, central_partner, check_class, column_keys, read_column, s_store, splittable, sym_char_value, written


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
    builds it: a pair (two partitions, the larger first) and a sign,
    nonzero exactly when they are equal."""
    if not isinstance(chi, tuple) or len(chi) != 2 or not isinstance(chi[0], tuple) or len(chi[0]) != 2:
        raise ValueError(f"label {written(chi, None)} is not a type D label: it needs two fields, a pair of partitions and a sign")
    (first, second), eps = chi
    rank = size(as_partition(first)) + size(as_partition(second))
    if type(eps) is not int or eps not in (-1, 0, 1):
        raise ValueError(f"eps must be -1, 0 or +1, got {written(eps, None)} for {format_bipartition((first, second))}")
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
    (first, second), eps = chi
    return (-size(first), tuple(-x for x in first), tuple(-x for x in second), -eps)


@cache
def d_irr_labels(n: int) -> tuple[DIrrLabel, ...]:
    """All irreducible character labels of the rank-n group, n >= 1.

    Rank 1 is the trivial group; its single character is labelled
    (((1),()), 0) so that rank-1 factors work uniformly in products.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    # The bipartitions come |first| descending, p(k) p(n - k) of each size
    # k of first: those with k > n - k are labels as they stand, those
    # with k = n - k only when first >= second (twice, signed, when
    # equal), and the rest are the swaps of labels.
    p, pairs = partition_counts(n), enumerate_bipartitions(n)
    larger = sum(p[k] * p[n - k] for k in range(n, n // 2, -1))
    out = [DIrrLabel(pair, 0) for pair in pairs[:larger]]
    if n % 2 == 0:
        for pair in pairs[larger : larger + p[n // 2] ** 2]:
            first, second = pair
            if first == second:
                out += DIrrLabel(pair, 1), DIrrLabel(pair, -1)
            elif first > second:
                out.append(DIrrLabel(pair, 0))
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
    """Centralizer order inside the even-signed group, c checked by
    check_class."""
    check_class(c, "D")
    return _d_centralizer_order(c)


def _d_centralizer_order(c: DClassType) -> int:
    """d_centralizer_order of c, unchecked.  Split classes keep the
    ambient centralizer (the ambient class halves); non-split classes
    halve it (the ambient class is a single class of the subgroup)."""
    positive, negative, split = c
    ambient = _b_centralizer_order(positive, negative)
    return ambient if split is not None else ambient // 2


@cache
def _label_state(chi: DIrrLabel) -> tuple[tuple[int, int], int]:
    """Bead masks and rank of a character label, checked."""
    n = check_label(chi)
    (first, second), _ = chi
    return (_shape(first)[0], _shape(second)[0]), n


def delta_value(gamma1: Partition, c: DClassType) -> int:
    """Value of the degenerate difference character for [gamma1; gamma1]
    at c, which check_class checks: s * (-1)**(n/2) * 2**len(pi) *
    chi_gamma1(pi) on a split class (2*pi, (), s), n = 2|gamma1|, else 0."""
    if 2 * _given_shape(gamma1)[1] != check_class(c, "D"):
        raise ValueError(f"size mismatch between gamma1={format_partition(gamma1)} and {format_class(c)}")
    return _delta(gamma1, c)


def _delta(gamma1: Partition, c: DClassType) -> int:
    """delta_value with gamma1 and c already checked."""
    positive, _, split = c
    if split is None:
        return 0
    pi = tuple(part // 2 for part in positive)
    return split * (-1) ** sum(gamma1) * 2 ** len(pi) * sym_char_value(gamma1, pi)


def _restrict(chi: DIrrLabel, c: DClassType, ambient: int) -> int:
    """chi's value at c from the value there of its pair's character of
    the full group."""
    (gamma, _), eps = chi
    return _halve(chi, c, ambient + eps * _delta(gamma, c)) if eps else ambient


def _halve(chi: DIrrLabel, c: DClassType, total: int) -> int:
    """A degenerate chi's value at c from total, twice that value."""
    if total % 2:
        raise ArithmeticError(f"non-integral degenerate value for {format_irr_label(chi)} at {format_class(c)}")
    return total // 2


def d_char_value(chi: DIrrLabel, c: DClassType) -> int:
    """Value of the irreducible character chi on class c.  On a miss, c is
    checked by check_class (a class of the full group is refused), then
    chi by check_label; d_store never holds a bad one."""
    try:
        index, column = d_memo[c]
        return column[index[chi]]
    except (KeyError, TypeError):  # a miss, or an unhashable class or label
        pass
    n = d_store.rank(c)
    try:
        state, size = _label_state(chi)
    except TypeError:  # unhashable label, which check_label names
        check_label(chi)
        raise ValueError(f"label {format_irr_label(chi)} is unhashable") from None
    if size != n:
        raise ValueError(f"size mismatch between {format_irr_label(chi)} and {format_class(c)}")
    return d_store.value(c, chi, n, partial(_first_value, chi, c, state))


def _first_value(chi: DIrrLabel, c: DClassType, state: tuple[int, int]) -> int:
    """chi's value at c by a backward walk from its bead masks."""
    return _restrict(chi, c, backward(c[:2], state))


@cache
def _column_keys(n: int) -> tuple[dict, list, dict]:
    """column_keys of the labels of rank n, at their bipartitions' states."""
    labels = d_irr_labels(n)
    return column_keys(labels, [X.label for X in labels])


@cache
def _degenerate(n: int) -> tuple[tuple[int, DIrrLabel], ...]:
    """(slot, label) of the degenerate labels of rank n."""
    return tuple((i, X) for i, X in enumerate(d_irr_labels(n)) if X.eps)


def d_char_column(c: DClassType) -> list[int]:
    """Value at c of every label of its rank, in d_irr_labels order: a
    copy of the column that d_char_value reads, checked by check_class
    unless d_store has it."""
    return d_store.column(c, d_store.rank(c)).copy()


def _columns(c: DClassType, n: int) -> tuple:
    """The walk of d_store: the column at c, read_column of c's type, as a
    label and its swap have one value there; only the degenerate labels
    change, halved, and at a split type corrected by the difference
    character, read from the S_{n/2} column at pi.  The twin of a split
    type differs only there; at even n, the class of w(-1), w in c, when
    another, takes c's column times the central characters at -1."""
    positive, negative, split = c
    column = read_column((positive, negative), _column_keys)[1]
    if split:
        twin = DClassType(positive, negative, -split)
        other = column.copy()
        pi = tuple(part // 2 for part in positive)
        s_index, s_values = s_store.keys(n // 2)[0], s_store.column(pi, n // 2)
        scale = split * (-1) ** (n // 2) * 2 ** len(pi)
        for i, X in _degenerate(n):
            delta = X.eps * scale * s_values[s_index[X.label[0]]]
            column[i], other[i] = _halve(X, c, column[i] + delta), _halve(X, twin, column[i] - delta)
        return (c, column), (twin, other)
    for i, X in _degenerate(n):
        column[i] = _halve(X, c, column[i])
    if not n % 2 and (partner := central_partner((positive, negative))):
        return (c, column), (DClassType(*partner, None), list(map(mul, column, _column_keys(n)[2]["central"])))
    return ((c, column),)


d_store = Store("D", bipartition_count, _column_keys, _columns)
d_memo = d_store.entries


def d_degree(chi: DIrrLabel) -> int:
    check_label(chi)
    pair, eps = chi
    deg = b_degree(pair)
    return deg // 2 if eps else deg


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
    check_class(c, "D")
    return c
