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
"""

from __future__ import annotations

import re
from functools import cache
from math import factorial
from typing import NamedTuple, Optional

from .bchar import BClassType, b_centralizer_order, b_char_value, b_classes, b_degree
from .partitions import (
    Bipartition,
    Partition,
    as_partition,
    enumerate_bipartitions,
    format_bipartition,
    format_partition,
    length,
    parse_partition,
    size,
    union,
)
from .symchar import sym_char_value


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
    """Build a canonical character label, validating the degeneracy sign."""
    if eps not in (-1, 0, 1):
        raise ValueError(f"eps must be -1, 0 or +1, got {eps}")
    first, second = as_partition(first), as_partition(second)
    if first == second:
        if eps == 0:
            raise ValueError(f"label {format_bipartition((first, second))} is degenerate and needs a sign")
        return DIrrLabel((first, second), eps)
    if eps != 0:
        raise ValueError(f"label {format_bipartition((first, second))} is non-degenerate; no sign allowed")
    if _part_key(first) < _part_key(second):
        first, second = second, first
    return DIrrLabel((first, second), 0)


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


def _splittable(positive: Partition, negative: Partition) -> bool:
    return not negative and all(part % 2 == 0 for part in positive)


@cache
def d_classes(n: int) -> tuple[DClassType, ...]:
    """All conjugacy class labels of the rank-n group, n >= 1."""
    out = []
    for c in b_classes(n):
        if length(c.negative) % 2:
            continue
        if _splittable(c.positive, c.negative):
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


def delta_value(gamma1: Partition, c: DClassType) -> int:
    """Value of the degenerate difference character for [gamma1; gamma1].

    Supported on split classes only:  on (2*pi, (), s) the value is
    s * (-1)**(n/2) * 2**len(pi) * chi_gamma1(pi), with n = 2|gamma1|.
    """
    n = 2 * size(gamma1)
    if n != size(c.positive) + size(c.negative):
        raise ValueError(f"size mismatch between gamma1={gamma1} and {c}")
    if c.split is None:
        return 0
    pi = tuple(part // 2 for part in c.positive)
    return c.split * (-1) ** (n // 2) * 2 ** len(pi) * sym_char_value(gamma1, pi)


@cache
def d_char_value(chi: DIrrLabel, c: DClassType) -> int:
    """Value of the irreducible character chi on class c."""
    first, second = chi.label
    n = size(first) + size(second)
    if n != size(c.positive) + size(c.negative):
        raise ValueError(f"size mismatch between {chi} and {c}")
    restricted = b_char_value(chi.label, BClassType(c.positive, c.negative))
    if chi.eps == 0:
        return restricted
    total = restricted + chi.eps * delta_value(first, c)
    if total % 2:
        raise ArithmeticError(f"non-integral degenerate value for {chi} at {c}")
    return total // 2


def d_degree(chi: DIrrLabel) -> int:
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
    if _splittable(positive, negative):
        if ca.split is None or cb.split is None:
            raise ArithmeticError(f"impossible fusion {ca} * {cb}: unsplit block in a splittable product")
        return DClassType(positive, negative, ca.split * cb.split)
    return DClassType(positive, negative, None)


def class_size_sum_check(n: int) -> bool:
    """Class sizes from the centralizer formula partition the group."""
    order = group_order_d(n)
    return sum(order // d_centralizer_order(c) for c in d_classes(n)) == order


# ---------------------------------------------------------------------------
# Text forms

def format_irr_label(chi: DIrrLabel) -> str:
    first, second = chi.label
    base = f"({format_partition(first)},{format_partition(second)})"
    if chi.eps == 0:
        return base
    return base + ("+" if chi.eps > 0 else "-")


def parse_irr_label(text: str) -> DIrrLabel:
    """Parse a character label: '([3],[1])' or '([2],[2])+'."""
    s = text.strip()
    m = re.match(r"^\(\s*(\[[^\]]*\])\s*,\s*(\[[^\]]*\])\s*\)\s*([+-]?)$", s)
    if not m:
        raise ValueError(f"malformed character label {text!r}; expected e.g. ([3],[1]) or ([2],[2])+")
    first = parse_partition(m.group(1))
    second = parse_partition(m.group(2))
    eps = {"": 0, "+": 1, "-": -1}[m.group(3)]
    return make_irr_label(first, second, eps)


def format_class(c: DClassType) -> str:
    base = f"({format_partition(c.positive)},{format_partition(c.negative)}"
    if c.split is None:
        return base + ")"
    return base + (",+)" if c.split > 0 else ",-)")


def parse_class(text: str) -> DClassType:
    """Parse a class label: '([2,1,1],[])' or '([4],[],+)'."""
    s = text.strip()
    m = re.match(r"^\(\s*(\[[^\]]*\])\s*,\s*(\[[^\]]*\])\s*(?:,\s*([+-])\s*)?\)$", s)
    if not m:
        raise ValueError(f"malformed class label {text!r}; expected e.g. ([2,1,1],[]) or ([4],[],+)")
    positive = parse_partition(m.group(1))
    negative = parse_partition(m.group(2))
    split = None if m.group(3) is None else (1 if m.group(3) == "+" else -1)
    if length(negative) % 2:
        raise ValueError(f"class {text!r} has an odd number of negative cycles")
    if split is not None and not _splittable(positive, negative):
        raise ValueError(f"class {text!r} carries a split tag but its type does not split")
    if split is None and _splittable(positive, negative):
        raise ValueError(f"class {text!r} has a splittable type and needs a +/- tag")
    return DClassType(positive, negative, split)
