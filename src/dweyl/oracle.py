"""Brute-force verification engine on explicit signed permutations.

The closed formula of decomp is checked against this independent
computation: conjugacy classes come from each element's signed cycle
type, and induced characters from explicit summation over the block
subgroup, class by class.  Nothing here uses the formula;
dweyl.verify.verify_formula compares the two for every pair of block
characters.  The tests hold it against their own explicit-element
toolkit (reference group tables that classify every element by its own
cycle walk, element arithmetic, elementwise induction), which is not
part of the package.

A signed permutation of {1..n} is a tuple w of length n whose entry
w[i] = +j or -j says that point i+1 maps to point j with that sign.
An element lies in the even-signed (type D) group exactly when the
number of negative entries is even.

A signed cycle type with a negative cycle or an odd positive cycle is a
single class of the even-signed group.  Any other type (all cycles
positive and even) splits in two, and its tag comes from one conjugacy
test: the element is conjugate under the even-signed group to the
sign-free representative (tag +) exactly when a signed permutation
conjugating it onto that representative has an even number of sign
changes.  This is well defined because such an element's centralizer
in the full signed permutation group lies inside the even-signed group.

The block subgroup is the product of the even-signed groups of its two
blocks, so its elements are the pairs of block elements.  Each block's
classes are counted once per rank, a count that every split reading a
block of that rank shares: a class c of the rank-k group holds
|W(D_k)| / |C(c)| elements, the orbit of one of them under
conjugation.  The centralizer order is exact in closed form: in the
full signed permutation group a cycle of length L commutes with its 2L
signed powers and equal cycles are permuted among themselves, so
|C| = 2^(l(positive) + l(negative)) z(positive) z(negative); a split
class keeps it, as the ambient class halves, and any other class halves
it, as the ambient class is one class of the subgroup (Geck and
Pfeiffer, Characters of finite Coxeter groups and Iwahori-Hecke
algebras, 2000).  The tests hold the counts against the explicit group
tables up to rank 7.  oracle_induce, and so verify_formula, is capped
at n = 11, the largest rank at which every split fits the 64-bit slots
below.  The formula side of the package has no such bound.

A pair of block classes fuses by one union rule: the element's positive
and negative cycle types are the unions of its blocks', and a split
type's tag is the product of theirs.  Its signed cycles are its blocks',
so at a split type both blocks are split, and a conjugator onto the
sign-free representative can be taken block by block, each block's onto
its own sign-free element, then a sign-free one: sign changes add, so
tags multiply.  test_union_rule_matches_the_walk_of_the_joined_element
and test_fused_counts_match_scan_over_the_group hold the rule.

The inner products with every label of the rank-n group come at once,
by Kronecker substitution: the column of a class type, in d_irr_labels
order, is packed into one integer with a signed 64-bit slot per label,
and per pair of block types (pa, pb) these are summed, weighted by how
many subgroup elements of each type the pair holds.  For a label A the
sums over pa weighted by A(pa) are formed once per pb, and for each B
the multiply-adds weighted by B(pb) give one integer whose slots are the
|Irr D_n| numerators; one decode reads them, and each is divided
exactly by |H|.  Each block character's values are read once per split.
A numerator is a sum over H of character values, each bounded by its
degree, so |H| * max deg A * max deg B * max deg X bounds it, each
maximum the largest value in its rank's identity column, which the
split reads anyway; a split whose bound reaches 2^63 is refused before
anything is packed.  Under the cap above the bound stays below 2^60, at
(11, 1, 10); at n = 12 the splits with a block of rank 1 or 2 pass 2^63.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from collections import defaultdict
from functools import cache
from typing import NamedTuple, Sequence

from .dchar import DClassType, DIrrLabel, _d_centralizer_order, _d_char_column, check_label, d_char_value, d_classes, d_irr_labels, format_irr_label, group_order_d
from .decomp import DecompositionResult
from .partitions import Partition, RangeError, union

MAX_RANK = 11  # verify_formula and oracle_induce


# ---------------------------------------------------------------------------
# The block subgroup, class by class

def _class_type(positive: Partition, negative: Partition, flips: int) -> DClassType:
    """Class label from the cycle types of an element and the parity of
    a conjugator's sign changes (see the module docstring)."""
    if negative or any(part % 2 for part in positive):
        return DClassType(positive, negative, None)
    return DClassType(positive, negative, -1 if flips else 1)


@cache
def _block_tally(k: int) -> dict[DClassType, int]:
    """Class of the rank-k group -> how many of its elements:
    |W(D_k)| / |C(c)| (see the module docstring)."""
    return {c: group_order_d(k) // _d_centralizer_order(c) for c in d_classes(k)}


@cache
def _fused_counts(n: int, a: int, b: int) -> dict[DClassType, dict[tuple[DClassType, DClassType], int]]:
    """Per class type of the rank-n group meeting the block subgroup: how
    many subgroup elements of each block-class pair it contains, the
    blocks' classes tallied by _block_tally, which mirror splits share,
    and fused by the union rule (see the module docstring)."""
    if a + b != n:
        raise ValueError(f"blocks {a}+{b} do not fill {n}")
    counts: defaultdict[DClassType, dict] = defaultdict(dict)
    for pa, na in _block_tally(a).items():
        for pb, nb in _block_tally(b).items():
            ty = _class_type(union(pa.positive, pb.positive), union(pa.negative, pb.negative), pa.split != pb.split)
            counts[ty][pa, pb] = na * nb
    return dict(counts)


# ---------------------------------------------------------------------------
# Inner products for every label at once

SLOT_BITS = 64  # one signed slot per label of the rank-n group, array typecode "q"


def _pack(values: list[int]) -> int:
    """sum of values[i] * 2**(SLOT_BITS * i), for |values[i]| < 2**63: the
    slots as two's complement words, less the borrow of each negative
    one from the slot above."""
    words = int.from_bytes(array("q", values).tobytes(), sys.byteorder)
    borrows = int.from_bytes(array("q", map((0).__gt__, values)).tobytes(), sys.byteorder)
    return words - (borrows << SLOT_BITS)


def _unpack(packed: int, count: int) -> list[int]:
    """The count slots of _pack, each |value| < 2**63: each word read
    signed, plus the borrow its slot lent to a negative slot below."""
    words = array("q", packed.to_bytes(count * SLOT_BITS // 8, sys.byteorder, signed=True))
    return list(map(operator.add, words, itertools.chain((False,), map((0).__gt__, words))))


def _slot_bound(n: int, a: int, b: int) -> int:
    """A bound on |sum over the subgroup of A x B times X| for all labels
    A, B, X of the split, as character values are bounded by degrees (the
    identity column): |H| * max deg A * max deg B * max deg X."""
    bound = group_order_d(a) * group_order_d(b)
    for rank in (a, b, n):
        bound *= max(_d_char_column(DClassType((1,) * rank, (), None), rank))
    return bound


class _Packed(NamedTuple):
    labels: tuple[DIrrLabel, ...]  # the slots
    types_a: tuple[DClassType, ...]
    types_b: tuple[DClassType, ...]
    by_b: tuple[tuple[int, ...], ...]  # [pb][pa]: packed sums over the subgroup elements of type (pa, pb)
    h_order: int


@cache
def _packed(n: int, a: int, b: int) -> _Packed:
    """Per pair of block types (pa, pb): sum over the subgroup elements
    of that pair of the column of the element's class, packed, so that
    the inner products of every label come from big-integer
    multiply-adds."""
    bound = _slot_bound(n, a, b)
    if bound >= 1 << SLOT_BITS - 1:
        raise RangeError(f"the oracle's inner products at n={n}, a={a}, b={b} may reach {bound}, past {SLOT_BITS}-bit slots")
    sums: defaultdict[tuple[DClassType, DClassType], int] = defaultdict(int)
    for ty, counts in _fused_counts(n, a, b).items():
        column = _pack(_d_char_column(ty, n))
        for pair, count in counts.items():
            sums[pair] += count * column
    types_a, types_b = tuple(dict.fromkeys(pa for pa, _ in sums)), tuple(dict.fromkeys(pb for _, pb in sums))
    by_b = tuple(tuple(sums.get((pa, pb), 0) for pa in types_a) for pb in types_b)
    return _Packed(d_irr_labels(n), types_a, types_b, by_b, group_order_d(a) * group_order_d(b))


def _partials(split: _Packed, row_a: Sequence[int]) -> list[int]:
    """Per block-b type pb: sum over block-a types pa of A(pa), A's row
    row_a at split.types_a, times the packed sums at (pa, pb)."""
    return [sum(map(operator.mul, row_a, column)) for column in split.by_b]


def _induce(split: _Packed, A: DIrrLabel, B: DIrrLabel, partials: list[int], row_b: Sequence[int]) -> dict[DIrrLabel, int]:
    """Multiplicities of the labels in A x B induced, in label order, from
    A's partials and B's row, its values at split.types_b: one multiply-add
    per block-b type, one decode, and an exact division per label."""
    nums = _unpack(sum(map(operator.mul, row_b, partials)), len(split.labels))
    mults: dict[DIrrLabel, int] = {}
    for X, num in zip(split.labels, nums):
        if num:
            total, rest = divmod(num, split.h_order)
            if rest or total < 0:
                raise ArithmeticError(
                    f"non-character inner product {num}/{split.h_order} for "
                    f"{format_irr_label(A)} x {format_irr_label(B)} vs {format_irr_label(X)}"
                )
            mults[X] = total
    return mults


def oracle_induce(n: int, a: int, b: int, A: DIrrLabel, B: DIrrLabel) -> DecompositionResult:
    """Decompose the induced character of A x B by explicit summation.

    The inner product of the induced character with X over the rank-n
    group, |class| * |centralizer| = |group| cancelled, is
    (1/|H|) * sum over the subgroup elements h of A x B (h) * X(h); one
    exact integer division per label.
    """
    if a < 1 or b < 1 or a + b != n or n > MAX_RANK:
        raise RangeError(f"the oracle needs a, b >= 1 with a + b = n <= {MAX_RANK}, got a={a}, b={b}, n={n}")
    check_label(A, a)
    check_label(B, b)
    split = _packed(n, a, b)
    partials = _partials(split, [d_char_value(A, ty) for ty in split.types_a])
    return DecompositionResult(n, a, b, A, B, _induce(split, A, B, partials, [d_char_value(B, ty) for ty in split.types_b]), method="oracle")

