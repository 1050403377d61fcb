"""Brute-force verification engine on explicit signed permutations.

The closed formula of decomp is checked against this independent
computation: conjugacy classes come from each element's signed cycle
type, and induced characters from explicit summation over the elements
of the block subgroup.  Nothing here uses the formula;
dweyl.verify.verify_formula compares the two for every pair of block
characters.  The tests hold it against their own explicit-element
toolkit (reference group tables that classify every element by its own
cycle walk, element arithmetic, elementwise induction), which is not
part of the package.

A signed permutation of {1..n} is a tuple w of length n whose entry
w[i] = +j or -j says that point i+1 maps to point j with that sign.
An element lies in the even-signed (type D) group exactly when the
number of negative entries is even.  Its sign mask m has bit i-1 set
when w(i) is negative.

A signed cycle type with a negative cycle or an odd positive cycle is a
single class of the even-signed group.  Any other type (all cycles
positive and even) splits in two, and its tag comes from one conjugacy
test: the element is conjugate under the even-signed group to the
sign-free representative (tag +) exactly when a signed permutation
conjugating it onto that representative has an even number of sign
changes.  This is well defined because such an element's centralizer
in the full signed permutation group lies inside the even-signed group.

The elements sharing one unsigned permutation share its cycles; only
the signs differ, and what the class needs of them are parities of the
sign mask, which are linear over GF(2):

* a cycle with point mask c is negative exactly when popcount(m & c)
  is odd;
* the parity of the conjugator's sign changes is popcount(m & F) mod 2
  for one flip mask F of the permutation: along a cycle
  i_0 -> i_1 -> ... -> i_(L-1) the sign of w(i_l) is carried to the
  L-1-l points after i_l, so F holds the points i_l with L-1-l odd.

So one walk per unsigned permutation gives each point a code (a bit per
cycle, plus the flip bit), the code of a sign mask is the XOR of the
codes of its points, and each element's class type is one lookup in
the code table of its cycle lengths.  The cycles are numbered longest
first, so the lengths of a permutation come out sorted and a block has
one code table per cycle type; an element of the block subgroup is read
from the table of its blocks' lengths joined smaller tuple first, one
table per pair of block cycle types that mirror splits share.  The
codes are spanned by doubling over the even masks only, the ones that
are read.

The block subgroup is enumerated as pairs of block elements, each
classified by its own signed cycle type, and each block's codes are
tallied once per rank, a tally that every split reading a block of that
rank shares.  The tally of one permutation depends only on its cycle
type lambda: the j-th longest cycle, of length L, gives L points the
code bit j+1, and floor(L/2) of them the flip bit as well, whatever the
permutation, and the even masks are the even-sized sets of points, so a
bijection of the points that keeps their codes carries the even masks
onto each other with their codes.  (In group terms: relabelling the points is
conjugation by a sign-free permutation, which keeps every signed cycle
type and so every class of W(B_n) and W(D_n); Geck and Pfeiffer,
Characters of finite Coxeter groups and Iwahori-Hecke algebras, 2000.)
So a rank-k tally walks one permutation per cycle type, p(k) walks of
2^(k-1) codes instead of k!, and weights its counts by the k!/z_lambda
permutations of that type.  oracle_induce, and so verify_formula, is
capped at n = 11, the largest rank at which every split fits the
64-bit slots below.  The formula side of the package has no such
bound.

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
from math import factorial
from typing import NamedTuple, Sequence

from .dchar import DClassType, DIrrLabel, _d_char_column, d_char_value, d_irr_labels, format_irr_label, group_order_d
from .decomp import DecompositionResult
from .partitions import Partition, RangeError, enumerate_partitions
from .symchar import sym_centralizer_order

MAX_RANK = 11  # verify_formula and oracle_induce


# ---------------------------------------------------------------------------
# Signed cycle types by sign-mask codes

def _class_type(positive: Partition, negative: Partition, flips: int) -> DClassType:
    """Class label from the cycle types and the conjugator's parity of
    an element, or from the parts of a code (see the module docstring)."""
    if negative or any(part % 2 for part in positive):
        return DClassType(positive, negative, None)
    return DClassType(positive, negative, -1 if flips else 1)


def _point_codes(perm: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    """Cycle lengths of an unsigned permutation and the code of each of
    its points (see the module docstring).

    Cycles are walked from their smallest point, in point order, and
    numbered longest first, ties in walk order.  Bit 0 of a
    code holds the parity of the conjugator's sign changes, and bit j+1
    is set when cycle j is negative: a point of cycle j has bit j+1, and
    bit 0 when it is in the flip mask.
    """
    cycles: list[list[int]] = []
    point_codes = [0] * len(perm)
    for start in range(len(perm)):
        if point_codes[start]:
            continue
        points = []
        i = start
        while not point_codes[i]:
            point_codes[i] = 1  # seen
            points.append(i)
            i = perm[i] - 1
        cycles.append(points)
    cycles.sort(key=len, reverse=True)
    for j, points in enumerate(cycles):
        for i in points:
            point_codes[i] = 2 << j
        for i in points[-2::-2]:  # the points i_l with L-1-l odd
            point_codes[i] |= 1
    return tuple(map(len, cycles)), point_codes


def _even_codes(point_codes: list[int]) -> list[int]:
    """Codes of the sign masks with an even number of set bits over
    these points (bit i for point i), in ascending mask order.

    Doubling over the points keeps the even and the odd masks apart; the
    last point only turns odd masks into even ones.
    """
    even, odd = [0], []
    for p in point_codes[:-1]:
        even, odd = even + [c ^ p for c in odd], odd + [c ^ p for c in even]
    return even + [c ^ point_codes[-1] for c in odd]


@cache
def _code_types(lengths: tuple[int, ...]) -> tuple[DClassType | None, ...]:
    """Class label of each code of _point_codes, for cycle lengths in the
    order of its bits; None for a code with an odd number of negative
    cycles, which belongs to no even-signed element."""
    def signed(signs, j, sign):  # each of signs with cycle j added, positive (0) or negative (1)
        bit, plus, minus = (1 << j, (), (lengths[j],)) if sign else (0, (lengths[j],), ())
        return [(negs | bit, positive + plus, negative + minus) for negs, positive, negative in signs]
    out: list[DClassType | None] = [None] * (2 << len(lengths))
    *cycles, last = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    even, odd = [(0, (), ())], []  # (negs, positive, negative) by the parity of negs, as _even_codes
    for j in cycles:
        even, odd = signed(even, j, 0) + signed(odd, j, 1), signed(odd, j, 0) + signed(even, j, 1)
    for negs, positive, negative in signed(even, last, 0) + signed(odd, last, 1):
        out[negs << 1] = ty = _class_type(positive, negative, 0)
        out[negs << 1 | 1] = ty if ty.split is None else _class_type(positive, negative, 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# The block subgroup and explicit induction

def _moved(code: int, cycles: int) -> int:
    """A block code with its cycles numbered after that many others."""
    return code & 1 ^ code >> 1 << cycles + 1


def _cycle_perm(lam: Partition) -> tuple[int, ...]:
    """A permutation of cycle type lam: its cycles on consecutive points,
    each mapping a point to the next and its last point to its first."""
    perm: list[int] = []
    for part in lam:
        start = len(perm) + 1
        perm.extend(range(start + 1, start + part))
        perm.append(start)
    return tuple(perm)


@cache
def _block_tally(k: int) -> dict[tuple[int, ...], dict[int, int]]:
    """Per cycle lengths of the rank-k group: code -> how many of its
    elements.  One permutation per cycle type is walked and its code
    counts weighted by the k!/z_lambda permutations of that type, which
    all have the same tally (see the module docstring)."""
    tally: dict[tuple[int, ...], dict[int, int]] = {}
    for lam in enumerate_partitions(k):
        lengths, point_codes = _point_codes(_cycle_perm(lam))
        weight = factorial(k) // sym_centralizer_order(lam)
        tally[lengths] = counts = {}
        for code in _even_codes(point_codes):
            counts[code] = counts.get(code, 0) + weight
    return tally


@cache
def _fused_counts(n: int, a: int, b: int) -> dict[DClassType, dict[tuple[DClassType, DClassType], int]]:
    """Per class type of the rank-n group meeting the block subgroup: how
    many subgroup elements of each block-type pair it contains.

    The subgroup is enumerated as pairs of block elements, each one
    classified by its own signed cycle type: both blocks' codes are
    tallied by _block_tally, by cycle lengths, one tally per rank that
    mirror splits share.  A pair of codes x, y is decoded once: the
    element's type is read from the code table of the two blocks' cycle
    lengths joined smaller tuple first, one table per pair of cycle
    types that mirror splits share too, at the codes joined in that
    order; each block's type at its own code.
    """
    if a + b != n:
        raise ValueError(f"blocks {a}+{b} do not fill {n}")
    tally_b = _block_tally(b)
    counts: defaultdict[DClassType, dict] = defaultdict(dict)
    for lengths_a, xs in _block_tally(a).items():
        types_a = _code_types(lengths_a)
        for lengths_b, ys in tally_b.items():
            if lengths_a <= lengths_b:
                types, after_a, after_b = _code_types(lengths_a + lengths_b), 0, len(lengths_a)
            else:
                types, after_a, after_b = _code_types(lengths_b + lengths_a), len(lengths_b), 0
            types_b = _code_types(lengths_b)
            moved_b = [(_moved(y, after_b), types_b[y], ny) for y, ny in ys.items()]
            for x, nx in xs.items():
                code_a, pa = _moved(x, after_a), types_a[x]
                for code_b, pb, ny in moved_b:
                    pairs = counts[types[code_a ^ code_b]]
                    pairs[pa, pb] = pairs.get((pa, pb), 0) + nx * ny
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
    split = _packed(n, a, b)
    partials = _partials(split, [d_char_value(A, ty) for ty in split.types_a])
    return DecompositionResult(n, a, b, A, B, _induce(split, A, B, partials, [d_char_value(B, ty) for ty in split.types_b]), method="oracle")

