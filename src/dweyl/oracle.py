"""Brute-force verification engine on explicit signed permutations.

Everything here works with concrete group elements so that the closed
formulas in the rest of the package can be checked against independent
computations: conjugacy classes come from each element's signed cycle
type, and induced characters from explicit summation over elements or
subgroup classes.

A signed permutation of {1..n} is a tuple w of length n whose entry
w[i] = +j or -j says that point i+1 maps to point j with that sign.
An element lies in the even-signed (type D) group exactly when the
number of negative entries is even.  Elements are ordered by their
unsigned permutation (lexicographically) and then by their sign mask
m, in which bit i-1 is set when w(i) is negative.

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
* the parity of the conjugator's sign changes (see _cycle_walk) is
  popcount(m & F) mod 2 for one flip mask F of the permutation: along
  a cycle i_0 -> i_1 -> ... -> i_(L-1) the sign of w(i_l) is carried to
  the L-1-l points after i_l, so F holds the points i_l with L-1-l odd.

So one walk per unsigned permutation gives every sign mask a code (a
bit per negative cycle, plus the flip bit) as the XOR of the codes of
its points, the codes of all 2^n masks follow by doubling, and each
element's class type is one lookup in the code table of its cycle
lengths.  Building a group table is work in proportion to n!, and its
element lists, element -> index map and class member lists are built
only when asked for.

Induction builds no table of the rank-n group: the block subgroup is
enumerated as pairs of block elements, each classified by its own signed
cycle type.  verify_formula and oracle_induce are capped at n = 8 (at
most 322560 subgroup elements), group tables at n = 7; the formula side
of the package has no such bound.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache, cached_property
from math import factorial
from typing import Callable, NamedTuple

from .dchar import (
    DClassType,
    DIrrLabel,
    d_char_value,
    d_irr_labels,
    format_irr_label,
    group_order_d,
)
from .decomp import DecompositionResult, InducedQuery, induced_multiplicity_unchecked, validate_query
from .partitions import Partition, RangeError, enumerate_partitions, size
from .symchar import sym_centralizer_order, sym_char_value

MAX_RANK = 8  # verify_formula and oracle_induce; group tables stop one below

SignedPerm = tuple[int, ...]


# ---------------------------------------------------------------------------
# Signed permutation arithmetic

def sp_identity(n: int) -> SignedPerm:
    return tuple(range(1, n + 1))


def sp_mul(u: SignedPerm, v: SignedPerm) -> SignedPerm:
    """Composition (u * v)(i) = u(v(i))."""
    return tuple(u[x - 1] if x > 0 else -u[-x - 1] for x in v)


def sp_inv(u: SignedPerm) -> SignedPerm:
    out = [0] * len(u)
    for i, x in enumerate(u, start=1):
        if x > 0:
            out[x - 1] = i
        else:
            out[-x - 1] = -i
    return tuple(out)


def sp_flips(w: SignedPerm) -> int:
    return sum(1 for x in w if x < 0)


def _cycle_walk(w: SignedPerm) -> tuple[Partition, Partition, int]:
    """Positive and negative cycle types of w, plus the parity of the
    sign changes of a conjugator taking w to a sign-free element.

    Along a cycle i_0 -> i_1 -> ... the conjugator sends i_j to
    eps_j * (its target point), with eps_0 = 1 and
    eps_(j+1) = eps_j * sign w(i_j); its sign changes are the j with
    eps_j = -1.  The parity only means something when every cycle is
    positive, so that each cycle closes up.
    """
    seen = [False] * (len(w) + 1)
    pos: list[int] = []
    neg: list[int] = []
    flips = 0
    for start in range(1, len(w) + 1):
        if seen[start]:
            continue
        count = 0
        eps_negative = False
        i = start
        while not seen[i]:
            seen[i] = True
            count += 1
            flips += eps_negative
            i = w[i - 1]
            if i < 0:
                eps_negative = not eps_negative
                i = -i
        (neg if eps_negative else pos).append(count)
    pos.sort(reverse=True)
    neg.sort(reverse=True)
    return tuple(pos), tuple(neg), flips % 2


def signed_cycle_type(w: SignedPerm) -> tuple[Partition, Partition]:
    """Cycle types of the positive and negative cycles of w."""
    positive, negative, _ = _cycle_walk(w)
    return positive, negative


def _class_type(positive: Partition, negative: Partition, flips: int) -> DClassType:
    """Class label from _cycle_walk's result (see the module docstring)."""
    if negative or any(part % 2 for part in positive):
        return DClassType(positive, negative, None)
    return DClassType(positive, negative, -1 if flips else 1)


def plain_element(lam: Partition, n: int) -> SignedPerm:
    """The sign-free permutation with consecutive cycles of type lam."""
    if size(lam) != n:
        raise ValueError(f"cycle type {lam} does not fill {n} points")
    w = list(range(1, n + 1))
    start = 1
    for part in lam:
        for i in range(start, start + part - 1):
            w[i - 1] = i + 1
        w[start + part - 2] = start
        start += part
    return tuple(w)


def flip_at(n: int, point: int) -> SignedPerm:
    """Sign change at a single point (an element of the ambient group only)."""
    w = list(range(1, n + 1))
    w[point - 1] = -point
    return tuple(w)


def _even_masks(n: int) -> list[int]:
    """Sign masks of rank n with an even number of set bits, ascending."""
    return [m for m in range(1 << n) if not bin(m).count("1") % 2]


def _signed_perms(n: int, even: bool):
    """Signed permutations of rank n, by permutation and then by sign
    mask; with even, only those with an even number of sign changes."""
    signs = [
        tuple(-1 if mask >> i & 1 else 1 for i in range(n))
        for mask in (_even_masks(n) if even else range(1 << n))
    ]
    for perm in itertools.permutations(range(1, n + 1)):
        for sign in signs:
            yield tuple(map(operator.mul, perm, sign))


def _mask_codes(perm: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    """Cycle lengths of an unsigned permutation, and the code of every
    sign mask m < 2^n put on it (see the module docstring).

    Cycles are walked from their smallest point, in _cycle_walk's order.
    Bit 0 of a code holds the parity of the conjugator's sign changes,
    and bit j+1 is set when cycle j is negative.  Both are parities of
    m, so the code of m is the XOR of the codes of its points: a point
    of cycle j has bit j+1, and bit 0 when it is in the flip mask.
    """
    lengths: list[int] = []
    point_codes = [0] * len(perm)
    for start in range(len(perm)):
        if point_codes[start]:
            continue
        bit = 2 << len(lengths)
        points = []
        i = start
        while not point_codes[i]:
            point_codes[i] = bit
            points.append(i)
            i = perm[i] - 1
        for i in points[-2::-2]:  # the points i_l with L-1-l odd
            point_codes[i] |= 1
        lengths.append(len(points))
    codes = [0]
    for point_code in point_codes:
        codes += [code ^ point_code for code in codes]
    return tuple(lengths), codes


@cache
def _code_types(lengths: tuple[int, ...]) -> tuple[DClassType | None, ...]:
    """Class label of each code of _mask_codes, for the cycle lengths in
    walk order; None for a code with an odd number of negative cycles,
    which belongs to no even-signed element."""
    out: list[DClassType | None] = [None] * (2 << len(lengths))
    for negs in range(1 << len(lengths)):
        positive = tuple(sorted((x for j, x in enumerate(lengths) if not negs >> j & 1), reverse=True))
        negative = tuple(sorted((x for j, x in enumerate(lengths) if negs >> j & 1), reverse=True))
        if len(negative) % 2 == 0:
            out[negs << 1] = _class_type(positive, negative, 0)
            out[negs << 1 | 1] = _class_type(positive, negative, 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# Group tables

class GroupTable:
    """Even-signed permutation group of rank n, with its conjugacy classes.

    Built from one walk per unsigned permutation, by the parity argument
    of the module docstring: class_of holds the class id of every
    element in element order, class_types the label of each class,
    class_sizes and centralizer_orders its sizes.  For a splittable
    cycle type the class containing the sign-free representative gets
    the + tag.  Class ids follow the first appearance of a class in
    element order.

    elements, index (element -> position) and classes (the member
    positions of each class, in element order) are built on first use
    and then kept.
    """

    def __init__(self, n: int):
        self.n = n
        even = _even_masks(n)
        # ids in order of first meeting a type, renumbered below into
        # order of first appearance in element order
        provisional: dict[DClassType, int] = {}
        code_ids: dict[tuple[int, ...], list[int | None]] = {}
        class_of: list[int] = []
        for perm in itertools.permutations(range(1, n + 1)):
            lengths, codes = _mask_codes(perm)
            ids = code_ids.get(lengths)
            if ids is None:
                ids = code_ids[lengths] = [
                    None if ty is None else provisional.setdefault(ty, len(provisional))
                    for ty in _code_types(lengths)
                ]
            class_of.extend(map(ids.__getitem__, map(codes.__getitem__, even)))
        first = list(dict.fromkeys(class_of))
        renumber = [0] * len(provisional)
        for cid, pid in enumerate(first):
            renumber[pid] = cid
        types = list(provisional)
        self.class_of = list(map(renumber.__getitem__, class_of))
        self.class_types = [types[pid] for pid in first]
        self.type_to_class = {ty: cid for cid, ty in enumerate(self.class_types)}
        sizes = Counter(self.class_of)
        self.class_sizes = [sizes[cid] for cid in range(len(first))]
        self.centralizer_orders = [len(class_of) // s for s in self.class_sizes]

    @cached_property
    def elements(self) -> list[SignedPerm]:
        return list(_signed_perms(self.n, even=True))

    @cached_property
    def index(self) -> dict[SignedPerm, int]:
        return {w: i for i, w in enumerate(self.elements)}

    @cached_property
    def classes(self) -> list[list[int]]:
        members: list[list[int]] = [[] for _ in self.class_types]
        for i, cid in enumerate(self.class_of):
            members[cid].append(i)
        return members

    def class_size(self, cid: int) -> int:
        return self.class_sizes[cid]

    def class_id_of(self, w: SignedPerm) -> int:
        return self.class_of[self.index[w]]


@cache
def build_group(n: int) -> GroupTable:
    if not 1 <= n < MAX_RANK:
        raise RangeError(f"explicit group tables are capped at n = {MAX_RANK - 1}")
    return GroupTable(n)


def classify_element(w: SignedPerm, table: GroupTable) -> DClassType:
    """Class label of an explicit element, split tag decided by conjugacy."""
    if len(w) != table.n:
        raise ValueError(f"element acts on {len(w)} points, table is rank {table.n}")
    if w not in table.index:
        raise ValueError(f"{w} is not an even-signed permutation of rank {table.n}")
    return table.class_types[table.class_of[table.index[w]]]


# ---------------------------------------------------------------------------
# The block subgroup and explicit induction

def _in_block_subgroup(w: SignedPerm, a: int) -> bool:
    # Preserves {1..a} setwise with an even number of sign changes in
    # the block (the complementary block is then automatically even).
    flips = 0
    for i in range(a):
        x = w[i]
        if abs(x) > a:
            return False
        if x < 0:
            flips += 1
    return flips % 2 == 0


def _block_parts(w: SignedPerm, a: int) -> tuple[SignedPerm, SignedPerm]:
    wa = w[:a]
    wb = tuple(x - a if x > 0 else x + a for x in w[a:])
    return wa, wb


def _embed_blocks(wa: SignedPerm, wb: SignedPerm) -> SignedPerm:
    a = len(wa)
    return wa + tuple(x + a if x > 0 else x - a for x in wb)


@cache
def _fused_counts(n: int, a: int, b: int) -> dict[DClassType, dict[tuple[DClassType, DClassType], int]]:
    """Per class type of the rank-n group meeting the block subgroup: how
    many subgroup elements of each block-type pair it contains.

    The subgroup is enumerated as pairs of block elements: a pair of
    block permutations, walked once as one rank-n permutation, carries
    every pair of even block sign masks.  Each embedded element is
    classified by its own signed cycle type, _code_types(lengths) at its
    code, with no table of the rank-n group; each block element by its
    block's table (same element order, so positions are arithmetic).
    """
    if a + b != n:
        raise ValueError(f"blocks {a}+{b} do not fill {n}")
    ta, tb = build_group(a), build_group(b)
    even_a, even_b = _even_masks(a), _even_masks(b)
    half_a, half_b = len(even_a), len(even_b)
    masks = [ma | mb << a for ma in even_a for mb in even_b]
    perms_b = list(itertools.permutations(range(a + 1, n + 1)))
    # per cycle lengths in walk order: (code, (block class ids)) -> count
    tallies: defaultdict[tuple[int, ...], Counter] = defaultdict(Counter)
    for ia, perm_a in enumerate(itertools.permutations(range(1, a + 1))):
        row_a = ta.class_of[ia * half_a:(ia + 1) * half_a]
        for ib, perm_b in enumerate(perms_b):
            row_b = tb.class_of[ib * half_b:(ib + 1) * half_b]
            lengths, codes = _mask_codes(perm_a + perm_b)
            tallies[lengths].update(zip(map(codes.__getitem__, masks), itertools.product(row_a, row_b)))
    counts: defaultdict[DClassType, Counter] = defaultdict(Counter)
    for lengths, tally in tallies.items():
        types = _code_types(lengths)
        for (code, (ca, cb)), cnt in tally.items():
            counts[types[code]][ta.class_types[ca], tb.class_types[cb]] += cnt
    return {ty: dict(pairs) for ty, pairs in counts.items()}


BlockFn = Callable[[DClassType], int]


def _class_sums(n: int, a: int, b: int, fa: BlockFn, fb: BlockFn) -> list[int]:
    """Per class type meeting the subgroup, in _fused_counts order: the
    sum of (fa x fb) over the subgroup elements of that type.  fa and fb
    are called once per block class."""
    va = {ty: fa(ty) for ty in build_group(a).class_types}
    vb = {ty: fb(ty) for ty in build_group(b).class_types}
    return [
        sum(cnt * va[pa] * vb[pb] for (pa, pb), cnt in counts.items())
        for counts in _fused_counts(n, a, b).values()
    ]


def induce_class_function(n: int, a: int, b: int, fa: BlockFn, fb: BlockFn) -> list[Fraction]:
    """Values, per ambient class, of the class function induced from fa x fb.

    fa and fb give the block function on block class labels; virtual
    characters (negative values) are fine.  Computed from the explicit
    element counts, i.e. this is the elementwise induction sum grouped
    by conjugacy class.
    """
    t = build_group(n)
    h_order = group_order_d(a) * group_order_d(b)
    sums = dict(zip(_fused_counts(n, a, b), _class_sums(n, a, b, fa, fb)))
    return [Fraction(z * sums.get(ty, 0), h_order) for z, ty in zip(t.centralizer_orders, t.class_types)]


def induced_value_elementwise(n: int, a: int, b: int, fa: BlockFn, fb: BlockFn, g: SignedPerm) -> Fraction:
    """Literal induction sum (1/|H|) * sum over x of (fa x fb)(x g x^-1)."""
    t = build_group(n)
    total = 0
    for x in t.elements:
        y = sp_mul(sp_mul(x, g), sp_inv(x))
        if not _in_block_subgroup(y, a):
            continue
        ya, yb = _block_parts(y, a)
        pa = classify_element(ya, build_group(a))
        pb = classify_element(yb, build_group(b))
        total += fa(pa) * fb(pb)
    return Fraction(total, group_order_d(a) * group_order_d(b))


def induced_value_from_subgroup_classes(n: int, a: int, b: int, fa: BlockFn, fb: BlockFn, g: SignedPerm) -> Fraction:
    """Induction via subgroup class representatives and centralizer orders."""
    t = build_group(n)
    ta = build_group(a)
    tb = build_group(b)
    cid_g = t.class_id_of(g)
    total = Fraction(0)
    for ca, members_a in enumerate(ta.classes):
        ra = ta.elements[members_a[0]]
        for cb, members_b in enumerate(tb.classes):
            rb = tb.elements[members_b[0]]
            h = _embed_blocks(ra, rb)
            if t.class_id_of(h) != cid_g:
                continue
            total += Fraction(
                fa(ta.class_types[ca]) * fb(tb.class_types[cb]),
                ta.centralizer_orders[ca] * tb.centralizer_orders[cb],
            )
    return t.centralizer_orders[cid_g] * total


def oracle_char_table(n: int) -> dict[tuple[DIrrLabel, int], int]:
    """Character values attached to the explicit classes of the rank-n group."""
    t = build_group(n)
    return {
        (chi, cid): d_char_value(chi, ty)
        for chi in d_irr_labels(n)
        for cid, ty in enumerate(t.class_types)
    }


@cache
def _char_rows(n: int, a: int, b: int) -> tuple[tuple[DIrrLabel, list[int]], ...]:
    """Per label of the rank-n group, its character values at the class
    types meeting the block subgroup, in _fused_counts order."""
    types = list(_fused_counts(n, a, b))
    return tuple((X, [d_char_value(X, ty) for ty in types]) for X in d_irr_labels(n))


def oracle_induce(n: int, a: int, b: int, A: DIrrLabel, B: DIrrLabel) -> DecompositionResult:
    """Decompose the induced character of A x B by explicit summation.

    The inner product of the induced character with X over the rank-n
    group, |class| * |centralizer| = |group| cancelled, is
    (1/|H|) * sum over classes c of s_c * X(c), where s_c sums A x B
    over the subgroup elements in c; one exact integer division.
    """
    if a < 1 or b < 1 or a + b != n or n > MAX_RANK:
        raise RangeError(f"the oracle needs a, b >= 1 with a + b = n <= {MAX_RANK}, got a={a}, b={b}, n={n}")
    h_order = group_order_d(a) * group_order_d(b)
    sums = _class_sums(n, a, b, lambda ca: d_char_value(A, ca), lambda cb: d_char_value(B, cb))
    mults: dict[DIrrLabel, int] = {}
    for X, row in _char_rows(n, a, b):
        num = sum(map(operator.mul, sums, row))
        total, rest = divmod(num, h_order)
        if rest or total < 0:
            raise ArithmeticError(
                f"non-character inner product {num}/{h_order} for "
                f"{format_irr_label(A)} x {format_irr_label(B)} vs {format_irr_label(X)}"
            )
        if total:
            mults[X] = total
    return DecompositionResult(n, a, b, A, B, mults, method="oracle")


class VerificationReport(NamedTuple):
    n: int
    a: int
    b: int
    pairs_checked: int
    mismatches: tuple


def check_verify_rank(n: int) -> None:
    """Reject a rank that verification cannot run at, before any work."""
    if not 4 <= n <= MAX_RANK:
        raise RangeError(
            f"verify needs 4 <= n <= {MAX_RANK}, got n = {n}: the formula starts at n = 4 "
            f"and the explicit oracle is capped at n = {MAX_RANK}"
        )


def verify_formula(n: int, a: int, b: int) -> VerificationReport:
    """Compare the closed formula with explicit induction for all (E, X)."""
    check_verify_rank(n)
    if a < 1 or b < 1 or a + b != n:
        raise RangeError(f"need a, b >= 1 with a + b = n, got a={a}, b={b}, n={n}")
    mismatches = []
    pairs = 0
    labels_n = d_irr_labels(n)
    for A in d_irr_labels(a):
        for B in d_irr_labels(b):
            explicit = oracle_induce(n, a, b, A, B).multiplicities
            q = InducedQuery(n, a, b, A, B)
            validate_query(q)
            for X in labels_n:
                pairs += 1
                formula = induced_multiplicity_unchecked(q, X)
                actual = explicit.get(X, 0)
                if formula != actual:
                    mismatches.append((A, B, X, formula, actual))
    return VerificationReport(n, a, b, pairs, tuple(mismatches))


# ---------------------------------------------------------------------------
# Independent formulas used to cross-check individual steps

def centralizer_chain_values(n: int, pi: Partition) -> dict[str, int]:
    """The four centralizer orders attached to a doubled cycle type.

    For the class of the sign-free element of cycle type 2*pi: its
    centralizer order in the even-signed group, in the ambient group,
    the sign-free centralizer scaled by 2**len(pi), and the symmetric
    group centralizer of pi scaled by 2**(2 len(pi)).  All four are
    computed by direct counting and should agree.
    """
    if 2 * size(pi) != n:
        raise ValueError(f"2 * |{pi}| != {n}")
    t = build_group(n)
    w = plain_element(tuple(2 * x for x in pi), n)
    in_d = t.centralizer_orders[t.class_id_of(w)]
    in_b = sum(1 for x in _signed_perms(n, even=False) if sp_mul(x, w) == sp_mul(w, x))
    plain = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
    in_plain = sum(1 for x in plain if sp_mul(x, w) == sp_mul(w, x))
    m = n // 2
    wp = plain_element(pi, m)
    small = [tuple(p) for p in itertools.permutations(range(1, m + 1))]
    in_small = sum(1 for x in small if sp_mul(x, wp) == sp_mul(wp, x))
    return {
        "even_signed": in_d,
        "ambient": in_b,
        "scaled_plain": 2 ** len(pi) * in_plain,
        "scaled_symmetric": 2 ** (2 * len(pi)) * in_small,
    }


def split_partition_pairs(pi: Partition, left_size: int) -> set[tuple[Partition, Partition]]:
    """All (delta, eps) with delta u eps = pi and |delta| = left_size."""
    out = set()
    for mask in range(1 << len(pi)):
        delta = tuple(pi[i] for i in range(len(pi)) if mask >> i & 1)
        if sum(delta) == left_size:
            eps = tuple(pi[i] for i in range(len(pi)) if not mask >> i & 1)
            out.add((delta, eps))
    return out


def sym_induced_product_value(alpha: Partition, beta: Partition, pi: Partition) -> int:
    """Value at cycle type pi of the character induced from [alpha] x [beta].

    Uses the class-representative induction formula over the Young
    subgroup: the classes meeting cycle type pi are exactly the splits
    of pi into the two blocks.
    """
    a, b, m = size(alpha), size(beta), size(pi)
    if a + b != m:
        raise ValueError(f"|{alpha}| + |{beta}| != |{pi}|")
    total = Fraction(0)
    for delta, eps in split_partition_pairs(pi, a):
        total += Fraction(
            sym_char_value(alpha, delta) * sym_char_value(beta, eps),
            sym_centralizer_order(delta) * sym_centralizer_order(eps),
        )
    total *= sym_centralizer_order(pi)
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral induced value {total}")
    return int(total)


def lr_coefficient_by_characters(alpha: Partition, beta: Partition, gamma: Partition) -> int:
    """LR coefficient from the defining inner product over class sums.

    Completely independent of the tableau enumeration: sums character
    values over pairs of cycle types weighted by class sizes.
    """
    a, b = size(alpha), size(beta)
    if size(gamma) != a + b:
        return 0
    num = 0
    for mu in enumerate_partitions(a):
        mu_classes = factorial(a) // sym_centralizer_order(mu)
        for nu in enumerate_partitions(b):
            nu_classes = factorial(b) // sym_centralizer_order(nu)
            fused = tuple(sorted(mu + nu, reverse=True))
            num += mu_classes * nu_classes * sym_char_value(alpha, mu) * sym_char_value(beta, nu) * sym_char_value(gamma, fused)
    denom = factorial(a) * factorial(b)
    if num % denom:
        raise ArithmeticError("inner product is not an integer")
    return num // denom
