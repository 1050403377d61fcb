"""Explicit-element toolkit for the tests of the verification engine.

Signed permutation arithmetic, group tables up to rank 7 that classify
every element by its own cycle walk (dweyl.oracle walks no element: the
tests hold its class counts, from centralizer orders, against these
tables), the class of a single element, the block subgroup as a set of
rank-n elements, induction by literal summation over elements and over
subgroup classes, and independent formulas for single steps (group,
class and centralizer orders, induced S_n characters, LR coefficients
from characters, the class of a blockwise product from its block
classes).  It lives with
the tests, outside the installed package: nothing in dweyl, the CLI or
verify_formula runs it; it checks that path from outside, and like
dweyl.oracle it uses nothing from the formula.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import cache, cached_property
from math import factorial
from typing import Callable

from dweyl.dchar import DClassType, DIrrLabel, d_centralizer_order, d_char_value, d_irr_labels, group_order_d
from dweyl.oracle import _class_type, _fused_counts
from dweyl.partitions import Partition, RangeError, enumerate_partitions, format_class, size, union
from dweyl.symchar import splittable, sym_centralizer_order, sym_char_value

SignedPerm = tuple[int, ...]


# ---------------------------------------------------------------------------
# Signed permutations and group tables

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
    return _cycle_walk(w)[:2]


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


def _signed_perms(n: int, even: bool):
    """Signed permutations of rank n, by permutation and then by
    ascending sign mask; with even, only those with an even number of
    sign changes."""
    signs = [
        tuple(-1 if mask >> i & 1 else 1 for i in range(n))
        for mask in range(1 << n)
        if not (even and mask.bit_count() % 2)
    ]
    for perm in itertools.permutations(range(1, n + 1)):
        for sign in signs:
            yield tuple(map(operator.mul, perm, sign))


class GroupTable:
    """Even-signed permutation group of rank n, with its conjugacy classes.

    Each element, in _signed_perms order, is classified by
    _class_type(*_cycle_walk(w)), class ids in order of first
    appearance.  elements and index (element -> position) are listed on
    first use and then kept.
    """

    def __init__(self, n: int):
        self.n = n
        self.type_to_class: dict[DClassType, int] = {}
        self.class_of = [
            self.type_to_class.setdefault(_class_type(*_cycle_walk(w)), len(self.type_to_class))
            for w in _signed_perms(n, even=True)
        ]
        self.class_types = list(self.type_to_class)
        self.classes: list[list[int]] = [[] for _ in self.class_types]
        for i, cid in enumerate(self.class_of):
            self.classes[cid].append(i)
        self.centralizer_orders = [len(self.class_of) // len(members) for members in self.classes]

    @cached_property
    def elements(self) -> list[SignedPerm]:
        return list(_signed_perms(self.n, even=True))

    @cached_property
    def index(self) -> dict[SignedPerm, int]:
        return {w: i for i, w in enumerate(self.elements)}

    def class_size(self, cid: int) -> int:
        return len(self.classes[cid])

    def class_id_of(self, w: SignedPerm) -> int:
        return self.class_of[self.index[w]]


@cache
def build_group(n: int) -> GroupTable:
    if not 1 <= n <= 7:
        raise RangeError("explicit group tables are capped at n = 7")
    return GroupTable(n)


def classify_element(w: SignedPerm, table: GroupTable) -> DClassType:
    """Class label of an explicit element, split tag decided by conjugacy."""
    if len(w) != table.n:
        raise ValueError(f"element acts on {len(w)} points, table is rank {table.n}")
    if w not in table.index:
        raise ValueError(f"{w} is not an even-signed permutation of rank {table.n}")
    return table.class_types[table.class_of[table.index[w]]]


# ---------------------------------------------------------------------------
# The block subgroup as rank-n elements, and explicit induction

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


BlockFn = Callable[[DClassType], int]


@cache
def _block_types(n: int, a: int, b: int) -> tuple[tuple[DClassType, ...], tuple[DClassType, ...]]:
    """The class types of block a and of block b in oracle._fused_counts."""
    pairs = [pair for counts in _fused_counts(n, a, b).values() for pair in counts]
    return tuple(dict.fromkeys(pa for pa, _ in pairs)), tuple(dict.fromkeys(pb for _, pb in pairs))


def _class_sums(n: int, a: int, b: int, fa: BlockFn, fb: BlockFn) -> list[int]:
    """Per class type meeting the subgroup, in oracle._fused_counts order:
    the sum of (fa x fb) over the subgroup elements of that type.  fa
    and fb are called once per block class."""
    types_a, types_b = _block_types(n, a, b)
    va, vb = dict(zip(types_a, map(fa, types_a))), dict(zip(types_b, map(fb, types_b)))
    return [sum(cnt * va[pa] * vb[pb] for (pa, pb), cnt in counts.items()) for counts in _fused_counts(n, a, b).values()]


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
    types = build_group(n).class_types
    return {(chi, cid): d_char_value(chi, ty) for chi in d_irr_labels(n) for cid, ty in enumerate(types)}


# ---------------------------------------------------------------------------
# Independent formulas used to cross-check individual steps

def group_order_b(n: int) -> int:
    return 2**n * factorial(n)


@cache
def d_class_size(c: DClassType) -> int:
    """|class| = |group| / |centralizer|, kept per class: the reference
    sums call it once per pair of block classes and label."""
    n = size(c.positive) + size(c.negative)
    return group_order_d(n) // d_centralizer_order(c)


def fuse_class(ca: DClassType, cb: DClassType) -> DClassType:
    """Class of a blockwise product element from its block classes.

    Cycle types unite, positive with positive and negative with
    negative: the union rule of oracle._fused_counts.  The fused type
    can split only when both block classes are split (a non-split block
    contributes an odd positive part or a negative cycle), and then the
    tags multiply.
    """
    positive = union(ca.positive, cb.positive)
    negative = union(ca.negative, cb.negative)
    if splittable(positive, negative):
        if ca.split is None or cb.split is None:
            raise ArithmeticError(f"impossible fusion {format_class(ca)} * {format_class(cb)}: unsplit block in a splittable product")
        return DClassType(positive, negative, ca.split * cb.split)
    return DClassType(positive, negative, None)


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
    in_plain = sum(1 for x in itertools.permutations(range(1, n + 1)) if sp_mul(x, w) == sp_mul(w, x))
    m = n // 2
    wp = plain_element(pi, m)
    in_small = sum(1 for x in itertools.permutations(range(1, m + 1)) if sp_mul(x, wp) == sp_mul(wp, x))
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
