"""Decomposition of characters induced from products of two type D blocks.

The subgroup in question is the product of the rank-a and rank-b
even-signed groups acting on complementary blocks of {1..n}, a + b = n.
For an irreducible character A x B of the product and an irreducible X
of the rank-n group, the multiplicity of X in the induced character is
a finite expression in Littlewood-Richardson coefficients:

* the symmetrized coefficient a(alpha, beta; gamma) summing products of
  two LR coefficients over the orderings of the bipartition components
  (orderings of equal components are not counted twice), and
* for degenerate X an extra correction term weighted by the product of
  the three degeneracy signs, with the total halved.

decompose_induced builds the whole expansion output-sensitively: every
X with a nonzero coefficient is a pair of shapes from the (at most four)
LR products lr_expand(alpha_s, beta_t) of those orderings, so the work
follows the size of the answer, not the number of labels of the rank-n
group.  Each product lists its shapes in descending order, so the pairs
come out in d_irr_labels order as they are formed, and none is formed
past the DECOMPOSE_PAIRS budget.  induced_multiplicity answers a single
X through lr_coefficient, the other LR rule; the tests check the two
against each other for every query with n <= 8, and the verification
engine checks its core, _decompose, against explicit induction for
every pair of labels of a split, which it checks once.

Rank-1 blocks are allowed: the trivial group's single character is
labelled (((1),()), 0) and the formula then reduces to the classical
one-box branching rule, exposed directly as branch_restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .dchar import DIrrLabel, check_label, format_irr_label
from .lr import _lr_expand, lr_coefficient
from .partitions import Bipartition, Partition, RangeError, ResourceLimit, remove_box, removable_rows, size

DECOMPOSE_PAIRS = 10**6
"""Most pairs of shapes decompose_induced forms for one query: the sum
of |left| * |right| over the LR products it multiplies, which bounds the
size of the answer.  A pair costs up to about 300 bytes at the peak, so
a query at the budget stays near 320 MB; the rank-60 staircase query
(2,053,489 pairs, 1,028,732 constituents) is refused."""


class InducedQuery(NamedTuple):
    """One induction problem: block sizes plus a character per block."""

    n: int
    a: int
    b: int
    A: DIrrLabel
    B: DIrrLabel


@dataclass
class DecompositionResult:
    """Multiplicities of one induced character, with provenance."""

    n: int
    a: int
    b: int
    A: DIrrLabel
    B: DIrrLabel
    multiplicities: dict[DIrrLabel, int] = field(default_factory=dict)
    method: str = "formula"


def a_coefficient(alpha: Bipartition, beta: Bipartition, gamma: Bipartition) -> int:
    """Symmetrized product of two LR coefficients.

    Sums c(alpha_s1, beta_t1; gamma_1) * c(alpha_s2, beta_t2; gamma_2)
    over the orderings of the components of alpha and of beta that
    match the component sizes of gamma; equal components contribute a
    single ordering.  Independent of the component order of all three
    arguments.
    """
    a1, a2 = alpha
    b1, b2 = beta
    g1, g2 = gamma
    s1, s2, sa1, sa2, sb1, sb2 = map(size, (g1, g2, a1, a2, b1, b2))
    orderings_a = [(a1, a2, sa1, sa2)] if a1 == a2 else [(a1, a2, sa1, sa2), (a2, a1, sa2, sa1)]
    orderings_b = [(b1, b2, sb1, sb2)] if b1 == b2 else [(b1, b2, sb1, sb2), (b2, b1, sb2, sb1)]
    total = 0
    for x1, x2, sx1, sx2 in orderings_a:
        for y1, y2, sy1, sy2 in orderings_b:
            if s1 == sx1 + sy1 and s2 == sx2 + sy2:
                total += lr_coefficient(x1, y1, g1) * lr_coefficient(x2, y2, g2)
    return total


def _odd_total(q: InducedQuery, X: DIrrLabel) -> ArithmeticError:
    return ArithmeticError(
        f"odd degenerate total for {format_irr_label(q.A)} x {format_irr_label(q.B)} "
        f"(n={q.n}, a={q.a}, b={q.b}) at {format_irr_label(X)}; labelling bug upstream"
    )


def validate_query(q: InducedQuery) -> None:
    """Raise ValueError unless q is a well-formed induction problem."""
    if q.n < 4:
        raise RangeError(f"induction formula requires n >= 4, got n={q.n}")
    if q.a < 1 or q.b < 1 or q.a + q.b != q.n:
        raise RangeError(f"need a, b >= 1 with a + b = n, got a={q.a}, b={q.b}, n={q.n}")
    check_label(q.A, q.a)
    check_label(q.B, q.b)


def induced_multiplicity(q: InducedQuery, X: DIrrLabel) -> int:
    """Multiplicity of X in the character induced from A x B."""
    validate_query(q)
    check_label(X, q.n)
    (pair_a, eps_a), (pair_b, eps_b), (pair_x, eps_x) = q.A, q.B, X
    coeff = a_coefficient(pair_a, pair_b, pair_x)
    if eps_x == 0:
        return coeff
    e = eps_a * eps_b * eps_x
    total = coeff
    if e:
        total += e * lr_coefficient(pair_a[0], pair_b[0], pair_x[0])
    if total % 2:
        raise _odd_total(q, X)
    return total // 2


def decompose_induced(q: InducedQuery) -> DecompositionResult:
    """Full expansion of the induced character, zero multiplicities omitted.

    Built from the LR products of a_coefficient's orderings (see the
    module docstring); labels come in d_irr_labels order.  Raises
    ResourceLimit, before any pair is formed, past DECOMPOSE_PAIRS.
    """
    validate_query(q)
    return DecompositionResult(q.n, q.a, q.b, q.A, q.B, _decompose(q), method="formula")


def _decompose(q: InducedQuery) -> dict[DIrrLabel, int]:
    """decompose_induced's multiplicities without the query checks, for
    callers that made them."""
    ((a1, a2), eps_a), ((b1, b2), eps_b) = q.A, q.B
    orderings_a = [(a1, a2)] if a1 == a2 else [(a1, a2), (a2, a1)]
    orderings_b = [(b1, b2)] if b1 == b2 else [(b1, b2), (b2, b1)]
    blocks = []
    for x1, x2 in orderings_a:
        for y1, y2 in orderings_b:
            s1 = size(x1) + size(y1)
            if 2 * s1 >= q.n:  # below half, every pair is stored the other way round
                blocks.append((s1, _lr_expand(x1, y1), _lr_expand(x2, y2)))
    pairs = sum(len(left) * len(right) for _, left, right in blocks)
    if pairs > DECOMPOSE_PAIRS:
        raise ResourceLimit(f"{format_irr_label(q.A)} x {format_irr_label(q.B)} (n={q.n}) needs {pairs:,} pairs of shapes; the budget is {DECOMPOSE_PAIRS:,}")
    blocks.sort(key=itemgetter(0), reverse=True)
    # Descending (|first|, first, second) is d_irr_labels order; each block
    # yields its keys so, and only blocks that share |first| need a sort.
    totals: dict[tuple[int, Partition, Partition], int] = {}
    for s1, left, right in blocks:
        half = 2 * s1 == q.n  # only then can second exceed first
        right = right.items()
        for g1, c1 in left.items():
            for g2, c2 in right:
                if not half or g1 >= g2:
                    key = (s1, g1, g2)
                    totals[key] = totals.get(key, 0) + c1 * c2
    items = totals.items()
    if len({s1 for s1, _, _ in blocks}) < len(blocks):
        items = sorted(items, reverse=True)
    e = eps_a * eps_b
    diagonal = _lr_expand(a1, b1) if e else {}
    mults: dict[DIrrLabel, int] = {}
    for (_, g1, g2), total in items:
        if g1 != g2:
            mults[DIrrLabel((g1, g2), 0)] = total
            continue
        for eps in (1, -1):
            doubled = total + e * eps * diagonal.get(g1, 0)
            if doubled % 2:
                raise _odd_total(q, DIrrLabel((g1, g2), eps))
            if doubled:
                mults[DIrrLabel((g1, g2), eps)] = doubled // 2
    return mults


def branch_set(gamma: Bipartition) -> set[Bipartition]:
    """All bipartitions reachable from gamma by removing one box.

    Both component orders of every removal are included, so membership
    is insensitive to the order convention of non-degenerate labels.
    """
    g1, g2 = gamma
    out: set[Bipartition] = set()
    for d in removable_rows(g1):
        removed = remove_box(g1, d)
        out.add((removed, g2))
        out.add((g2, removed))
    for d in removable_rows(g2):
        removed = remove_box(g2, d)
        out.add((g1, removed))
        out.add((removed, g1))
    return out


def branch_restriction(n: int, side: str, X: DIrrLabel, B: DIrrLabel) -> int:
    """Multiplicity of B in the restriction of X to a rank n-1 block.

    side selects which block carries the rank n-1 factor ("left" keeps
    points 1..n-1, "right" keeps 2..n); the two blocks are conjugate so
    the answer does not depend on it.  Always 0 or 1: 1 exactly when
    B's bipartition arises from X's by removing one box.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if n < 4:
        raise ValueError(f"branching rule requires n >= 4, got n={n}")
    check_label(X, n)
    check_label(B, n - 1)
    return 1 if B[0] in branch_set(X[0]) else 0
