"""The closed formula against the class-fusion oracle.

verify_formula compares decomp.decompose_induced with the inner products
of dweyl.oracle for every pair of block characters of one split.  This
module is where the two meet: the oracle takes only the result type
from decomp and none of the formula, and decomp nothing from the
oracle.  The split is checked once, here: each pair goes to the core of
decompose_induced, and each block row is read with no class check.
"""

from __future__ import annotations

from typing import NamedTuple

from .dchar import d_irr_labels, d_store, irr_label_key
from .decomp import InducedQuery, _decompose
from .oracle import MAX_RANK, _induce, _packed, _partials
from .partitions import RangeError


class VerificationReport(NamedTuple):
    n: int
    a: int
    b: int
    pairs_checked: int
    mismatches: tuple


def check_verify_rank(n: int) -> None:
    """Reject a rank that verification cannot run at, before any work."""
    if not 4 <= n <= MAX_RANK:
        raise RangeError(f"verify needs 4 <= n <= {MAX_RANK}, got n = {n}: the formula starts at n = 4 and the class-fusion oracle is capped at n = {MAX_RANK}")


def verify_formula(n: int, a: int, b: int) -> VerificationReport:
    """Compare decompose_induced with oracle_induce for every (A, B),
    sharing each A's partial sums across every B, and each B's row
    across every A: each block's rows are its columns at its types,
    transposed, one column per block type.

    pairs_checked counts every (A, B, X); a mismatch is (A, B, X,
    formula, oracle) for each X whose two multiplicities differ, 0 where
    a side omits X, in d_irr_labels order.
    """
    check_verify_rank(n)
    if a < 1 or b < 1 or a + b != n:
        raise RangeError(f"need a, b >= 1 with a + b = n, got a={a}, b={b}, n={n}")
    mismatches = []
    split = _packed(n, a, b)
    labels_b = d_irr_labels(b)
    rows_b = list(zip(*(d_store.column(pb, b) for pb in split.types_b)))
    for A, row_a in zip(d_irr_labels(a), zip(*(d_store.column(pa, a) for pa in split.types_a))):
        partials = _partials(split, row_a)
        for B, row_b in zip(labels_b, rows_b):
            explicit = _induce(split, A, B, partials, row_b)
            formula = _decompose(InducedQuery(n, a, b, A, B))
            if formula != explicit:
                for X in sorted(formula.keys() | explicit.keys(), key=irr_label_key):
                    pair = formula.get(X, 0), explicit.get(X, 0)
                    if pair[0] != pair[1]:
                        mismatches.append((A, B, X, *pair))
    pairs = len(d_irr_labels(a)) * len(d_irr_labels(b)) * len(d_irr_labels(n))
    return VerificationReport(n, a, b, pairs, tuple(mismatches))
