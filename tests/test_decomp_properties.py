"""Oracle-free properties past the exhaustive tests: the induced
decomposition at ranks 7-40 (Frobenius reciprocity at ranks 7-14), and
the LR expansion at sizes 11-20.

The explicit group stops at rank 11 (``oracle.MAX_RANK``), so the checks are identities the
answer must satisfy whatever it is, or a second rule for the same
numbers.
"""

from collections import Counter
from itertools import pairwise

from hypothesis import given, settings
from hypothesis import strategies as st

from dweyl.dchar import DIrrLabel, d_degree, group_order_d, irr_label_key, make_irr_label
from dweyl.decomp import InducedQuery, decompose_induced, induced_multiplicity
from dweyl.lr import lr_coefficient, lr_expand
from dweyl.partitions import enumerate_partitions
from test_decomp import restriction_multiplicity


@st.composite
def partitions_of(draw, k):
    parts = []
    while k:
        part = draw(st.integers(1, min(k, parts[-1] if parts else k)))
        parts.append(part)
        k -= part
    return tuple(parts)


@st.composite
def cut_partitions_of(draw, k):
    """A partition of k from the parts of a row of k boxes cut at random
    gaps: neither one row nor one column is favoured."""
    if not k:
        return ()
    parts = [1]
    for cut in draw(st.lists(st.booleans(), min_size=k - 1, max_size=k - 1)):
        if cut:
            parts.append(1)
        else:
            parts[-1] += 1
    return tuple(sorted(parts, reverse=True))


@st.composite
def d_labels(draw, k, parts=partitions_of):
    if k % 2 == 0 and draw(st.booleans()):
        half = draw(parts(k // 2))
        return DIrrLabel((half, half), draw(st.sampled_from((1, -1))))
    s = draw(st.integers(0, k))
    first, second = draw(parts(s)), draw(parts(k - s))
    if first == second:
        return DIrrLabel((first, second), draw(st.sampled_from((1, -1))))
    return make_irr_label(first, second)


@st.composite
def induced_queries(draw, parts=partitions_of):
    n = draw(st.integers(7, 40))
    a = draw(st.integers(1, n - 1))
    return InducedQuery(n, a, n - a, draw(d_labels(a, parts)), draw(d_labels(n - a, parts)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(induced_queries())
def test_degree_sum_rule_at_high_rank(q):
    index = group_order_d(q.n) // (group_order_d(q.a) * group_order_d(q.b))
    result = decompose_induced(q)
    total = sum(m * d_degree(X) for X, m in result.multiplicities.items())
    assert total == index * d_degree(q.A) * d_degree(q.B)
    # distinct labels, already in d_irr_labels order
    assert all(irr_label_key(X) < irr_label_key(Y) for X, Y in pairwise(result.multiplicities))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(induced_queries(cut_partitions_of))
def test_degree_sum_rule_at_high_rank_wide_shapes(q):
    # components from cut_partitions_of: wide LR products, which
    # partitions_of (mostly columns) rarely draws
    test_degree_sum_rule_at_high_rank.hypothesis.inner_test(q)


@st.composite
def reciprocity_cases(draw):
    """(query, X) at ranks 7-14, X from the formula's answer or from all
    labels.  Half the draws make A and B degenerate, and X too when the
    answer has a degenerate label: only there does the correction term,
    signed by all three, act."""
    if draw(st.booleans()):
        n = 2 * draw(st.integers(4, 7))
        a = 2 * draw(st.integers(1, n // 2 - 1))
        halves = draw(partitions_of(a // 2)), draw(partitions_of((n - a) // 2))
        A, B = (DIrrLabel((half, half), draw(st.sampled_from((1, -1)))) for half in halves)
    else:
        n = draw(st.integers(7, 14))
        a = draw(st.integers(1, n - 1))
        A, B = draw(d_labels(a)), draw(d_labels(n - a))
    q = InducedQuery(n, a, n - a, A, B)
    answer = list(decompose_induced(q).multiplicities)
    if A.eps and B.eps and any(X.eps for X in answer):
        answer = [X for X in answer if X.eps]
    return q, draw(st.sampled_from(answer) | d_labels(n))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(reciprocity_cases())
def test_frobenius_reciprocity_sampled(case):
    # <Ind(A x B), X> = <A x B, Res X>, the right side by class fusion
    # from character values alone; test_decomp checks five splits n <= 6
    q, X = case
    expected = restriction_multiplicity(q.a, q.b, q.A, q.B, X)
    assert decompose_induced(q).multiplicities.get(X, 0) == expected
    assert induced_multiplicity(q, X) == expected


@st.composite
def block_triples(draw):
    """(a, b, c) with a + b >= 4, b + c >= 4, a + b + c <= 21, and a label per block."""
    n = draw(st.integers(5, 21))
    b = draw(st.integers(1, n - 2).filter(lambda b: n - b >= 2 * max(1, 4 - b)))
    low = max(1, 4 - b)
    a = draw(st.integers(low, n - b - low))
    c = n - a - b
    return (a, b, c), (draw(d_labels(a)), draw(d_labels(b)), draw(d_labels(c)))


def _induce(a, A, b, B):
    return decompose_induced(InducedQuery(a + b, a, b, A, B)).multiplicities


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(block_triples())
def test_induction_is_transitive(triple):
    # D_a x D_b x D_c up to D_n through D_{a+b} x D_c and through D_a x D_{b+c}
    (a, b, c), (A, B, C) = triple
    through_ab, through_bc = Counter(), Counter()
    for X, m in _induce(a, A, b, B).items():
        for Y, k in _induce(a + b, X, c, C).items():
            through_ab[Y] += m * k
    for Z, m in _induce(b, B, c, C).items():
        for Y, k in _induce(a, A, b + c, Z).items():
            through_bc[Y] += m * k
    assert through_ab == through_bc


@st.composite
def lr_pairs(draw):
    total = draw(st.integers(11, 20))
    k = draw(st.integers(3, total - 3))
    return draw(cut_partitions_of(k)), draw(cut_partitions_of(total - k))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lr_pairs())
def test_strip_product_matches_tableau_filling_sampled(pair):
    # the exhaustive comparison in test_lr stops at size 10
    alpha, beta = pair
    gammas = enumerate_partitions(sum(alpha) + sum(beta))
    expanded = lr_expand(alpha, beta)
    assert list(expanded) == [g for g in gammas if g in expanded]
    for gamma in gammas:
        assert expanded.get(gamma, 0) == lr_coefficient(alpha, beta, gamma)
