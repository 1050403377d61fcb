"""Oracle-free properties of the induced decomposition at ranks 7-40.

No explicit group reaches these ranks, so the checks are identities the
answer must satisfy whatever it is.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dweyl.dchar import DIrrLabel, d_degree, group_order_d, make_irr_label
from dweyl.decomp import InducedQuery, decompose_induced


@st.composite
def partitions_of(draw, k):
    parts = []
    while k:
        part = draw(st.integers(1, min(k, parts[-1] if parts else k)))
        parts.append(part)
        k -= part
    return tuple(parts)


@st.composite
def d_labels(draw, k):
    if k % 2 == 0 and draw(st.booleans()):
        half = draw(partitions_of(k // 2))
        return DIrrLabel((half, half), draw(st.sampled_from((1, -1))))
    s = draw(st.integers(0, k))
    first, second = draw(partitions_of(s)), draw(partitions_of(k - s))
    if first == second:
        return DIrrLabel((first, second), draw(st.sampled_from((1, -1))))
    return make_irr_label(first, second)


@st.composite
def induced_queries(draw):
    n = draw(st.integers(7, 40))
    a = draw(st.integers(1, n - 1))
    return InducedQuery(n, a, n - a, draw(d_labels(a)), draw(d_labels(n - a)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(induced_queries())
def test_degree_sum_rule_at_high_rank(q):
    index = group_order_d(q.n) // (group_order_d(q.a) * group_order_d(q.b))
    result = decompose_induced(q)
    total = sum(m * d_degree(X) for X, m in result.multiplicities.items())
    assert total == index * d_degree(q.A) * d_degree(q.B)
