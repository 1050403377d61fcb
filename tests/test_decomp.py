import random

import pytest

from dweyl.dchar import (
    DIrrLabel,
    d_char_value,
    d_classes,
    d_degree,
    d_irr_labels,
    group_order_d,
    make_irr_label,
    parse_irr_label,
)
from dweyl import decomp
from dweyl.decomp import (
    InducedQuery,
    a_coefficient,
    branch_restriction,
    branch_set,
    decompose_induced,
    induced_multiplicity,
)
from dweyl.lr import lr_coefficient
from dweyl.partitions import ResourceLimit, enumerate_bipartitions, enumerate_partitions, size

from explicit import d_class_size, fuse_class

TRIV1 = DIrrLabel(((1,), ()), 0)


def restriction_multiplicity(a, b, A, B, X):
    """Frobenius-reciprocity route: <Res X, A x B> via class fusion."""
    total = 0
    for ca in d_classes(a):
        va = d_char_value(A, ca)
        if va == 0:
            continue
        for cb in d_classes(b):
            vb = d_char_value(B, cb)
            if vb == 0:
                continue
            total += (
                d_class_size(ca) * d_class_size(cb) * va * vb * d_char_value(X, fuse_class(ca, cb))
            )
    h_order = group_order_d(a) * group_order_d(b)
    assert total % h_order == 0
    return total // h_order


def test_a_coefficient_examples():
    assert a_coefficient(((1,), ()), ((1,), ()), ((2,), ())) == 1
    assert a_coefficient(((1,), (1,)), ((1,), (1,)), ((2,), (2,))) == 1
    assert a_coefficient(((2,), ()), ((1,), ()), ((), ())) == 0


def test_a_coefficient_component_swap_invariance():
    for alpha in enumerate_bipartitions(2):
        for beta in enumerate_bipartitions(2):
            for gamma in enumerate_bipartitions(4):
                base = a_coefficient(alpha, beta, gamma)
                assert base == a_coefficient((alpha[1], alpha[0]), beta, gamma)
                assert base == a_coefficient(alpha, (beta[1], beta[0]), gamma)
                assert base == a_coefficient(alpha, beta, (gamma[1], gamma[0]))


def test_induced_multiplicity_degenerate_cases():
    Ap = DIrrLabel(((1,), (1,)), 1)
    Am = DIrrLabel(((1,), (1,)), -1)
    Xp = DIrrLabel(((2,), (2,)), 1)
    Xm = DIrrLabel(((2,), (2,)), -1)
    q = InducedQuery(4, 2, 2, Ap, Ap)
    assert induced_multiplicity(q, Xp) == 1
    assert induced_multiplicity(q, Xm) == 0
    q = InducedQuery(4, 2, 2, Ap, Am)
    assert induced_multiplicity(q, Xp) == 0
    assert induced_multiplicity(q, Xm) == 1


def test_induced_multiplicity_nondegenerate():
    A = make_irr_label((2,), ())
    q = InducedQuery(4, 2, 2, A, A)
    assert induced_multiplicity(q, make_irr_label((4,), ())) == 1


def test_query_validation():
    A = make_irr_label((2,), ())
    with pytest.raises(ValueError):
        induced_multiplicity(InducedQuery(4, 2, 3, A, A), make_irr_label((4,), ()))
    with pytest.raises(ValueError):
        induced_multiplicity(InducedQuery(3, 1, 2, TRIV1, make_irr_label((2,), ())), make_irr_label((3,), ()))
    with pytest.raises(ValueError):
        induced_multiplicity(InducedQuery(4, 2, 2, A, A), make_irr_label((4, 1), ()))


def test_non_partition_components_rejected():
    good = make_irr_label((2,), ())
    bad_components = [(1, 2), (2, 0), (3, -1), [2], (2.0,), (1, 1, 0)]
    for comp in bad_components:
        bad = DIrrLabel((comp, ()), 0)
        for q in (InducedQuery(4, 2, 2, bad, good), InducedQuery(4, 2, 2, good, bad)):
            with pytest.raises(ValueError, match="is not a partition"):
                decompose_induced(q)
            with pytest.raises(ValueError, match="is not a partition"):
                induced_multiplicity(q, make_irr_label((4,), ()))
        bad_x = DIrrLabel(((2,), comp), 0)
        with pytest.raises(ValueError, match="is not a partition"):
            induced_multiplicity(InducedQuery(4, 2, 2, good, good), bad_x)
    # the same shapes written as partitions are accepted
    assert decompose_induced(InducedQuery(4, 2, 2, DIrrLabel(((2,), ()), 0), good)).multiplicities


def test_decompose_trivial_contains_trivial_once():
    for n, a in [(4, 2), (5, 2), (6, 3)]:
        b = n - a
        q = InducedQuery(n, a, b, make_irr_label((a,), ()), make_irr_label((b,), ()))
        result = decompose_induced(q)
        assert result.multiplicities[make_irr_label((n,), ())] == 1
        assert result.method == "formula"


def test_degree_sum_rule():
    for n, a in [(4, 1), (4, 2), (5, 2), (6, 2), (6, 3)]:
        b = n - a
        index = group_order_d(n) // (group_order_d(a) * group_order_d(b))
        for A in d_irr_labels(a):
            for B in d_irr_labels(b):
                result = decompose_induced(InducedQuery(n, a, b, A, B))
                total = sum(m * d_degree(X) for X, m in result.multiplicities.items())
                assert total == index * d_degree(A) * d_degree(B)


def _is_horizontal_strip(outer, inner):
    if len(inner) > len(outer):
        return False
    padded = tuple(inner) + (0,) * (len(outer) - len(inner))
    if any(padded[i] > outer[i] for i in range(len(outer))):
        return False
    return all(outer[i + 1] <= padded[i] for i in range(len(outer) - 1))


def test_trivial_blocks_reduce_to_strip_counts():
    # with both blocks trivial every term is a one-row LR coefficient,
    # so the multiplicities have an independent closed form: a two-row
    # Pieri shape next to an empty component, or the two single rows
    n, a, b = 6, 2, 4

    def two_row_pieri(g):
        # gamma/(a) a horizontal strip of size b
        return size(g) == n and len(g) <= 2 and g[0] >= a and (len(g) < 2 or g[1] <= a)

    q = InducedQuery(n, a, b, make_irr_label((a,), ()), make_irr_label((b,), ()))
    result = decompose_induced(q)
    for X in d_irr_labels(n):
        if X.eps != 0:
            continue
        g1, g2 = X.label
        expected = 0
        if g2 == () and two_row_pieri(g1):
            expected += 1
        if g1 == () and two_row_pieri(g2):
            expected += 1
        if (g1, g2) in (((a,), (b,)), ((b,), (a,))):
            expected += 1
        assert result.multiplicities.get(X, 0) == expected


def test_pieri_rule_for_one_row_factors():
    from dweyl.lr import lr_coefficient as lrc

    for total in range(1, 8):
        for k in range(1, total + 1):
            for beta in enumerate_partitions(total - k):
                for gamma in enumerate_partitions(total):
                    expected = 1 if _is_horizontal_strip(gamma, beta) else 0
                    assert lrc((k,), beta, gamma) == expected


def remark_identity_check(alpha1, beta1, gamma1) -> bool:
    """Check the all-degenerate special case against its closed form.

    For alpha = (alpha1; alpha1), beta = (beta1; beta1) and
    gamma = (gamma1; gamma1) the symmetrized coefficient collapses to
    c(alpha1, beta1; gamma1)**2, and the two degenerate multiplicities
    become c(c +/- 1)/2.  The second part only applies when the ambient
    rank 2|gamma1| is at least 4.
    """
    alpha = (alpha1, alpha1)
    beta = (beta1, beta1)
    gamma = (gamma1, gamma1)
    c = lr_coefficient(alpha1, beta1, gamma1)
    if a_coefficient(alpha, beta, gamma) != c * c:
        return False
    n = 2 * size(gamma1)
    a = 2 * size(alpha1)
    b = 2 * size(beta1)
    if n >= 4 and a >= 2 and b >= 2 and size(gamma1) == size(alpha1) + size(beta1):
        for ea in (1, -1):
            for eb in (1, -1):
                q = InducedQuery(n, a, b, DIrrLabel(alpha, ea), DIrrLabel(beta, eb))
                for ex in (1, -1):
                    expected = c * (c + ea * eb * ex) // 2
                    if induced_multiplicity(q, DIrrLabel(gamma, ex)) != expected:
                        return False
    return True


def test_remark_identity():
    assert remark_identity_check((1,), (1,), (2,))
    assert remark_identity_check((2, 1), (2, 1), (3, 2, 1))
    assert a_coefficient(
        (((2, 1)), ((2, 1))), ((2, 1), (2, 1)), ((3, 2, 1), (3, 2, 1))
    ) == 4
    assert remark_identity_check((1,), (2,), (2, 1))


def test_branch_set():
    assert branch_set(((3,), (1,))) == {
        ((2,), (1,)),
        ((1,), (2,)),
        ((3,), ()),
        ((), (3,)),
    }
    assert branch_set(((2,), (2,))) == {((1,), (2,)), ((2,), (1,))}
    assert branch_set(((1, 1, 1, 1), ())) == {((1, 1, 1), ()), ((), (1, 1, 1))}


def test_branch_restriction():
    X = make_irr_label((3,), (1,))
    assert branch_restriction(4, "left", X, make_irr_label((2,), (1,))) == 1
    assert branch_restriction(4, "left", X, make_irr_label((1, 1), (1,))) == 0
    assert branch_restriction(4, "right", X, make_irr_label((2,), (1,))) == 1
    with pytest.raises(ValueError):
        branch_restriction(3, "left", make_irr_label((2,), (1,)), make_irr_label((2,), ()))


def test_branch_degree_sum():
    for n in (4, 5, 6):
        for X in d_irr_labels(n):
            total = sum(
                branch_restriction(n, "left", X, B) * d_degree(B)
                for B in d_irr_labels(n - 1)
            )
            assert total == d_degree(X)


def test_branch_matches_rank_one_induction():
    # Frobenius reciprocity with a trivial rank-1 block
    for n in (4, 5):
        for B in d_irr_labels(n - 1):
            q = InducedQuery(n, 1, n - 1, TRIV1, B)
            for X in d_irr_labels(n):
                assert induced_multiplicity(q, X) == branch_restriction(n, "right", X, B)


def test_degenerate_partner_does_not_change_nondegenerate_rows():
    for Aeps in (1, -1):
        A = DIrrLabel(((1,), (1,)), Aeps)
        partner = DIrrLabel(((1,), (1,)), -Aeps)
        B = make_irr_label((2,), ())
        for X in d_irr_labels(4):
            if X.eps != 0:
                continue
            qa = InducedQuery(4, 2, 2, A, B)
            qb = InducedQuery(4, 2, 2, partner, B)
            assert induced_multiplicity(qa, X) == induced_multiplicity(qb, X)


def test_frobenius_reciprocity_against_class_fusion():
    for n, a in [(4, 2), (4, 1), (5, 2), (6, 2), (6, 3)]:
        b = n - a
        for A in d_irr_labels(a):
            for B in d_irr_labels(b):
                q = InducedQuery(n, a, b, A, B)
                result = decompose_induced(q)
                for X in d_irr_labels(n):
                    assert result.multiplicities.get(X, 0) == restriction_multiplicity(a, b, A, B, X)


def scan_decompose(q):
    """Reference expansion: test every label of the rank-n group."""
    mults = {}
    for X in d_irr_labels(q.n):
        m = induced_multiplicity(q, X)
        if m:
            mults[X] = m
    return mults


def test_support_generation_matches_label_scan_exhaustively():
    for n in range(4, 9):
        for a in range(1, n):
            for A in d_irr_labels(a):
                for B in d_irr_labels(n - a):
                    q = InducedQuery(n, a, n - a, A, B)
                    got = decompose_induced(q).multiplicities
                    assert list(got.items()) == list(scan_decompose(q).items()), q


def test_support_generation_matches_label_scan_sampled():
    rng = random.Random(20140)
    for n in range(9, 17):
        for _ in range(4):
            a = rng.randint(1, n - 1)
            q = InducedQuery(n, a, n - a, rng.choice(d_irr_labels(a)), rng.choice(d_irr_labels(n - a)))
            assert list(decompose_induced(q).multiplicities.items()) == list(scan_decompose(q).items()), q


def test_decompose_budget_counts_pairs_of_the_kept_products(monkeypatch):
    # kept orderings, first sizes 4, 3, 3: [2]*[1,1] x [1]*[1], [2]*[1] x [1]*[1,1],
    # [1]*[1,1] x [2]*[1]; each product has two shapes, so 3 * 2 * 2 pairs
    q = InducedQuery(6, 3, 3, make_irr_label((2,), (1,)), make_irr_label((1, 1), (1,)))
    monkeypatch.setattr(decomp, "DECOMPOSE_PAIRS", 12)
    assert list(decompose_induced(q).multiplicities.items()) == list(scan_decompose(q).items())
    monkeypatch.setattr(decomp, "DECOMPOSE_PAIRS", 11)
    with pytest.raises(ResourceLimit, match=r"needs 12 pairs of shapes; the budget is 11"):
        decompose_induced(q)


@pytest.mark.parametrize(
    "n, half, pairs",
    [(84, "[6,5,4,3,2,1]", "118,222,129"), (60, "[5,4,3,2,1]", "2,053,489")],
)
def test_staircase_over_budget_is_refused(n, half, pairs):
    # one kept product, of 10,873 and of 1,433 shapes; rank 60 would give
    # 1,028,732 constituents
    X = parse_irr_label(f"({half},{half})+")
    with pytest.raises(ResourceLimit, match=f"needs {pairs} pairs of shapes"):
        decompose_induced(InducedQuery(n, n // 2, n // 2, X, X))
