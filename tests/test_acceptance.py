"""Acceptance suite.

One test per acceptance criterion, each at its stated (exact, integer)
tolerance, printing a PASS line when it completes.  Run with

    pytest tests/test_acceptance.py -v -s
"""

from fractions import Fraction
from math import factorial

from dweyl.bchar import (
    BClassType,
    b_centralizer_order,
    b_char_value,
    b_classes,
)
from dweyl.dchar import (
    DClassType,
    d_centralizer_order,
    d_char_value,
    d_classes,
    d_irr_labels,
    delta_value,
    group_order_d,
)
from dweyl.decomp import InducedQuery, a_coefficient, branch_restriction, induced_multiplicity
from dweyl.dchar import DIrrLabel
from dweyl.lr import lr_coefficient
from dweyl.oracle import oracle_induce
from dweyl.partitions import enumerate_bipartitions, enumerate_partitions, union
from dweyl.symchar import sym_centralizer_order, sym_char_value
from dweyl.verify import verify_formula

from explicit import (
    build_group,
    centralizer_chain_values,
    classify_element,
    d_class_size,
    flip_at,
    group_order_b,
    induce_class_function,
    lr_coefficient_by_characters,
    plain_element,
    sp_mul,
    sym_induced_product_value,
)

TRIV1 = DIrrLabel(((1,), ()), 0)

FORMULA_CASES = [
    (4, 1, 3), (4, 2, 2), (4, 3, 1),
    (5, 1, 4), (5, 2, 3), (5, 3, 2), (5, 4, 1),
    (6, 1, 5), (6, 2, 4), (6, 3, 3), (6, 4, 2), (6, 5, 1),
]


def test_criterion_1_formula_vs_oracle():
    total_pairs = 0
    for n, a, b in FORMULA_CASES:
        report = verify_formula(n, a, b)
        assert report.mismatches == (), (n, a, b, report.mismatches[:5])
        total_pairs += report.pairs_checked
    print(f"ACCEPTANCE 1 (formula vs oracle, {total_pairs} pairs over {len(FORMULA_CASES)} subgroups): PASS")


def test_criterion_2_remark_identity():
    checked = 0
    for total in range(6):  # |alpha1| + |beta1| <= 5
        for asz in range(total + 1):
            for alpha1 in enumerate_partitions(asz):
                for beta1 in enumerate_partitions(total - asz):
                    alpha = (alpha1, alpha1)
                    beta = (beta1, beta1)
                    for gamma1 in enumerate_partitions(total):
                        c = lr_coefficient(alpha1, beta1, gamma1)
                        assert a_coefficient(alpha, beta, (gamma1, gamma1)) == c * c
                        checked += 1
                        n = 2 * total
                        if n >= 4 and asz >= 1 and total - asz >= 1:
                            for ea in (1, -1):
                                for eb in (1, -1):
                                    q = InducedQuery(n, 2 * asz, 2 * (total - asz),
                                                     DIrrLabel(alpha, ea), DIrrLabel(beta, eb))
                                    for ex in (1, -1):
                                        got = induced_multiplicity(q, DIrrLabel((gamma1, gamma1), ex))
                                        assert got == c * (c + ea * eb * ex) // 2
    print(f"ACCEPTANCE 2 (squared-coefficient identity, {checked} triples): PASS")


def test_criterion_3_one_box_branching():
    checked = 0
    for n in (4, 5, 6):
        sides = [(1, n - 1, "right"), (n - 1, 1, "left")]
        for a, b, side in sides:
            for B in d_irr_labels(n - 1):
                if side == "right":
                    explicit = oracle_induce(n, a, b, TRIV1, B).multiplicities
                else:
                    explicit = oracle_induce(n, a, b, B, TRIV1).multiplicities
                for X in d_irr_labels(n):
                    expected = explicit.get(X, 0)
                    got = branch_restriction(n, side, X, B)
                    assert got == expected, (n, side, X, B, got, expected)
                    assert got in (0, 1)
                    checked += 1
    print(f"ACCEPTANCE 3 (one-box branching vs oracle, {checked} pairs): PASS")


def test_criterion_4_proof_steps():
    for n in (4, 6):
        t = build_group(n)
        half = n // 2
        # (a) difference-character values located on explicit elements
        for pi in enumerate_partitions(half):
            two_pi = tuple(2 * p for p in pi)
            w_plus = plain_element(two_pi, n)
            f = flip_at(n, n)
            w_minus = sp_mul(f, sp_mul(w_plus, f))
            cp = classify_element(w_plus, t)
            cm = classify_element(w_minus, t)
            assert cp == DClassType(two_pi, (), 1)
            assert cm == DClassType(two_pi, (), -1)
            for gamma1 in enumerate_partitions(half):
                base = (-1) ** half * 2 ** len(pi) * sym_char_value(gamma1, pi)
                assert delta_value(gamma1, cp) == base
                assert delta_value(gamma1, cm) == -base
        # delta vanishes off the split classes
        for gamma1 in enumerate_partitions(half):
            for ty in t.class_types:
                if ty.split is None:
                    assert delta_value(gamma1, ty) == 0
        # (b) centralizer identity chain
        for pi in enumerate_partitions(half):
            vals = centralizer_chain_values(n, pi)
            assert len(set(vals.values())) == 1, (n, pi, vals)
        # (c,d,e) induced difference products
        for a in range(2, n - 1, 2):
            b = n - a
            for alpha1 in enumerate_partitions(a // 2):
                for beta1 in enumerate_partitions(b // 2):
                    theta = induce_class_function(
                        n, a, b,
                        lambda ca: delta_value(alpha1, ca),
                        lambda cb: delta_value(beta1, cb),
                    )
                    for pi in enumerate_partitions(half):
                        two_pi = tuple(2 * p for p in pi)
                        cid_p = t.type_to_class[DClassType(two_pi, (), 1)]
                        cid_m = t.type_to_class[DClassType(two_pi, (), -1)]
                        base = (-1) ** half * 2 ** (len(pi) + 1) * sym_induced_product_value(alpha1, beta1, pi)
                        assert theta[cid_p] == base
                        assert theta[cid_m] == -base
                        for gamma1 in enumerate_partitions(half):
                            dp = delta_value(gamma1, t.class_types[cid_p])
                            dm = delta_value(gamma1, t.class_types[cid_m])
                            assert theta[cid_p] * dp == theta[cid_m] * dm
                    for gamma1 in enumerate_partitions(half):
                        pairing = sum(
                            Fraction(t.class_size(cid)) * theta[cid] * delta_value(gamma1, ty)
                            for cid, ty in enumerate(t.class_types)
                        ) / len(t.elements)
                        assert pairing == 4 * lr_coefficient(alpha1, beta1, gamma1)
    print("ACCEPTANCE 4 (difference-character values, centralizer chain, "
          "induced difference product, pairing): PASS")


def test_criterion_5_character_table_integrity():
    # symmetric groups up to rank 8
    for n in range(1, 9):
        order = factorial(n)
        lams = enumerate_partitions(n)
        sizes = {mu: order // sym_centralizer_order(mu) for mu in lams}
        assert sum(sizes.values()) == order
        for i, x in enumerate(lams):
            for y in lams[i:]:
                s = sum(sizes[mu] * sym_char_value(x, mu) * sym_char_value(y, mu) for mu in lams)
                assert s == (order if x == y else 0)
        for i, c in enumerate(lams):
            for c2 in lams[i:]:
                s = sum(sym_char_value(x, c) * sym_char_value(x, c2) for x in lams)
                assert s == (sym_centralizer_order(c) if c == c2 else 0)
    # hyperoctahedral groups up to rank 5
    for n in range(1, 6):
        order = group_order_b(n)
        labels = enumerate_bipartitions(n)
        classes = b_classes(n)
        sizes = [order // b_centralizer_order(c) for c in classes]
        assert sum(sizes) == order == 2**n * factorial(n)
        for i, x in enumerate(labels):
            for y in labels[i:]:
                s = sum(w * b_char_value(x, c) * b_char_value(y, c) for w, c in zip(sizes, classes))
                assert s == (order if x == y else 0)
        for i, c in enumerate(classes):
            for c2 in classes[i:]:
                s = sum(b_char_value(x, c) * b_char_value(x, c2) for x in labels)
                assert s == (b_centralizer_order(c) if c == c2 else 0)
    # even-signed groups up to rank 6
    for n in range(2, 7):
        order = group_order_d(n)
        labels = d_irr_labels(n)
        classes = d_classes(n)
        sizes = [d_class_size(c) for c in classes]
        assert sum(sizes) == order == 2 ** (n - 1) * factorial(n)
        for i, x in enumerate(labels):
            for y in labels[i:]:
                s = sum(w * d_char_value(x, c) * d_char_value(y, c) for w, c in zip(sizes, classes))
                assert s == (order if x == y else 0)
        for i, c in enumerate(classes):
            for c2 in classes[i:]:
                s = sum(d_char_value(x, c) * d_char_value(x, c2) for x in labels)
                assert s == (d_centralizer_order(c) if c == c2 else 0)
    print("ACCEPTANCE 5 (orthogonality and class sums: S up to 8, B up to 5, D up to 6): PASS")


def test_criterion_6_lr_engine():
    checked = 0
    for total in range(9):  # |alpha| + |beta| <= 8
        for asz in range(total + 1):
            for alpha in enumerate_partitions(asz):
                for beta in enumerate_partitions(total - asz):
                    for gamma in enumerate_partitions(total):
                        tableau = lr_coefficient(alpha, beta, gamma)
                        assert tableau == lr_coefficient_by_characters(alpha, beta, gamma)
                        assert tableau == lr_coefficient(beta, alpha, gamma)
                        checked += 1
    print(f"ACCEPTANCE 6 (tableau count vs character inner product, {checked} triples): PASS")


def _b_induction_multiplicity(a, b, A, B, gamma):
    # <Ind to the ambient rank a+b signed group of A x B, [gamma]>
    total = 0
    for ca in d_classes(a):
        va = d_char_value(A, ca)
        if not va:
            continue
        for cb in d_classes(b):
            vb = d_char_value(B, cb)
            if not vb:
                continue
            fused = BClassType(union(ca.positive, cb.positive), union(ca.negative, cb.negative))
            total += d_class_size(ca) * d_class_size(cb) * va * vb * b_char_value(gamma, fused)
    h_order = group_order_d(a) * group_order_d(b)
    assert total % h_order == 0
    return total // h_order


def test_criterion_7_ambient_induction_consistency():
    checked = 0
    for n in range(2, 7):
        for a in range(1, n):
            b = n - a
            for A in d_irr_labels(a):
                for B in d_irr_labels(b):
                    for gamma in enumerate_bipartitions(n):
                        got = _b_induction_multiplicity(a, b, A, B, gamma)
                        assert got == a_coefficient(A.label, B.label, gamma), (a, b, A, B, gamma)
                        checked += 1
    print(f"ACCEPTANCE 7 (ambient-group induction equals symmetrized LR, {checked} triples): PASS")
