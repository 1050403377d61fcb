import json
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dweyl import clear_caches
from dweyl.dchar import (
    DClassType,
    DIrrLabel,
    d_centralizer_order,
    d_char_column,
    d_char_value,
    d_classes,
    d_degree,
    d_irr_labels,
    d_store,
    group_order_d,
    make_irr_label,
    parse_irr_label,
)
from dweyl.cli import main
from dweyl.decomp import InducedQuery, decompose_induced, validate_query
from dweyl.oracle import (
    MAX_RANK,
    _block_tally,
    _class_type,
    _fused_counts,
    _pack,
    _packed,
    _slot_bound,
    _unpack,
    oracle_induce,
)
from dweyl.partitions import RangeError, enumerate_partitions
from dweyl.symchar import check_class, sym_centralizer_order
from dweyl.verify import verify_formula

from explicit import (
    _block_parts,
    _class_sums,
    _cycle_walk,
    _embed_blocks,
    _in_block_subgroup,
    _signed_perms,
    build_group,
    centralizer_chain_values,
    classify_element,
    flip_at,
    fuse_class,
    induce_class_function,
    induced_value_elementwise,
    induced_value_from_subgroup_classes,
    oracle_char_table,
    plain_element,
    signed_cycle_type,
    sp_identity,
    sp_inv,
    sp_mul,
    split_partition_pairs,
    sym_induced_product_value,
)


def test_signed_permutation_arithmetic():
    w = (2, -3, 1, 4)
    assert sp_mul(w, sp_inv(w)) == sp_identity(4)
    assert sp_mul(sp_inv(w), w) == sp_identity(4)
    assert signed_cycle_type((2, 3, 1, 4)) == ((3, 1), ())
    assert signed_cycle_type((2, -3, 1, 4)) == ((1,), (3,))
    assert signed_cycle_type((-1, -2, 3, 4)) == ((1, 1), (1, 1))


def test_build_group_sizes():
    assert len(build_group(2).elements) == 4
    assert len(build_group(2).classes) == 4
    assert len(build_group(4).elements) == 192
    assert len(build_group(4).classes) == 13
    assert len(build_group(5).elements) == 1920
    assert len(build_group(5).classes) == 18
    for n in (0, 8):
        with pytest.raises(RangeError, match="capped at n = 7"):
            build_group(n)


def test_class_count_matches_labels():
    for n in range(1, 7):
        assert len(build_group(n).classes) == len(d_irr_labels(n))
        assert set(build_group(n).class_types) == set(d_classes(n))


def orbit_classes(n):
    """Reference classes by orbit search: conjugate by the Coxeter
    generators (all involutions) until no new element appears.  Returns
    class_of and the member lists, ids in order of first appearance."""
    t = build_group(n)
    gens = []
    for i in range(1, n):
        w = list(range(1, n + 1))
        w[i - 1], w[i] = w[i], w[i - 1]
        gens.append(tuple(w))
    if n >= 2:
        w = list(range(1, n + 1))
        w[n - 2], w[n - 1] = -n, -(n - 1)
        gens.append(tuple(w))
    class_of = [-1] * len(t.elements)
    classes = []
    for i0, w0 in enumerate(t.elements):
        if class_of[i0] >= 0:
            continue
        cid = len(classes)
        members = [i0]
        class_of[i0] = cid
        stack = [w0]
        while stack:
            x = stack.pop()
            for g in gens:
                j = t.index[sp_mul(g, sp_mul(x, g))]
                if class_of[j] < 0:
                    class_of[j] = cid
                    members.append(j)
                    stack.append(t.elements[j])
        classes.append(members)
    return class_of, classes


def test_cycle_type_classes_match_orbit_search():
    for n in range(1, 7):
        t = build_group(n)
        class_of, classes = orbit_classes(n)
        assert t.class_of == class_of
        assert [set(m) for m in t.classes] == [set(m) for m in classes]
        assert all(m == sorted(m) for m in t.classes)
        # unsplittable types are one orbit, splittable types two, and
        # the + orbit is the one holding the sign-free representative
        orbits_of_type = {}
        for members in classes:
            raw = signed_cycle_type(t.elements[members[0]])
            orbits_of_type.setdefault(raw, []).append(members)
        for (positive, negative), orbits in orbits_of_type.items():
            if not negative and all(p % 2 == 0 for p in positive):
                assert len(orbits) == 2
                plus = class_of[t.index[plain_element(positive, n)]]
                for members in orbits:
                    tag = 1 if class_of[members[0]] == plus else -1
                    assert t.class_types[class_of[members[0]]] == DClassType(positive, negative, tag)
            else:
                assert len(orbits) == 1
                assert t.class_types[class_of[orbits[0][0]]] == DClassType(positive, negative, None)


def scan_fused_counts(n, a, b):
    """Reference _fused_counts: scan every element of the rank-n group
    for the block subgroup and classify its two blocks; keyed by the
    class type of the element, for the types that occur."""
    t, ta, tb = build_group(n), build_group(a), build_group(b)
    counts = defaultdict(lambda: defaultdict(int))
    for i, w in enumerate(t.elements):
        if not _in_block_subgroup(w, a):
            continue
        wa, wb = _block_parts(w, a)
        pa = ta.class_types[ta.class_of[ta.index[wa]]]
        pb = tb.class_types[tb.class_of[tb.index[wb]]]
        counts[t.class_types[t.class_of[i]]][(pa, pb)] += 1
    return {ty: dict(c) for ty, c in counts.items()}


def test_block_tally_counts_the_classes_of_the_group_tables():
    # |W(D_k)| / |C(c)| per class, against the classes of the explicit
    # tables as far as they go, and summing to the group order up to the
    # oracle's cap
    for k in range(1, 8):
        t = build_group(k)
        assert _block_tally(k) == {ty: t.class_size(cid) for cid, ty in enumerate(t.class_types)}, k
    for k in range(1, MAX_RANK + 1):
        assert sum(_block_tally(k).values()) == group_order_d(k), k


def test_union_rule_matches_the_walk_of_the_joined_element():
    """_fused_counts fuses the two blocks' classes by the union rule,
    written out in fuse_class.  At every pair of block elements the fused
    class must be the one that the cycle walk of the joined rank-n
    element gives."""
    for n in range(2, 8):
        for a in range(1, n):
            block_b = [(wb, _class_type(*_cycle_walk(wb))) for wb in _signed_perms(n - a, even=True)]
            for wa in _signed_perms(a, even=True):
                pa = _class_type(*_cycle_walk(wa))
                for wb, pb in block_b:
                    assert fuse_class(pa, pb) == _class_type(*_cycle_walk(_embed_blocks(wa, wb))), (wa, wb)


def test_fused_counts_match_scan_over_the_group():
    for n in range(2, 7):
        for a in range(1, n):
            assert _fused_counts(n, a, n - a) == scan_fused_counts(n, a, n - a), (n, a)


@pytest.mark.slow
def test_fused_counts_match_scan_over_the_group_at_rank_7():
    for a in range(1, 7):
        assert _fused_counts(7, a, 7 - a) == scan_fused_counts(7, a, 7 - a), a


def test_mirror_splits_fuse_to_swapped_pairs():
    # blocks are read in block order; the mirror split holds the same
    # elements with their blocks exchanged, a conjugate by a sign-free
    # permutation, so the same counts with each pair (pa, pb) swapped
    for n in range(2, MAX_RANK + 1):
        for a in range(1, n):
            swapped = {ty: {(pb, pa): count for (pa, pb), count in pairs.items()} for ty, pairs in _fused_counts(n, a, n - a).items()}
            assert _fused_counts(n, n - a, a) == swapped, (n, a)


def record_tables(monkeypatch):
    """The ranks of the group tables asked for from here on, the
    oracle's caches cleared."""
    import explicit

    built = []

    def record(n):
        built.append(n)
        return build_group(n)

    monkeypatch.setattr(explicit, "build_group", record)
    for cached in (_block_tally, _fused_counts, _packed):
        cached.cache_clear()
    return built


def test_verify_formula_builds_no_ambient_element_list(monkeypatch):
    # both blocks are tallied by cycle type; no group table is asked for
    built = record_tables(monkeypatch)
    report = verify_formula(6, 2, 4)
    assert report.mismatches == ()
    trivial = make_irr_label((1,), ())
    result = oracle_induce(8, 1, 7, trivial, make_irr_label((7,), ()))
    # Ind from W(D_7) of the trivial character has degree [W(D_8) : W(D_7)]
    assert sum(m * d_degree(X) for X, m in result.multiplicities.items()) == 16
    # and is the sum of the labels with one box added to ((7), ())
    assert result.multiplicities == {make_irr_label(lam, mu): 1 for lam, mu in [((8,), ()), ((7, 1), ()), ((7,), (1,))]}
    report = verify_formula(8, 3, 5)
    assert report.mismatches == ()
    assert report.pairs_checked == len(d_irr_labels(3)) * len(d_irr_labels(5)) * len(d_irr_labels(8))
    # past the table cap
    for n, a, A, B in [(9, 5, "([3],[2])", "([2,1],[1])"), (10, 5, "([2],[2,1])", "([4],[1])"), (11, 1, "([1],[])", "([5,2],[3])")]:
        result = oracle_induce(n, a, n - a, parse_irr_label(A), parse_irr_label(B))
        assert result.multiplicities == decompose_induced(InducedQuery(n, a, n - a, parse_irr_label(A), parse_irr_label(B))).multiplicities
    assert built == []


def test_mirror_splits_share_the_larger_block_tally(monkeypatch):
    # (9, 1, 8) and (9, 8, 1) read one tally of the rank-8 block: one
    # _block_tally miss per block rank
    record_tables(monkeypatch)
    assert verify_formula(9, 1, 8).mismatches == ()
    assert verify_formula(9, 8, 1).mismatches == ()
    assert _block_tally.cache_info().misses == 2


def test_verify_formula_rejects_ranks_before_enumerating(monkeypatch):
    import dweyl.oracle
    import dweyl.verify

    def refuse(*args):
        raise AssertionError(f"enumerated {args}")

    assert not hasattr(dweyl.oracle, "build_group")
    for name in ("d_irr_labels", _block_tally.__name__):
        monkeypatch.setattr(dweyl.oracle, name, refuse)
    for name in ("d_irr_labels", _packed.__name__):
        monkeypatch.setattr(dweyl.verify, name, refuse)
    for n, a, b in [(40, 1, 39), (12, 5, 7), (12, 1, 11), (3, 1, 2), (0, 0, 0)]:
        with pytest.raises(RangeError, match="verify needs 4 <= n <= 11"):
            verify_formula(n, a, b)
    for n, a, b in [(5, 2, 2), (10, 0, 10), (11, 11, 0)]:
        with pytest.raises(RangeError, match="need a, b >= 1 with a \\+ b = n, got"):
            verify_formula(n, a, b)


def test_oracle_induce_rejects_splits_before_enumerating(monkeypatch):
    import dweyl.oracle

    def refuse(*args):
        raise AssertionError(f"enumerated {args}")

    assert not hasattr(dweyl.oracle, "build_group")
    for name in ("d_irr_labels", _block_tally.__name__, "d_char_value"):
        monkeypatch.setattr(dweyl.oracle, name, refuse)
    monkeypatch.setattr(d_store, "column", refuse)
    A = B = make_irr_label((2,), ())
    for n, a, b in [(12, 6, 6), (12, 1, 11), (12, 11, 1), (40, 1, 39), (5, 2, 2), (4, 0, 4), (4, 4, 0)]:
        with pytest.raises(RangeError, match="the oracle needs a, b >= 1 with a \\+ b = n <= 11, got"):
            oracle_induce(n, a, b, A, B)


def test_oracle_induce_refuses_a_wrong_rank_label_before_packing(monkeypatch):
    # the message is the formula's, and no split is built
    import dweyl.oracle

    def refuse(*args):
        raise AssertionError(f"packed {args}")

    monkeypatch.setattr(dweyl.oracle, _packed.__name__, refuse)
    A, B = parse_irr_label("([5],[])"), parse_irr_label("([6],[])")
    wrong = parse_irr_label("([9],[])")
    for q in (InducedQuery(11, 5, 6, wrong, B), InducedQuery(11, 5, 6, A, wrong)):
        with pytest.raises(ValueError) as formula:
            decompose_induced(q)
        with pytest.raises(ValueError) as oracle:
            oracle_induce(q.n, q.a, q.b, q.A, q.B)
        assert str(oracle.value) == str(formula.value) == "label ([9],[]) has size 9, expected " + str(q.a if q.A == wrong else q.b)


def test_verify_reports_each_label_a_wrong_formula_gets_wrong(monkeypatch, capsys):
    import dweyl.verify

    A, B = parse_irr_label("([2],[])"), parse_irr_label("([2,1],[])")
    bumped, dropped, added = map(parse_irr_label, ("([3,1,1],[])", "([4,1],[])", "([3],[2])"))
    right = decompose_induced(InducedQuery(5, 2, 3, A, B)).multiplicities
    assert right[bumped] == right[dropped] == 1 and added not in right
    # the added label first, so that the report's order cannot come from the dict
    wrong = {added: 4, **right, bumped: 2}
    del wrong[dropped]

    def corrupted(q):
        return wrong if (q.A, q.B) == (A, B) else decompose_induced(q).multiplicities

    monkeypatch.setattr(dweyl.verify, "_decompose", corrupted)
    report = verify_formula(5, 2, 3)
    assert report.mismatches == ((A, B, dropped, 0, 1), (A, B, bumped, 2, 1), (A, B, added, 4, 0))
    assert report.pairs_checked == 4 * 5 * 18 == len(d_irr_labels(2)) * len(d_irr_labels(3)) * len(d_irr_labels(5))

    assert main(["verify", "--n", "5", "--a", "2", "--b", "3"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["pairs_checked"] == 360
    assert payload["mismatches"] == [
        {"n": 5, "a": 2, "b": 3, "A": "([2],[])", "B": "([2,1],[])", "X": X, "formula": f, "oracle": o}
        for X, f, o in [("([4,1],[])", 0, 1), ("([3,1,1],[])", 2, 1), ("([3],[2])", 4, 0)]
    ]


def test_class_types_constant_on_classes():
    for n in range(1, 5):
        t = build_group(n)
        for cid, members in enumerate(t.classes):
            raw = (t.class_types[cid].positive, t.class_types[cid].negative)
            for m in members:
                assert signed_cycle_type(t.elements[m]) == raw


def test_classify_element():
    t = build_group(4)
    assert classify_element(sp_identity(4), t) == DClassType((1, 1, 1, 1), (), None)
    w_plus = plain_element((2, 2), 4)
    assert classify_element(w_plus, t) == DClassType((2, 2), (), 1)
    # conjugating by a single sign flip lands in the other class
    f = flip_at(4, 4)
    w_minus = sp_mul(f, sp_mul(w_plus, f))
    assert classify_element(w_minus, t) == DClassType((2, 2), (), -1)
    w4 = plain_element((4,), 4)
    assert classify_element(sp_mul(f, sp_mul(w4, f)), t) == DClassType((4,), (), -1)
    with pytest.raises(ValueError):
        classify_element((2, 3, 4, -1), t)  # odd number of sign changes


def test_split_classes_halve_the_ambient_class():
    t = build_group(4)
    for cid, ty in enumerate(t.class_types):
        if ty.split is not None:
            partner = DClassType(ty.positive, ty.negative, -ty.split)
            assert t.class_size(cid) == t.class_size(t.type_to_class[partner])


def test_explicit_centralizers_match_formula():
    for n in range(1, 6):
        t = build_group(n)
        for cid, ty in enumerate(t.class_types):
            assert t.centralizer_orders[cid] == d_centralizer_order(ty)


def test_char_table_orthogonal_against_explicit_sizes():
    for n in range(2, 6):
        t = build_group(n)
        table = oracle_char_table(n)
        labels = d_irr_labels(n)
        order = group_order_d(n)
        for i, x in enumerate(labels):
            for y in labels[i:]:
                s = sum(
                    t.class_size(cid) * table[(x, cid)] * table[(y, cid)]
                    for cid in range(len(t.classes))
                )
                assert s == (order if x == y else 0)


def test_centralizer_chain_small():
    for pi in enumerate_partitions(2):
        vals = centralizer_chain_values(4, pi)
        assert len(set(vals.values())) == 1


def test_class_sums_call_each_block_function_once_per_block_class():
    calls = Counter()

    def block(side):
        def f(ty):
            calls[side, ty] += 1
            return len(ty.positive) - len(ty.negative)

        return f

    sums = _class_sums(6, 2, 4, block("a"), block("b"))
    assert set(calls.values()) == {1}
    assert len(calls) == len(build_group(2).class_types) + len(build_group(4).class_types)
    counts = _fused_counts(6, 2, 4).values()
    assert sums == [sum(m * (len(pa.positive) - len(pa.negative)) * (len(pb.positive) - len(pb.negative)) for (pa, pb), m in c.items()) for c in counts]


def test_fused_counts_cover_subgroup():
    from dweyl.oracle import _fused_counts

    for n, a in [(4, 2), (4, 1), (5, 3)]:
        b = n - a
        counts = _fused_counts(n, a, b)
        total = sum(v for c in counts.values() for v in c.values())
        assert total == group_order_d(a) * group_order_d(b)


def test_induction_routes_agree():
    n, a, b = 4, 2, 2
    t = build_group(n)
    cases = [
        (make_irr_label((2,), ()), make_irr_label((1, 1), ())),
        (DIrrLabel(((1,), (1,)), 1), DIrrLabel(((1,), (1,)), -1)),
        (make_irr_label((2,), ()), DIrrLabel(((1,), (1,)), 1)),
    ]
    for A, B in cases:
        fa = lambda ca: d_char_value(A, ca)
        fb = lambda cb: d_char_value(B, cb)
        grouped = induce_class_function(n, a, b, fa, fb)
        for cid in range(len(t.classes)):
            rep = t.elements[t.classes[cid][0]]
            literal = induced_value_elementwise(n, a, b, fa, fb, rep)
            via_classes = induced_value_from_subgroup_classes(n, a, b, fa, fb, rep)
            assert grouped[cid] == literal == via_classes


def test_oracle_induce_trivial():
    n, a, b = 4, 2, 2
    result = oracle_induce(n, a, b, make_irr_label((2,), ()), make_irr_label((2,), ()))
    triv = make_irr_label((4,), ())
    assert result.multiplicities[triv] == 1
    assert result.method == "oracle"
    total = sum(m * d_degree(X) for X, m in result.multiplicities.items())
    assert total == group_order_d(4) // (group_order_d(2) * group_order_d(2))


def test_oracle_induce_comes_in_label_order():
    # cmd_decompose prints either method's multiplicities as they come
    for n in range(4, 7):
        position = {X: i for i, X in enumerate(d_irr_labels(n))}
        for a in range(1, n):
            for A in d_irr_labels(a):
                for B in d_irr_labels(n - a):
                    keys = [position[X] for X in oracle_induce(n, a, n - a, A, B).multiplicities]
                    assert keys == sorted(keys), (n, a, A, B)


def test_oracle_matches_formula_rank_four():
    for a in (1, 2, 3):
        report = verify_formula(4, a, 4 - a)
        assert report.mismatches == ()
        assert report.pairs_checked == len(d_irr_labels(a)) * len(d_irr_labels(4 - a)) * 13


def test_oracle_matches_formula_rank_seven():
    labels = len(d_irr_labels(7))
    for a in range(1, 7):
        report = verify_formula(7, a, 7 - a)
        assert report.mismatches == ()
        assert report.pairs_checked == len(d_irr_labels(a)) * len(d_irr_labels(7 - a)) * labels


PAIRS_PAST_THE_TABLES = {
    (9, 1): 15000, (9, 2): 33000, (9, 3): 27750, (9, 4): 35100,
    (10, 1): 37650, (10, 2): 100400, (10, 3): 69025, (10, 4): 120731, (10, 5): 81324,
    (11, 1): 94376, (11, 2): 225600, (11, 3): 188000, (11, 4): 268840, (11, 5): 250416,
}


@pytest.mark.slow
@pytest.mark.parametrize("n, a", [(n, a) for n in (9, 10, 11) for a in range(1, n)])
def test_oracle_matches_formula_past_the_table_cap(monkeypatch, n, a):
    # every split up to the oracle's cap, with no group table
    built = record_tables(monkeypatch)
    report = verify_formula(n, a, n - a)
    assert report.mismatches == ()
    assert report.pairs_checked == PAIRS_PAST_THE_TABLES[n, min(a, n - a)]
    assert report.pairs_checked == len(d_irr_labels(a)) * len(d_irr_labels(n - a)) * len(d_irr_labels(n))
    assert built == []


SLOT_MAX = (1 << 63) - 1
slot_values = st.one_of(
    st.integers(-SLOT_MAX, SLOT_MAX),
    st.sampled_from([0, 1, -1, SLOT_MAX, -SLOT_MAX, SLOT_MAX - 1, 1 - SLOT_MAX, 1 << 31, -(1 << 31) - 1, 1 << 62, -(1 << 62)]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(slot_values, min_size=1, max_size=40))
def test_slot_decoder_round_trip(values):
    assert _unpack(_pack(values), len(values)) == values


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 30).flatmap(lambda k: st.tuples(*[st.lists(st.integers(-(1 << 60), 1 << 60), min_size=k, max_size=k)] * 2)), st.integers(-3, 3))
def test_packed_sums_decode_slot_by_slot(pair, k):
    # Kronecker substitution: multiply-adds of packed columns act on each slot
    xs, ys = pair
    assert _unpack(k * _pack(xs) - _pack(ys), len(xs)) == [k * x - y for x, y in zip(xs, ys)]


def test_slot_bound_fits_every_split_the_caps_allow():
    bounds = {(n, a, n - a): _slot_bound(n, a, n - a) for n in range(2, MAX_RANK + 1) for a in range(1, n)}
    worst = max(bounds, key=bounds.get)
    assert worst in {(11, 1, 10), (11, 10, 1)}
    assert bounds[worst] < 1 << 60
    # the cap is the last rank at which every split fits
    n = MAX_RANK + 1
    assert {a for a in range(1, n) if _slot_bound(n, a, n - a) >= 1 << 63} == {1, 2, n - 2, n - 1}
    n, a, b = 5, 2, 3
    assert bounds[n, a, b] == group_order_d(a) * group_order_d(b) * max(map(d_degree, d_irr_labels(a))) * max(map(d_degree, d_irr_labels(b))) * max(map(d_degree, d_irr_labels(n)))


def test_slot_bound_equals_the_full_scan_of_degrees():
    # every split up to n = 12 against the largest degree of each rank
    largest = {n: max(map(d_degree, d_irr_labels(n))) for n in range(1, 13)}
    for n in range(2, 13):
        for a in range(1, n):
            b = n - a
            assert _slot_bound(n, a, b) == group_order_d(a) * group_order_d(b) * largest[a] * largest[b] * largest[n], (n, a)


def test_verify_reads_each_block_value_once_per_split(monkeypatch):
    # the block characters' rows are read as one column per block type
    # per split, shared across the labels of the other block, not once
    # per pair, and never value by value
    import dweyl.oracle

    columns, column = [], d_store.column

    def counted(c, n):
        columns.append(c)
        return column(c, n)

    def refuse(chi, c):
        raise AssertionError(f"read {chi} at {c} value by value")

    monkeypatch.setattr(d_store, "column", counted)
    monkeypatch.setattr(dweyl.oracle, "d_char_value", refuse)
    for n, a, b in [(6, 3, 3), (6, 1, 5)]:
        split = _packed(n, a, b)
        columns.clear()
        assert verify_formula(n, a, b).mismatches == ()
        assert Counter(columns) == Counter(split.types_a + split.types_b), (n, a)


@pytest.mark.parametrize("n, a, b", [(6, 2, 4), (6, 3, 3)])
def test_verify_checks_nothing_its_split_built(monkeypatch, n, a, b):
    # verify checks n, a and b itself: the formula's query check does not
    # run per pair, the slot bound reads no d_degree, and no class type
    # that _fused_counts built is checked again
    import dweyl.dchar
    import dweyl.decomp
    import dweyl.oracle
    import dweyl.symchar

    record_tables(monkeypatch)
    clear_caches()
    queries, classes = [], []

    def validated(q):
        queries.append(q)
        return validate_query(q)

    def checked(cls, group):
        classes.append(cls)
        return check_class(cls, group)

    def refuse(chi):
        raise AssertionError(f"d_degree({chi})")

    monkeypatch.setattr(dweyl.decomp, "validate_query", validated)
    monkeypatch.setattr(dweyl.dchar, "d_degree", refuse)
    monkeypatch.setattr(dweyl.oracle, "d_degree", refuse, raising=False)
    monkeypatch.setattr(dweyl.symchar, "check_class", checked)
    monkeypatch.setattr(dweyl.dchar, "check_class", checked)
    report = verify_formula(n, a, b)
    assert report.mismatches == ()
    assert len(queries) <= 1 < len(d_irr_labels(a)) * len(d_irr_labels(b))
    counts = _fused_counts(n, a, b)
    built = {*counts, *(c for pairs in counts.values() for pair in pairs for c in pair)}
    assert len(built) > 10
    assert not built.intersection(classes)


def test_over_bound_split_is_refused_before_packing(monkeypatch):
    import dweyl.oracle

    record_tables(monkeypatch)

    def refuse(*args):
        raise AssertionError(f"packed {args}")

    def identity_only(c, n):  # every degree 2**21: bound = |H| * 2**63
        if c != DClassType((1,) * n, (), None):
            refuse(c, n)
        return [1 << 21]

    monkeypatch.setattr(d_store, "column", identity_only)
    for name in ("_fused_counts", "d_char_value"):
        monkeypatch.setattr(dweyl.oracle, name, refuse)
    A, B = make_irr_label((2,), ()), make_irr_label((3,), ())
    with pytest.raises(RangeError, match="may reach 885443715538058477568, past 64-bit slots"):
        oracle_induce(5, 2, 3, A, B)
    with pytest.raises(RangeError, match="past 64-bit slots"):
        verify_formula(5, 2, 3)


def dot_product_induce(n, a, b, A, B):
    """Reference oracle_induce: class sums at the fused types, then one
    dot product with each label's values there."""
    sums = _class_sums(n, a, b, lambda ca: d_char_value(A, ca), lambda cb: d_char_value(B, cb))
    h_order = group_order_d(a) * group_order_d(b)
    out = {}
    for X, row in zip(d_irr_labels(n), zip(*map(d_char_column, _fused_counts(n, a, b)))):
        total, rest = divmod(sum(s * x for s, x in zip(sums, row)), h_order)
        assert rest == 0 and total >= 0
        if total:
            out[X] = total
    return out


def test_packed_inner_products_equal_per_label_dot_products():
    for n in range(2, 8):
        for a in range(1, n):
            for A in d_irr_labels(a):
                for B in d_irr_labels(n - a):
                    assert oracle_induce(n, a, n - a, A, B).multiplicities == dot_product_induce(n, a, n - a, A, B), (n, a, A, B)


def test_negative_inner_product_is_refused(monkeypatch):
    # A x B is -|H| at the identity, 0 elsewhere: -|H| deg X in every
    # slot, negative totals with no remainder
    import dweyl.oracle

    A, B = make_irr_label((2,), ()), make_irr_label((1, 1), ())

    def minus_regular(chi, c):
        return 0 if c.negative or set(c.positive) != {1} else -4 if chi == A else 4

    record_tables(monkeypatch)
    monkeypatch.setattr(dweyl.oracle, "d_char_value", minus_regular)
    with pytest.raises(ArithmeticError, match=r"non-character inner product -16/16 for \(\[2\],\[\]\) x \(\[1,1\],\[\]\) vs \(\[4\],\[\]\)$"):
        oracle_induce(4, 2, 2, A, B)


def test_split_partition_pairs():
    assert split_partition_pairs((2, 1, 1), 1) == {((1,), (2, 1))}
    assert split_partition_pairs((2, 1, 1), 2) == {((2,), (1, 1)), ((1, 1), (2,))}
    assert split_partition_pairs((2,), 1) == set()


def test_sym_induced_product_value():
    # degree at the identity: binomial index times product of degrees
    from math import comb

    from dweyl.symchar import sym_degree

    for a in (1, 2):
        for b in (1, 2):
            m = a + b
            for alpha in enumerate_partitions(a):
                for beta in enumerate_partitions(b):
                    got = sym_induced_product_value(alpha, beta, (1,) * m)
                    assert got == comb(m, a) * sym_degree(alpha) * sym_degree(beta)
    # and a transposition in S_2 x S_2 -> S_4
    val = sym_induced_product_value((2,), (1, 1), (2, 1, 1))
    # direct elementwise value: centralizer * sum over splits
    z = sym_centralizer_order((2, 1, 1))
    expected = z * (
        Fraction(1 * 1, sym_centralizer_order((2,)) * sym_centralizer_order((1, 1)))
        + Fraction(1 * -1, sym_centralizer_order((1, 1)) * sym_centralizer_order((2,)))
    )
    assert val == expected == 0
