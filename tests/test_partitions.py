import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dweyl import partitions
from dweyl.dchar import DClassType, DIrrLabel, d_classes, d_irr_labels, d_label_count, format_class, format_irr_label, parse_class, parse_irr_label
from dweyl.partitions import (
    as_partition,
    bipartition_count,
    enumerate_bipartitions,
    enumerate_partitions,
    format_bipartition,
    format_partition,
    last_rank_within,
    length,
    parse_bipartition,
    parse_partition,
    partition_count,
    partition_counts,
    remove_box,
    removable_rows,
    size,
    union,
)


def test_size():
    assert size(()) == 0
    assert size((3, 1)) == 4
    assert size((2, 2, 1)) == 5


def test_length():
    assert length(()) == 0
    assert length((4,)) == 1
    assert length((2, 1, 1)) == 3


def test_union():
    assert union((2, 1), (3,)) == (3, 2, 1)
    assert union((), (2, 2)) == (2, 2)
    assert union((1,), (1,)) == (1, 1)


def test_union_properties():
    parts = [p for n in range(5) for p in enumerate_partitions(n)]
    for p in parts:
        assert union(p, ()) == p
        for q in parts:
            assert union(p, q) == union(q, p)
            for r in parts:
                assert union(union(p, q), r) == union(p, union(q, r))


def test_enumerate_partitions():
    assert len(enumerate_partitions(4)) == 5
    assert enumerate_partitions(0) == ((),)
    assert enumerate_partitions(-1) == ()
    assert enumerate_partitions(4)[0] == (4,)
    assert enumerate_partitions(4)[-1] == (1, 1, 1, 1)


def test_enumerate_partitions_valid_and_distinct():
    for n in range(11):
        parts = enumerate_partitions(n)
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert size(p) == n
            assert as_partition(p) == p


def test_partition_counts_match_bruteforce():
    # independent count: compositions collapsed to sorted multisets
    def brute(n, maxpart):
        if n == 0:
            return 1
        return sum(brute(n - k, k) for k in range(1, min(n, maxpart) + 1))

    for n in range(11):
        assert len(enumerate_partitions(n)) == brute(n, n)


def test_enumerate_bipartitions():
    assert len(enumerate_bipartitions(4)) == 20
    assert enumerate_bipartitions(1) == (((1,), ()), ((), (1,)))
    assert enumerate_bipartitions(0) == (((), ()),)


def test_bipartition_count_identity():
    for n in range(9):
        expected = sum(
            len(enumerate_partitions(k)) * len(enumerate_partitions(n - k))
            for k in range(n + 1)
        )
        assert len(enumerate_bipartitions(n)) == expected


def test_remove_box():
    assert remove_box((3, 1), 1) == (2, 1)
    assert remove_box((1,), 1) == ()
    assert remove_box((2, 2), 2) == (2, 1)
    with pytest.raises(ValueError):
        remove_box((2, 2), 1)


def test_removable_rows():
    assert removable_rows((3, 1)) == [1, 2]
    assert removable_rows((2, 2)) == [2]
    assert removable_rows(()) == []


def test_remove_box_injective_and_valid():
    for n in range(1, 9):
        for p in enumerate_partitions(n):
            rows = removable_rows(p)
            results = [remove_box(p, d) for d in rows]
            assert len(set(results)) == len(results)
            for q in results:
                assert size(q) == n - 1
                assert as_partition(q) == q


def test_text_roundtrip():
    assert format_partition((3, 1)) == "[3,1]"
    assert format_partition(()) == "[]"
    assert parse_partition("[3,1]") == (3, 1)
    assert parse_partition(" [ 3 , 1 ] ") == (3, 1)
    assert parse_partition("[]") == ()
    assert format_bipartition(((3, 1), (2,))) == "([3,1],[2])"
    assert parse_bipartition("([3,1],[2])") == ((3, 1), (2,))
    for n in range(6):
        for bp in enumerate_bipartitions(n):
            assert parse_bipartition(format_bipartition(bp)) == bp


@pytest.mark.parametrize("bad", ["[3,", "3,1", "[1,2]", "[0]", "[-1]", "([2]|[1])"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_partition(bad)


# The four regex parsers that the one label grammar replaced, kept as the
# reference it must agree with.

def ref_as_partition(parts):
    p = tuple(int(x) for x in parts)
    for i, x in enumerate(p):
        if x < 1 or i and p[i - 1] < x:
            raise ValueError(f"not a partition: {p}")
    return p


def ref_parse_partition(text):
    s = text.strip()
    if not re.match(r"^\[\s*(?:\d+(?:\s*,\s*\d+)*)?\s*\]$", s):
        raise ValueError(f"malformed partition {text!r}")
    body = s[1:-1].strip()
    return ref_as_partition(int(x) for x in body.split(",")) if body else ()


def ref_parse_bipartition(text):
    m = re.match(r"^\(\s*(\[[^\]]*\])\s*,\s*(\[[^\]]*\])\s*\)$", text.strip())
    if not m:
        raise ValueError(f"malformed bipartition {text!r}")
    return ref_parse_partition(m.group(1)), ref_parse_partition(m.group(2))


def ref_parse_irr_label(text):
    m = re.match(r"^\(\s*(\[[^\]]*\])\s*,\s*(\[[^\]]*\])\s*\)\s*([+-]?)$", text.strip())
    if not m:
        raise ValueError(f"malformed character label {text!r}")
    first, second = ref_parse_partition(m.group(1)), ref_parse_partition(m.group(2))
    eps = {"": 0, "+": 1, "-": -1}[m.group(3)]
    if (first == second) != (eps != 0):
        raise ValueError("a sign exactly on degenerate labels")
    if (sum(first), first) < (sum(second), second):
        first, second = second, first
    return DIrrLabel((first, second), eps)


def ref_parse_class(text):
    m = re.match(r"^\(\s*(\[[^\]]*\])\s*,\s*(\[[^\]]*\])\s*(?:,\s*([+-])\s*)?\)$", text.strip())
    if not m:
        raise ValueError(f"malformed class label {text!r}")
    split = None if m.group(3) is None else (1 if m.group(3) == "+" else -1)
    positive, negative = ref_parse_partition(m.group(1)), ref_parse_partition(m.group(2))
    if len(negative) % 2:
        raise ValueError("odd number of negative cycles")
    if (split is None) == (not negative and all(part % 2 == 0 for part in positive)):
        raise ValueError("a tag exactly on split classes")
    return DClassType(positive, negative, split)


PARSERS = [
    (parse_partition, ref_parse_partition),
    (parse_bipartition, ref_parse_bipartition),
    (parse_irr_label, ref_parse_irr_label),
    (parse_class, ref_parse_class),
]


def assert_parsers_agree(text):
    for parse, reference in PARSERS:
        try:
            expected = reference(text)
        except ValueError:
            with pytest.raises(ValueError):
                parse(text)
        else:
            assert parse(text) == expected


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="[]()0123456789,+- ", max_size=24))
def test_grammar_matches_reference_parsers_on_random_text(text):
    assert_parsers_agree(text)


@st.composite
def spaced_labels(draw):
    """A partition or a pair, with or without a class tag and a sign,
    parts drawn freely (so often no partition), spaces put in at random."""
    part = st.lists(st.integers(0, 12), max_size=3).map(lambda xs: "[" + ",".join(map(str, xs)) + "]")
    tag, sign = draw(st.sampled_from(["", ",+", ",-"])), draw(st.sampled_from(["", "+", "-"]))
    text = draw(st.sampled_from([draw(part), f"({draw(part)},{draw(part)}{tag})"])) + sign
    for at in draw(st.lists(st.integers(0, len(text)), max_size=6)):
        text = text[:at] + " " * draw(st.integers(1, 2)) + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(spaced_labels())
def test_grammar_matches_reference_parsers_on_spaced_labels(text):
    assert_parsers_agree(text)


def test_parse_format_identity_up_to_rank_eight():
    for n in range(9):
        for p in enumerate_partitions(n):
            assert parse_partition(format_partition(p)) == p
        for bp in enumerate_bipartitions(n):
            assert parse_bipartition(format_bipartition(bp)) == bp
        if n:
            for chi in d_irr_labels(n):
                assert parse_irr_label(format_irr_label(chi)) == chi
            for c in d_classes(n):
                assert parse_class(format_class(c)) == c


def test_counts_without_enumerating():
    assert partition_counts(15) == tuple(len(enumerate_partitions(m)) for m in range(16))
    assert [bipartition_count(n) for n in range(13)] == [len(enumerate_bipartitions(n)) for n in range(13)]
    assert partition_count(100) == 190569292
    assert [d_label_count(n) for n in range(1, 13)] == [len(d_irr_labels(n)) for n in range(1, 13)]
    assert [d_label_count(n) for n in range(1, 11)] == [len(d_classes(n)) for n in range(1, 11)]


def test_counts_extend_rank_by_rank(monkeypatch):
    # from nothing counted, each rank extends the counts made before it
    monkeypatch.setattr(partitions, "_counted", (1,))
    assert [partition_count(n) for n in range(16)] == [len(enumerate_partitions(n)) for n in range(16)]
    assert partition_counts(7) == tuple(len(enumerate_partitions(n)) for n in range(8))


def test_budget_checks_decide_as_the_full_count():
    # each count never falls from rank 1 on, so a rank is within a budget
    # exactly when it is at most the last rank within it
    for count in (partition_count, bipartition_count, d_label_count):
        for budget in (1000, 10_000):
            last = last_rank_within(count, budget)
            assert [count(n) <= budget for n in range(1, 60)] == [n <= last for n in range(1, 60)]
