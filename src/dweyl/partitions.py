"""Exact partition and bipartition combinatorics.

Partitions are plain tuples of positive integers in weakly decreasing
order, so they hash and compare directly and can key caches.  All
functions here are pure; the enumeration caches are filled once and
only ever read afterwards, so concurrent use is safe.

Text forms (the interchange format used by the CLI and all JSON
output) follow ``GRAMMAR``; ``read_label`` reads all four of them.
"""

from __future__ import annotations

import re
from functools import cache
from operator import mul

Partition = tuple[int, ...]
Bipartition = tuple[Partition, Partition]


class RangeError(ValueError):
    """A well-formed input outside the range a computation supports,
    such as a rank or a block size; not a label or syntax error."""


class ResourceLimit(RuntimeError):
    """An answer larger than a documented budget, refused before any of
    it is computed."""


def as_partition(p) -> Partition:
    """p itself if it is a partition: a tuple of ints > 0, weakly decreasing."""
    if type(p) is not tuple or not {*map(type, p)} <= {int} or p and p[-1] < 1 or list(p) != sorted(p, reverse=True):
        text = format_partition(p) if isinstance(p, (tuple, list)) else repr(p)
        raise ValueError(f"{text} is not a partition: need a tuple of ints > 0, weakly decreasing")
    return p


def size(p: Partition) -> int:
    """Sum of the parts; 0 for the empty partition."""
    return sum(p)


def length(p: Partition) -> int:
    """Number of parts; 0 for the empty partition."""
    return len(p)


def union(p: Partition, q: Partition) -> Partition:
    """Multiset union of two partitions, reordered weakly decreasing."""
    return tuple(sorted(p + q, reverse=True))


@cache
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, reverse-lexicographic: (n) first, (1,...,1) last.

    Empty for n < 0; for n = 0 the single empty partition.
    """
    if n < 0:
        return ()
    out: list[Partition] = []

    def rec(remaining: int, maxpart: int, prefix: Partition) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, maxpart), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return tuple(out)


@cache
def enumerate_bipartitions(n: int) -> tuple[Bipartition, ...]:
    """All ordered pairs (alpha, beta) with |alpha| + |beta| = n.

    Ordered by |alpha| descending, then componentwise in partition
    enumeration order.  Empty for n < 0.
    """
    if n < 0:
        return ()
    out: list[Bipartition] = []
    for k in range(n, -1, -1):
        for first in enumerate_partitions(k):
            for second in enumerate_partitions(n - k):
                out.append((first, second))
    return tuple(out)


_counted: tuple[int, ...] = (1,)
"""p(0), p(1), ...: the numbers of partitions counted so far.
partition_counts replaces it with a longer tuple, never changes it in
place, so concurrent callers at worst count some ranks twice."""


def partition_counts(n: int) -> tuple[int, ...]:
    """p(0), ..., p(n), the numbers of partitions, by Euler's pentagonal
    recurrence: p(m) = sum over k >= 1 of (-1)**(k+1) (p(m - k(3k-1)/2)
    + p(m - k(3k+1)/2)).  No partition is enumerated, and the ranks
    counted before are not counted again, so counting rank by rank up to
    n costs what counting n once does."""
    global _counted
    if n < len(_counted):
        return _counted[: n + 1]
    p = list(_counted)
    for m in range(len(p), n + 1):
        total, k = 0, 1
        while (pentagonal := k * (3 * k - 1) // 2) <= m:
            term = p[m - pentagonal] + (p[m - pentagonal - k] if pentagonal + k <= m else 0)
            total += term if k % 2 else -term
            k += 1
        p.append(total)
    _counted = counted = tuple(p)
    return counted


def partition_count(n: int) -> int:
    """Number of partitions of n, by counting."""
    return partition_counts(n)[-1]


def bipartition_count(n: int) -> int:
    """Number of bipartitions of n, the sum of p(k) p(n - k), by counting."""
    p = partition_counts(n)
    return sum(map(mul, p, reversed(p)))


@cache
def last_rank_within(count, budget: int) -> int:
    """The largest rank n with count(n) <= budget, for a count of labels
    that never falls from rank 1 on and is at most budget there.  A
    budget check compares a rank with it, so no rank past the first
    whose count passes the budget is ever counted, however large the
    rank checked."""
    n = 1
    while count(n + 1) <= budget:
        n += 1
    return n


def removable_rows(p: Partition) -> list[int]:
    """Rows d (1-based) whose last box can be removed leaving a partition.

    These are the d with d = length(p) or p[d] > p[d+1].
    """
    k = len(p)
    return [d for d in range(1, k + 1) if d == k or p[d - 1] > p[d]]


def remove_box(p: Partition, d: int) -> Partition:
    """Decrement row d (1-based) by one box, dropping the row if it empties."""
    if d not in removable_rows(p):
        raise ValueError(f"row {d} is not removable from {p}")
    parts = list(p)
    parts[d - 1] -= 1
    if parts[d - 1] == 0:
        del parts[d - 1]
    return tuple(parts)


# ---------------------------------------------------------------------------
# Text forms

GRAMMAR = """\
partition      [3,1]     empty: []
bipartition    ([3,1],[2])
D character    ([3],[1])        degenerate: ([2],[2])+  ([2],[2])-
D class        ([2,1,1],[])     split: ([4],[],+)  ([4],[],-)
"""

_EXAMPLES = {line[:15].strip(): " ".join(line[15:].split()) for line in GRAMMAR.splitlines()}
_PART = r"\[\s*(\d+(?:\s*,\s*\d+)*)?\s*\]"
# Groups: 1 the parts of a lone partition; 2, 3 those of a pair, then 4 its
# class tag or 5 its sign.  re compiles it on first use, not at import.
_LABEL = rf"{_PART}|\(\s*{_PART}\s*,\s*{_PART}\s*(?:,\s*([+-])\s*\)|\)\s*([+-])?)"
_SHAPES = {"partition": ("[]",), "bipartition": ("()",), "D character": ("()", "()+"), "D class": ("()", "(,+)")}


def read_label(text: str, form: str) -> tuple[tuple[Partition, ...], int]:
    """The partitions of text written as form, a row of GRAMMAR, and its
    sign: 1 or -1 for a + or - (a class tag or a character sign), else 0."""
    m = re.fullmatch(_LABEL, text.strip())
    shape = m and ("[]" if m[0][0] == "[" else "(,+)" if m[4] else "()+" if m[5] else "()")
    if shape not in _SHAPES[form]:
        raise ValueError(f"malformed {form} {text!r}; expected e.g. {_EXAMPLES[form]}")
    bodies = [m[1]] if shape == "[]" else [m[2], m[3]]
    parts = tuple(as_partition(tuple(map(int, body.split(",")))) if body else () for body in bodies)
    return parts, {"+": 1, "-": -1}.get(m[4] or m[5], 0)


def format_partition(p: Partition) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def parse_partition(text: str) -> Partition:
    """Parse the text form '[3,1]'; '[]' is the empty partition."""
    return read_label(text, "partition")[0][0]


def format_bipartition(bp: Bipartition) -> str:
    return f"({format_partition(bp[0])},{format_partition(bp[1])})"


def parse_bipartition(text: str) -> Bipartition:
    """Parse the text form '([3,1],[2])'."""
    return read_label(text, "bipartition")[0]


def format_irr_label(chi) -> str:
    bp, eps = chi
    return format_bipartition(bp) + ("" if eps == 0 else "+" if eps > 0 else "-")


def format_class(c) -> str:
    positive, negative, split = c
    tag = "" if split is None else ",+" if split > 0 else ",-"
    return f"({format_partition(positive)},{format_partition(negative)}{tag})"
