"""Exact partition and bipartition combinatorics.

Partitions are plain tuples of positive integers in weakly decreasing
order, so they hash and compare directly and can key caches.  All
functions here are pure; the enumeration caches are filled once and
only ever read afterwards, so concurrent use is safe.

Text forms (the interchange format used by the CLI and all JSON
output): a partition prints as ``[3,1]`` with the empty partition as
``[]``; a bipartition prints as ``([3,1],[2])``.
"""

from __future__ import annotations

import re
from functools import cache

Partition = tuple[int, ...]
Bipartition = tuple[Partition, Partition]
PairSplit = tuple[int, int]


class RangeError(ValueError):
    """A well-formed input outside the range a computation supports,
    such as a rank or a block size; not a label or syntax error."""


def as_partition(parts) -> Partition:
    """Validate an iterable of parts and return it as a Partition."""
    p = tuple(int(x) for x in parts)
    for i, x in enumerate(p):
        if x < 1:
            raise ValueError(f"partition parts must be positive, got {x} in {p}")
        if i and p[i - 1] < x:
            raise ValueError(f"partition parts must be weakly decreasing: {p}")
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


def enumerate_splits(n: int) -> list[PairSplit]:
    """All pairs (a, b) of positive integers with a + b = n."""
    return [(a, n - a) for a in range(1, n)]


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

_PARTITION_RE = re.compile(r"^\[\s*(?:\d+(?:\s*,\s*\d+)*)?\s*\]$")


def format_partition(p: Partition) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def parse_partition(text: str) -> Partition:
    """Parse the text form '[3,1]'; '[]' is the empty partition."""
    s = text.strip()
    if not _PARTITION_RE.match(s):
        raise ValueError(f"malformed partition {text!r}; expected e.g. [3,1] or []")
    body = s[1:-1].strip()
    if not body:
        return ()
    return as_partition(int(x) for x in body.split(","))


def format_bipartition(bp: Bipartition) -> str:
    return f"({format_partition(bp[0])},{format_partition(bp[1])})"


def parse_bipartition(text: str) -> Bipartition:
    """Parse the text form '([3,1],[2])'."""
    s = text.strip()
    m = re.match(r"^\(\s*(\[[^\]]*\])\s*,\s*(\[[^\]]*\])\s*\)$", s)
    if not m:
        raise ValueError(f"malformed bipartition {text!r}; expected e.g. ([3,1],[2])")
    return parse_partition(m.group(1)), parse_partition(m.group(2))
