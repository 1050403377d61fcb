"""Seeded op lists for the four workloads.

Every op is one line in the ``dweyl`` CLI argument grammar, for example
``decompose --n 20 --a 17 --b 3 --A ([4,2],[11]) --B ([1],[1])+``.  The
lines are made here from the seed with the benchmark's own sampler
(``combinat``), never from the library's enumerations, so a later change
that reorders or renames the library's labels cannot change a workload.

The op lists are stratified: the ranks, splits and table sizes are fixed
by the design and the seed draws the labels within each stratum and the
order.  That keeps the cost mix, and so the medians, the same from seed
to seed.  ``tiny`` gives the same shapes at small ranks for self-tests.
"""

from __future__ import annotations

import random

import combinat as cb

WHY = {
    "decompose": "the paper's headline computation, cold per op at ranks 16-24: stresses the label scan in decomp, partitions and dchar, and lr",
    "chartable": "whole cold S_n, B_n and D_n character tables: stresses symchar and bchar border strips and bypasses decomp, lr and oracle",
    "verify": "formula against the explicit-group oracle for every split of n=5,6, cold: oracle holds almost all the time",
    "session": "one warm process answering a skewed stream of CLI calls through dweyl.cli.main: caches hit on repeats, the only cli workload",
}


def _label_text(rng: random.Random, label) -> str:
    """A character in the grammar, its unordered pair written either way."""
    first, second, eps = label
    if not eps and rng.random() < 0.5:
        first, second = second, first
    return cb.fmt_d_label((first, second, eps))


def _query(rng: random.Random, n: int, small: int) -> str:
    a, b = (small, n - small) if rng.random() < 0.5 else (n - small, small)
    A = _label_text(rng, rng.choice(cb.d_labels(a)))
    B = _label_text(rng, rng.choice(cb.d_labels(b)))
    return f"decompose --n {n} --a {a} --b {b} --A {A} --B {B}"


def _split_sizes(n: int) -> list[range]:
    """Rank-1 branching, lopsided, middle and balanced: ranges for the smaller block."""
    third = round(n / 3)
    return [range(1, 2), range(2, 5), range(third - 1, third + 2), range(n // 2 - 1, n // 2 + 1)]


def decompose(rng: random.Random, tiny: bool = False) -> list[str]:
    ranks = range(6, 9) if tiny else range(16, 25)
    ops = [_query(rng, n, rng.choice(sizes)) for n in ranks for sizes in _split_sizes(n)]
    rng.shuffle(ops)
    return ops


def chartable(rng: random.Random, tiny: bool = False) -> list[str]:
    if tiny:
        tables = [("A", 5), ("B", 3), ("D", 4), ("D", 5)]
    else:
        tables = [("A", 10), ("A", 11), ("A", 12), ("A", 13), ("B", 6), ("B", 7), ("D", 7), ("D", 8), ("D", 9)]
    # Three copies of each table: the op list then has enough ops for a
    # tail percentile, and the median and tail fall inside a group of
    # equal-cost ops rather than on the edge between two table sizes.
    ops = [f"chartable --type {t} --n {n}" for t, n in tables] * 3
    rng.shuffle(ops)
    return ops


def verify(rng: random.Random, tiny: bool = False) -> list[str]:
    # Every split of n = 5 once and of n = 6 four times: n = 6 ops cost
    # ~15x more, and with twenty of them both the median and the tail
    # fall inside that group instead of on its edge.
    small, large = (4, 5) if tiny else (5, 6)
    ops = [f"verify --n {n} --a {a} --b {n - a}" for n, copies in ((small, 1), (large, 4)) for a in range(1, n) for _ in range(copies)]
    rng.shuffle(ops)
    return ops


def _zipf_counts(total: int, strata: int) -> list[int]:
    """A fixed Zipf split of ``total`` draws over strata in their listed order."""
    weights = [1 / (k + 1) ** 1.1 for k in range(strata)]
    return [round(total * w / sum(weights)) for w in weights]


def session(rng: random.Random, tiny: bool = False) -> list[str]:
    """A bounded pool of CLI calls, each called once, plus Zipf-skewed repeats.

    The pool is cut into strata of similar cost: (rank, split) for
    decompose, rank for lr and branch, one table each for chartable, rank
    for oracle.  How many repeats each stratum gets is fixed by a Zipf
    law over the strata, smaller ranks first; the seed draws the entries'
    labels and which entries of a stratum repeat most.  So the cost mix,
    and the number of first touches, is the same for every seed.
    """
    ranks = range(5, 7) if tiny else range(8, 15)
    scale = 0.05 if tiny else 1.0

    def lr_entry(n: int) -> str:
        k = rng.randint(1, n - 1)
        alpha, beta = rng.choice(cb.partitions(k)), rng.choice(cb.partitions(n - k))
        return f"lr --alpha {cb.fmt_partition(alpha)} --beta {cb.fmt_partition(beta)}"

    def branch_entry(n: int) -> str:
        return f"branch --n {n} --X {_label_text(rng, rng.choice(cb.d_labels(n)))}"

    tables = [("A", 5), ("D", 4)] if tiny else [("A", 6), ("A", 7), ("D", 5), ("B", 4), ("A", 8), ("B", 5), ("D", 6)]
    kinds = {
        "decompose": ([[_query(rng, n, rng.choice(sizes)) for _ in range(2)] for n in ranks for sizes in (range(1, 2), range(2, 4), range(n // 2, n // 2 + 1))], 500),
        "lr": ([[lr_entry(n) for _ in range(3)] for n in ranks], 300),
        "branch": ([[branch_entry(n) for _ in range(3)] for n in ranks], 200),
        "chartable": ([[f"chartable --type {t} --n {n}"] for t, n in tables], 60),
        "oracle": ([[_query(rng, n, rng.randint(1, n // 2)) + " --method oracle" for _ in range(5)] for n in (4, 5)], 120),
    }
    ops = []
    for strata, repeats in kinds.values():
        for pool, count in zip(strata, _zipf_counts(max(len(strata), round(repeats * scale)), len(strata))):
            weights = [1 / (k + 1) ** 1.1 for k in range(len(pool))]
            ops += pool + rng.choices(pool, weights, k=count)
    rng.shuffle(ops)
    return ops


GENERATORS = {"decompose": decompose, "chartable": chartable, "verify": verify, "session": session}


def op_lines(workload: str, seed: int, tiny: bool = False) -> list[str]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), tiny)
