"""Run one op, turn its answer into the benchmark's own terms, check it.

An answer is first *normalized*: library objects become plain tuples in
the ``combinat`` conventions, so checks and digests do not depend on the
library's label classes, orderings or text formatting.  Every check here
needs no oracle: it uses identities any correct answer satisfies, with
degrees, group orders and class sizes from ``combinat``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from types import SimpleNamespace

import combinat as cb
import oplines

# Public dweyl names each workload calls; the tracer wraps exactly these
# as the benchmark's entry points.
ENTRY_POINTS = {
    "decompose": ("decompose_induced",),
    "chartable": (
        "enumerate_partitions",
        "sym_char_value",
        "enumerate_bipartitions",
        "b_classes",
        "b_char_value",
        "d_irr_labels",
        "d_classes",
        "d_char_value",
    ),
    "verify": ("verify_formula",),
    "session": ("main",),
}


def make_api(dw, workload: str, wrap=lambda fn: fn) -> SimpleNamespace:
    source = dw.cli if workload == "session" else dw
    return SimpleNamespace(**{name: wrap(getattr(source, name)) for name in ENTRY_POINTS[workload]})


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Running ops (the timed part)


def run_op(api, workload: str, args):
    if workload == "decompose":
        return api.decompose_induced(args)
    if workload == "verify":
        return api.verify_formula(*args)
    kind, n = args
    if kind == "A":
        labels = classes = api.enumerate_partitions(n)
        value = api.sym_char_value
    elif kind == "B":
        labels, classes, value = api.enumerate_bipartitions(n), api.b_classes(n), api.b_char_value
    else:
        labels, classes, value = api.d_irr_labels(n), api.d_classes(n), api.d_char_value
    return labels, classes, [[value(x, c) for c in classes] for x in labels]


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Normalizing answers


def _part(p) -> tuple[int, ...]:
    return tuple(int(x) for x in p)


def _d_label(chi) -> tuple:
    first, second = chi.label
    first, second = _part(first), _part(second)
    if not chi.eps:
        first, second = cb.canonical_pair(first, second)
    return first, second, int(chi.eps)


def normalize(workload: str, line: str, answer):
    """Plain-tuple form of an answer, independent of the library's types."""
    if workload == "decompose":
        return [(_d_label(X), m) for X, m in answer.multiplicities.items()]
    if workload == "verify":
        return answer.pairs_checked, [tuple(map(str, mismatch)) for mismatch in answer.mismatches]
    labels, classes, values = answer
    kind = oplines.flags(line)["type"]
    if kind == "A":
        labels, classes = [_part(p) for p in labels], [_part(p) for p in classes]
    elif kind == "B":
        labels = [(_part(a), _part(b)) for a, b in labels]
        classes = [(_part(c.positive), _part(c.negative)) for c in classes]
    else:
        labels = [_d_label(chi) for chi in labels]
        classes = [(_part(c.positive), _part(c.negative), c.split) for c in classes]
    return labels, classes, values


def canonical(workload: str, line: str, norm) -> dict:
    """JSON form of a normalized answer; its SHA-256 is the op's digest."""
    if workload == "decompose":
        return {"op": line, "multiplicities": {cb.fmt_d_label(X): m for X, m in norm}}
    if workload == "verify":
        pairs, mismatches = norm
        return {"op": line, "pairs_checked": pairs, "mismatches": mismatches}
    kind = oplines.flags(line)["type"]
    labels, classes, values = norm
    fmt_row = {"A": cb.fmt_partition, "B": lambda x: cb.fmt_bipartition(*x), "D": cb.fmt_d_label}[kind]
    fmt_col = {"A": cb.fmt_partition, "B": lambda x: cb.fmt_bipartition(*x), "D": cb.fmt_d_class}[kind]
    cols = [fmt_col(c) for c in classes]
    return {"op": line, "table": {fmt_row(x): dict(zip(cols, row)) for x, row in zip(labels, values)}}


# ---------------------------------------------------------------------------
# Checks that need no oracle


def _valid_partition(p) -> bool:
    return all(isinstance(x, int) and x > 0 for x in p) and all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def _valid_d_label(label, n: int) -> bool:
    first, second, eps = label
    return (
        _valid_partition(first)
        and _valid_partition(second)
        and sum(first) + sum(second) == n
        and eps in (0, 1, -1)
        and (eps != 0) == (first == second)
    )


def check_decompose(line: str, mults) -> list[str]:
    """Positive multiplicities on valid labels, and the degree-sum rule:
    sum m_X deg X = [W(D_n) : W(D_a) x W(D_b)] deg A deg B."""
    f = oplines.flags(line)
    n, a, b = int(f["n"]), int(f["a"]), int(f["b"])
    A, B = cb.read_d_label(f["A"]), cb.read_d_label(f["B"])
    errors = []
    seen = set()
    total = 0
    for X, m in mults:
        if not _valid_d_label(X, n):
            errors.append(f"invalid label {X} for rank {n}")
            continue
        if X in seen:
            errors.append(f"label {cb.fmt_d_label(X)} appears twice")
        seen.add(X)
        if not isinstance(m, int) or m <= 0:
            errors.append(f"multiplicity {m!r} of {cb.fmt_d_label(X)} is not a positive integer")
        total += m * cb.d_degree(X)
    expected = cb.order_d(n) // (cb.order_d(a) * cb.order_d(b)) * cb.d_degree(A) * cb.d_degree(B)
    if total != expected:
        errors.append(f"degree sum {total} != {expected}")
    return errors


TABLE_DATA = {
    "A": (cb.partitions, cb.partitions, cb.hook_degree, cb.class_size_sym, lambda n: (1,) * n),
    "B": (cb.bipartitions, cb.b_classes, lambda x: cb.b_degree(*x), cb.class_size_b, lambda n: ((1,) * n, ())),
    "D": (cb.d_labels, cb.d_classes, cb.d_degree, cb.class_size_d, lambda n: ((1,) * n, (), None)),
}


ORTHOGONAL_PAIRS = 20


def check_table(kind: str, n: int, norm, rng: random.Random) -> list[str]:
    """Rows and classes are the expected sets; the identity column holds the
    degrees and sum deg^2 = |G|; every row has norm |G|; the regular
    character vanishes off the identity; a seeded sample of row pairs is
    orthogonal.  Row norms and the regular character together catch any
    single wrong entry."""
    labels, classes, values = norm
    all_labels, all_classes, degree, class_size, identity = TABLE_DATA[kind]
    if sorted(labels) != sorted(all_labels(n)):
        return [f"rows of the {kind}_{n} table are not the {len(all_labels(n))} expected characters"]
    if sorted(classes, key=repr) != sorted(all_classes(n), key=repr):
        return [f"columns of the {kind}_{n} table are not the {len(all_classes(n))} expected classes"]
    errors = []
    sizes = [class_size(c) for c in classes]
    order = sum(sizes)
    degrees = [degree(x) for x in labels]
    one = classes.index(identity(n))
    if [row[one] for row in values] != degrees:
        errors.append("identity column differs from the degrees")
    if sum(d * d for d in degrees) != order:
        errors.append("sum of squared degrees differs from the group order")
    for x, row in zip(labels, values):
        if sum(s * v * v for s, v in zip(sizes, row)) != order:
            errors.append(f"row {x} does not have norm |G|")
    for j, c in enumerate(classes):
        regular = sum(d * row[j] for d, row in zip(degrees, values))
        if regular != (order if j == one else 0):
            errors.append(f"regular character is {regular} at class {c}")
    for _ in range(min(ORTHOGONAL_PAIRS, len(labels) * (len(labels) - 1) // 2)):
        i, k = rng.sample(range(len(labels)), 2)
        if sum(s * u * v for s, u, v in zip(sizes, values[i], values[k])):
            errors.append(f"rows {labels[i]} and {labels[k]} are not orthogonal")
    return errors[:10]


def check_verify(line: str, norm) -> list[str]:
    f = oplines.flags(line)
    n, a, b = int(f["n"]), int(f["a"]), int(f["b"])
    pairs, mismatches = norm
    expected = len(cb.d_labels(a)) * len(cb.d_labels(b)) * len(cb.d_labels(n))
    errors = [f"formula != oracle: {m}" for m in mismatches[:5]]
    if pairs != expected:
        errors.append(f"checked {pairs} pairs, expected {expected}")
    return errors


def check(workload: str, line: str, norm, seed: int) -> list[str]:
    if workload == "decompose":
        return check_decompose(line, norm)
    if workload == "verify":
        return check_verify(line, norm)
    f = oplines.flags(line)
    return check_table(f["type"], int(f["n"]), norm, random.Random(f"{seed}:{line}"))


# ---------------------------------------------------------------------------
# CLI calls of the session workload


def check_cli(line: str, code: int, stdout: str) -> tuple[list[str], dict | list | None]:
    """Exit code 0 and valid JSON; decompose, lr and chartable output must
    also pass the same identities as the library workloads, and branch
    output must be the one-box-removal set of X."""
    if code != 0:
        return [f"exit code {code}"], None
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"invalid JSON: {exc}"], None
    f = oplines.flags(line)
    command = line.split()[0]
    try:
        if command == "decompose":
            mults = [(cb.read_d_label(k), v) for k, v in payload["multiplicities"].items()]
            errors = check_decompose(line, mults)
            payload = {"multiplicities": {cb.fmt_d_label(X): v for X, v in mults}}
        elif command == "lr":
            alpha, beta = cb.read_partition(f["alpha"]), cb.read_partition(f["beta"])
            total = sum(c * cb.hook_degree(cb.read_partition(g)) for g, c in payload.items())
            expected = cb.b_degree(alpha, beta)
            errors = [] if total == expected else [f"LR degree sum {total} != {expected}"]
        elif command == "chartable":
            kind, n = f["type"], int(f["n"])
            read_row = {"A": cb.read_partition, "B": cb.read_pair, "D": cb.read_d_label}[kind]
            read_col = {"A": cb.read_partition, "B": cb.read_pair, "D": cb.read_d_class}[kind]
            rows = list(payload)
            cols = list(payload[rows[0]])
            norm = [read_row(r) for r in rows], [read_col(c) for c in cols], [[payload[r][c] for c in cols] for r in rows]
            errors = check_table(kind, n, norm, random.Random(line))
        else:  # branch: every bipartition one box smaller than X, in both orders
            first, second, _ = cb.read_d_label(f["X"])
            got = [cb.read_pair(bp) for bp in payload]
            expected = cb.branch_pairs(first, second)
            errors = [] if len(got) == len(set(got)) and set(got) == expected else [f"branch set {sorted(got)} != {sorted(expected)}"]
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        errors = [f"unexpected output shape: {type(exc).__name__}: {exc}"]
    return errors, payload
