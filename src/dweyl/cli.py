"""Command line interface.

Every command is deterministic given its flags and prints valid JSON on
success (``--format table`` renders a human-readable view instead where
supported).  Labels, in flags and JSON keys alike, follow
``partitions.GRAMMAR``, which ``--help`` prints.

Exit codes:
  0  success
  1  verification mismatch, or a violated invariant (an ArithmeticError)
  2  usage or label syntax error, or a size outside the supported range
  3  resource limit: a chartable table of more than 1,000,000 cells
     (labels squared), or a decompose query needing more than 1,000,000
     pairs of shapes, refused before it is built; or a kernel out of
     recursion depth (a safety net: no kernel recurses, so no input is
     known to reach it)
"""

from __future__ import annotations

import argparse
import json
import sys
from math import isqrt

from .bchar import b_char_value, b_classes
from .dchar import (
    check_label,
    d_char_value,
    d_classes,
    d_irr_labels,
    d_label_count,
    format_class,
    format_irr_label,
    parse_irr_label,
)
from .decomp import InducedQuery, branch_set, decompose_induced
from .lr import lr_coefficient, lr_expand
from .oracle import oracle_induce
from .partitions import (
    GRAMMAR,
    RangeError,
    ResourceLimit,
    bipartition_count,
    enumerate_bipartitions,
    enumerate_partitions,
    format_bipartition,
    format_partition,
    last_rank_within,
    parse_partition,
    partition_count,
)
from .symchar import sym_char_value
from .verify import check_verify_rank, verify_formula

CHARTABLE_CELLS = 10**6
"""Most cells (labels squared) of a table chartable prints, as the exit
codes above say: S_n up to n = 21, B_n up to n = 11, D_n up to n = 13."""

VERIFY_ALL_RANK = 8
"""verify --all checks every split of 4 <= n <= VERIFY_ALL_RANK, under a
second in all; verify --n checks any rank up to the oracle's cap,
oracle.MAX_RANK, every split of it or the one that --a or --b fixes."""

_EPILOG = __doc__[__doc__.index("Exit codes:"):] + "\nLabel grammar:\n" + "".join("  " + line for line in GRAMMAR.splitlines(True))


def _print_table(rows: dict[str, dict[str, int]]) -> None:
    cols = list(next(iter(rows.values())).keys()) if rows else []
    head = max((len(r) for r in rows), default=0)
    widths = [max(len(c), max((len(str(v[c])) for v in rows.values()), default=0)) for c in cols]
    print(" " * head + "  " + "  ".join(c.rjust(w) for c, w in zip(cols, widths)))
    for name, vals in rows.items():
        print(name.ljust(head) + "  " + "  ".join(str(vals[c]).rjust(w) for c, w in zip(cols, widths)))


def cmd_lr(args: argparse.Namespace) -> int:
    alpha = parse_partition(args.alpha)
    beta = parse_partition(args.beta)
    if args.gamma is not None:
        print(lr_coefficient(alpha, beta, parse_partition(args.gamma)))
        return 0
    expansion = lr_expand(alpha, beta)
    print(json.dumps({format_partition(g): c for g, c in expansion.items()}))
    return 0


def cmd_chartable(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise RangeError("need n >= 1")
    count = {"A": partition_count, "B": bipartition_count, "D": d_label_count}[args.type]
    most = isqrt(CHARTABLE_CELLS)  # the most labels whose square is within the budget
    if n > last_rank_within(count, most):
        raise ResourceLimit(f"the {args.type}_{n} table has more than {most:,} labels, so more than {CHARTABLE_CELLS:,} cells, the budget")
    if args.type == "A":
        labels = classes = enumerate_partitions(n)
        value, label_text, class_text = sym_char_value, format_partition, format_partition
    elif args.type == "B":
        labels, classes, value = enumerate_bipartitions(n), b_classes(n), b_char_value
        label_text = class_text = format_bipartition
    else:
        labels, classes, value = d_irr_labels(n), d_classes(n), d_char_value
        label_text, class_text = format_irr_label, format_class
    columns = [class_text(c) for c in classes]
    rows = {label_text(x): dict(zip(columns, [value(x, c) for c in classes])) for x in labels}
    if args.format == "table":
        _print_table(rows)
    else:
        print(json.dumps(rows))
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    A = parse_irr_label(args.A)
    B = parse_irr_label(args.B)
    q = InducedQuery(args.n, args.a, args.b, A, B)
    if args.method == "oracle":
        result = oracle_induce(args.n, args.a, args.b, A, B)
    else:
        result = decompose_induced(q)
    ordered = {format_irr_label(X): m for X, m in result.multiplicities.items()}
    payload = {
        "n": args.n,
        "a": args.a,
        "b": args.b,
        "A": format_irr_label(A),
        "B": format_irr_label(B),
        "multiplicities": ordered,
        "metadata": {"method": result.method, "nonzero_count": len(ordered)},
    }
    if args.format == "table":
        for key, value in ordered.items():
            print(f"{key}  {value}")
    else:
        print(json.dumps(payload))
    return 0


def cmd_branch(args: argparse.Namespace) -> int:
    X = parse_irr_label(args.X)
    check_label(X, args.n)
    members = sorted(branch_set(X.label))
    print(json.dumps([format_bipartition(bp) for bp in members]))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.all:
        if (args.n, args.a, args.b) != (None, None, None):
            raise RangeError(f"verify --all checks every split of 4 <= n <= {VERIFY_ALL_RANK} and takes no --n, --a or --b")
        combos = [(n, a, n - a) for n in range(4, VERIFY_ALL_RANK + 1) for a in range(1, n)]
    elif args.n is not None:
        check_verify_rank(args.n)
        if args.a is None and args.b is None:
            combos = [(args.n, a, args.n - a) for a in range(1, args.n)]
        else:
            # a lone --a or --b fixes the split; the other block fills n
            a = args.n - args.b if args.a is None else args.a
            b = args.n - a if args.b is None else args.b
            combos = [(args.n, a, b)]
    else:
        raise RangeError("verify needs --all or --n (optionally with --a and --b)")
    pairs = 0
    mismatches = []
    for n, a, b in combos:
        report = verify_formula(n, a, b)
        pairs += report.pairs_checked
        for A, B, X, formula, explicit in report.mismatches:
            mismatches.append(
                {
                    "n": n,
                    "a": a,
                    "b": b,
                    "A": format_irr_label(A),
                    "B": format_irr_label(B),
                    "X": format_irr_label(X),
                    "formula": formula,
                    "oracle": explicit,
                }
            )
    print(json.dumps({"pairs_checked": pairs, "mismatches": mismatches}))
    return 1 if mismatches else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dweyl",
        description="Induced character decompositions for Weyl groups of type D.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lr", help="Littlewood-Richardson coefficient or full expansion")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma")
    p.set_defaults(func=cmd_lr)

    p = sub.add_parser("chartable", help="character table of S_n, B_n or D_n")
    p.add_argument("--type", choices=["A", "B", "D"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("decompose", help="decompose an induced character")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--method", choices=["formula", "oracle"], default="formula")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("branch", help="one-box branching set of a character")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--X", required=True)
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("verify", help="compare the formula against the explicit oracle")
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("see 'dweyl --help' for the label grammar", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: invariant violated: {exc}", file=sys.stderr)
        return 1
    except ResourceLimit as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: resource limit: the input is too large for the recursion depth of a kernel", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
