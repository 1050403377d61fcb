import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dweyl.cli import main
from dweyl.dchar import parse_class, parse_irr_label


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lr_coefficient(capsys):
    code, out, _ = run(capsys, "lr", "--alpha", "[2,1]", "--beta", "[2,1]", "--gamma", "[3,2,1]")
    assert code == 0
    assert out.strip() == "2"


def test_lr_expansion(capsys):
    code, out, _ = run(capsys, "lr", "--alpha", "[1]", "--beta", "[1]")
    assert code == 0
    assert json.loads(out) == {"[2]": 1, "[1,1]": 1}


def test_branch(capsys):
    code, out, _ = run(capsys, "branch", "--n", "4", "--X", "([3],[1])")
    assert code == 0
    members = json.loads(out)
    assert sorted(members) == sorted(["([2],[1])", "([1],[2])", "([3],[])", "([],[3])"])


def test_branch_size_mismatch_exits_two(capsys):
    code, _, err = run(capsys, "branch", "--n", "5", "--X", "([3],[1])")
    assert code == 2
    assert "size" in err


def test_decompose_formula(capsys):
    code, out, _ = run(
        capsys, "decompose", "--n", "4", "--a", "2", "--b", "2",
        "--A", "([1],[1])+", "--B", "([1],[1])+",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplicities"]["([2],[2])+"] == 1
    assert "([2],[2])-" not in payload["multiplicities"]
    assert payload["metadata"]["method"] == "formula"
    assert payload["metadata"]["nonzero_count"] == len(payload["multiplicities"])
    # round trip: every printed label parses back
    for key in payload["multiplicities"]:
        parse_irr_label(key)


def test_decompose_methods_agree(capsys):
    args = ["decompose", "--n", "4", "--a", "1", "--b", "3", "--A", "([1],[])", "--B", "([2],[1])"]
    code, out_formula, _ = run(capsys, *args)
    assert code == 0
    code, out_oracle, _ = run(capsys, *args, "--method", "oracle")
    assert code == 0
    a = json.loads(out_formula)
    b = json.loads(out_oracle)
    assert a["multiplicities"] == b["multiplicities"]
    assert b["metadata"]["method"] == "oracle"


def test_decompose_table_lists_the_json_multiplicities_in_order(capsys):
    args = ["decompose", "--n", "6", "--a", "2", "--b", "4", "--A", "([1],[1])+", "--B", "([2,1],[1])"]
    code, out_json, _ = run(capsys, *args)
    assert code == 0
    code, out_table, _ = run(capsys, *args, "--format", "table")
    assert code == 0
    multiplicities = json.loads(out_json)["multiplicities"]
    assert len(multiplicities) > 1
    assert out_table.splitlines() == [f"{X}  {m}" for X, m in multiplicities.items()]


def test_decompose_over_budget_exits_three_fast(capsys):
    from dweyl.lr import _lr_expand

    _lr_expand.cache_clear()  # time the product expansion too
    staircase = "([6,5,4,3,2,1],[6,5,4,3,2,1])+"
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", "--n", "84", "--a", "42", "--b", "42", "--A", staircase, "--B", staircase)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err == (
        f"error: resource limit: {staircase} x {staircase} (n=84) needs 118,222,129 pairs of shapes; "
        "the budget is 1,000,000\n"
    )


def test_chartable_types(capsys):
    code, out, _ = run(capsys, "chartable", "--type", "A", "--n", "3")
    assert code == 0
    rows = json.loads(out)
    assert rows["[3]"] == {"[3]": 1, "[2,1]": 1, "[1,1,1]": 1}

    code, out, _ = run(capsys, "chartable", "--type", "B", "--n", "2")
    rows = json.loads(out)
    assert rows["([2],[])"]["([],[1,1])"] == 1
    assert rows["([1],[1])"]["([1,1],[])"] == 2

    code, out, _ = run(capsys, "chartable", "--type", "D", "--n", "4")
    rows = json.loads(out)
    assert len(rows) == 13
    assert rows["([2],[2])+"]["([1,1,1,1],[])"] == 3
    assert "([4],[],+)" in rows["([2],[2])+"]
    for chi_key, row in rows.items():
        parse_irr_label(chi_key)
        for class_key in row:
            parse_class(class_key)


@pytest.mark.parametrize(
    "kind, n, digest",
    [
        ("D", "6", "77254fddbb0458ba3a00dcaafecadc028c0b5b8bb6ed1e8c21c2fc60fd50e7cb"),
        ("B", "4", "523003fe0f6be6f3cb4f57bd574ada9e80dc17c7d5c1b5229e88f9ab7fff9f7d"),
        ("B", "7", "b75d05ec365028d0d3d268234a6580200f9c6b119d9a2a6f6492a591da9ef721"),
        ("D", "8", "664466fcc9c6ac789c82fc5d43612f1d2e2fa766adf8e08d32e1cf28f7a2f21e"),
        ("D", "9", "73df63d4b338e708edda278c1aa6fcd6fffbcce9c514bbb97634117ee0202b37"),
        ("A", "10", "da328e48129658b30395787af440947b4a6237c3ccfd13e1d4b50d149702c86d"),
        ("A", "13", "c7c4882b14c655a9937f9b7351456f0a446a0b163e597e4d4df595e8d886bbd3"),
    ],
)
def test_chartable_json_is_pinned(capsys, kind, n, digest):
    code, out, _ = run(capsys, "chartable", "--type", kind, "--n", n)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_chartable_over_budget_exits_three_before_enumerating(capsys, monkeypatch):
    import dweyl.cli

    def refuse(n):
        raise AssertionError(f"enumerated rank {n}")

    for name in ("d_irr_labels", "d_classes", "enumerate_bipartitions", "b_classes", "enumerate_partitions"):
        monkeypatch.setattr(dweyl.cli, name, refuse)
    for kind, n in (("D", "30"), ("D", "14"), ("B", "12"), ("A", "22"), ("A", "100000000000000000000")):
        start = time.perf_counter()
        code, out, err = run(capsys, "chartable", "--type", kind, "--n", n)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err.startswith("error: resource limit:") and err.count("\n") == 1


# SHA-256 of each table's JSON output, pinned before the column walk was
# folded by conjugation; D_12, the largest even-rank D table, and B_10
# before the columns at w(-1) were read from those at w.
LARGE_TABLE_DIGESTS = {
    ("D", "10"): "a53d9e171092b4fad4a4ec111feddd1b0c2722ad0359d6ae212be95c4d032813",
    ("D", "12"): "327bc53b5c546db9f172577adf80ae89dff8d107c835ad99415ba1479762498b",
    ("D", "13"): "3e69bc402e3bf87fae732c270906b324069c4135c729a39c4462fc1166742189",
    ("B", "10"): "41e4f21edcbfdf7102698e1c276269eab3e833d220bb9281f43abdbb2542f198",
    ("B", "11"): "7795a75fe4c9d036212bf5744323dacb60902996fcf3da994a42c981ae7448c0",
    ("A", "21"): "d9aafcb88fe68ef231ca2507d0e3479998322e96d55a4df97b67d1f10afd27ca",
}


@pytest.mark.parametrize(
    "kind, n, count",
    [("D", "10", 251)]
    + [pytest.param(*large, marks=pytest.mark.slow) for large in (("D", "12", 599), ("D", "13", 885), ("B", "10", 481), ("B", "11", 752), ("A", "21", 792))],
)
def test_chartable_under_budget_answers(capsys, kind, n, count):
    code, out, _ = run(capsys, "chartable", "--type", kind, "--n", n)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == count and len(next(iter(rows.values()))) == count
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_TABLE_DIGESTS[kind, n]


def test_chartable_table_format(capsys):
    code, out, _ = run(capsys, "chartable", "--type", "A", "--n", "3", "--format", "table")
    assert code == 0
    assert "[2,1]" in out


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--a", "2", "--b", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs_checked"] == 16 * 13
    assert payload["mismatches"] == []


def test_verify_whole_rank(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    # (1,3) and (3,1): 1*5 pairs each; (2,2): 4*4; times 13 labels of W_4
    assert payload["pairs_checked"] == 13 * (5 + 16 + 5)
    assert payload["mismatches"] == []


def test_verify_large_rank_fails_fast(capsys, monkeypatch):
    import dweyl.oracle
    import dweyl.verify

    def refuse(n):
        raise AssertionError(f"enumerated the labels of rank {n}")

    for module in (dweyl.oracle, dweyl.verify):
        monkeypatch.setattr(module, "d_irr_labels", refuse)
    code, out, err = run(capsys, "verify", "--n", "40", "--a", "1", "--b", "39")
    assert code == 2
    assert out == ""
    assert "capped at n = 11" in err
    assert "grammar" not in err


def test_verify_rank_out_of_range_exits_two(capsys):
    for n in ("0", "1", "3", "12"):
        code, out, err = run(capsys, "verify", "--n", n)
        assert code == 2, n
        assert out == ""
        assert "verify needs 4 <= n <= 11" in err
        assert "grammar" not in err


def record_verify_splits(monkeypatch):
    """The splits cmd_verify hands to verify_formula from here on."""
    import dweyl.cli
    from dweyl.verify import VerificationReport

    seen = []

    def record(n, a, b):
        seen.append((n, a, b))
        return VerificationReport(n, a, b, 1, ())

    monkeypatch.setattr(dweyl.cli, "verify_formula", record)
    return seen


def test_verify_all_covers_ranks_four_to_eight(capsys, monkeypatch):
    seen = record_verify_splits(monkeypatch)
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 0
    assert seen == [(n, a, n - a) for n in range(4, 9) for a in range(1, n)]
    assert json.loads(out) == {"pairs_checked": len(seen), "mismatches": []}


def test_verify_rank_ten_checks_the_splits_the_oracle_can(monkeypatch):
    # every split, the rank-9 blocks of (1, 9) and (9, 1) included
    seen = record_verify_splits(monkeypatch)
    assert main(["verify", "--n", "10"]) == 0
    assert seen == [(10, a, 10 - a) for a in range(1, 10)]


def test_verify_lone_block_fixes_the_split(capsys, monkeypatch):
    seen = record_verify_splits(monkeypatch)
    for flags, split in [(("--a", "2"), (6, 2, 4)), (("--b", "2"), (6, 4, 2)), (("--a", "2", "--b", "4"), (6, 2, 4))]:
        seen.clear()
        code, out, _ = run(capsys, "verify", "--n", "6", *flags)
        assert code == 0, flags
        assert seen == [split], flags
        assert json.loads(out) == {"pairs_checked": 1, "mismatches": []}


def test_verify_lone_block_checks_one_split(capsys):
    # 4 * 13 labels of D_2 x D_4 and 37 of D_6: one split, not the 6,105
    # pairs of all five
    code, out, _ = run(capsys, "verify", "--n", "6", "--a", "2")
    assert code == 0
    assert json.loads(out) == {"pairs_checked": 4 * 13 * 37, "mismatches": []}
    for flags in (("--a", "6"), ("--b", "0"), ("--a", "2", "--b", "3")):
        code, out, err = run(capsys, "verify", "--n", "6", *flags)
        assert code == 2, flags
        assert out == ""
        assert "a + b = n" in err


def test_verify_all_refuses_a_rank_or_split(capsys, monkeypatch):
    seen = record_verify_splits(monkeypatch)
    for flags in (("--n", "5"), ("--a", "2"), ("--b", "3"), ("--n", "5", "--a", "2", "--b", "3")):
        code, out, err = run(capsys, "verify", "--all", *flags)
        assert code == 2, flags
        assert out == ""
        assert "verify --all checks every split of 4 <= n <= 8 and takes no --n, --a or --b" in err
        assert "grammar" not in err
    assert seen == []


def test_verify_without_a_rank_exits_two(capsys, monkeypatch):
    seen = record_verify_splits(monkeypatch)
    code, out, err = run(capsys, "verify")
    assert code == 2
    assert out == ""
    assert "verify needs --all or --n (optionally with --a and --b)" in err
    assert "grammar" not in err
    assert seen == []


def test_decompose_oracle_out_of_range_fails_fast(capsys, monkeypatch):
    import dweyl.oracle

    def refuse(*args):
        raise AssertionError(f"enumerated {args}")

    assert not hasattr(dweyl.oracle, "build_group")
    for name in (dweyl.oracle._block_tally.__name__, "d_irr_labels"):
        monkeypatch.setattr(dweyl.oracle, name, refuse)
    for n, a, b in [("12", "6", "6"), ("12", "1", "11"), ("12", "11", "1"), ("6", "2", "3")]:
        code, out, err = run(capsys, "decompose", "--n", n, "--a", a, "--b", b,
                             "--A", "([1],[1])+", "--B", "([1],[1])-", "--method", "oracle")
        assert code == 2, (n, a, b)
        assert out == ""
        assert "the oracle needs a, b >= 1 with a + b = n <= 11, got" in err
        assert "grammar" not in err


def test_bad_label_exits_two(capsys):
    code, _, err = run(capsys, "lr", "--alpha", "[2,", "--beta", "[1]")
    assert code == 2
    assert "grammar" in err


def test_degenerate_label_without_sign_exits_two(capsys):
    code, _, err = run(capsys, "decompose", "--n", "4", "--a", "2", "--b", "2",
                       "--A", "([1],[1])", "--B", "([1],[1])+")
    assert code == 2
    assert "label ([1],[1]) is degenerate and needs a sign" in err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["chartable", "--type", "Q", "--n", "3"])
    assert exc.value.code == 2


def test_lr_with_1200_one_box_rows_answers(capsys):
    ones = "[" + ",".join(["1"] * 1200) + "]"
    assert run(capsys, "lr", "--alpha", "[]", "--beta", ones, "--gamma", ones) == (0, "1\n", "")


def test_recursion_limit_exits_three(capsys, monkeypatch):
    # No kernel recurses; the handler stays as a safety net.
    import dweyl.cli

    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(dweyl.cli, "lr_coefficient", too_deep)
    code, out, err = run(capsys, "lr", "--alpha", "[]", "--beta", "[1]", "--gamma", "[1]")
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "resource limit" in err


def test_invariant_violation_exits_one_with_grammar_labels(capsys, monkeypatch):
    # A block "character" supported on the identity alone is not a
    # character: its inner products are not integers.
    import dweyl.oracle

    def identity_indicator(chi, c):
        return 1 if not c.negative and set(c.positive) == {1} else 0

    monkeypatch.setattr(dweyl.oracle, "d_char_value", identity_indicator)
    code, out, err = run(
        capsys, "decompose", "--n", "4", "--a", "2", "--b", "2",
        "--A", "([1],[1])+", "--B", "([1],[1])-", "--method", "oracle",
    )
    assert code == 1
    assert out == ""
    assert "non-character inner product 1/16 for ([1],[1])+ x ([1],[1])-" in err


def test_help_lists_exit_codes():
    from dweyl.cli import build_parser

    text = build_parser().format_help()
    assert "Exit codes:" in text
    for line in ("0  success", "1  verification mismatch", "2  usage or label syntax error", "3  resource limit"):
        assert line in text
    assert "Label grammar" in text


def test_readme_and_help_show_the_grammar():
    from pathlib import Path

    from dweyl.cli import build_parser
    from dweyl.partitions import GRAMMAR

    def rows(text):
        return [line.strip() for line in text.strip().splitlines()]

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert rows(readme.split("Label grammar", 1)[1].split("```")[1]) == rows(GRAMMAR)
    assert rows(build_parser().format_help().split("Label grammar:", 1)[1]) == rows(GRAMMAR)


def test_import_leaves_the_explicit_toolkit_out():
    import importlib.util

    import dweyl

    # neither the oracle's verify nor its decompose loads fractions
    probe = "; ".join([
        "import sys, dweyl, dweyl.cli",
        "assert dweyl.cli.main(['verify', '--n', '6', '--a', '2', '--b', '4']) == 0",
        "assert dweyl.cli.main(['decompose', '--n', '6', '--a', '2', '--b', '4', '--A', '([1],[1])+', '--B', '([2,1],[1])', '--method', 'oracle']) == 0",
        "print(dweyl.__file__, 'fractions' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(dweyl.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env).stdout
    assert out.splitlines()[-1].split() == [dweyl.__file__, "False"]

    # the toolkit is the tests' own: the package neither holds nor names it
    assert importlib.util.find_spec("dweyl.explicit") is None
    with pytest.raises(AttributeError):
        dweyl.GroupTable
    with pytest.raises(AttributeError):
        dweyl.no_such_name
