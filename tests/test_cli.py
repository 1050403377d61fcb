import json

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
