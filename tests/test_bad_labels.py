"""One table of bad labels and classes against every public entry point
that takes them: each must raise ValueError (the CLI: exit 2) with the
offending label written in the label grammar, never as a Python tuple."""

import re

import pytest

from dweyl.cli import main
from dweyl.dchar import DClassType, DIrrLabel, d_char_column, d_char_value, d_degree, d_irr_labels, d_memo, make_irr_label, parse_class
from dweyl.decomp import InducedQuery, branch_restriction, decompose_induced, induced_multiplicity
from dweyl.lr import lr_coefficient, lr_expand

GOOD = make_irr_label((2,), ())

# (case, text the error shows, raw label, its text form or None, whether
# make_irr_label takes it: it puts a raw label's components in order)
LABELS = [
    ("float part", "[2.5]", DIrrLabel(((2.5,), ()), 0), "([2.5],[])", True),
    ("increasing parts", "[1,3]", DIrrLabel(((1, 3), ()), 0), "([1,3],[])", True),
    ("list component", "[2]", DIrrLabel(([2], ()), 0), None, True),
    ("empty component first", "([],[2])", DIrrLabel(((), (2,)), 0), None, False),
    ("smaller component first", "([1],[3])", DIrrLabel(((1,), (3,)), 0), None, False),
    ("unsigned degenerate", "([1],[1])", DIrrLabel(((1,), (1,)), 0), "([1],[1])", True),
    ("signed non-degenerate", "([2],[])", DIrrLabel(((2,), ()), 1), "([2],[])+", True),
]

# (case, the partition in the grammar, raw partition)
PARTITIONS = [
    ("increasing parts", "[1,3]", (1, 3)),
    ("float part", "[2.5]", (2.5,)),
    ("zero part", "[1,0]", (1, 0)),
]

# (case, the class in the grammar, class)
CLASSES = [
    ("tag on a class that does not split", "([3],[],+)", DClassType((3,), (), 1)),
    ("no tag on a class that splits", "([4],[])", DClassType((4,), (), None)),
    ("odd number of negative cycles", "([2],[1])", DClassType((2,), (1,), None)),
]


def label_calls(chi, takes_components):
    calls = {
        "decompose_induced A": lambda: decompose_induced(InducedQuery(4, 2, 2, chi, GOOD)),
        "decompose_induced B": lambda: decompose_induced(InducedQuery(4, 2, 2, GOOD, chi)),
        "induced_multiplicity": lambda: induced_multiplicity(InducedQuery(4, 2, 2, GOOD, GOOD), chi),
        "branch_restriction X": lambda: branch_restriction(4, "left", chi, make_irr_label((3,), ())),
        "branch_restriction B": lambda: branch_restriction(4, "left", make_irr_label((4,), ()), chi),
        "d_char_value": lambda: d_char_value(chi, DClassType((1, 1), (), None)),
        "d_degree": lambda: d_degree(chi),
    }
    if takes_components:
        calls["make_irr_label"] = lambda: make_irr_label(*chi.label, chi.eps)
    return calls


CALLS = [
    pytest.param(call, shown, id=f"{case}: {name}")
    for case, shown, chi, _, takes_components in LABELS
    for name, call in label_calls(chi, takes_components).items()
] + [
    pytest.param(call, shown, id=f"{case}: {name}")
    for case, shown, c in CLASSES
    for name, call in {
        "d_char_value": lambda c=c: d_char_value(make_irr_label((sum(c.positive) + sum(c.negative),), ()), c),
        "parse_class": lambda shown=shown: parse_class(shown),
    }.items()
] + [
    pytest.param(call, shown, id=f"{case}: {name}")
    for case, shown, p in PARTITIONS
    for name, call in {
        "lr_coefficient alpha": lambda p=p: lr_coefficient(p, (1,), (2, 2)),
        "lr_coefficient beta": lambda p=p: lr_coefficient((1,), p, (2, 2)),
        "lr_coefficient gamma": lambda p=p: lr_coefficient((2,), (1,), p),
        "lr_expand alpha": lambda p=p: lr_expand(p, (1,)),
        "lr_expand beta": lambda p=p: lr_expand((1,), p),
    }.items()
]


def assert_grammar_message(message, shown):
    assert shown in message
    assert not re.search(r"\(\(|\(\d|\d,\)|DIrrLabel|DClassType", message), message


@pytest.mark.parametrize("call, shown", CALLS)
def test_bad_input_raises_value_error_in_the_grammar(call, shown):
    with pytest.raises(ValueError) as exc:
        call()
    assert_grammar_message(str(exc.value), shown)


CLI_CALLS = [
    pytest.param(argv, shown, id=f"{case}: {argv[0]}")
    for case, shown, _, text, _ in LABELS
    if text is not None
    for argv in (
        ["decompose", "--n", "4", "--a", "2", "--b", "2", "--A", text, "--B", "([2],[])"],
        ["branch", "--n", "4", "--X", text],
    )
] + [
    pytest.param(["lr", "--alpha", shown, "--beta", "[1]"], shown, id=f"{case}: lr")
    for case, shown, _, _, _ in LABELS[:2]
] + [
    pytest.param(["lr", "--alpha", "[2]", "--beta", "[1]", "--gamma", shown], shown, id=f"{case}: lr --gamma")
    for case, shown, _ in PARTITIONS
]


@pytest.mark.parametrize("argv, shown", CLI_CALLS)
def test_bad_input_exits_two_in_the_grammar(capsys, argv, shown):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert_grammar_message(out.err, shown)


@pytest.mark.parametrize("eps", [2, -2])
def test_sign_outside_plus_minus_one_is_refused(eps):
    """A sign other than -1, 0 or +1, on a degenerate label (whose sign is
    otherwise required), is refused by every entry point that takes a
    label, and by d_char_value both at a fresh class and at one whose
    column is stored."""
    chi, c = DIrrLabel(((1,), (1,)), eps), DClassType((1, 1), (), None)
    calls = {
        "make_irr_label": lambda: make_irr_label((1,), (1,), eps),
        "d_char_value": lambda: d_char_value(chi, c),
        "d_degree": lambda: d_degree(chi),
        "decompose_induced A": lambda: decompose_induced(InducedQuery(4, 2, 2, chi, GOOD)),
        "decompose_induced B": lambda: decompose_induced(InducedQuery(4, 2, 2, GOOD, chi)),
    }
    d_memo.pop(c, None)
    for name, call in calls.items():
        with pytest.raises(ValueError, match="eps must be -1, 0 or \\+1"):
            call()
    assert c not in d_memo
    assert len(d_char_column(c)) == len(d_irr_labels(2))
    with pytest.raises(ValueError, match="eps must be -1, 0 or \\+1"):
        d_char_value(chi, c)


def test_branch_restriction_refuses_an_unknown_side():
    X, B = make_irr_label((3,), (1,)), make_irr_label((3,), ())
    with pytest.raises(ValueError, match="side must be 'left' or 'right', got 'middle'"):
        branch_restriction(4, "middle", X, B)
