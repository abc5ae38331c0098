import json

import pytest

from proofmine.terms import (EmptyStatement, TermTable, TermTree, UnbalancedDelimiters,
                             format_term, parse_term_tree, read_term_table)


def leaf(sym):
    return TermTree(sym)


def test_forall_example_levels():
    tree = parse_term_tree("forall (a b c : nat), a + (b + c) = a + b + c")
    assert tree.symbol == "forall"
    body = tree.children[0]
    assert body.symbol == "="
    assert [c.symbol for c in body.children] == ["+", "+"]
    # a + (b + c) keeps the right-nested sum; a + b + c associates left
    assert body.children[0].children[1].symbol == "+"
    assert body.children[1].children[0].symbol == "+"


def test_single_identifier_is_leaf():
    assert parse_term_tree("x") == leaf("x")


def test_application_head():
    tree = parse_term_tree("idempotent andb")
    assert tree == TermTree("idempotent", (leaf("andb"),))


def test_application_left_associates():
    tree = parse_term_tree("has a (map s)")
    assert tree.symbol == "has"
    assert tree.children[0] == leaf("a")
    assert tree.children[1] == TermTree("map", (leaf("s"),))


def test_precedence_product_binds_tighter_than_sum():
    tree = parse_term_tree("a + b * c")
    assert tree.symbol == "+"
    assert tree.children[1].symbol == "*"


def test_arrow_is_right_associative():
    tree = parse_term_tree("A -> B -> C")
    assert tree.symbol == "->"
    assert tree.children[1].symbol == "->"


def test_qualified_name_is_single_leaf():
    tree = parse_term_tree("Finite.axiom [::tt]")
    assert tree.symbol == "Finite.axiom"
    assert tree.children == (leaf("[::tt]"),)


def test_bracket_group_whitespace_normalized():
    tree = parse_term_tree("Finite.axiom [:: true;   false]")
    assert tree.children[0].symbol == "[:: true; false]"


def test_tuple_and_conjunction():
    tree = parse_term_tree("next_inst sf = (HALT, 0%Z) /\\ top (stack sf) = f n")
    assert tree.symbol == "/\\"
    eq = tree.children[0]
    assert eq.symbol == "="
    assert eq.children[1].symbol == ","
    assert [c.symbol for c in eq.children[1].children] == ["HALT", "0%Z"]


def test_typed_binder_without_parens():
    tree = parse_term_tree("forall s : Strategy, SGP s -> NashEq s")
    assert tree.symbol == "forall"
    assert tree.children[0].symbol == "->"


def test_nested_binders():
    tree = parse_term_tree("forall g, exists s, BI s /\\ g = s2g s")
    assert tree.symbol == "forall"
    assert tree.children[0].symbol == "exists"
    assert tree.children[0].children[0].symbol == "/\\"


def test_fun_binder():
    tree = parse_term_tree("bigsum m (fun i => M ^ i - M ^ (i + 1))")
    assert tree.symbol == "bigsum"
    fn = tree.children[1]
    assert fn.symbol == "fun"
    assert fn.children[0].symbol == "-"


def test_membership_and_append_operators():
    tree = parse_term_tree("(x \\in s1 ++ s2) = (x \\in s1) || (x \\in s2)")
    # the operator table puts || looser than =
    assert tree.symbol == "||"
    left = tree.children[0]
    assert left.symbol == "="
    assert left.children[0].symbol == "\\in"
    assert left.children[0].children[1].symbol == "++"


def test_successor_and_factorial_notations_stay_in_words():
    tree = parse_term_tree("helper_fact n a = a * n`!")
    assert tree.children[1].children[1].symbol == "n`!"
    tree2 = parse_term_tree("f m.+1")
    assert tree2.children[0].symbol == "m.+1"


def test_unbalanced_raises():
    with pytest.raises(UnbalancedDelimiters):
        parse_term_tree("foo (bar")
    with pytest.raises(UnbalancedDelimiters):
        parse_term_tree("foo bar)")


def test_empty_statement_raises():
    with pytest.raises(EmptyStatement):
        parse_term_tree("   ")


def test_node_count_bounded_by_length():
    samples = [
        "forall (a b c : nat), a + (b + c) = a + b + c",
        "run (sched n) (make_state 0 [::n] [::] pi) = make_state 14 [:: 0; f n] (push (f n) [::]) pi",
        "x",
    ]
    for text in samples:
        assert sum(1 for _ in parse_term_tree(text).iter_nodes()) <= len(text)


REPRINT_SAMPLES = [
    "x",
    "idempotent andb",
    "has a (map s) = has (preim f a) s",
    "s1 ++ s2 ++ s3 = (s1 ++ s2) ++ s3",
    "(m ^ e == 0) = (m == 0) && (e > 0)",
    "forall (a b c : nat), a + (b + c) = a + b + c",
    "forall g, exists s, BI s /\\ g = s2g s",
    "forall s : Strategy, SGP s -> NashEq s",
    "next_inst sf = (HALT, 0%Z) /\\ top (stack sf) = n`!",
    "Finite.axiom [:: true; false]",
    "bigsum m (fun i => M ^ i - M ^ (i + 1)) = mx1",
    "a - b - c",
    "a - (b - c)",
    "vrun (vload u) = vnorm u",
]


@pytest.mark.parametrize("text", REPRINT_SAMPLES)
def test_parse_format_parse_is_identity(text):
    tree = parse_term_tree(text)
    assert parse_term_tree(format_term(tree)) == tree


def test_serialization_round_trip():
    tree = parse_term_tree("forall g, exists s, BI s /\\ g = s2g s")
    table = TermTable()
    tid = table.add(tree)
    entries = json.loads(json.dumps(table.entries))
    assert read_term_table(entries)(tid) == tree
    # the nested form that corpus formats v1 and v2 stored
    nested = {"symbol": "forall", "children": [{"symbol": "g"}]}
    assert TermTree.from_dict(nested) == TermTree("forall", (TermTree("g"),))
