import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proofmine.corpus import ingest, load, save
from proofmine.script import (LEMMA_KEYWORDS, _first_word, _parse_header, parse_library, parse_partial,
                              parse_trace, split_sentences)
from proofmine.terms import (_OP_ASSOC, _OP_LEVEL, _PREFIX, BINDERS, OPERATOR_LEVELS, EmptyStatement,
                             TermError, TermTree, UnbalancedDelimiters, _lex, parse_term_tree)

from conftest import (_APP_LEVEL, FIXTURES, HINT, format_term, iter_nodes, random_library_source,
                      random_trace_source)


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
        assert sum(1 for _ in iter_nodes(parse_term_tree(text))) <= len(text)


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


def test_serialization_round_trip(tmp_path):
    """A corpus stores a statement as its symbols' codes: every code survives save and load, and the
    statement's top symbols fill the goal slots of its lemma's first step."""
    text = "forall g, exists s, BI s /\\ g = s2g s"
    source = tmp_path / "game.v"
    source.write_text(f"Lemma game : {text}.\nProof. by case. Qed.\n")
    corpus = ingest([source], ["game"])
    save(corpus, tmp_path / "c.corpus")
    loaded = load(tmp_path / "c.corpus")
    tree = parse_term_tree(text)
    for node in iter_nodes(tree):
        assert loaded.table.symbol_code(node.symbol) == corpus.table.symbol_code(node.symbol) > 0
    top = [loaded.table.symbol_code(s) if s else 0 for s in tree.top_symbols()]
    assert loaded.raw[0, 4:7].tolist() == top


# ---------------------------------------------------------------------------
# the parser against the eight-level recursive descent it replaced


class _OracleParser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse_expr(self, level: int = 0) -> TermTree:
        if level >= _APP_LEVEL:
            return self.parse_application()
        node = self.parse_expr(level + 1)
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op":
                break
            op = tok[1]
            if _OP_LEVEL.get(op) != level:
                break
            self.advance()
            if _OP_ASSOC[op] == "right":
                rhs = self.parse_expr(level)
            else:
                rhs = self.parse_expr(level + 1)
            node = TermTree(op, (node, rhs))
        return node

    def parse_application(self) -> TermTree:
        parts = [self.parse_atom()]
        while True:
            tok = self.peek()
            if tok is not None and tok[0] in ("(", "atom"):
                parts.append(self.parse_atom())
            else:
                break
        if len(parts) == 1:
            return parts[0]
        head = parts[0]
        if not head.children:
            return TermTree(head.symbol, tuple(parts[1:]))
        return TermTree("@", tuple(parts))

    def parse_atom(self) -> TermTree:
        tok = self.peek()
        if tok is None:
            raise UnbalancedDelimiters("unexpected end of statement")
        kind, text = tok
        if kind == "atom":
            if text in BINDERS:
                return self.parse_binder()
            self.advance()
            return TermTree(text)
        if kind == "(":
            self.advance()
            nxt = self.peek()
            if nxt is not None and nxt[0] == ")":
                self.advance()
                return TermTree("()")
            node = self.parse_expr(0)
            nxt = self.peek()
            if nxt is not None and nxt[0] == ":":
                self.advance()
                node = TermTree(":", (node, self.parse_expr(0)))
                nxt = self.peek()
            if nxt is not None and nxt[0] == ",":
                items = [node]
                while self.peek() is not None and self.peek()[0] == ",":
                    self.advance()
                    items.append(self.parse_expr(0))
                node = TermTree(",", tuple(items))
            closing = self.peek()
            if closing is None or closing[0] != ")":
                raise UnbalancedDelimiters("missing ')'")
            self.advance()
            return node
        if kind == "op" and text in _PREFIX:
            self.advance()
            return TermTree(text, (self.parse_expr(_APP_LEVEL),))
        raise UnbalancedDelimiters(f"unexpected {text!r}")

    def parse_binder(self) -> TermTree:
        kw = self.advance()[1]
        stop_arrow = kw == "fun"
        depth = 0
        while True:
            tok = self.peek()
            if tok is None:
                sep = "'=>'" if stop_arrow else "','"
                raise UnbalancedDelimiters(f"{kw} binder without {sep}")
            kind, text = tok
            if depth == 0:
                if stop_arrow and kind == "op" and text == "=>":
                    self.advance()
                    break
                if not stop_arrow and kind == ",":
                    self.advance()
                    break
            if kind == "(":
                depth += 1
            elif kind == ")":
                if depth == 0:
                    raise UnbalancedDelimiters("unexpected ')' in binder")
                depth -= 1
            self.advance()
        body = self.parse_expr(0)
        return TermTree(kw, (body,))


def oracle_parse_term_tree(text: str) -> TermTree:
    """The parser before precedence climbing and interning."""
    tokens = _lex(text)
    if not tokens:
        raise EmptyStatement("empty statement")
    parser = _OracleParser(tokens)
    node = parser.parse_expr(0)
    leftover = parser.peek()
    if leftover is not None:
        raise UnbalancedDelimiters(f"trailing {leftover[1]!r} in statement")
    return node


def outcome(parse, text):
    """The tree parse returns for text, or the class and message of the error it raises."""
    try:
        return parse(text)
    except TermError as exc:
        return type(exc), str(exc)


def assert_parses_like_oracle(texts):
    intern: dict = {}  # shared, as a file's texts share one
    for text in texts:
        got = outcome(lambda t: parse_term_tree(t, intern), text)
        assert got == outcome(oracle_parse_term_tree, text), text


def statement_texts(source):
    return [_parse_header(sen, "<source>")[1] for sen in split_sentences(source)
            if _first_word(sen.text) in LEMMA_KEYWORDS]


def goal_texts(trace):
    return [json.loads(line)["goal_before"] for line in trace.splitlines() if line.strip()]


SOURCES = sorted(FIXTURES.glob("*.v")) + sorted(HINT.glob("*.v"))
TRACES = sorted(FIXTURES.glob("*.jsonl"))


def test_parser_matches_oracle_on_fixture_statements_and_goals():
    texts = [t for p in SOURCES for t in statement_texts(p.read_text())]
    texts += [t for p in TRACES for t in goal_texts(p.read_text())]
    assert len(texts) > 80
    assert_parses_like_oracle(texts)


def test_parser_matches_oracle_on_random_sources():
    rng = np.random.default_rng(5)
    for trial in range(4):
        assert_parses_like_oracle(statement_texts(random_library_source(rng, 12, f"r{trial}")))
        assert_parses_like_oracle(goal_texts(random_trace_source(rng, 12, f"t{trial}", "lib")))


SOUP = st.sampled_from(
    ["a", "f", "x1", "n`!", "m.+1", "0%Z", "Finite.axiom", "[:: a; b]", "{x}", "_",
     "(", ")", "()", ",", ":", ":=", "=>", "~", "@", "]", "}", "[", "{", "\\in", "*m", ";"]
    + list(BINDERS) + [op for ops in OPERATOR_LEVELS for op in ops])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(SOUP, max_size=30).map(" ".join), min_size=1, max_size=4))
def test_parser_matches_oracle_on_token_soup(texts):
    assert_parses_like_oracle(texts)


ATOMS = st.sampled_from(["a", "b", "f", "n`!", "m.+1", "0%Z", "[:: a; b]", "_"])
WELL_FORMED = st.recursive(ATOMS, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from([op for ops in OPERATOR_LEVELS for op in ops]), inner).map(" ".join),
    st.lists(inner, min_size=2, max_size=3).map(" ".join),
    st.lists(inner, min_size=1, max_size=3).map(lambda items: "(" + ", ".join(items) + ")"),
    st.tuples(inner, inner).map(lambda pair: f"({pair[0]} : {pair[1]})"),
    st.sampled_from(["forall x y, ", "exists (x : T), ", "fun x => ", "- ", "~ "]).flatmap(
        lambda prefix: inner.map(lambda body: prefix + body)),
), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.lists(WELL_FORMED, min_size=1, max_size=4))
def test_parser_matches_oracle_on_well_formed_terms(texts):
    assert_parses_like_oracle(texts)


def assert_equal_subtrees_shared(records):
    trees = [r.statement for r in records] + [s.goal_before for r in records for s in r.steps
                                              if s.goal_before is not None]
    objects: dict = {}
    for tree in trees:
        for node in iter_nodes(tree):
            objects.setdefault(node, node)
            assert objects[node] is node


@pytest.mark.parametrize("path", SOURCES + TRACES, ids=lambda p: p.name)
def test_equal_subtrees_of_one_file_are_one_object(path):
    source = path.read_text()
    if path.suffix == ".jsonl":
        records = parse_trace(source)
    elif path.name.startswith("hint_query"):
        records = [parse_partial(source)]
    else:
        records = parse_library(source, "lib")
    assert_equal_subtrees_shared(records)


def test_equal_subtrees_of_random_sources_are_one_object():
    rng = np.random.default_rng(6)
    assert_equal_subtrees_shared(parse_library(random_library_source(rng, 20, "s"), "lib"))
    assert_equal_subtrees_shared(parse_trace(random_trace_source(rng, 20, "t", "lib")))
