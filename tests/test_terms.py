import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proofmine import script, terms
from proofmine.corpus import ingest, load, save
from proofmine.script import (LEMMA_KEYWORDS, ParseError, _first_word, _parse_header,
                              parse_library, parse_partial, parse_trace, split_sentences)
from proofmine.terms import (_DIGIT, _OP_ASSOC, _OP_LEVEL, _OPERATORS, _PREFIX, BINDERS, OPERATOR_LEVELS,
                             TermError, TermTree, _lex, group_end,
                             parse_term_tree)

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
    with pytest.raises(TermError):
        parse_term_tree("foo (bar")
    with pytest.raises(TermError):
        parse_term_tree("foo bar)")


def test_empty_statement_raises():
    with pytest.raises(TermError, match="^empty statement$"):
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
# the character-at-a-time lexer and the (kind, text) token parser before tokens
# were scanned with one regex, copied verbatim (renamed with an `oracle` prefix)


_TWO_CHAR_OPS = frozenset(("=>", "->", "||", "&&", "==", "!=", "<=", ">=", "<>", "++", "\\/", "/\\", "::"))


def oracle_word_end(text: str, start: int) -> int:
    n = len(text)
    j = start
    if text[j] == "\\":
        j += 1
    while j < n:
        c = text[j]
        if c.isalnum() or c in "_'%":
            j += 1
            continue
        if c == "`":
            j += 1
            while j < n and (text[j] == "!" or text[j].isalnum() or text[j] in "_'%"):
                j += 1
            continue
        if c == "." and j + 1 < n and (text[j + 1].isalnum() or text[j + 1] == "_"):
            j += 1
            continue
        if c == "." and j + 2 < n and text[j + 1] == "+" and text[j + 2].isdigit():
            j += 2
            continue
        break
    return j


def oracle_lex(text: str) -> list[tuple[str, str]]:
    """Tokens as (kind, text); kinds: '(' ')' ',' ':' 'op' 'atom'."""
    tokens: list[tuple[str, str]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            tokens.append(("(", "("))
            i += 1
            continue
        if c == ")":
            tokens.append((")", ")"))
            i += 1
            continue
        if c in "[{":
            j = group_end(text, i)
            tokens.append(("atom", " ".join(text[i:j].split())))
            i = j
            continue
        if c in "]}":
            raise TermError(f"unexpected {c!r}")
        if c == ",":
            tokens.append((",", ","))
            i += 1
            continue
        two = text[i:i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(("op", two))
            i += 2
            continue
        if c == ":":
            if text[i + 1:i + 2] == "=":
                tokens.append(("op", ":="))
                i += 2
                continue
            tokens.append((":", ":"))
            i += 1
            continue
        if (c == "\\" and text.startswith("\\in", i)
                and not (text[i + 3:i + 4].isalnum() or text[i + 3:i + 4] in ("_", "'"))):
            tokens.append(("op", "\\in"))
            i += 3
            continue
        if c == "*":
            nxt = text[i + 1:i + 2]
            after = text[i + 2:i + 3]
            if nxt == "m" and not (after.isalnum() or after in ("_", "'")):
                tokens.append(("op", "*m"))
                i += 2
                continue
            tokens.append(("op", "*"))
            i += 1
            continue
        if c in "=<>+-/^~":
            tokens.append(("op", c))
            i += 1
            continue
        j = oracle_word_end(text, i)
        if j == i:
            # opaque single character, kept as a leaf
            tokens.append(("atom", c))
            i += 1
            continue
        tokens.append(("atom", text[i:j]))
        i = j
    return tokens


_END = ("end", "")  # appended to every token list, so indexing never runs off it


class _OracleClimbingParser:
    """Precedence climbing over the tokens of one text; every node comes from `intern`.

    intern maps (symbol, *child ids) to the one tree built for it.  Keying on
    ids is sound because the dict holds every node it has returned, so no id
    is reused while it lives, and equal subterms become one object.
    """

    def __init__(self, tokens: list[tuple[str, str]], intern: dict):
        self.tokens = tokens
        self.pos = 0
        self.intern = intern

    def node(self, symbol: str, children: tuple[TermTree, ...] = ()) -> TermTree:
        key = (symbol, *map(id, children))
        tree = self.intern.get(key)
        if tree is None:
            tree = self.intern[key] = TermTree(symbol, children)
        return tree

    def parse_expr(self, min_level: int = 0) -> TermTree:
        """An application, then binary operators binding at min_level or tighter."""
        node = self.parse_application()
        while True:
            kind, op = self.tokens[self.pos]
            level = _OP_LEVEL.get(op) if kind == "op" else None
            if level is None or level < min_level:
                return node
            self.pos += 1
            rhs = self.parse_expr(level if _OP_ASSOC[op] == "right" else level + 1)
            node = self.node(op, (node, rhs))

    def parse_application(self) -> TermTree:
        head = self.parse_atom()
        args = []
        while self.tokens[self.pos][0] in ("(", "atom"):
            args.append(self.parse_atom())
        if not args:
            return head
        if not head.children:
            return self.node(head.symbol, tuple(args))
        return self.node("@", (head, *args))

    def parse_atom(self) -> TermTree:
        tokens = self.tokens
        kind, text = tokens[self.pos]
        if kind == "atom":
            if text in BINDERS:
                return self.parse_binder()
            self.pos += 1
            return self.node(text)
        if kind == "(":
            self.pos += 1
            if tokens[self.pos][0] == ")":
                self.pos += 1
                return self.node("()")
            node = self.parse_expr()
            if tokens[self.pos][0] == ":":
                self.pos += 1
                node = self.node(":", (node, self.parse_expr()))
            if tokens[self.pos][0] == ",":
                items = [node]
                while tokens[self.pos][0] == ",":
                    self.pos += 1
                    items.append(self.parse_expr())
                node = self.node(",", tuple(items))
            if tokens[self.pos][0] != ")":
                raise TermError("missing ')'")
            self.pos += 1
            return node
        if kind == "op" and text in _PREFIX:
            self.pos += 1
            return self.node(text, (self.parse_application(),))
        if kind == "end":
            raise TermError("unexpected end of statement")
        raise TermError(f"unexpected {text!r}")

    def parse_binder(self) -> TermTree:
        tokens = self.tokens
        kw = tokens[self.pos][1]
        sep = ("op", "=>") if kw == "fun" else (",", ",")
        depth = 0
        self.pos += 1
        while (tok := tokens[self.pos]) != sep or depth:
            kind = tok[0]
            if kind == "end":
                raise TermError(f"{kw} binder without '{sep[1]}'")
            if kind == "(":
                depth += 1
            elif kind == ")":
                if depth == 0:
                    raise TermError("unexpected ')' in binder")
                depth -= 1
            self.pos += 1
        self.pos += 1
        return self.node(kw, (self.parse_expr(),))


def oracle_climbing_parse(text: str, intern: dict) -> TermTree:
    """parse_term_tree before the lexer used regexes and before texts were memoised."""
    tokens = oracle_lex(text)
    if not tokens:
        raise TermError("empty statement")
    tokens.append(_END)
    parser = _OracleClimbingParser(tokens, intern)
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise TermError("statement nested too deeply") from None
    kind, leftover = tokens[parser.pos]
    if kind != "end":
        raise TermError(f"trailing {leftover!r} in statement")
    return node


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
            raise TermError("unexpected end of statement")
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
                raise TermError("missing ')'")
            self.advance()
            return node
        if kind == "op" and text in _PREFIX:
            self.advance()
            return TermTree(text, (self.parse_expr(_APP_LEVEL),))
        raise TermError(f"unexpected {text!r}")

    def parse_binder(self) -> TermTree:
        kw = self.advance()[1]
        stop_arrow = kw == "fun"
        depth = 0
        while True:
            tok = self.peek()
            if tok is None:
                sep = "'=>'" if stop_arrow else "','"
                raise TermError(f"{kw} binder without {sep}")
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
                    raise TermError("unexpected ')' in binder")
                depth -= 1
            self.advance()
        body = self.parse_expr(0)
        return TermTree(kw, (body,))


def oracle_parse_term_tree(text: str) -> TermTree:
    """The parser before precedence climbing and interning."""
    tokens = oracle_lex(text)
    if not tokens:
        raise TermError("empty statement")
    parser = _OracleParser(tokens)
    node = parser.parse_expr(0)
    leftover = parser.peek()
    if leftover is not None:
        raise TermError(f"trailing {leftover[1]!r} in statement")
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


# ---------------------------------------------------------------------------
# the regex lexer and the string-token parser against the oracles above


def token_kind(tok: str) -> str:
    """The kind the parser reads from a token's text, named as the oracle lexer names it."""
    if tok in _OPERATORS:
        return "op"
    return tok if tok in ("(", ")", ",", ":") else "atom"


def assert_scans_like_oracle(texts):
    """Equal tokens and kinds, and equal trees, or the same error class and message."""
    intern: dict = {}
    oracle_intern: dict = {}  # one each, as a file's texts share one
    for text in texts:
        old = outcome(oracle_lex, text)
        new = outcome(_lex, text)
        if isinstance(old, list):
            assert new == [tok for _, tok in old], text
            assert [token_kind(tok) for tok in new] == [kind for kind, _ in old], text
        else:
            assert new == old, text
        assert (outcome(lambda t: parse_term_tree(t, intern), text)
                == outcome(lambda t: oracle_climbing_parse(t, oracle_intern), text)), text


def test_regex_classes_are_the_str_predicates_the_oracle_lexer_calls():
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(rf"[{_DIGIT}]", every) == list(filter(str.isdigit, every))
    assert re.findall(r"\w", every) == [c for c in every if c.isalnum() or c == "_"]
    assert re.findall(r"\s", every) == list(filter(str.isspace, every))


LEX_EDGE_CASES = {
    # str.isdigit holds for "²" but regex \d does not match it
    ".+ then a non-decimal digit": ("m.+² x.+²y .+²", ["m.+²", "x.+²y", ".+²"]),
    ".+ then a decimal digit": ("a.+1 b.+12c .+3", ["a.+1", "b.+12c", ".+3"]),
    ".+ then a letter": ("a.+b", ["a", ".", "+", "b"]),
    "\\in then a quote or a letter": ("\\in' \\inx \\in_ \\in", ["\\in'", "\\inx", "\\in_", "\\in"]),
    "\\in then a percent or a backtick": ("x \\in%y \\in`!", ["x", "\\in", "%y", "\\in", "`!"]),
    "*m then an underscore or a quote": ("a *m_ b *m' *m", ["a", "*", "m_", "b", "*", "m'", "*m"]),
    "dot before an underscore": ("a._b a.b a. a.(b)", ["a._b", "a.b", "a", ".", "a", ".", "(", "b", ")"]),
    "backtick suffixes": ("n`! n`!x `", ["n`!", "n`!x", "`"]),
    "lone backslashes": ("\\ \\\\ \\/ /\\", ["\\", "\\", "\\", "\\/", "/\\"]),
    "groups between words": ("f[a]{b} [x  (y)]", ["f", "[a]", "{b}", "[x (y)]"]),
    "operators glued together": ("a::=b:=>c", ["a", "::", "=", "b", ":=", ">", "c"]),
    "opaque characters": ("@ | & ! ; é 五", ["@", "|", "&", "!", ";", "é", "五"]),
}


@pytest.mark.parametrize("text, tokens", LEX_EDGE_CASES.values(), ids=LEX_EDGE_CASES.keys())
def test_lexer_edge_cases(text, tokens):
    assert _lex(text) == tokens
    assert_scans_like_oracle([text])


@pytest.mark.parametrize("text, message", [
    ("f ] [a]", "unexpected ']'"),
    ("f [a] }", "unexpected '}'"),
    ("f [a ] ]", "unexpected ']'"),
    ("f } [a", "unexpected '}'"),  # the stray closer comes first, so it wins over the unclosed group
    ("f [a } ]", "mismatched '}'"),
    ("f [a", "unclosed '['"),
])
def test_stray_closers_and_bad_groups(text, message):
    with pytest.raises(TermError, match=f"^{re.escape(message)}$"):
        _lex(text)
    assert_scans_like_oracle([text])


LEX_SOUP = st.sampled_from(
    ["a", "x1", "m", "_", "'", "%", "`", "!", ".", "+", "²", "1", "\\", "\\in", "*", "*m", "(", ")",
     "[", "]", "{", "}", ",", ":", "=", "=>", "<", ">", "-", "/", "^", "~", "|", "&", " ", "\n",
     "\xa0", "\u2003", "é", "五", "forall", "fun", "exists"])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.lists(LEX_SOUP, max_size=20).map("".join), min_size=1, max_size=4))
def test_lexer_and_parser_match_oracles_on_glued_token_soup(texts):
    assert_scans_like_oracle(texts)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(SOUP, max_size=30).map(" ".join), min_size=1, max_size=4))
def test_lexer_and_parser_match_oracles_on_token_soup(texts):
    assert_scans_like_oracle(texts)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.text(max_size=20), min_size=1, max_size=4))
def test_lexer_and_parser_match_oracles_on_unicode_text(texts):
    assert_scans_like_oracle(texts)


def test_lexer_and_parser_match_oracles_on_fixtures_and_random_sources():
    texts = [t for p in SOURCES for t in statement_texts(p.read_text())]
    texts += [t for p in TRACES for t in goal_texts(p.read_text())]
    rng = np.random.default_rng(7)
    texts += statement_texts(random_library_source(rng, 20, "r"))
    texts += goal_texts(random_trace_source(rng, 20, "t", "lib"))
    assert_scans_like_oracle(texts)


# ---------------------------------------------------------------------------
# each distinct statement or goal text is parsed once per file


def lemmas(*statements: str) -> str:
    return "".join(f"Lemma l{i} : {text}.\nProof. by []. Qed.\n" for i, text in enumerate(statements))


def goals(*texts: str) -> str:
    return "".join(json.dumps({"lemma": f"t{i // 2}", "library": "lib", "step_index": i % 2 + 1,
                               "tactic_line": "by [].", "goal_before": text, "subgoals_after": 0}) + "\n"
                   for i, text in enumerate(texts))


def counting_lexer(monkeypatch) -> list[str]:
    lexed: list[str] = []

    def lex(text):
        lexed.append(text)
        return _lex(text)
    monkeypatch.setattr(terms, "_lex", lex)
    return lexed


def test_a_repeated_statement_text_is_the_one_tree_of_its_file(monkeypatch):
    text = "forall (a b : nat), a + b = b + a"
    lexed = counting_lexer(monkeypatch)
    records = parse_library(lemmas(text, "x", text, text), "lib")
    assert lexed == [text, "x"]
    assert records[0].statement is records[2].statement is records[3].statement
    assert records[0].statement == parse_term_tree(text)


def test_a_repeated_goal_text_is_the_one_tree_of_its_file(monkeypatch):
    text = "sizeq (catq s t) = sizeq s + sizeq t"
    lexed = counting_lexer(monkeypatch)
    records = parse_trace(goals(text, "y", text, text))
    assert lexed == [text, "y"]
    trees = [step.goal_before for record in records for step in record.steps]
    assert trees[0] is trees[2] is trees[3] is records[1].statement
    assert trees[0] == parse_term_tree(text)


def test_a_text_that_is_a_leaf_symbol_is_the_one_leaf_object():
    for texts in (("x", "f x") * 2, ("f x", "x") * 2):
        for trees in ([r.statement for r in parse_library(lemmas(*texts), "lib")],
                      [s.goal_before for r in parse_trace(goals(*texts)) for s in r.steps]):
            leaves = [tree if text == "x" else tree.children[0] for text, tree in zip(texts, trees)]
            assert all(leaf is leaves[0] for leaf in leaves)


def test_the_memo_holds_a_parsed_text_under_its_own_str_key():
    intern: dict = {}
    tree = parse_term_tree("f x", intern)
    assert intern["f x"] is tree
    assert intern[("x",)] is tree.children[0]
    assert not any(isinstance(key, str) and key != "f x" for key in intern)


def test_a_bad_text_raises_every_time_at_its_own_file_and_line():
    intern: dict = {}
    for _ in range(2):
        with pytest.raises(TermError, match="missing"):
            parse_term_tree("f (x", intern)
    assert "f (x" not in intern
    good_then_bad = lemmas("f x", "f (x")
    for filename in ("a.v", "b.v"):
        for source, line in ((good_then_bad, 3), (lemmas("f (x"), 1)):
            with pytest.raises(ParseError, match=rf"^{filename}:{line}: bad statement for l\d"):
                parse_library(source, "lib", filename=filename)
    for filename in ("a.jsonl", "b.jsonl"):
        with pytest.raises(ParseError, match=rf"^{filename}:2: bad statement for t0"):
            parse_trace(goals("f x", "f (x", "f (x"), filename=filename)


def test_equal_texts_in_two_files_are_two_objects():
    text = "forall s, revq (revq s) = s"
    first, second = parse_library(lemmas(text), "a"), parse_library(lemmas(text), "b")
    assert first[0].statement == second[0].statement
    assert first[0].statement is not second[0].statement
    first, second = parse_trace(goals(text)), parse_trace(goals(text))
    assert first[0].statement is not second[0].statement
    assert parse_partial(lemmas(text)).statement is not parse_partial(lemmas(text)).statement


def test_the_parsers_call_the_term_parser_by_the_name_a_tracer_wraps(monkeypatch):
    calls: list[str] = []

    def traced(text, intern=None):
        calls.append(text)
        return parse_term_tree(text, intern)
    monkeypatch.setattr(script, "parse_term_tree", traced)
    parse_library(lemmas("x", "x"), "lib")
    parse_trace(goals("y", "y"))
    assert calls == ["x", "x", "y", "y"]
