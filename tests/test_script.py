import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proofmine.cli import main
from proofmine.script import (LEMMA_KEYWORDS, ArgumentKind, ParseError, ProofStep, _first_word, _parse_header,
                              parse_library, Sentence, parse_partial, parse_trace, split_sentences)

from proofmine.terms import TermError, parse_term_tree

from conftest import (GOLDEN_SOURCES, PARSER_INPUT_GROUPS, compare_with_golden, format_term,
                      load_golden, random_library_source, random_trace_source)


# ---------------------------------------------------------------------------
# step splitting


def proof_steps(proof_body: str, *, file: str = "<input>") -> tuple[ProofStep, ...]:
    """The steps of a proof body, read as the body of a lemma on its first line."""
    return parse_library(f"Lemma body : x. {proof_body} Qed.", "t", filename=file)[0].steps


def count_top_level_semis(text: str) -> int:
    """Independent oracle: ';' occurrences outside (), [], {} nesting."""
    depth = 0
    hits = 0
    for c in text:
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == ";" and depth == 0:
            hits += 1
    return hits


def test_move_intro_patterns():
    steps = proof_steps("move => M m nilpotent.")
    assert len(steps) == 1
    assert [t.name for t in steps[0].tactics] == ["move"]
    args = steps[0].tactics[0].arguments
    assert [a.text for a in args] == ["M", "m", "nilpotent"]
    assert all(a.kind is ArgumentKind.INTRO_PATTERN for a in args)


def test_by_rewrite_normalization():
    steps = proof_steps("by rewrite big_distrr mulmxBr mul1mx.")
    assert len(steps) == 1
    assert [t.name for t in steps[0].tactics] == ["by", "rewrite"]
    assert len(steps[0].tactics[1].arguments) == 3


def test_semicolon_composition_matches_oracle():
    line = "rewrite A; elim: s => //= x."
    expected_apps = count_top_level_semis(line.rstrip(".")) + 1
    steps = proof_steps(line)
    assert len(steps) == 1
    assert len(steps[0].tactics) == expected_apps


def test_bracketed_semicolons_do_not_split():
    line = "exists [:: a; b; c]."
    assert count_top_level_semis(line.rstrip(".")) == 0
    steps = proof_steps(line)
    assert len(steps[0].tactics) == 1


def test_by_with_empty_brackets():
    steps = proof_steps("by [].")
    (app,) = steps[0].tactics
    assert app.name == "by"
    assert [(a.text, a.kind) for a in app.arguments] == [("[]", ArgumentKind.TERM_EXPR)]


def test_empty_step_rejected():
    with pytest.raises(ParseError, match=r"^<input>:1: proof step without tokens$"):
        proof_steps("rewrite foo. . rewrite bar.")
    with pytest.raises(ParseError, match=r"^<input>:1: empty tactic between ';'$"):
        proof_steps("rewrite foo;; rewrite bar.")


def test_unknown_tactic_parses_opaque():
    steps = proof_steps("deskolem_apply BI_fctExists.")
    (app,) = steps[0].tactics
    assert app.name == "deskolem_apply"
    assert app.arguments[0].kind is ArgumentKind.EXTERNAL_LEMMA


def test_view_application_splits_leading_identifier():
    steps = proof_steps("apply/invmx_uniq.")
    (app,) = steps[0].tactics
    assert app.name == "apply"
    assert app.arguments[0].text == "/invmx_uniq"
    assert app.arguments[0].kind is ArgumentKind.EXTERNAL_LEMMA


# ---------------------------------------------------------------------------
# classification


DEMO_PROOF = "by move=> m1 m2 n; elim: m1 => //= m1 IHm; rewrite -addnA -IHm."


def demo_lemma():
    src = f"Lemma mulnDl : left_distributive muln addn.\nProof. {DEMO_PROOF} Qed.\n"
    return parse_library(src, "nat")[0]


def kinds_after_demo(step: str) -> dict[str, ArgumentKind]:
    """Argument kinds of one step run after the demo proof's introductions."""
    last = proof_steps(f"{DEMO_PROOF} {step}")[-1]
    return {a.text: a.kind for app in last.tactics for a in app.arguments}


def test_classify_inductive_hypothesis_after_elim():
    rewrite = demo_lemma().steps[0].tactics[-1]
    assert [(a.text, a.kind) for a in rewrite.arguments] == [
        ("-addnA", ArgumentKind.EXTERNAL_LEMMA), ("-IHm", ArgumentKind.INDUCTIVE_HYPOTHESIS)]
    assert kinds_after_demo("rewrite IHm.") == {"IHm": ArgumentKind.INDUCTIVE_HYPOTHESIS}


def test_classify_wildcard():
    assert kinds_after_demo("rewrite _ //=.") == {"_": ArgumentKind.WILDCARD,
                                                 "//=": ArgumentKind.WILDCARD}


def test_classify_flagged_external_lemma():
    assert kinds_after_demo("rewrite -!addnA addnA.") == {"-!addnA": ArgumentKind.EXTERNAL_LEMMA,
                                                          "addnA": ArgumentKind.EXTERNAL_LEMMA}


def test_classify_numeric_and_term():
    assert kinds_after_demo("exists 42.") == {"42": ArgumentKind.NUMERIC_CONSTANT}
    assert kinds_after_demo("rewrite (addnC n).") == {"(addnC n)": ArgumentKind.TERM_EXPR}


def test_classify_is_deterministic():
    kinds = {kinds_after_demo("rewrite IHm.")["IHm"] for _ in range(5)}
    assert len(kinds) == 1


def test_hypothesis_tracking_across_steps():
    src = (
        "Lemma demo : foo = bar.\n"
        "Proof.\n"
        "move => H0.\n"
        "rewrite H0 ext0.\n"
        "Qed.\n"
    )
    lemma = parse_library(src, "demo")[0]
    args = lemma.steps[1].tactics[0].arguments
    assert args[0].kind is ArgumentKind.HYPOTHESIS
    assert args[1].kind is ArgumentKind.EXTERNAL_LEMMA


# the same command lines under different contexts: `rewrite H` after `move=> H` and without it,
# `rewrite IH` after `elim: n => [|n IH]`, without it, and after `move=> IH` in the same proof
REPEATED_LINE_LEMMAS = [
    ("l1", "x = x", ["move=> H.", "rewrite H."]),
    ("l2", "x = x", ["rewrite H."]),
    ("l3", "n = n", ["elim: n => [|n IH].", "rewrite IH."]),
    ("l4", "n = n", ["rewrite IH.", "move=> IH.", "rewrite IH."]),
    ("l5", "n = n", ["rewrite H.", "elim: n => [|n IH].", "rewrite IH H."]),
]
REPEATED_LINE_KINDS = {  # the argument kinds of each `rewrite`, in order
    "l1": [[ArgumentKind.HYPOTHESIS]],
    "l2": [[ArgumentKind.EXTERNAL_LEMMA]],
    "l3": [[ArgumentKind.INDUCTIVE_HYPOTHESIS]],
    "l4": [[ArgumentKind.EXTERNAL_LEMMA], [ArgumentKind.HYPOTHESIS]],
    "l5": [[ArgumentKind.EXTERNAL_LEMMA], [ArgumentKind.INDUCTIVE_HYPOTHESIS, ArgumentKind.EXTERNAL_LEMMA]],
}


def rewrite_kinds(record) -> list[list[ArgumentKind]]:
    return [[a.kind for a in app.arguments] for step in record.steps for app in step.tactics if app.name == "rewrite"]


def test_a_repeated_tactic_line_is_classified_against_each_proof_context():
    chunks = [f"Lemma {name} : {statement}.\nProof.\n" + "\n".join(lines) + "\nQed.\n"
              for name, statement, lines in REPEATED_LINE_LEMMAS]
    records = parse_library("".join(chunks), "l")
    assert {r.name: rewrite_kinds(r) for r in records} == REPEATED_LINE_KINDS
    for record, chunk in zip(records, chunks):  # each lemma alone in its file, nothing lexed before it
        assert parse_library(chunk, "l") == [record]


def test_a_repeated_trace_tactic_line_is_classified_against_each_proof_context():
    lemmas = [[json.dumps({"lemma": name, "library": "l", "step_index": idx, "tactic_line": line,
                           "goal_before": statement, "subgoals_after": 0})
               for idx, line in enumerate(lines, start=1)] for name, statement, lines in REPEATED_LINE_LEMMAS]
    records = parse_trace("\n".join(line for lines in lemmas for line in lines))
    assert {r.name: rewrite_kinds(r) for r in records} == REPEATED_LINE_KINDS
    for record, lines in zip(records, lemmas):
        assert parse_trace("\n".join(lines)) == [record]


def test_lemmas_parse_alike_alone_and_after_others_in_random_files():
    # the generated proofs repeat command lines across lemmas in one file
    rng = np.random.default_rng(19)
    for trial in range(5):
        source = random_library_source(rng, 12, f"r{trial}")
        records = parse_library(source, "l")
        chunks = source.split("\n\n")
        assert len(chunks) == len(records) == 12
        assert [parse_library(chunk, "l")[0] for chunk in chunks] == records
        trace = random_trace_source(rng, 12, f"t{trial}", "l").splitlines()
        records = parse_trace("\n".join(trace))
        assert [parse_trace("\n".join(line for line in trace if f'"{r.name}"' in line))[0] for r in records] == records


# ---------------------------------------------------------------------------
# library parsing


def test_single_lemma_single_step():
    src = "Lemma andbb : idempotent andb.\nProof. by case. Qed.\n"
    records = parse_library(src, "ssrbool")
    assert len(records) == 1
    record = records[0]
    assert record.name == "andbb"
    assert len(record.steps) == 1
    assert [t.name for t in record.steps[0].tactics] == ["by", "case"]
    assert record.steps[0].goal_before == record.statement


def test_empty_source_yields_no_records():
    assert parse_library("", "tag") == []
    assert parse_library("(* just a comment *)\n", "tag") == []


def test_paired_lemmas_share_step_counts():
    records = parse_library(GOLDEN_SOURCES["ssr_nat"].read_text(), "ssrnat")
    by_name = {r.name: r for r in records}
    assert len(by_name["maxn_mulr"].steps) == len(by_name["minn_mulr"].steps)


def test_unterminated_proof():
    with pytest.raises(ParseError, match=r"^<string>:1: proof of f never closed$"):
        parse_library("Lemma f : x = y.\nProof. by [].\n", "t")


def test_unterminated_proof_before_next_lemma():
    src = ("Lemma f : x = y.\nProof. by [].\n"
           "Lemma g : x = z.\nProof. by []. Qed.\n")
    with pytest.raises(ParseError, match=r"^<string>:1: proof of f never closed$"):
        parse_library(src, "t")


@pytest.mark.parametrize("source, line", [
    ("Lemma z : x = y.\nProof.\nQed.\nLemma g : x = z.\nProof. by []. Qed.\n", 1),
    ("Lemma g : x = z.\nProof. by []. Qed.\n\nLemma z : x = y.\nQed.\n", 4),
])
def test_proof_without_steps_is_an_error_at_its_lemma(source, line):
    with pytest.raises(ParseError, match=rf"^lib\.v:{line}: proof of z has no steps$"):
        parse_library(source, "t", filename="lib.v")


@pytest.mark.parametrize("name", sorted(GOLDEN_SOURCES))
def test_fixture_statements_reprint_identically(name):
    for record in parse_library(GOLDEN_SOURCES[name].read_text(), name):
        assert parse_term_tree(format_term(record.statement)) == record.statement


def test_malformed_statement():
    with pytest.raises(ParseError, match=r"^<string>:1: lemma sentence without a name$"):
        parse_library("Lemma : x = y.\nProof. by []. Qed.", "t")
    with pytest.raises(ParseError, match=r"^<string>:1: missing ':' in statement of noname$"):
        parse_library("Lemma noname x = y.\nProof. by []. Qed.", "t")


def test_duplicate_lemma_name():
    src = ("Lemma f : a = b.\nProof. by []. Qed.\n"
           "Lemma f : a = c.\nProof. by []. Qed.\n")
    with pytest.raises(ParseError, match=r"^<string>:3: duplicate lemma f$"):
        parse_library(src, "t")


@pytest.mark.parametrize("name", ["café", "xéy", "foo-bar", "foo.bar", "l)"])
def test_a_lemma_name_that_is_not_an_identifier_is_a_parse_error_at_its_line(name):
    # a name ends at whitespace, `(`, `[`, `{`, `:` or the end of its sentence; nothing is cut off
    message = f"lemma name {name!r} is not an identifier"
    source = f"Lemma ok : x = x.\nProof. by []. Qed.\nLemma {name} : x = x.\nProof. by []. Qed.\n"
    with pytest.raises(ParseError) as err:
        parse_library(source, "t", filename="n.v")
    assert (str(err.value), err.value.file, err.value.line) == (f"n.v:3: {message}", "n.v", 3)
    with pytest.raises(ParseError) as err:
        parse_partial(f"Lemma {name} : x = x.\nProof. by [].\n", filename="q.v")
    assert (str(err.value), err.value.line) == (f"q.v:1: {message}", 1)
    # the trace reader refuses the same name
    record = {"lemma": name, "library": "t", "step_index": 1, "tactic_line": "by [].",
              "goal_before": "x = x", "subgoals_after": 0}
    with pytest.raises(ParseError, match=r"^t\.jsonl:1: lemma must be an identifier$"):
        parse_trace(json.dumps(record) + "\n", filename="t.jsonl")


def test_parse_error_carries_location():
    try:
        parse_library("Lemma f : a = b.\nProof. by [].\n", "t", filename="lib.v")
    except ParseError as exc:
        assert "lib.v:1" in str(exc)
        assert (exc.file, exc.line) == ("lib.v", 1)
    else:
        pytest.fail("expected ParseError")


def test_comments_and_qualified_dots_do_not_split():
    src = (
        "(* header comment. with a dot *)\n"
        "Lemma uses_dot : Finite.axiom [::tt].\n"
        "Proof. (* inline. *) by case. Qed.\n"
    )
    records = parse_library(src, "t")
    assert len(records) == 1
    assert len(records[0].steps) == 1


def test_comment_never_closed_is_a_parse_error_at_its_opening():
    library = ("Lemma l : x = x.\nProof. by []. Qed.\n(* open comment\n"
               "Lemma m : y = y.\nProof. by []. Qed.\n")
    with pytest.raises(ParseError, match=r"^lib\.v:3: comment never closed$"):
        parse_library(library, "l", filename="lib.v")
    # the outermost opening counts, even when a nested comment closes
    query = "Lemma q : a = b.\nProof.\nrewrite foo.\n(* outer\n(* inner *)\nby [].\n"
    with pytest.raises(ParseError, match=r"^q\.v:4: comment never closed$"):
        parse_partial(query, filename="q.v")
    assert len(parse_partial(query + "*)\n", filename="q.v").steps) == 1
    # a comment opener inside a string opens nothing
    assert [sen.text for sen in split_sentences('Notation s := "(*".\n')] == ['Notation s := "(*"']


def test_goal_only_on_first_step_in_static_mode():
    src = "Lemma two : a = b.\nProof. rewrite u. by rewrite v. Qed.\n"
    record = parse_library(src, "t")[0]
    assert record.steps[0].goal_before is not None
    assert record.steps[1].goal_before is None
    assert all(s.subgoals_after is None for s in record.steps)


def _library_records(source: str) -> list:
    return parse_library(source, "lib") + [parse_partial(source)]


def test_first_step_goal_is_the_statement():
    # every parser hands the statement to the first step, so encoding never reads the statement
    parsers = (_library_records, parse_trace, lambda source: [parse_partial(source)])
    sources = [(parse, path.read_text(encoding="utf-8"))
               for parse, group in zip(parsers, PARSER_INPUT_GROUPS) for path in group]
    rng = np.random.default_rng(8)
    for trial in range(10):
        sources.append((_library_records, random_library_source(rng, 12, f"r{trial}")))
        sources.append((parse_trace, random_trace_source(rng, 12, f"t{trial}", "traced")))
    checked = 0
    for parse, source in sources:
        for record in parse(source):
            assert record.steps[0].goal_before is record.statement, record.name
            checked += 1
    assert checked > 300  # the check ran over the fixtures and the random sources


# ---------------------------------------------------------------------------
# goldens from the fixture listings


@pytest.mark.parametrize("name", sorted(GOLDEN_SOURCES))
def test_fixture_goldens(name):
    source = GOLDEN_SOURCES[name].read_text()
    records = parse_library(source, name, filename=GOLDEN_SOURCES[name].name)
    compare_with_golden(records, load_golden(name))


# ---------------------------------------------------------------------------
# sentence splitting reversibility


def strip_comments_oracle(source: str) -> str:
    """Test-local comment stripper, independent of the parser internals."""
    out = []
    depth = 0
    i = 0
    while i < len(source):
        if source.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth and source.startswith("*)", i):
            depth -= 1
            i += 2
            out.append(" ")
            continue
        if depth:
            i += 1
            continue
        out.append(source[i])
        i += 1
    return "".join(out)


@pytest.mark.parametrize("name", sorted(GOLDEN_SOURCES))
def test_sentence_split_reversible(name):
    source = GOLDEN_SOURCES[name].read_text()
    sentences = split_sentences(source)
    rebuilt = " ".join(f"{s.text}." for s in sentences if s.text)
    normalize = lambda text: " ".join(text.split())
    assert normalize(rebuilt) == normalize(strip_comments_oracle(source))


# ---------------------------------------------------------------------------
# the regex sentence splitter against the character-at-a-time splitter it
# replaced, copied verbatim (renamed with an `oracle` prefix)


def oracle_split_sentences(source: str, *, filename: str = "<string>") -> list[Sentence]:
    """Split on '.' followed by whitespace/EOF, outside comments and strings.

    Dots inside qualified names or notations like `m.+1` never precede
    whitespace, so they survive unsplit.  Comment text is replaced by one
    space; an all-whitespace chunk between two terminators yields an empty
    sentence so proof parsing can reject it.  A comment still open at the end
    of the source is a ParseError at the line of its opening `(*`.
    """
    sentences: list[Sentence] = []
    buf: list[str] = []
    line = 1
    start_line: int | None = None
    comment_depth = 0
    comment_line = 0
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
        if comment_depth:
            if source.startswith("(*", i):
                comment_depth += 1
                i += 2
                continue
            if source.startswith("*)", i):
                comment_depth -= 1
                if comment_depth == 0:
                    buf.append(" ")
                i += 2
                continue
            i += 1
            continue
        if source.startswith("(*", i):
            comment_depth += 1
            comment_line = line
            i += 2
            continue
        if c == '"':
            if start_line is None:
                start_line = line
            buf.append(c)
            i += 1
            while i < n and source[i] != '"':
                if source[i] == "\n":
                    line += 1
                buf.append(source[i])
                i += 1
            if i < n:
                buf.append('"')
                i += 1
            continue
        if c == ".":
            nxt = source[i + 1] if i + 1 < n else None
            if nxt is None or nxt.isspace():
                text = "".join(buf).strip()
                sentences.append(Sentence(text, start_line if start_line else line))
                buf = []
                start_line = None
                i += 1
                continue
        if start_line is None and not c.isspace():
            start_line = line
        buf.append(c)
        i += 1
    if comment_depth:
        raise ParseError("comment never closed", file=filename, line=comment_line)
    trailing = "".join(buf).strip()
    if trailing:
        sentences.append(Sentence(trailing, start_line if start_line else line))
    return sentences


def split_outcome(split, source):
    """(text, line) per sentence, or the class and message of the error split raises."""
    try:
        return [(sen.text, sen.line_start) for sen in split(source, filename="s.v")]
    except ParseError as exc:
        return type(exc), str(exc)


def assert_splits_like_oracle(source):
    """Equal sentences or errors; only the new splitter rejects a string never closed.

    The oracle read such a string, from the file's last quote, to the end of the file.
    """
    new = split_outcome(split_sentences, source)
    old = split_outcome(oracle_split_sentences, source)
    if isinstance(new, tuple) and new[1].endswith(": string never closed"):
        opening = source.rindex('"')
        assert new == (ParseError, f"s.v:{source.count(chr(10), 0, opening) + 1}: string never closed")
        assert isinstance(old, list) and old[-1][0].endswith(source[opening:].rstrip()), source
    else:
        assert new == old, source


SENTENCE_EDGE_CASES = {
    "nested comments": ("Lemma a : x. (* outer (* inner. *) still. *) Proof. by []. Qed.",
                        [("Lemma a : x", 1), ("Proof", 1), ("by []", 1), ("Qed", 1)]),
    "a comment opener in a comment": ("(*(*)*) *) a. (**) b.", [("a", 1), ("b", 1)]),
    "a string spanning lines": ('Notation s :=\n"one.\ntwo. (*".\nx.',
                                [('Notation s :=\n"one.\ntwo. (*"', 1), ("x", 4)]),
    "a dot at the end of the source": ("a.\nb.", [("a", 1), ("b", 2)]),
    "a dot inside a name or notation": ("f m.+1 M.x a.\tb.(* *).", [("f m.+1 M.x a", 1), ("b.", 1)]),
    "empty sentences": (" . \n.\n\n  x", [("", 1), ("", 2), ("x", 4)]),
    "a comment before the first word": ("(* c\n *)\n  Lemma a : x.", [("Lemma a : x", 3)]),
    "unicode whitespace after a dot": ("a.\u2003b.\x85c.\xa0", [("a", 1), ("b", 1), ("c", 1)]),
}


@pytest.mark.parametrize("source, sentences", SENTENCE_EDGE_CASES.values(), ids=SENTENCE_EDGE_CASES.keys())
def test_sentence_edge_cases(source, sentences):
    assert [(sen.text, sen.line_start) for sen in split_sentences(source)] == sentences
    assert_splits_like_oracle(source)


def test_string_never_closed_is_a_parse_error_at_its_opening():
    library = ('Lemma l : x = x.\nProof. by []. Qed.\nNotation s := "open string.\n'
               "Lemma m : y = y.\nProof. by []. Qed.\n")
    with pytest.raises(ParseError, match=r"^lib\.v:3: string never closed$"):
        parse_library(library, "l", filename="lib.v")
    # the old splitter read the rest of the file as the string, and dropped the second lemma
    assert [sen.text for sen in oracle_split_sentences(library)][-1].startswith('Notation s := "open')
    query = 'Lemma q : a = b.\nProof.\nrewrite foo.\nrewrite "bar.\n\nby [].\n'
    with pytest.raises(ParseError, match=r"^q\.v:4: string never closed$"):
        parse_partial(query, filename="q.v")
    # a quote inside a comment opens nothing, and a closed string is one sentence piece
    assert [sen.text for sen in split_sentences('(* " *) a "b. c". d.\n')] == ["a \"b. c\"", "d"]


SENTENCE_SOUP = st.sampled_from(
    ["a", "Lemma", " ", "\n", "\t", ".", ". ", ".\n", "(*", "*)", "(", ")", "*", '"', "x.y", "m.+1",
     "\u2003", "\x85", "é"])


@settings(max_examples=500, deadline=None)
@given(st.lists(SENTENCE_SOUP, max_size=30).map("".join))
def test_splitter_matches_oracle_on_sentence_soup(source):
    assert_splits_like_oracle(source)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=8), SENTENCE_SOUP), max_size=12).map("".join))
def test_splitter_matches_oracle_on_unicode_text(source):
    assert_splits_like_oracle(source)


@pytest.mark.parametrize("path", [p for group in PARSER_INPUT_GROUPS for p in group if p.suffix == ".v"],
                         ids=lambda p: p.name)
def test_splitter_matches_oracle_on_fixtures(path):
    assert_splits_like_oracle(path.read_text(encoding="utf-8"))


def test_splitter_matches_oracle_on_random_sources():
    rng = np.random.default_rng(8)
    for trial in range(10):
        assert_splits_like_oracle(random_library_source(rng, 12, f"r{trial}"))


# the scanner splits each stretch without a comment or string with one regex
# pass, so these sources put comments and strings between, inside and around
# sentences, and end lines with CRLF as well as LF
LINE_ENDS = st.sampled_from(["\n", "\r\n"])
COMMENT_TEXT = st.sampled_from([" c ", ".", ". ", "a.\n", "\r\n", '"', "'", "*", "(", ")", "x.y", "é"])
COMMENTS = st.recursive(
    COMMENT_TEXT, lambda inner: st.lists(inner, max_size=3).map(lambda parts: "(*" + "".join(parts) + "*)"),
    max_leaves=8).map(lambda text: text if text.startswith("(*") else f"(*{text}*)")
STRINGS = st.lists(st.sampled_from(["(*", "*)", ".", ". ", ".\n", "\r\n", "s", " ", "é"]),
                   max_size=4).map(lambda parts: '"' + "".join(parts) + '"')
FRAGMENTS = st.one_of(st.sampled_from(["Lemma a : x", "by []", "Qed", "m.+1", "M.x", "f.", " ", "\t", "\u2003"]),
                      LINE_ENDS, COMMENTS, STRINGS)
TERMINATORS = st.sampled_from([". ", ".\n", ".\r\n", ".\t"])


@st.composite
def commented_sources(draw) -> str:
    """Sentences of words, comments, strings and blanks; the last one may lack its terminator."""
    sentences = draw(st.lists(st.lists(FRAGMENTS, max_size=5).map("".join), max_size=8))
    source = "".join(text + draw(TERMINATORS) for text in sentences)
    return source + draw(st.sampled_from(["", "x", " (* c *) trailing", '"s."', ".", "\r\n"]))


@settings(max_examples=500, deadline=None)
@given(commented_sources())
def test_scanner_matches_oracle_on_commented_sources(source):
    # every string and comment here is closed, so the oracle's sentences and errors are exact
    assert split_outcome(split_sentences, source) == split_outcome(oracle_split_sentences, source), source


@pytest.mark.parametrize("source", [
    "a.\r\n(* open\r\nb.", "a. (* (* *) \n b.", '"s". (*\n', 'x (* " *) y.\n(* z', "\n\n(*(*)*)\n(*",
    "Lemma a : x.\nProof. (* a\n (* b *)\n by [].\nQed.\n",
])
def test_scanner_reports_an_open_comment_at_the_oracles_line(source):
    assert split_outcome(split_sentences, source) == split_outcome(oracle_split_sentences, source)


def test_sentence_is_a_named_tuple_of_text_and_line():
    (sen,) = split_sentences("\n a b .")
    assert sen == Sentence("a b", 2) and sen._fields == ("text", "line_start")
    assert (sen.text, sen.line_start) == ("a b", 2)


# ---------------------------------------------------------------------------
# lemma headers against the character-at-a-time reader they replaced, copied
# verbatim (renamed with an `oracle` prefix, its error class now the ParseError
# it derived from), less one intended difference: a name must end at
# whitespace, a bracket opener, a colon or the end of the sentence


def oracle_parse_header(sentence: Sentence, file: str) -> tuple[str, str]:
    text = sentence.text
    kw = _first_word(text)
    rest = text[len(kw):]
    m = re.match(r"\s*([A-Za-z_][A-Za-z0-9_']*)", rest)
    if not m:
        raise ParseError("lemma sentence without a name", file=file, line=sentence.line_start)
    name = m.group(1)
    tail = rest[m.end():]
    depth = 0
    i = 0
    while i < len(tail):
        c = tail[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == ":" and depth == 0:
            if tail[i + 1:i + 2] in (":", "="):
                i += 2
                continue
            statement = tail[i + 1:].strip()
            if not statement:
                raise ParseError(f"missing statement for {name}", file=file, line=sentence.line_start)
            return name, statement
        i += 1
    raise ParseError(f"missing ':' in statement of {name}", file=file, line=sentence.line_start)


def header_outcome(parse, text: str):
    try:
        return parse(Sentence(text, 3), "h.v")
    except ParseError as exc:
        return type(exc), str(exc)


def expected_header_outcome(text: str):
    """The oracle's outcome, unless the word after the keyword starts a name and is not one."""
    rest = text[len(_first_word(text)):].lstrip()
    end = next((i for i, c in enumerate(rest) if c.isspace() or c in "([{:"), len(rest))
    word = rest[:end]
    if re.match(r"[A-Za-z_]", word) and not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", word):
        return ParseError, f"h.v:3: lemma name {word!r} is not an identifier"
    return header_outcome(oracle_parse_header, text)


HEADER_CASES = {
    "plain": "Lemma foo : x = y",
    "binders with colons": "Theorem t (a b : nat) {H : P a} [n : T] : f a = b",
    "a colon pair before the separator": "Lemma l x :: y : z",
    "a definition colon before the separator": "Fact f (x := 2) := y : P x",
    "three colons": "Lemma l ::: T",
    "four colons": "Lemma l :::: T",
    "colon equals colon": "Lemma l :=: T",
    "a separator inside brackets only": "Corollary c (x : T)",
    "an unbalanced closer first": "Lemma l ) : a : b",
    "nested binders": "Lemma l (f : (a : A) -> B) : f = f",
    "nothing after the separator": "Lemma l (x : T) :  ",
    "no name": "Lemma : x",
    "a name with a prime": "Lemma l' {x} : x",
    "unicode whitespace": "Lemma\u2003name\x85:\u2003x",
    "a separator at the end of a run": "Lemma l (a) [b]: c",
    "a name with a non-ASCII letter": "Lemma café : x = x",
    "a non-ASCII letter inside a name": "Lemma xéy : x",
    "a hyphenated name": "Lemma foo-bar : x",
    "a qualified name": "Lemma foo.bar : x",
    "a closer after the name": "Lemma l) : x",
    "a colon right after the name": "Lemma l: x",
}


@pytest.mark.parametrize("text", HEADER_CASES.values(), ids=HEADER_CASES.keys())
def test_header_matches_oracle_on_edge_cases(text):
    assert header_outcome(_parse_header, text) == expected_header_outcome(text)


HEADER_SOUP = st.sampled_from(["(", ")", "[", "]", "{", "}", ":", "::", ":=", "=", " ", "\n", "x", "nat", "H'", "->"])


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(LEMMA_KEYWORDS)), st.sampled_from([" l", "  l'", "\nname_1", " ", ""]),
       st.lists(HEADER_SOUP, max_size=16).map("".join))
def test_header_matches_oracle_on_header_soup(keyword, name, tail):
    text = keyword + name + tail
    assert header_outcome(_parse_header, text) == expected_header_outcome(text)


# ---------------------------------------------------------------------------
# lenient partial proofs


def test_parse_partial_without_qed():
    src = "Lemma q : a = b.\nProof.\nrewrite foo.\nby rewrite bar.\n"
    record = parse_partial(src)
    assert record.name == "q"
    assert len(record.steps) == 2


def test_parse_partial_requires_a_step():
    with pytest.raises(ParseError, match=r"^<query>:1: partial proof of q has no steps$"):
        parse_partial("Lemma q : a = b.\nProof.\n")
    with pytest.raises(ParseError, match=r"^<query>: no lemma statement found$"):
        parse_partial("just some text")


# ---------------------------------------------------------------------------
# trace input


def test_trace_fixture_parses_with_goals(tmp_path):
    from conftest import FIXTURES
    source = (FIXTURES / "matrix_trace.jsonl").read_text()
    records = parse_trace(source, filename="matrix_trace.jsonl")
    assert [r.name for r in records] == ["nilpotent_inverse", "nilpotent_inverse_ex"]
    first = records[0]
    assert first.library == "matrix"
    assert all(s.goal_before is not None for s in first.steps)
    assert [s.subgoals_after for s in first.steps] == [1, 1, 2, 1]
    assert first.statement == first.steps[0].goal_before
    compare_with_golden(records, load_golden("matrix_trace"))


@pytest.mark.parametrize("field,value", [
    ("lemma", ["x"]),
    ("library", 3),
    ("tactic_line", 7),
    ("goal_before", None),
    ("step_index", True),
    ("step_index", 1.0),
    ("subgoals_after", False),
    ("subgoals_after", "0"),
])
def test_trace_rejects_ill_typed_fields(field, value):
    record = {"lemma": "x", "library": "l", "step_index": 1, "tactic_line": "by [].",
              "goal_before": "a = b", "subgoals_after": 0}
    parse_trace(json.dumps(record))
    record[field] = value
    with pytest.raises(ParseError, match=field):
        parse_trace(json.dumps(record))


def test_trace_rejects_bad_records():
    with pytest.raises(ParseError):
        parse_trace("not json\n")
    with pytest.raises(ParseError):
        parse_trace('{"lemma": "x"}\n')
    good = ('{"lemma": "x", "library": "l", "step_index": 1, '
            '"tactic_line": "by [].", "goal_before": "a = b", "subgoals_after": 0}\n')
    dup = good + good
    with pytest.raises(ParseError):
        parse_trace(dup)


@pytest.mark.parametrize("field", ["step_index", "subgoals_after", "lemma"])
def test_trace_integer_beyond_the_int_string_limit_is_a_located_parse_error(field):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for such an integer
    good = json.dumps({"lemma": "x", "library": "l", "step_index": 1, "tactic_line": "by [].",
                       "goal_before": "a = b", "subgoals_after": 0})
    huge = good.replace(f'"{field}": ' + json.dumps(json.loads(good)[field]), f'"{field}": ' + "9" * 5000)
    assert huge != good
    with pytest.raises(ParseError, match=r"^t\.jsonl:2: bad trace record: .*4300 digits"):
        parse_trace(good + "\n" + huge + "\n", filename="t.jsonl")


@pytest.mark.parametrize("name", ["?query", "", "a b", "1x", "x.y", "x\n"])
def test_trace_lemma_that_is_not_an_identifier_is_a_located_parse_error(name):
    records = [json.dumps({"lemma": lemma, "library": "l", "step_index": 1, "tactic_line": "by [].",
                           "goal_before": "a = b", "subgoals_after": 0}) for lemma in ("x'_1", name)]
    with pytest.raises(ParseError, match=r"^t\.jsonl:2: lemma must be an identifier$"):
        parse_trace("\n".join(records), filename="t.jsonl")


@pytest.mark.parametrize("libraries, line", [(("l", ""), 2), (("", ""), 1)])
def test_trace_empty_library_is_a_located_parse_error(tmp_path, capsys, libraries, line):
    # a --lib tag and parse_library's tag are never empty either
    records = [json.dumps({"lemma": lemma, "library": library, "step_index": 1, "tactic_line": "by [].",
                           "goal_before": "a = b", "subgoals_after": 0})
               for lemma, library in zip(("x", "y"), libraries)]
    with pytest.raises(ParseError, match=rf"^t\.jsonl:{line}: library must be non-empty$"):
        parse_trace("\n".join(records), filename="t.jsonl")
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(records), encoding="utf-8")
    assert main(["extract", "--lib", f"t:{path}", "--out", str(tmp_path / "c.corpus")]) == 2
    assert f"t.jsonl:{line}: library must be non-empty" in capsys.readouterr().err


@pytest.mark.parametrize("indices, missing, line", [([2, 5], 1, 1), ([1, 2, 4], 3, 3), ([3, 1], 2, 1)])
def test_trace_rejects_missing_steps(indices, missing, line):
    records = [json.dumps({"lemma": "x", "library": "l", "step_index": idx, "tactic_line": "by [].",
                           "goal_before": f"g{idx} = x", "subgoals_after": 0}) for idx in indices]
    with pytest.raises(ParseError) as err:
        parse_trace("\n".join(records), filename="t.jsonl")
    assert str(err.value) == f"t.jsonl:{line}: missing step {missing} for x"


def test_trace_records_keep_first_seen_lemma_order():
    lines = []
    for name, idx in [("b", 2), ("a", 1), ("b", 1), ("c", 1), ("a", 2)]:
        lines.append(json.dumps({"lemma": name, "library": "l", "step_index": idx, "tactic_line": "by [].",
                                 "goal_before": f"{name}{idx} = x", "subgoals_after": 0}))
    records = parse_trace("\n".join(lines))
    assert [r.name for r in records] == ["b", "a", "c"]
    assert [r.statement.children[0].symbol for r in records] == ["b1", "a1", "c1"]


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
def test_trace_records_split_only_at_crlf_lf_and_cr(char):
    # json.dumps writes these raw with ensure_ascii=False; str.splitlines would split at them
    records = [json.dumps({"lemma": f"x{i}", "library": "l", "step_index": 1, "tactic_line": f"move=>{char}H.",
                           "goal_before": f"a{char}= b", "subgoals_after": 0}, ensure_ascii=False)
               for i in range(3)]
    assert char in records[0]
    parsed = parse_trace(records[0] + "\r\n" + records[1] + "\r" + records[2] + "\n")
    assert [r.name for r in parsed] == ["x0", "x1", "x2"]
    assert parsed[0].steps[0].tactics[0].arguments[0].text == "H"
    assert parsed[0].statement == parse_term_tree("a = b")
    # line numbers count CRLF as one break and a lone CR as one
    with pytest.raises(ParseError, match=r"^t\.jsonl:4: bad trace record"):
        parse_trace(records[0] + "\r\n" + records[1] + "\r" + records[2] + "\n{" + char, filename="t.jsonl")


@pytest.mark.parametrize("parse, text, error, message", [
    (lambda t: proof_steps(t, file="a.v"), "move=> x.\nrewrite (foo].", ParseError,
     "a.v:2: mismatched ']'"),
    (lambda t: proof_steps(t, file="a.v"), "rewrite {foo.", ParseError, "a.v:1: unclosed '{'"),
    (parse_term_tree, "f [a", TermError, "unclosed '['"),
    (parse_term_tree, "f [a)]", TermError, "mismatched ')'"),
    (lambda t: parse_library(t, "l", filename="b.v"), "Lemma x : f [a.\nProof. by []. Qed.",
     ParseError, "b.v:1: bad statement for x: unclosed '['"),
])
def test_unbalanced_group_messages(parse, text, error, message):
    with pytest.raises(error) as err:
        parse(text)
    assert str(err.value) == message
