import json

import numpy as np
import pytest

from proofmine.script import (ArgumentKind, DuplicateLemmaName, EmptyStep, MalformedStatement,
                              ParseError, ProofStep, UnterminatedProof, parse_library,
                              parse_partial, parse_trace, split_sentences)

from proofmine.terms import UnbalancedDelimiters, parse_term_tree

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
    with pytest.raises(EmptyStep):
        proof_steps("rewrite foo. . rewrite bar.")
    with pytest.raises(EmptyStep):
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
    with pytest.raises(UnterminatedProof):
        parse_library("Lemma f : x = y.\nProof. by [].\n", "t")


def test_unterminated_proof_before_next_lemma():
    src = ("Lemma f : x = y.\nProof. by [].\n"
           "Lemma g : x = z.\nProof. by []. Qed.\n")
    with pytest.raises(UnterminatedProof):
        parse_library(src, "t")


@pytest.mark.parametrize("name", sorted(GOLDEN_SOURCES))
def test_fixture_statements_reprint_identically(name):
    for record in parse_library(GOLDEN_SOURCES[name].read_text(), name):
        assert parse_term_tree(format_term(record.statement)) == record.statement


def test_malformed_statement():
    with pytest.raises(MalformedStatement):
        parse_library("Lemma : x = y.\nProof. by []. Qed.", "t")
    with pytest.raises(MalformedStatement):
        parse_library("Lemma noname x = y.\nProof. by []. Qed.", "t")


def test_duplicate_lemma_name():
    src = ("Lemma f : a = b.\nProof. by []. Qed.\n"
           "Lemma f : a = c.\nProof. by []. Qed.\n")
    with pytest.raises(DuplicateLemmaName):
        parse_library(src, "t")


def test_parse_error_carries_location():
    try:
        parse_library("Lemma f : a = b.\nProof. by [].\n", "t", filename="lib.v")
    except UnterminatedProof as exc:
        assert "lib.v:1" in str(exc)
    else:
        pytest.fail("expected UnterminatedProof")


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
# lenient partial proofs


def test_parse_partial_without_qed():
    src = "Lemma q : a = b.\nProof.\nrewrite foo.\nby rewrite bar.\n"
    record = parse_partial(src)
    assert record.name == "q"
    assert len(record.steps) == 2


def test_parse_partial_requires_a_step():
    with pytest.raises(MalformedStatement):
        parse_partial("Lemma q : a = b.\nProof.\n")
    with pytest.raises(MalformedStatement):
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


def test_trace_records_keep_first_seen_lemma_order():
    lines = []
    for name, idx in [("b", 2), ("a", 1), ("b", 1), ("c", 1), ("a", 2)]:
        lines.append(json.dumps({"lemma": name, "library": "l", "step_index": idx, "tactic_line": "by [].",
                                 "goal_before": f"{name}{idx} = x", "subgoals_after": 0}))
    records = parse_trace("\n".join(lines))
    assert [r.name for r in records] == ["b", "a", "c"]
    assert [r.statement.children[0].symbol for r in records] == ["b1", "a1", "c1"]


@pytest.mark.parametrize("parse, text, error, message", [
    (lambda t: proof_steps(t, file="a.v"), "move=> x.\nrewrite (foo].", UnbalancedDelimiters,
     "mismatched ']' at a.v:2"),
    (lambda t: proof_steps(t, file="a.v"), "rewrite {foo.", UnbalancedDelimiters, "unclosed '{' at a.v:1"),
    (parse_term_tree, "f [a", UnbalancedDelimiters, "unclosed '['"),
    (parse_term_tree, "f [a)]", UnbalancedDelimiters, "mismatched ')'"),
    (lambda t: parse_library(t, "l", filename="b.v"), "Lemma x : f [a.\nProof. by []. Qed.",
     MalformedStatement, "b.v:1: bad statement for x: unclosed '['"),
])
def test_unbalanced_group_messages(parse, text, error, message):
    with pytest.raises(error) as err:
        parse(text)
    assert str(err.value) == message
