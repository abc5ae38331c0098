import json

import pytest

from proofmine.script import (ArgumentKind, DuplicateLemmaName, EmptyStep, MalformedStatement,
                              ParseError, UnterminatedProof, classify_argument, parse_library,
                              parse_partial, parse_trace, split_sentences, split_steps)

from conftest import GOLDEN_SOURCES, compare_with_golden, load_golden


# ---------------------------------------------------------------------------
# step splitting


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
    steps = split_steps("move => M m nilpotent.")
    assert len(steps) == 1
    assert [t.name for t in steps[0].tactics] == ["move"]
    args = steps[0].tactics[0].arguments
    assert [a.text for a in args] == ["M", "m", "nilpotent"]
    assert all(a.kind is ArgumentKind.INTRO_PATTERN for a in args)


def test_by_rewrite_normalization():
    steps = split_steps("by rewrite big_distrr mulmxBr mul1mx.")
    assert len(steps) == 1
    assert [t.name for t in steps[0].tactics] == ["by", "rewrite"]
    assert len(steps[0].tactics[1].arguments) == 3


def test_semicolon_composition_matches_oracle():
    line = "rewrite A; elim: s => //= x."
    expected_apps = count_top_level_semis(line.rstrip(".")) + 1
    steps = split_steps(line)
    assert len(steps) == 1
    assert len(steps[0].tactics) == expected_apps


def test_bracketed_semicolons_do_not_split():
    line = "exists [:: a; b; c]."
    assert count_top_level_semis(line.rstrip(".")) == 0
    steps = split_steps(line)
    assert len(steps[0].tactics) == 1


def test_by_with_empty_brackets():
    steps = split_steps("by [].")
    (app,) = steps[0].tactics
    assert app.name == "by"
    assert [(a.text, a.kind) for a in app.arguments] == [("[]", ArgumentKind.TERM_EXPR)]


def test_empty_step_rejected():
    with pytest.raises(EmptyStep):
        split_steps("rewrite foo. . rewrite bar.")
    with pytest.raises(EmptyStep):
        split_steps("rewrite foo;; rewrite bar.")


def test_unknown_tactic_parses_opaque():
    steps = split_steps("deskolem_apply BI_fctExists.")
    (app,) = steps[0].tactics
    assert app.name == "deskolem_apply"
    assert app.arguments[0].kind is ArgumentKind.EXTERNAL_LEMMA


def test_view_application_splits_leading_identifier():
    steps = split_steps("apply/invmx_uniq.")
    (app,) = steps[0].tactics
    assert app.name == "apply"
    assert app.arguments[0].text == "/invmx_uniq"
    assert app.arguments[0].kind is ArgumentKind.EXTERNAL_LEMMA


# ---------------------------------------------------------------------------
# classification


def demo_lemma():
    src = (
        "Lemma mulnDl : left_distributive muln addn.\n"
        "Proof. by move=> m1 m2 n; elim: m1 => //= m1 IHm; rewrite -addnA -IHm. Qed.\n"
    )
    return parse_library(src, "nat")[0]


def test_classify_inductive_hypothesis_after_elim():
    lemma = demo_lemma()
    token = classify_argument("IHm", lemma, 1)
    assert token.kind is ArgumentKind.INDUCTIVE_HYPOTHESIS


def test_classify_wildcard():
    lemma = demo_lemma()
    assert classify_argument("_", lemma, 1).kind is ArgumentKind.WILDCARD
    assert classify_argument("//=", lemma, 1).kind is ArgumentKind.WILDCARD


def test_classify_flagged_external_lemma():
    lemma = demo_lemma()
    assert classify_argument("-!addnA", lemma, 1).kind is ArgumentKind.EXTERNAL_LEMMA
    assert classify_argument("addnA", lemma, 1).kind is ArgumentKind.EXTERNAL_LEMMA


def test_classify_numeric_and_term():
    lemma = demo_lemma()
    assert classify_argument("42", lemma, 1).kind is ArgumentKind.NUMERIC_CONSTANT
    assert classify_argument("(addnC n)", lemma, 1).kind is ArgumentKind.TERM_EXPR


def test_classify_is_deterministic():
    lemma = demo_lemma()
    kinds = {classify_argument("IHm", lemma, 1).kind for _ in range(5)}
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
    from proofmine.terms import format_term, parse_term_tree
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


def test_goal_only_on_first_step_in_static_mode():
    src = "Lemma two : a = b.\nProof. rewrite u. by rewrite v. Qed.\n"
    record = parse_library(src, "t")[0]
    assert record.steps[0].goal_before is not None
    assert record.steps[1].goal_before is None
    assert all(s.subgoals_after is None for s in record.steps)


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
