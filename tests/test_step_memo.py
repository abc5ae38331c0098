"""`extract`'s memos against the per-step path they replace.

`extract` classifies each distinct proof body once per file, and a repeated
body's records share its tactic tuples and its steps after the first.  The
encoder reduces slots 1-4 once per tactic tuple object, keyed on its
identity, and codes each distinct patch once.  It classifies the arguments
of a lemma's first patch_len steps only.  The oracles below are the path it
took before: a fresh context for every proof and `_tactics` for each of its
lines, every step reduced on its own, and each lemma's patch coded on its own.
"""

import json
import random
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proofmine import features
from proofmine.corpus import ingest
from proofmine.features import (_MAX_FOLDED_ARGS, KIND_CODES, LemmaPatch, StepSlots, _decimal_fold,
                                _relation_code, build_encoding_table, extract_features, lemma_patches)
from proofmine.script import (ArgumentKind, ParseError, _lemmas, _parse_header, _ProofContext, _tactics,
                              looks_like_trace, parse_library, parse_trace, split_sentences)
from proofmine.terms import parse_term_tree

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from generate import WORKLOADS, generate, trace_jsonl  # noqa: E402

PATCH_LENS = (1, 5, 8)


# ---------------------------------------------------------------------------
# oracles: the per-step path


def proof_tactics_oracle(lines) -> tuple:
    """Each command line's applications, classified in order against one fresh context."""
    ctx = _ProofContext()
    return tuple(_tactics(line, ctx, "empty step", file="<oracle>", line=0) for line in lines)


def trace_command(tactic_line: str) -> str:
    text = tactic_line.strip()
    return text[:-1] if text.endswith(".") else text


def expected_steps(source: str) -> dict[str, list[tuple]]:
    """Per lemma: its command lines, and for a trace each step's goal text and subgoal count."""
    if looks_like_trace(source):
        by_lemma: dict[str, dict] = {}
        for line in source.splitlines():
            if line.strip():
                record = json.loads(line)
                by_lemma.setdefault(record["lemma"], {})[record["step_index"]] = record
        return {name: [(trace_command(steps[i]["tactic_line"]), steps[i]["goal_before"],
                        steps[i]["subgoals_after"]) for i in sorted(steps)]
                for name, steps in by_lemma.items()}
    return {_parse_header(sen, "<oracle>")[0]: [(step.text, None, None) for step in body]
            for sen, body, _ in _lemmas(split_sentences(source))}


def step_slots_oracle(step) -> StepSlots:
    kinds = [arg.kind for app in step.tactics for arg in app.arguments]
    return StepSlots(
        tuple(app.name for app in step.tactics),
        _decimal_fold([KIND_CODES[k] for k in kinds[:_MAX_FOLDED_ARGS]]),
        _relation_code(kinds),
        step.goal_before.top_symbols() if step.goal_before is not None else None,
        float(step.subgoals_after) if step.subgoals_after is not None else -1.0,
    )


def patch_oracle(record, patch_len: int) -> LemmaPatch:
    return LemmaPatch(record.name, record.library,
                      tuple(step_slots_oracle(step) for step in record.steps[:patch_len]))


def parsed_and_checked(source: str, tag: str, symbols: set[str]):
    """The file's records, each checked against the per-step parse, and each patch length's patches
    against the per-step reduction."""
    records = (parse_trace(source, symbols=symbols) if looks_like_trace(source)
               else parse_library(source, tag, symbols=symbols))
    expected = expected_steps(source)
    assert [r.name for r in records] == list(expected)
    for record in records:
        steps = expected[record.name]
        assert tuple(step.tactics for step in record.steps) == proof_tactics_oracle([s[0] for s in steps])
        for pos, (step, (_, goal, subgoals)) in enumerate(zip(record.steps, steps)):
            if goal is None:  # a vernacular step: the statement is the first step's goal
                assert step.goal_before is (record.statement if pos == 0 else None)
                assert step.subgoals_after is None
            else:
                assert step.goal_before == parse_term_tree(goal)
                assert step.subgoals_after == subgoals
    for patch_len in PATCH_LENS:
        assert lemma_patches(records, patch_len) == [patch_oracle(r, patch_len) for r in records]
    return records


def assert_ingest_matches_oracle(paths: list[Path], tags: list[str]) -> None:
    """ingest at each patch length against the per-step parse and reduction and per-lemma coding."""
    symbols: set[str] = set()
    records = []
    for path, tag in zip(paths, tags):
        records += parsed_and_checked(path.read_text(encoding="utf-8"), tag, symbols)
    records.sort(key=lambda r: r.name)
    table = build_encoding_table({app.name for r in records for s in r.steps for app in s.tactics}, symbols)
    for patch_len in PATCH_LENS:
        corpus = ingest(paths, tags, patch_len=patch_len)
        raw = np.array([extract_features(patch_oracle(r, patch_len), table, patch_len) for r in records],
                       dtype=np.float64)
        assert corpus.names == [r.name for r in records]
        assert corpus.libraries == {r.name: r.library for r in records}
        assert corpus.table == table
        assert corpus.raw.shape == raw.shape and corpus.raw.tobytes() == raw.tobytes()


# ---------------------------------------------------------------------------
# the benchmark corpora


def dup_kmeans_as_traces(seed: int, out_dir: Path) -> list[tuple[str, Path]]:
    """The dup-kmeans lemmas written as trace files: shared tactic lines under distinct goals."""
    workload = WORKLOADS["dup-kmeans"]
    rng = random.Random(f"{workload.name} as traces:{seed}")
    libraries = []
    for lib in range(workload.libraries):
        tag = f"lib{lib}"
        lemmas = [(f"{tag}_{i:04d}", *workload.lemma(rng)) for i in range(workload.lemmas_per_library)]
        path = out_dir / f"{tag}.jsonl"
        path.write_text(trace_jsonl(rng, tag, lemmas, workload.depth), encoding="utf-8")
        libraries.append((tag, path))
    return libraries


@pytest.mark.parametrize("name", ["dup-kmeans", "long-proofs-ff", "dup-kmeans as traces"])
def test_memos_match_the_per_step_path_on_the_benchmark_corpora(tmp_path, name):
    if name == "dup-kmeans as traces":
        libraries = dup_kmeans_as_traces(12, tmp_path)
    else:
        libraries = generate(WORKLOADS[name], 12, tmp_path).libraries
    assert_ingest_matches_oracle([p for _, p in libraries], [t for t, _ in libraries])


# ---------------------------------------------------------------------------
# generated libraries that repeat proofs whose lines depend on their context

# lines whose arguments are classified by what earlier lines of the proof introduced
COMMAND_LINES = [
    "move=> H", "rewrite H", "apply H", "elim: n => [|n IHn]", "rewrite IHn", "by rewrite IHn addn0",
    "case: b => [H|]", "move=> x y; apply: H", "by []", "intros a H", "exact IHn", "rewrite -IHn H",
    "split; apply: H IHn", "by move=> H; rewrite /= H",
]
STATEMENTS = ["x = y", "foo (bar x) = y", "P x -> Q x", "forall n, f n = g n", "idemq gadget", "okq p"]
GOALS = ["a = b", "h (k a) = b", "R a", "forall m, m + 0 = m", "a <= b /\\ b <= c"]


def vernacular_source(lemmas) -> str:
    return "".join(f"Lemma {name} : {statement}.\nProof.\n" + "".join(f"{line}.\n" for line in body)
                   + "Qed.\n\n" for name, statement, body, _ in lemmas)


def trace_source(lemmas, library: str) -> str:
    return "".join(json.dumps({"lemma": name, "library": library, "step_index": pos,
                               "tactic_line": f"{line}.", "goal_before": goal,
                               "subgoals_after": subgoals}) + "\n"
                   for name, _, body, goals in lemmas
                   for pos, (line, (goal, subgoals)) in enumerate(zip(body, goals), start=1))


@st.composite
def repeating_libraries(draw) -> list[tuple[str, str, str]]:
    """(tag, kind, source) per file; a file's lemmas draw their bodies from a few shared ones."""
    files = []
    for f in range(draw(st.integers(1, 3))):
        bodies = draw(st.lists(st.lists(st.sampled_from(COMMAND_LINES), min_size=1, max_size=6),
                               min_size=1, max_size=4))
        lemmas = []
        for i in range(draw(st.integers(1, 10))):
            body = draw(st.sampled_from(bodies))
            goals = [(draw(st.sampled_from(GOALS)), draw(st.integers(0, 3))) for _ in body]
            lemmas.append((f"f{f}_{i}", draw(st.sampled_from(STATEMENTS)), body, goals))
        kind = draw(st.sampled_from(["v", "jsonl"]))
        files.append((f"t{f}", kind, vernacular_source(lemmas) if kind == "v" else trace_source(lemmas, f"t{f}")))
    return files


@settings(max_examples=60, deadline=None)
@given(repeating_libraries())
def test_memos_match_the_per_step_path_on_generated_libraries(files):
    with tempfile.TemporaryDirectory() as work:
        paths = []
        for pos, (_, kind, source) in enumerate(files):
            paths.append(Path(work) / f"{pos}.{kind}")
            paths[-1].write_text(source, encoding="utf-8")
        assert_ingest_matches_oracle(paths, [tag for tag, _, _ in files])


# ---------------------------------------------------------------------------
# what a memo with a wrong key gets wrong


def kinds_of(record) -> list[list[ArgumentKind]]:
    return [[arg.kind for app in step.tactics for arg in app.arguments] for step in record.steps]


@pytest.mark.parametrize("kind", ["v", "jsonl"])
@pytest.mark.parametrize("first", ["bound", "free"])
def test_a_line_is_classified_by_the_names_its_own_proof_introduced(tmp_path, kind, first):
    bound = ["move=> H", "rewrite H"]  # H is the proof's hypothesis
    free = ["rewrite H"]  # H is a lemma of the library
    induction = ["elim: n => [|n H]", "rewrite H"]  # H is the induction hypothesis
    bodies = [bound, free] if first == "bound" else [free, bound]
    lemmas = [(f"l{i}", "x = y", body, [("a = b", 1)] * len(body))
              for i, body in enumerate(bodies * 2 + [induction])]
    source = vernacular_source(lemmas) if kind == "v" else trace_source(lemmas, "t")
    records = {r.name: r for r in parsed_and_checked(source, "t", set())}
    for i, body in enumerate(bodies * 2):
        want = ArgumentKind.HYPOTHESIS if body is bound else ArgumentKind.EXTERNAL_LEMMA
        assert kinds_of(records[f"l{i}"])[-1] == [want]
    assert kinds_of(records["l4"])[-1] == [ArgumentKind.INDUCTIVE_HYPOTHESIS]
    path = tmp_path / f"lib.{kind}"
    path.write_text(source, encoding="utf-8")
    assert_ingest_matches_oracle([path], ["t"])


def test_one_body_under_two_statements_keeps_each_goal(tmp_path):
    source = ("Lemma a : foo x = y.\nProof.\nby case.\nrewrite addnC.\nQed.\n"
              "Lemma b : bar (baz x).\nProof.\nby case.\nrewrite addnC.\nQed.\n")
    a, b = lemma_patches(parsed_and_checked(source, "t", set()))
    assert a.steps[0].goal == ("=", "foo", "y") and b.steps[0].goal == ("bar", "baz", None)
    assert a.steps[1:] == b.steps[1:]
    path = tmp_path / "lib.v"
    path.write_text(source, encoding="utf-8")
    corpus = ingest([path], ["t"])
    assert not np.array_equal(corpus.raw[0, 4:7], corpus.raw[1, 4:7])
    assert np.array_equal(corpus.raw[0, 8:], corpus.raw[1, 8:])
    assert_ingest_matches_oracle([path], ["t"])


def test_one_body_under_two_statements_shares_its_objects_and_patches_match(tmp_path):
    # the parser shares a repeated body's tactic tuples and later steps; lemma_patches' memo,
    # keyed on a tuple's identity, hits on the shared tuples and reduces the others on their own
    source = ("Lemma a : foo x = y.\nProof.\nmove=> H.\nrewrite H.\nby [].\nQed.\n"
              "Lemma b : bar (baz x).\nProof.\nmove=> H.\nrewrite H.\nby [].\nQed.\n"
              "Lemma c : foo x = y.\nProof.\nby [].\nQed.\n")
    a, b, c = parsed_and_checked(source, "t", set())
    assert a.steps[0] is not b.steps[0] and a.steps[0].goal_before is not b.steps[0].goal_before
    assert a.steps[0].tactics is b.steps[0].tactics
    assert all(x is y for x, y in zip(a.steps[1:], b.steps[1:]))
    # another body's equal line is its own object, reduced on its own to the same slots
    assert c.steps[0].tactics == a.steps[2].tactics and c.steps[0].tactics is not a.steps[2].tactics
    for patch_len in PATCH_LENS:
        pa, pb, pc = lemma_patches([a, b, c], patch_len)
        assert pa.steps[0] != pb.steps[0] and pa.steps[1:] == pb.steps[1:]
        assert patch_len < 3 or pc.steps[0][:3] == pa.steps[2][:3]
    path = tmp_path / "lib.v"
    path.write_text(source, encoding="utf-8")
    assert_ingest_matches_oracle([path], ["t"])


@pytest.mark.parametrize("kind", ["v", "jsonl"])
def test_a_repeated_statement_and_body_under_a_new_name_matches_the_per_step_path(tmp_path, kind):
    # as in the benchmark libraries: a lemma repeats an earlier one's statement and body under its
    # own name, and that body also stands under another statement
    body = ["move=> H", "elim: n => [|n IHn]", "rewrite H IHn", "by []"]
    other = ["rewrite H", "by []"]
    goals = [("a = b", 1), ("f a = b", 2), ("R a", 1), ("b = b", 0)]
    lemmas = [("l0", "x = y", body, goals), ("l1", "P x -> Q x", other, goals[:2]),
              ("l2", "x = y", body, goals), ("l3", "foo (bar x) = y", body, goals[::-1]),
              ("l4", "P x -> Q x", other, goals[:2]), ("l5", "x = y", body, goals)]
    source = vernacular_source(lemmas) if kind == "v" else trace_source(lemmas, "t")
    records = {r.name: r for r in parsed_and_checked(source, "t", set())}
    for patch_len in PATCH_LENS:
        p0, p2, p3, p5 = lemma_patches([records[n] for n in ("l0", "l2", "l3", "l5")], patch_len)
        assert p0.steps == p2.steps == p5.steps
        assert [s[:3] for s in p3.steps] == [s[:3] for s in p0.steps] and p3.steps[0] != p0.steps[0]
    path = tmp_path / f"lib.{kind}"
    path.write_text(source, encoding="utf-8")
    assert_ingest_matches_oracle([path], ["t"])


@pytest.mark.parametrize("patch_len", PATCH_LENS)
def test_slots_1_to_4_are_reduced_at_most_once_per_tactic_tuple_object(monkeypatch, patch_len):
    # the first steps of l0, l1 and l3 are three step objects that share one tactic tuple
    source = vernacular_source([(f"l{i}", statement, body, None) for i, (statement, body) in enumerate(
        [("x = y", ["move=> H", "rewrite H", "by []"]), ("P x", ["move=> H", "rewrite H", "by []"]),
         ("x = y", ["rewrite H", "by []"]), ("x = y", ["move=> H", "rewrite H", "by []"])])])
    records = parse_library(source, "t")
    reduced = []
    relation_code = features._relation_code
    monkeypatch.setattr(features, "_relation_code", lambda kinds: reduced.append(kinds) or relation_code(kinds))
    assert lemma_patches(records, patch_len) == [patch_oracle(r, patch_len) for r in records]
    assert len(reduced) <= len({id(step.tactics) for r in records for step in r.steps[:patch_len]})


def test_equal_records_from_separate_parses_reduce_alike():
    # records of two parses share no object, so no id is reused across them and none hits
    source = vernacular_source([(f"l{i}", "x = y", ["move=> H", "rewrite H"], None) for i in range(3)])
    first, second = parse_library(source, "t"), parse_library(source, "t")
    assert first == second
    records = first + second
    for patch_len in PATCH_LENS:
        assert lemma_patches(records, patch_len) == [patch_oracle(r, patch_len) for r in records]


def names_only(step) -> tuple[str, ...]:
    return tuple(app.name for app in step.tactics)


@pytest.mark.parametrize("kind", ["v", "jsonl"])
@pytest.mark.parametrize("patch_len", [1, 2, 5])
def test_steps_past_patch_len_keep_only_their_names(kind, patch_len):
    body = ["move=> H x", "rewrite H IHn", "elim: n => [|n IHn]", "apply: (f x) H", "by rewrite /= IHn addn0"]
    lemmas = [(f"l{i}", "x = y", body[:i + 1], [("a = b", 1)] * (i + 1)) for i in range(len(body))] * 2
    lemmas = [(f"{name}_{pos}", *rest) for pos, (name, *rest) in enumerate(lemmas)]
    source = vernacular_source(lemmas) if kind == "v" else trace_source(lemmas, "t")
    parse = (lambda **kw: parse_trace(source, **kw)) if kind == "jsonl" else (
        lambda **kw: parse_library(source, "t", **kw))
    full, short = parse(), parse(patch_len=patch_len)
    assert [r.name for r in full] == [r.name for r in short]
    for whole, cut in zip(full, short):
        assert whole.steps[:patch_len] == cut.steps[:patch_len]
        for step, kept in zip(whole.steps[patch_len:], cut.steps[patch_len:]):
            assert names_only(step) == names_only(kept)
            assert all(app.arguments == () for app in kept.tactics)
            assert (step.goal_before, step.subgoals_after) == (kept.goal_before, kept.subgoals_after)
        assert lemma_patches([whole], patch_len) == lemma_patches([cut], patch_len)


def test_trace_lemmas_with_equal_lines_keep_their_goals_and_subgoals(tmp_path):
    body = ["move=> H", "rewrite H", "by []"]
    lemmas = [("a", None, body, [("a = b", 2), ("f a = g b", 1), ("R a", 0)]),
              ("b", None, body, [("p <= q", 0), ("h (k p)", 3), ("forall m, m = m", 1)])]
    source = trace_source(lemmas, "t")
    a, b = lemma_patches(parsed_and_checked(source, "t", set()))
    assert [s[:3] for s in a.steps] == [s[:3] for s in b.steps]
    assert [s.goal for s in a.steps] != [s.goal for s in b.steps]
    assert [s.subgoals for s in a.steps] == [2.0, 1.0, 0.0]
    assert [s.subgoals for s in b.steps] == [0.0, 3.0, 1.0]
    path = tmp_path / "lib.jsonl"
    path.write_text(source, encoding="utf-8")
    assert_ingest_matches_oracle([path], ["t"])


# ---------------------------------------------------------------------------
# the first error of a file is the per-step path's, also after memo hits


def trace_lemma(name: str, steps) -> list[str]:
    """Trace record lines for (step_index, tactic line, goal) triples."""
    return [json.dumps({"lemma": name, "library": "t", "step_index": idx, "tactic_line": line,
                        "goal_before": goal, "subgoals_after": 1}) for idx, line, goal in steps]


def vernacular_lemma(name: str, statement: str, lines, closer: str = "Qed.") -> list[str]:
    return [f"Lemma {name} : {statement}.", "Proof.", *(f"{line}." for line in lines), closer]


GOOD = [(1, "move=> H.", "a = b"), (2, "rewrite H.", "f a = b"), (3, "by [].", "b = b")]
BODY = ["move=> H", "rewrite H", "by []"]

# each case: the lemmas of one file, the last of which holds the first error, and where it is
ERROR_CASES = {
    "bad goal after hits": (
        "jsonl", [trace_lemma("a", GOOD), trace_lemma("b", GOOD),
                  trace_lemma("c", [GOOD[0], (2, "rewrite H.", "f (a = b"), GOOD[2]])],
        "ParseError", ":8: bad statement for c: "),
    "bad goal before a missing step, after hits": (
        "jsonl", [trace_lemma("a", GOOD), trace_lemma("b", GOOD),
                  trace_lemma("c", [GOOD[0], (2, "rewrite H.", "f (a = b"), (4, "by [].", "b = b")])],
        "ParseError", ":8: bad statement for c: "),
    "missing step after hits": (
        "jsonl", [trace_lemma("a", GOOD), trace_lemma("b", GOOD),
                  trace_lemma("c", [GOOD[0], GOOD[1], (4, "by [].", "b = b")])],
        "ParseError", ":9: missing step 3 for c"),
    "bad tactic at step 2, missing step 3": (
        "jsonl", [trace_lemma("a", GOOD), trace_lemma("b", GOOD),
                  trace_lemma("c", [GOOD[0], (2, "-> H.", "f a = b"), (4, "by [].", "b = b")])],
        "ParseError", ":8: tactic expected, got '->'"),
    "bad tactic before a bad goal": (
        "jsonl", [trace_lemma("a", GOOD), trace_lemma("b", GOOD),
                  trace_lemma("c", [GOOD[0], (2, "-> H.", "f (a"), GOOD[2]])],
        "ParseError", ":8: tactic expected, got '->'"),
    "bad statement after hits": (
        "v", [vernacular_lemma("a", "x = y", BODY), vernacular_lemma("b", "x = y", BODY),
              vernacular_lemma("c", "x = (y", BODY)],
        "ParseError", ":13: bad statement for c: "),
    "empty tactic after hits": (
        "v", [vernacular_lemma("a", "x = y", BODY), vernacular_lemma("b", "x = y", BODY),
              vernacular_lemma("c", "x = y", [*BODY, "by ;"])],
        "ParseError", ":18: empty tactic between ';'"),
    "unclosed proof after hits": (
        "v", [vernacular_lemma("a", "x = y", BODY), vernacular_lemma("b", "x = y", BODY),
              vernacular_lemma("c", "x = y", BODY, closer="")],
        "ParseError", ":13: proof of c never closed"),
}


def first_error(kind: str, lemmas: list[list[str]], **parse_args) -> ParseError:
    source = "".join(line + "\n" for lines in lemmas for line in lines)
    with pytest.raises(ParseError) as caught:
        if kind == "jsonl":
            parse_trace(source, filename="lib.jsonl", **parse_args)
        else:
            parse_library(source, "t", filename="lib.v", **parse_args)
    return caught.value


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_the_first_error_after_memo_hits_is_the_per_step_one(case):
    kind, lemmas, error_type, where = ERROR_CASES[case]
    error = first_error(kind, lemmas)
    assert type(error).__name__ == error_type
    assert where in str(error)
    # the same file with the lemmas before the bad one blanked: no memo entry, same lines
    blanked = [[""] * len(lines) for lines in lemmas[:-1]] + lemmas[-1:]
    alone = first_error(kind, blanked)
    assert (type(alone), str(alone)) == (type(error), str(error))


@pytest.mark.parametrize("case", list(ERROR_CASES))
@pytest.mark.parametrize("patch_len", [1, 5])
def test_steps_left_unclassified_report_the_same_first_error(case, patch_len):
    # only argument classification is skipped past patch_len, and it raises nothing
    kind, lemmas, _, _ = ERROR_CASES[case]
    error, cut = first_error(kind, lemmas), first_error(kind, lemmas, patch_len=patch_len)
    assert (type(cut), str(cut)) == (type(error), str(error))


def test_the_first_lemma_without_steps_in_file_order_is_reported(tmp_path):
    path = tmp_path / "lib.v"
    path.write_text("Lemma b : x = x.\nProof.\nQed.\nLemma c : x = x.\nProof.\nby [].\nQed.\n"
                    "Lemma a : y = y.\nProof.\nQed.\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:1: proof of b has no steps$"):
        ingest([path], ["t"])
