"""The three parsers against the lemma walks and the tactic-line layer they replaced.

The parsers before the shared lemma reader are copied below verbatim (renamed
with an `oracle` prefix), less the source spans and step indices that records
no longer carry, and so are the tactic-line helpers before the lexer
returned `;`-separated segments (`_Tok` to `_parse_segment`, names unchanged).
Since the parser's error subclasses were folded into `ParseError`, the copies
raise that, and the tactic-line lexer takes no location: as `_tactics` does,
its callers give a delimiter error the line's `FILE:LINE:` prefix.
They share the module's sentence, header and argument classification helpers.
Every input must give equal records, or the same exception class and message.
Two differences are intended.  In `parse_partial` a lemma sentence after the
first lemma and before any closer now ends the body, where the old walk read
it as a tactic named after its keyword.  And a proof without steps is now a
ParseError in `parse_library`, so the copy below checks it too, after its
"never closed" check.
"""

import json
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proofmine.script import (_CONNECTIVE_WORDS, _IDENT_RE, _INDUCTION_TACTICS, _INTRO_TACTICS,
                              _TRACE_FIELDS, LEMMA_KEYWORDS, PROOF_CLOSERS, ArgumentKind,
                              ArgumentToken, LemmaRecord, ParseError, ProofStep, Sentence,
                              TacticApplication, _classify_token, _first_word,
                              _intro_names, _parse_header, _ProofContext, _statement_tree,
                              parse_library, parse_partial, parse_trace, split_sentences)
from proofmine.terms import TermError, TermTree, group_end

from conftest import PARSER_INPUTS, mutated_inputs, random_library_source, random_trace_source


# ---------------------------------------------------------------------------
# the tactic-line helpers before segments were lexed directly


@dataclass(frozen=True)
class _Tok:
    kind: str  # "unit" | "semi" | "colon" | "arrow"
    text: str


def _lex_step_tokens(text: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == ";":
            tokens.append(_Tok("semi", ";"))
            i += 1
            continue
        if c == ":":
            tokens.append(_Tok("colon", ":"))
            i += 1
            continue
        if c == "=" and text[i + 1:i + 2] == ">":
            tokens.append(_Tok("arrow", "=>"))
            i += 2
            continue
        if c in ")]}":
            raise TermError(f"stray {c!r}")
        j = i
        while j < n:
            cj = text[j]
            if cj in "([{":
                j = group_end(text, j)
                continue
            if cj.isspace() or cj in ";:)]}":
                break
            if cj == "=" and text[j + 1:j + 2] == ">":
                break
            j += 1
        tokens.append(_Tok("unit", text[i:j]))
        i = j
    return tokens


def _split_on_semis(tokens: list[_Tok]) -> list[list[_Tok]]:
    segments: list[list[_Tok]] = [[]]
    for tok in tokens:
        if tok.kind == "semi":
            segments.append([])
        else:
            segments[-1].append(tok)
    return segments


def _register_introductions(app: TacticApplication, ctx: _ProofContext) -> None:
    intro_texts = [a.text for a in app.arguments if a.kind is ArgumentKind.INTRO_PATTERN]
    if not intro_texts:
        return
    target = ctx.inductive_names if app.name in _INDUCTION_TACTICS else ctx.hypothesis_names
    target.update(_intro_names(intro_texts))


def _build_arguments(name: str, tokens: list[_Tok], ctx: _ProofContext) -> tuple[ArgumentToken, ...]:
    args: list[ArgumentToken] = []
    zone = name in _INTRO_TACTICS
    for tok in tokens:
        if tok.kind == "colon":
            continue
        if tok.kind == "arrow":
            zone = True
            continue
        if tok.kind != "unit":
            continue
        if not zone and tok.text in _CONNECTIVE_WORDS:
            continue
        kind = _classify_token(tok.text, ctx, intro_zone=zone)
        args.append(ArgumentToken(tok.text, kind))
    return tuple(args)


def _parse_segment(tokens: list[_Tok], ctx: _ProofContext, *, file: str, line: int) -> list[TacticApplication]:
    first = tokens[0]
    if first.kind != "unit":
        raise ParseError(f"tactic expected, got {first.text!r}", file=file, line=line)
    if first.text == "by":
        rest = tokens[1:]
        if rest and rest[0].kind == "unit" and _IDENT_RE.match(rest[0].text) and rest[0].text != "by":
            return [TacticApplication("by")] + _parse_segment(rest, ctx, file=file, line=line)
        app = TacticApplication("by", _build_arguments("by", rest, ctx))
        _register_introductions(app, ctx)
        return [app]
    m = _IDENT_RE.match(first.text)
    if not m:
        raise ParseError(f"tactic expected, got {first.text!r}", file=file, line=line)
    name = m.group(0)
    leftover = first.text[m.end():]
    arg_tokens = ([_Tok("unit", leftover)] if leftover else []) + tokens[1:]
    app = TacticApplication(name, _build_arguments(name, arg_tokens, ctx))
    _register_introductions(app, ctx)
    return [app]


# ---------------------------------------------------------------------------
# the parsers before the shared lemma reader


def oracle_steps_from_sentences(sentences: list[Sentence], ctx: _ProofContext, file: str) -> list[ProofStep]:
    steps: list[ProofStep] = []
    for sen in sentences:
        try:
            tokens = _lex_step_tokens(sen.text)
        except TermError as exc:
            raise ParseError(str(exc), file=file, line=sen.line_start) from exc
        if not tokens:
            raise ParseError("proof step without tokens", file=file, line=sen.line_start)
        apps: list[TacticApplication] = []
        for segment in _split_on_semis(tokens):
            if not segment:
                raise ParseError("empty tactic between ';'", file=file, line=sen.line_start)
            apps.extend(_parse_segment(segment, ctx, file=file, line=sen.line_start))
        steps.append(ProofStep(tactics=tuple(apps)))
    return steps


def oracle_parse_library(source: str, library_tag: str, *, filename: str = "<string>") -> list[LemmaRecord]:
    """Extract every proved lemma from vernacular source text.

    Sentences that are not lemma statements, proof steps, or proof delimiters
    (imports, definitions, ...) are skipped.
    """
    if not library_tag:
        raise ValueError("library_tag must be non-empty")
    sentences = split_sentences(source, filename=filename)
    records: list[LemmaRecord] = []
    seen: set[str] = set()
    intern: dict = {}  # one per file, so equal subterms of its statements are shared
    i = 0
    while i < len(sentences):
        sen = sentences[i]
        if _first_word(sen.text) not in LEMMA_KEYWORDS:
            i += 1
            continue
        name, statement_text = _parse_header(sen, filename)
        if name in seen:
            raise ParseError(f"duplicate lemma {name}", file=filename, line=sen.line_start)
        statement = _statement_tree(name, statement_text, intern, file=filename, line=sen.line_start)
        i += 1
        if i < len(sentences) and _first_word(sentences[i].text) == "Proof":
            i += 1
        body: list[Sentence] = []
        closed = False
        while i < len(sentences):
            nxt = sentences[i]
            word = _first_word(nxt.text)
            if word in PROOF_CLOSERS and word == nxt.text:
                closed = True
                i += 1
                break
            if word in LEMMA_KEYWORDS:
                break
            body.append(nxt)
            i += 1
        if not closed:
            raise ParseError(f"proof of {name} never closed", file=filename, line=sen.line_start)
        if not body:
            raise ParseError(f"proof of {name} has no steps", file=filename, line=sen.line_start)
        steps = oracle_steps_from_sentences(body, _ProofContext(), filename)
        if steps:
            steps[0] = replace(steps[0], goal_before=statement)
        records.append(LemmaRecord(
            name=name,
            statement=statement,
            steps=tuple(steps),
            library=library_tag,
        ))
        seen.add(name)
    return records


def oracle_parse_partial(source: str, *, filename: str = "<query>") -> LemmaRecord:
    """Lenient parse of an unfinished proof: statement plus at least one step; no closer needed."""
    sentences = split_sentences(source, filename=filename)
    i = 0
    while i < len(sentences) and _first_word(sentences[i].text) not in LEMMA_KEYWORDS:
        i += 1
    if i == len(sentences):
        raise ParseError("no lemma statement found", file=filename)
    sen = sentences[i]
    name, statement_text = _parse_header(sen, filename)
    statement = _statement_tree(name, statement_text, {}, file=filename, line=sen.line_start)
    i += 1
    if i < len(sentences) and _first_word(sentences[i].text) == "Proof":
        i += 1
    body: list[Sentence] = []
    for nxt in sentences[i:]:
        word = _first_word(nxt.text)
        if word in PROOF_CLOSERS and word == nxt.text:
            break
        body.append(nxt)
    if not body:
        raise ParseError(f"partial proof of {name} has no steps", file=filename, line=sen.line_start)
    steps = oracle_steps_from_sentences(body, _ProofContext(), filename)
    steps[0] = replace(steps[0], goal_before=statement)
    return LemmaRecord(
        name=name,
        statement=statement,
        steps=tuple(steps),
        library="query",
    )


def oracle_parse_trace(source: str, *, filename: str = "<trace>") -> list[LemmaRecord]:
    """Read per-step trace records with goal text and subgoal counts."""
    per_lemma: dict[str, dict] = {}  # in first-seen order
    for line_no, raw in enumerate(source.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad trace record: {exc}", file=filename, line=line_no)
        if not isinstance(obj, dict):
            raise ParseError("trace record must be a JSON object", file=filename, line=line_no)
        for field, kind in _TRACE_FIELDS.items():
            if field not in obj:
                raise ParseError(f"trace record missing {field!r}", file=filename, line=line_no)
            # bool is an int subclass; true must not read as step 1
            if not isinstance(obj[field], kind) or isinstance(obj[field], bool):
                raise ParseError(f"{field} must be of type {kind.__name__}", file=filename, line=line_no)
        name = obj["lemma"]
        idx = obj["step_index"]
        if idx < 1:
            raise ParseError("step_index must be a positive integer", file=filename, line=line_no)
        if obj["subgoals_after"] < 0:
            raise ParseError("subgoals_after must be a non-negative integer", file=filename, line=line_no)
        entry = per_lemma.setdefault(name, {"library": obj["library"], "steps": {}})
        if obj["library"] != entry["library"]:
            raise ParseError(f"conflicting library tags for {name}", file=filename, line=line_no)
        if idx in entry["steps"]:
            raise ParseError(f"duplicate step {idx} for {name}", file=filename, line=line_no)
        entry["steps"][idx] = (obj["tactic_line"], obj["goal_before"], obj["subgoals_after"], line_no)

    records: list[LemmaRecord] = []
    intern: dict = {}  # one per file, so equal subterms of its goals are shared
    for name, entry in per_lemma.items():
        ctx = _ProofContext()
        steps: list[ProofStep] = []
        statement: TermTree | None = None
        for idx in sorted(entry["steps"]):
            tactic_line, goal_text, subgoals, line_no = entry["steps"][idx]
            text = tactic_line.strip()
            if text.endswith("."):
                text = text[:-1]
            try:
                tokens = _lex_step_tokens(text)
            except TermError as exc:
                raise ParseError(str(exc), file=filename, line=line_no) from exc
            if not tokens:
                raise ParseError(f"empty tactic_line for {name}", file=filename, line=line_no)
            apps: list[TacticApplication] = []
            for segment in _split_on_semis(tokens):
                if not segment:
                    raise ParseError("empty tactic between ';'", file=filename, line=line_no)
                apps.extend(_parse_segment(segment, ctx, file=filename, line=line_no))
            goal = _statement_tree(name, goal_text, intern, file=filename, line=line_no)
            if statement is None:
                statement = goal
            steps.append(ProofStep(tuple(apps), goal_before=goal, subgoals_after=subgoals))
        records.append(LemmaRecord(
            name=name,
            statement=statement,
            steps=tuple(steps),
            library=entry["library"],
        ))
    return records


def outcome(parse, *args, **kwargs):
    """The records parse returns, or the class and message of what it raises."""
    try:
        return parse(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def continues_into_next_lemma(source: str) -> bool:
    """Whether a lemma sentence follows the first lemma before any closer."""
    try:
        sentences = split_sentences(source)
    except ParseError:  # a comment or string never closed: both partial parsers raise it
        return False
    words = [(_first_word(sen.text), sen.text) for sen in sentences]
    starts = [i for i, (word, _) in enumerate(words) if word in LEMMA_KEYWORDS]
    for word, text in words[starts[0] + 1:] if starts else ():
        if word in PROOF_CLOSERS and word == text:
            return False
        if word in LEMMA_KEYWORDS:
            return True
    return False


def assert_parsers_match_oracles(source: str, filename: str) -> None:
    results = [outcome(parse_library, source, "lib", filename=filename),
               outcome(parse_trace, source, filename=filename)]
    assert results[0] == outcome(oracle_parse_library, source, "lib", filename=filename)
    assert results[1] == outcome(oracle_parse_trace, source, filename=filename)
    if not continues_into_next_lemma(source):
        results.append(outcome(parse_partial, source, filename=filename))
        assert results[2] == outcome(oracle_parse_partial, source, filename=filename)
    # every error is a ParseError, which carries its file and line; none is a bare TermError
    assert all(type(result) is not tuple or result[0] is ParseError for result in results)


@pytest.mark.parametrize("path", PARSER_INPUTS, ids=lambda p: p.name)
def test_parsers_match_oracles_on_fixtures(path):
    assert_parsers_match_oracles(path.read_text(encoding="utf-8"), str(path))


def _trace_line(**changes) -> str:
    record = {"lemma": "t", "library": "l", "step_index": 1, "tactic_line": "by [].",
              "goal_before": "x = x", "subgoals_after": 0, **changes}
    return json.dumps(record) + "\n"


EDGE_SOURCES = {
    "duplicate with a bad statement": "Lemma a : x.\nProof. by []. Qed.\nLemma a : (x.\nProof. by []. Qed.\n",
    "duplicate never closed": "Lemma a : x.\nProof. by []. Qed.\nLemma a : x.\nProof. by [].\n",
    "bad statement never closed": "Lemma a : (x.\nProof. by [].\n",
    "closer right after the statement": "Lemma a : x. Qed.\nLemma b : y.\nby []. Defined.\n",
    "closer with an argument": "Lemma a : x.\nProof. by []. Qed foo. Qed.\n",
    "empty step": "Lemma a : x.\nProof. by []. . Qed.\n",
    "empty tactic between semicolons": "Lemma a : x.\nProof. move=> H;; by []. Qed.\n",
    "two Proof sentences": "Lemma a : x.\nProof. Proof. by []. Qed.\n",
    "connective words": "Lemma a : x.\nProof. move=> in H; rewrite H in at. elim: n => [|n IH] with. Qed.\n",
    "by before by": "Lemma a : x.\nProof. by by move. by; by :. Qed.\n",
    "no lemma": "Definition d := 1.\nQed.\n",
    "nameless lemma": "Lemma : x.\nProof. by []. Qed.\n",
    "string never closed": 'Lemma a : x.\nProof. rewrite "s. by []. Qed.\nLemma b : y.\nProof. by []. Qed.\n',
    "comment never closed": "Lemma a : x.\nProof. (* by []. Qed.\nLemma b : y.\nProof. by []. Qed.\n",
    "empty trace tactic line": _trace_line(tactic_line=" . "),
    "trace semicolons": _trace_line(tactic_line="move=> H; ; by []."),
    "trace bad goal": _trace_line(goal_before="(x"),
    "trace empty goal": _trace_line(tactic_line="by []", goal_before=""),
    "trace two steps": _trace_line(step_index=2, tactic_line="elim: n => [|n IH].") + _trace_line(),
}


@pytest.mark.parametrize("source", EDGE_SOURCES.values(), ids=EDGE_SOURCES.keys())
def test_parsers_match_oracles_on_edge_sources(source):
    assert_parsers_match_oracles(source, "edge.v")


def test_parsers_match_oracles_on_random_sources():
    rng = np.random.default_rng(5)
    for trial in range(20):
        assert_parsers_match_oracles(random_library_source(rng, 12, f"r{trial}"), "r.v")
        assert_parsers_match_oracles(random_trace_source(rng, 12, f"t{trial}", "traced"), "t.jsonl")


@settings(max_examples=300, deadline=None)
@given(mutated_inputs())
def test_parsers_match_oracles_on_mutated_sources(case):
    path, source = case
    assert_parsers_match_oracles(source, path.name)


_TACTIC_WORDS = [
    "by", "move", "elim", "intro", "intros", "induction", "case", "rewrite", "apply/foo", "exists",
    "H", "IH", "n", "x", "_", "//", "//=", "/=", "-addnA", "!mulnC", "{2}foo", "[]", "[|n IH]",
    "(addnC n)", "42", "in", "at", "with", "as", "=>", "=", ">", ":", ";", "->", "<-", "(", ")",
    "[", "]", "{", "}", "{n}", "by[]", "move=>", "by:", "7x", ".", "",
]

# words drawn from _TACTIC_WORDS, joined by spaces or glued together
tactic_lines = st.tuples(st.lists(st.sampled_from(_TACTIC_WORDS), max_size=8),
                         st.sampled_from((" ", ""))).map(lambda t: t[1].join(t[0]))


@settings(max_examples=500, deadline=None)
@given(st.lists(tactic_lines, min_size=1, max_size=3))
def test_parsers_match_oracles_on_random_tactic_lines(lines):
    body = "".join(f"{line}.\n" for line in lines)
    assert_parsers_match_oracles(f"Lemma a : x.\nProof.\n{body}Qed.\n", "lines.v")
    trace = "".join(_trace_line(step_index=i, tactic_line=line) for i, line in enumerate(lines, 1))
    assert_parsers_match_oracles(trace, "lines.jsonl")


def test_partial_body_ends_at_the_next_lemma_sentence():
    source = "Lemma first : a = a.\nProof. by [].\nLemma second : b = b.\nProof. by case. Qed.\n"
    assert continues_into_next_lemma(source)
    record = parse_partial(source)
    assert [[app.name for app in step.tactics] for step in record.steps] == [["by"]]
    # the old walk read the next lemma sentence as a step
    old = oracle_parse_partial(source)
    assert [[app.name for app in step.tactics] for step in old.steps] == [
        ["by"], ["Lemma"], ["Proof"], ["by", "case"]]
    with pytest.raises(ParseError, match="partial proof of first has no steps"):
        parse_partial("Lemma first : a = a.\nLemma second : b = b.\nProof. by []. Qed.\n")
