"""Parser for a compact Coq/SSReflect-style vernacular subset.

Covered forms: `Lemma|Theorem|Corollary|Fact <name> <binders> : <statement>.`
followed by an optional `Proof.` sentinel, dot-terminated tactic command lines,
and a `Qed.`/`Defined.` closer.  Command lines may compose tactics with `;`,
`by tac` closers, `=>` intro patterns, and `:` discharge lists.  Tactics outside
the known set parse as opaque applications with best-effort argument lexing.

A second input format carries one JSON object per line with per-step goal text
and subgoal counts ("proofmine trace v1"); see parse_trace.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from enum import Enum

from .terms import TermError, TermTree, UnbalancedDelimiters, parse_term_tree


class ParseError(ValueError):
    def __init__(self, message: str, *, file: str | None = None, line: int | None = None):
        self.file = file or "<input>"
        self.line = line
        loc = self.file if line is None else f"{self.file}:{line}"
        super().__init__(f"{loc}: {message}")


class UnterminatedProof(ParseError):
    pass


class MalformedStatement(ParseError):
    pass


class DuplicateLemmaName(ParseError):
    pass


class EmptyStep(ParseError):
    pass


class ArgumentKind(str, Enum):
    HYPOTHESIS = "hypothesis"
    EXTERNAL_LEMMA = "external_lemma"
    INDUCTIVE_HYPOTHESIS = "inductive_hypothesis"
    NUMERIC_CONSTANT = "numeric_constant"
    TERM_EXPR = "term_expr"
    WILDCARD = "wildcard"
    INTRO_PATTERN = "intro_pattern"


@dataclass(frozen=True)
class ArgumentToken:
    text: str
    kind: ArgumentKind

    def to_dict(self) -> dict:
        return {"text": self.text, "kind": self.kind.value}

    @classmethod
    def from_dict(cls, data: dict) -> "ArgumentToken":
        return cls(data["text"], ArgumentKind(data["kind"]))


@dataclass(frozen=True)
class TacticApplication:
    name: str
    arguments: tuple[ArgumentToken, ...] = ()

    def to_dict(self) -> dict:
        return {"name": self.name, "arguments": [a.to_dict() for a in self.arguments]}

    @classmethod
    def from_dict(cls, data: dict) -> "TacticApplication":
        args = tuple(ArgumentToken.from_dict(a) for a in data.get("arguments", ()))
        return cls(data["name"], args)


@dataclass(frozen=True)
class ProofStep:
    index: int
    tactics: tuple[TacticApplication, ...]
    goal_before: TermTree | None = None
    subgoals_after: int | None = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "tactics": [t.to_dict() for t in self.tactics],
            "goal_before": self.goal_before.to_dict() if self.goal_before else None,
            "subgoals_after": self.subgoals_after,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProofStep":
        goal = data.get("goal_before")
        return cls(
            index=data["index"],
            tactics=tuple(TacticApplication.from_dict(t) for t in data["tactics"]),
            goal_before=TermTree.from_dict(goal) if goal else None,
            subgoals_after=data.get("subgoals_after"),
        )


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line_start: int
    line_end: int

    def to_dict(self) -> dict:
        return {"file": self.file, "line_start": self.line_start, "line_end": self.line_end}

    @classmethod
    def from_dict(cls, data: dict) -> "SourceSpan":
        return cls(data["file"], data["line_start"], data["line_end"])


@dataclass(frozen=True)
class LemmaRecord:
    name: str
    statement: TermTree
    steps: tuple[ProofStep, ...]
    library: str
    source_span: SourceSpan

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement.to_dict(),
            "steps": [s.to_dict() for s in self.steps],
            "library": self.library,
            "source_span": self.source_span.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LemmaRecord":
        return cls(
            name=data["name"],
            statement=TermTree.from_dict(data["statement"]),
            steps=tuple(ProofStep.from_dict(s) for s in data["steps"]),
            library=data["library"],
            source_span=SourceSpan.from_dict(data["source_span"]),
        )


LEMMA_KEYWORDS = frozenset({"Lemma", "Theorem", "Corollary", "Fact"})
PROOF_CLOSERS = frozenset({"Qed", "Defined"})
WILDCARD_TOKENS = frozenset({"_", "//", "//=", "/="})

KNOWN_TACTICS = frozenset({
    "move", "case", "elim", "apply", "rewrite", "exists", "exact", "intro",
    "intros", "split", "by", "unfold", "induction", "destruct", "simpl",
    "trivial", "tauto", "contradiction", "auto",
})

_INDUCTION_TACTICS = frozenset({"elim", "induction"})
_INTRO_TACTICS = frozenset({"intro", "intros"})
_CONNECTIVE_WORDS = frozenset({"in", "with", "as", "at"})

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


# ---------------------------------------------------------------------------
# sentence layer


@dataclass(frozen=True)
class Sentence:
    text: str
    line_start: int
    line_end: int


def split_sentences(source: str) -> list[Sentence]:
    """Split on '.' followed by whitespace/EOF, outside comments and strings.

    Dots inside qualified names or notations like `m.+1` never precede
    whitespace, so they survive unsplit.  Comment text is replaced by one
    space; an all-whitespace chunk between two terminators yields an empty
    sentence so proof parsing can reject it.
    """
    sentences: list[Sentence] = []
    buf: list[str] = []
    line = 1
    start_line: int | None = None
    comment_depth = 0
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
                sentences.append(Sentence(text, start_line if start_line else line, line))
                buf = []
                start_line = None
                i += 1
                continue
        if start_line is None and not c.isspace():
            start_line = line
        buf.append(c)
        i += 1
    trailing = "".join(buf).strip()
    if trailing:
        sentences.append(Sentence(trailing, start_line if start_line else line, line))
    return sentences


def _first_word(text: str) -> str | None:
    m = _IDENT_RE.match(text)
    return m.group(0) if m else None


# ---------------------------------------------------------------------------
# tactic command-line lexer


@dataclass(frozen=True)
class _Tok:
    kind: str  # "unit" | "semi" | "colon" | "arrow"
    text: str


_GROUP_CLOSERS = {"(": ")", "[": "]", "{": "}"}


def _scan_group(text: str, start: int, *, file: str, line: int) -> int:
    stack: list[str] = []
    i = start
    while i < len(text):
        c = text[i]
        if c in _GROUP_CLOSERS:
            stack.append(_GROUP_CLOSERS[c])
        elif c in ")]}":
            if not stack or stack[-1] != c:
                raise UnbalancedDelimiters(f"mismatched {c!r} at {file}:{line}")
            stack.pop()
            if not stack:
                return i + 1
        i += 1
    raise UnbalancedDelimiters(f"unclosed {text[start]!r} at {file}:{line}")


def _lex_step_tokens(text: str, *, file: str, line: int) -> list[_Tok]:
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
            raise UnbalancedDelimiters(f"stray {c!r} at {file}:{line}")
        j = i
        while j < n:
            cj = text[j]
            if cj in _GROUP_CLOSERS:
                j = _scan_group(text, j, file=file, line=line)
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


# ---------------------------------------------------------------------------
# argument classification


class _ProofContext:
    """Names introduced so far in one proof, split by introducing tactic."""

    def __init__(self) -> None:
        self.hypothesis_names: set[str] = set()
        self.inductive_names: set[str] = set()


def _is_whole_group(text: str) -> bool:
    if not text or text[0] not in _GROUP_CLOSERS:
        return False
    try:
        return _scan_group(text, 0, file="<token>", line=0) == len(text)
    except UnbalancedDelimiters:
        return False


def _strip_argument_flags(text: str) -> str:
    """Drop rewrite/view decorations: `!`, `-`, `/`, `{..}` and `[..]` selectors."""
    out = text
    while out:
        if out[0] in "!-":
            out = out[1:]
            continue
        if out[0] == "/" and len(out) > 1:
            out = out[1:]
            continue
        if out[0] in "{[":
            try:
                end = _scan_group(out, 0, file="<token>", line=0)
            except UnbalancedDelimiters:
                break
            if end < len(out):
                out = out[end:]
                continue
            break
        break
    return out


def _classify_token(text: str, ctx: _ProofContext, *, intro_zone: bool) -> ArgumentKind:
    if text in WILDCARD_TOKENS:
        return ArgumentKind.WILDCARD
    if intro_zone:
        return ArgumentKind.INTRO_PATTERN
    if text.isdigit():
        return ArgumentKind.NUMERIC_CONSTANT
    if _is_whole_group(text):
        return ArgumentKind.TERM_EXPR
    core = _strip_argument_flags(text)
    if _IDENT_RE.fullmatch(core):
        if core in ctx.inductive_names:
            return ArgumentKind.INDUCTIVE_HYPOTHESIS
        if core in ctx.hypothesis_names:
            return ArgumentKind.HYPOTHESIS
        return ArgumentKind.EXTERNAL_LEMMA
    return ArgumentKind.TERM_EXPR


def _intro_names(texts: list[str]) -> list[str]:
    names = []
    for text in texts:
        for piece in re.split(r"[\s|\[\]\(\)\{\}]+", text):
            if not piece or piece in WILDCARD_TOKENS or piece in ("->", "<-"):
                continue
            if _IDENT_RE.fullmatch(piece):
                names.append(piece)
    return names


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
        raise MalformedStatement(f"tactic expected, got {first.text!r}", file=file, line=line)
    if first.text == "by":
        rest = tokens[1:]
        if rest and rest[0].kind == "unit" and _IDENT_RE.match(rest[0].text) and rest[0].text != "by":
            return [TacticApplication("by")] + _parse_segment(rest, ctx, file=file, line=line)
        app = TacticApplication("by", _build_arguments("by", rest, ctx))
        _register_introductions(app, ctx)
        return [app]
    m = _IDENT_RE.match(first.text)
    if not m:
        raise MalformedStatement(f"tactic expected, got {first.text!r}", file=file, line=line)
    name = m.group(0)
    leftover = first.text[m.end():]
    arg_tokens = ([_Tok("unit", leftover)] if leftover else []) + tokens[1:]
    app = TacticApplication(name, _build_arguments(name, arg_tokens, ctx))
    _register_introductions(app, ctx)
    return [app]


def _steps_from_sentences(sentences: list[Sentence], ctx: _ProofContext, file: str) -> list[ProofStep]:
    steps: list[ProofStep] = []
    for idx, sen in enumerate(sentences, start=1):
        tokens = _lex_step_tokens(sen.text, file=file, line=sen.line_start)
        if not tokens:
            raise EmptyStep("proof step without tokens", file=file, line=sen.line_start)
        apps: list[TacticApplication] = []
        for segment in _split_on_semis(tokens):
            if not segment:
                raise EmptyStep("empty tactic between ';'", file=file, line=sen.line_start)
            apps.extend(_parse_segment(segment, ctx, file=file, line=sen.line_start))
        steps.append(ProofStep(index=idx, tactics=tuple(apps)))
    return steps


def split_steps(proof_body: str, *, file: str = "<input>") -> list[ProofStep]:
    """Parse a proof body (without `Proof.`/`Qed.`) into classified steps."""
    sentences = split_sentences(proof_body)
    return _steps_from_sentences(sentences, _ProofContext(), file)


def classify_argument(token: str, lemma: LemmaRecord, step_index: int) -> ArgumentToken:
    """Classify one lexed argument against the context built through step_index."""
    ctx = _ProofContext()
    for step in lemma.steps:
        if step.index > step_index:
            break
        for app in step.tactics:
            _register_introductions(app, ctx)
    return ArgumentToken(token, _classify_token(token, ctx, intro_zone=False))


# ---------------------------------------------------------------------------
# vernacular files


def _parse_header(sentence: Sentence, file: str) -> tuple[str, str]:
    text = sentence.text
    kw = _first_word(text)
    rest = text[len(kw):]
    m = re.match(r"\s*([A-Za-z_][A-Za-z0-9_']*)", rest)
    if not m:
        raise MalformedStatement("lemma sentence without a name", file=file, line=sentence.line_start)
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
                raise MalformedStatement(f"missing statement for {name}", file=file, line=sentence.line_start)
            return name, statement
        i += 1
    raise MalformedStatement(f"missing ':' in statement of {name}", file=file, line=sentence.line_start)


def _statement_tree(name: str, statement_text: str, *, file: str, line: int) -> TermTree:
    try:
        return parse_term_tree(statement_text)
    except TermError as exc:
        raise MalformedStatement(f"bad statement for {name}: {exc}", file=file, line=line) from exc


def parse_library(source: str, library_tag: str, *, filename: str = "<string>") -> list[LemmaRecord]:
    """Extract every proved lemma from vernacular source text.

    Sentences that are not lemma statements, proof steps, or proof delimiters
    (imports, definitions, ...) are skipped.
    """
    if not library_tag:
        raise ValueError("library_tag must be non-empty")
    sentences = split_sentences(source)
    records: list[LemmaRecord] = []
    seen: set[str] = set()
    i = 0
    while i < len(sentences):
        sen = sentences[i]
        if _first_word(sen.text) not in LEMMA_KEYWORDS:
            i += 1
            continue
        name, statement_text = _parse_header(sen, filename)
        if name in seen:
            raise DuplicateLemmaName(f"duplicate lemma {name}", file=filename, line=sen.line_start)
        statement = _statement_tree(name, statement_text, file=filename, line=sen.line_start)
        i += 1
        if i < len(sentences) and _first_word(sentences[i].text) == "Proof":
            i += 1
        body: list[Sentence] = []
        end_line = sen.line_end
        closed = False
        while i < len(sentences):
            nxt = sentences[i]
            word = _first_word(nxt.text)
            if word in PROOF_CLOSERS and word == nxt.text:
                closed = True
                end_line = nxt.line_end
                i += 1
                break
            if word in LEMMA_KEYWORDS:
                break
            body.append(nxt)
            i += 1
        if not closed:
            raise UnterminatedProof(f"proof of {name} never closed", file=filename, line=sen.line_start)
        steps = _steps_from_sentences(body, _ProofContext(), filename)
        if steps:
            steps[0] = replace(steps[0], goal_before=statement)
        records.append(LemmaRecord(
            name=name,
            statement=statement,
            steps=tuple(steps),
            library=library_tag,
            source_span=SourceSpan(filename, sen.line_start, end_line),
        ))
        seen.add(name)
    return records


def parse_partial(source: str, *, filename: str = "<query>", library_tag: str = "query") -> LemmaRecord:
    """Lenient parse of an unfinished proof: statement plus at least one step; no closer needed."""
    sentences = split_sentences(source)
    i = 0
    while i < len(sentences) and _first_word(sentences[i].text) not in LEMMA_KEYWORDS:
        i += 1
    if i == len(sentences):
        raise MalformedStatement("no lemma statement found", file=filename)
    sen = sentences[i]
    name, statement_text = _parse_header(sen, filename)
    statement = _statement_tree(name, statement_text, file=filename, line=sen.line_start)
    i += 1
    if i < len(sentences) and _first_word(sentences[i].text) == "Proof":
        i += 1
    body: list[Sentence] = []
    end_line = sen.line_end
    for nxt in sentences[i:]:
        word = _first_word(nxt.text)
        if word in PROOF_CLOSERS and word == nxt.text:
            break
        body.append(nxt)
        end_line = nxt.line_end
    if not body:
        raise MalformedStatement(f"partial proof of {name} has no steps", file=filename, line=sen.line_start)
    steps = _steps_from_sentences(body, _ProofContext(), filename)
    steps[0] = replace(steps[0], goal_before=statement)
    return LemmaRecord(
        name=name,
        statement=statement,
        steps=tuple(steps),
        library=library_tag,
        source_span=SourceSpan(filename, sen.line_start, end_line),
    )


# ---------------------------------------------------------------------------
# trace files ("proofmine trace v1", JSON Lines)

_TRACE_FIELDS = {"lemma": str, "library": str, "step_index": int, "tactic_line": str,
                 "goal_before": str, "subgoals_after": int}


def parse_trace(source: str, *, filename: str = "<trace>") -> list[LemmaRecord]:
    """Read per-step trace records with goal text and subgoal counts."""
    per_lemma: dict[str, dict] = {}
    order: list[str] = []
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
        entry = per_lemma.setdefault(name, {"library": obj["library"], "steps": {}, "lines": []})
        if obj["library"] != entry["library"]:
            raise ParseError(f"conflicting library tags for {name}", file=filename, line=line_no)
        if idx in entry["steps"]:
            raise ParseError(f"duplicate step {idx} for {name}", file=filename, line=line_no)
        entry["steps"][idx] = (obj["tactic_line"], obj["goal_before"], obj["subgoals_after"], line_no)
        entry["lines"].append(line_no)
        if name not in order:
            order.append(name)

    records: list[LemmaRecord] = []
    for name in order:
        entry = per_lemma[name]
        ctx = _ProofContext()
        steps: list[ProofStep] = []
        statement: TermTree | None = None
        for new_index, idx in enumerate(sorted(entry["steps"]), start=1):
            tactic_line, goal_text, subgoals, line_no = entry["steps"][idx]
            text = tactic_line.strip()
            if text.endswith("."):
                text = text[:-1]
            tokens = _lex_step_tokens(text, file=filename, line=line_no)
            if not tokens:
                raise EmptyStep(f"empty tactic_line for {name}", file=filename, line=line_no)
            apps: list[TacticApplication] = []
            for segment in _split_on_semis(tokens):
                if not segment:
                    raise EmptyStep("empty tactic between ';'", file=filename, line=line_no)
                apps.extend(_parse_segment(segment, ctx, file=filename, line=line_no))
            goal = _statement_tree(name, goal_text, file=filename, line=line_no)
            if statement is None:
                statement = goal
            steps.append(ProofStep(new_index, tuple(apps), goal_before=goal, subgoals_after=subgoals))
        records.append(LemmaRecord(
            name=name,
            statement=statement,
            steps=tuple(steps),
            library=entry["library"],
            source_span=SourceSpan(filename, min(entry["lines"]), max(entry["lines"])),
        ))
    return records


def looks_like_trace(source: str) -> bool:
    stripped = source.lstrip()
    return stripped.startswith("{")
