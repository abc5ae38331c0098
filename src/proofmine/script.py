"""Parser for a compact Coq/SSReflect-style vernacular subset.

Covered forms: `Lemma|Theorem|Corollary|Fact <name> <binders> : <statement>.`
followed by an optional `Proof.` sentinel, dot-terminated tactic command lines,
and a `Qed.`/`Defined.` closer.  Command lines may compose tactics with `;`,
`by tac` closers, `=>` intro patterns, and `:` discharge lists.  Every tactic
name parses the same way: a leading identifier, then arguments lexed into
words and bracket groups and classified by their shape and the names the
proof has introduced so far.

A second input format carries one JSON object per line with per-step goal text
and subgoal counts ("proofmine trace v1"); see parse_trace.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum

from .terms import TermError, TermTree, UnbalancedDelimiters, group_end, parse_term_tree


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


@dataclass(frozen=True)
class TacticApplication:
    name: str
    arguments: tuple[ArgumentToken, ...] = ()


@dataclass(frozen=True)
class ProofStep:
    tactics: tuple[TacticApplication, ...]
    goal_before: TermTree | None = None
    subgoals_after: int | None = None


@dataclass(frozen=True)
class LemmaRecord:
    name: str
    statement: TermTree
    steps: tuple[ProofStep, ...]
    library: str


LEMMA_KEYWORDS = frozenset({"Lemma", "Theorem", "Corollary", "Fact"})
PROOF_CLOSERS = frozenset({"Qed", "Defined"})
WILDCARD_TOKENS = frozenset({"_", "//", "//=", "/="})

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


def split_sentences(source: str, *, filename: str = "<string>") -> list[Sentence]:
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


def _first_word(text: str) -> str | None:
    m = _IDENT_RE.match(text)
    return m.group(0) if m else None


# ---------------------------------------------------------------------------
# tactic command-line lexer


def _lex_segments(text: str, *, file: str, line: int) -> list[list[tuple[str, str]]]:
    """The ';'-separated segments of a command line, as (kind, text) tokens.

    Kinds: ':', '=>' and 'unit', a run of other characters that keeps each
    bracket group whole.  The whole line is lexed before any segment is read,
    so a delimiter error anywhere in it wins over every other error.
    """
    segments: list[list[tuple[str, str]]] = [[]]
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == ";":
            segments.append([])
            i += 1
        elif c == ":":
            segments[-1].append((":", ":"))
            i += 1
        elif c == "=" and text[i + 1:i + 2] == ">":
            segments[-1].append(("=>", "=>"))
            i += 2
        elif c in ")]}":
            raise UnbalancedDelimiters(f"stray {c!r} at {file}:{line}")
        else:
            j = i
            while j < n:
                cj = text[j]
                if cj in "([{":
                    j = group_end(text, j, f" at {file}:{line}")
                    continue
                if cj.isspace() or cj in ";:)]}":
                    break
                if cj == "=" and text[j + 1:j + 2] == ">":
                    break
                j += 1
            segments[-1].append(("unit", text[i:j]))
            i = j
    return segments


# ---------------------------------------------------------------------------
# argument classification


class _ProofContext:
    """Names introduced so far in one proof, split by introducing tactic."""

    def __init__(self) -> None:
        self.hypothesis_names: set[str] = set()
        self.inductive_names: set[str] = set()


def _is_whole_group(text: str) -> bool:
    if not text or text[0] not in "([{":
        return False
    try:
        return group_end(text, 0) == len(text)
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
                end = group_end(out, 0)
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


def _arguments(name: str, tokens: list[tuple[str, str]], ctx: _ProofContext) -> tuple[ArgumentToken, ...]:
    """Classify a tactic's argument tokens, then register the names its intro patterns bind."""
    args: list[ArgumentToken] = []
    zone = name in _INTRO_TACTICS
    for kind, text in tokens:
        if kind == "=>":
            zone = True
        elif kind == "unit" and (zone or text not in _CONNECTIVE_WORDS):
            args.append(ArgumentToken(text, _classify_token(text, ctx, intro_zone=zone)))
    target = ctx.inductive_names if name in _INDUCTION_TACTICS else ctx.hypothesis_names
    target.update(_intro_names([a.text for a in args if a.kind is ArgumentKind.INTRO_PATTERN]))
    return tuple(args)


def _tactics(text: str, ctx: _ProofContext, empty_message: str, *,
             file: str, line: int) -> tuple[TacticApplication, ...]:
    """The tactic applications of one command line; empty_message if it has no tokens."""
    segments = _lex_segments(text, file=file, line=line)
    if segments == [[]]:
        raise EmptyStep(empty_message, file=file, line=line)
    apps: list[TacticApplication] = []
    for tokens in segments:
        if not tokens:
            raise EmptyStep("empty tactic between ';'", file=file, line=line)
        # `by tac args` reads as a bare `by`, then `tac args`
        while (tokens[0] == ("unit", "by") and len(tokens) > 1 and tokens[1][0] == "unit"
               and tokens[1][1] != "by" and _IDENT_RE.match(tokens[1][1])):
            apps.append(TacticApplication("by"))
            tokens = tokens[1:]
        kind, first = tokens[0]
        m = _IDENT_RE.match(first) if kind == "unit" else None
        if m is None:
            raise MalformedStatement(f"tactic expected, got {first!r}", file=file, line=line)
        name, rest = m.group(0), tokens[1:]
        if m.end() < len(first):  # `apply/view` is `apply` with the argument `/view`
            rest = [("unit", first[m.end():])] + rest
        apps.append(TacticApplication(name, _arguments(name, rest, ctx)))
    return tuple(apps)


def _steps_from_sentences(sentences: list[Sentence], file: str) -> list[ProofStep]:
    ctx = _ProofContext()
    return [ProofStep(_tactics(sen.text, ctx, "proof step without tokens", file=file, line=sen.line_start))
            for sen in sentences]


# ---------------------------------------------------------------------------
# vernacular files


def _lemmas(sentences: list[Sentence]) -> Iterator[tuple[Sentence, list[Sentence], bool]]:
    """Each lemma sentence with its body and whether a closing sentence ends it.

    A body runs up to a closer or the next lemma sentence; a `Proof.` right
    after the lemma sentence is not part of it.  Sentences outside lemmas
    (imports, definitions, ...) are skipped.
    """
    i, n = 0, len(sentences)
    while i < n:
        sen = sentences[i]
        i += 1
        if _first_word(sen.text) not in LEMMA_KEYWORDS:
            continue
        if i < n and _first_word(sentences[i].text) == "Proof":
            i += 1
        body: list[Sentence] = []
        closed = False
        while i < n:
            nxt = sentences[i]
            word = _first_word(nxt.text)
            if word in LEMMA_KEYWORDS:
                break
            i += 1
            if word in PROOF_CLOSERS and word == nxt.text:
                closed = True
                break
            body.append(nxt)
        yield sen, body, closed


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


def _statement_tree(name: str, statement_text: str, intern: dict, *, file: str, line: int) -> TermTree:
    try:
        return parse_term_tree(statement_text, intern)
    except TermError as exc:
        raise MalformedStatement(f"bad statement for {name}: {exc}", file=file, line=line) from exc


def _record(name: str, statement: TermTree, body: list[Sentence], library: str, file: str) -> LemmaRecord:
    """A lemma record whose first step's goal is the statement."""
    steps = _steps_from_sentences(body, file)
    if steps:
        steps[0] = replace(steps[0], goal_before=statement)
    return LemmaRecord(name, statement, tuple(steps), library)


def parse_library(source: str, library_tag: str, *, filename: str = "<string>") -> list[LemmaRecord]:
    """Extract every proved lemma from vernacular source text.

    Sentences that are not lemma statements, proof steps, or proof delimiters
    (imports, definitions, ...) are skipped.
    """
    if not library_tag:
        raise ValueError("library_tag must be non-empty")
    records: list[LemmaRecord] = []
    seen: set[str] = set()
    intern: dict = {}  # one per file, so equal subterms of its statements are shared
    for sen, body, closed in _lemmas(split_sentences(source, filename=filename)):
        name, statement_text = _parse_header(sen, filename)
        if name in seen:
            raise DuplicateLemmaName(f"duplicate lemma {name}", file=filename, line=sen.line_start)
        seen.add(name)
        statement = _statement_tree(name, statement_text, intern, file=filename, line=sen.line_start)
        if not closed:
            raise UnterminatedProof(f"proof of {name} never closed", file=filename, line=sen.line_start)
        records.append(_record(name, statement, body, library_tag, filename))
    return records


def parse_partial(source: str, *, filename: str = "<query>") -> LemmaRecord:
    """Lenient parse of an unfinished proof, tagged "query": its first lemma with a step; no closer needed."""
    lemma = next(_lemmas(split_sentences(source, filename=filename)), None)
    if lemma is None:
        raise MalformedStatement("no lemma statement found", file=filename)
    sen, body, _ = lemma
    name, statement_text = _parse_header(sen, filename)
    statement = _statement_tree(name, statement_text, {}, file=filename, line=sen.line_start)
    if not body:
        raise MalformedStatement(f"partial proof of {name} has no steps", file=filename, line=sen.line_start)
    return _record(name, statement, body, "query", filename)


# ---------------------------------------------------------------------------
# trace files ("proofmine trace v1", JSON Lines)

_TRACE_FIELDS = {"lemma": str, "library": str, "step_index": int, "tactic_line": str,
                 "goal_before": str, "subgoals_after": int}


def parse_trace(source: str, *, filename: str = "<trace>") -> list[LemmaRecord]:
    """Read per-step trace records with goal text and subgoal counts."""
    per_lemma: dict[str, tuple[str, dict]] = {}  # name -> (library, steps by index), in first-seen order
    for line_no, raw in enumerate(source.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
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
        if obj["subgoals_after"] > sys.float_info.max:  # the feature encoding holds it as a float
            raise ParseError("subgoals_after is too large to encode", file=filename, line=line_no)
        library, by_index = per_lemma.setdefault(name, (obj["library"], {}))
        if obj["library"] != library:
            raise ParseError(f"conflicting library tags for {name}", file=filename, line=line_no)
        if idx in by_index:
            raise ParseError(f"duplicate step {idx} for {name}", file=filename, line=line_no)
        by_index[idx] = (obj["tactic_line"], obj["goal_before"], obj["subgoals_after"], line_no)

    records: list[LemmaRecord] = []
    intern: dict = {}  # one per file, so equal subterms of its goals are shared
    for name, (library, by_index) in per_lemma.items():
        ctx = _ProofContext()
        steps: list[ProofStep] = []
        statement: TermTree | None = None
        for idx in sorted(by_index):
            tactic_line, goal_text, subgoals, line_no = by_index[idx]
            text = tactic_line.strip()
            if text.endswith("."):
                text = text[:-1]
            apps = _tactics(text, ctx, f"empty tactic_line for {name}", file=filename, line=line_no)
            goal = _statement_tree(name, goal_text, intern, file=filename, line=line_no)
            if statement is None:
                statement = goal
            steps.append(ProofStep(apps, goal_before=goal, subgoals_after=subgoals))
        records.append(LemmaRecord(name, statement, tuple(steps), library))
    return records


def looks_like_trace(source: str) -> bool:
    stripped = source.lstrip()
    return stripped.startswith("{")
