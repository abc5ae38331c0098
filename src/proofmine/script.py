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

import codecs
import json
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .terms import TermError, TermTree, group_end, interned_symbols, parse_term_tree


class ParseError(ValueError):
    """A library, trace or query file that cannot be read (exit 2).

    The message reads "FILE:LINE: message", or "FILE: message" when line is None.
    """

    def __init__(self, message: str, *, file: str | None = None, line: int | None = None):
        self.file = file or "<input>"
        self.line = line
        loc = self.file if line is None else f"{self.file}:{line}"
        super().__init__(f"{loc}: {message}")


class ArgumentKind(str, Enum):
    HYPOTHESIS = "hypothesis"
    EXTERNAL_LEMMA = "external_lemma"
    INDUCTIVE_HYPOTHESIS = "inductive_hypothesis"
    NUMERIC_CONSTANT = "numeric_constant"
    TERM_EXPR = "term_expr"
    WILDCARD = "wildcard"
    INTRO_PATTERN = "intro_pattern"


@dataclass(frozen=True, slots=True)
class ArgumentToken:
    text: str
    kind: ArgumentKind


@dataclass(frozen=True, slots=True)
class TacticApplication:
    name: str
    arguments: tuple[ArgumentToken, ...] = ()


@dataclass(frozen=True, slots=True)
class ProofStep:
    tactics: tuple[TacticApplication, ...]
    goal_before: TermTree | None = None
    subgoals_after: int | None = None


@dataclass(frozen=True, slots=True)
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


class Sentence(NamedTuple):
    text: str
    line_start: int


_OPENER_RE = re.compile(r'\(\*|"')
# a terminator and the whitespace after it (`\s` is str.isspace); the capture
# makes re.split return that whitespace between the sentences
_TERMINATOR_RE = re.compile(r"\.(?=\s)(\s*)")  # in a stretch that a comment or string ends
_LAST_TERMINATOR_RE = re.compile(r"\.(?=\s|\Z)(\s*)")  # in the stretch that ends the source


def split_sentences(source: str, *, filename: str = "<string>") -> list[Sentence]:
    """Split on '.' followed by whitespace/EOF, outside comments and strings.

    Dots inside qualified names or notations like `m.+1` never precede
    whitespace, so they survive unsplit.  Comment text is replaced by one
    space; an all-whitespace chunk between two terminators yields an empty
    sentence so proof parsing can reject it.  A comment or string still open
    at the end of the source is a ParseError at the line of its opening.

    Each stretch between comments and strings is cut at its terminators by
    one `re.split`, and its lines are counted piece by piece with
    `str.count`.  A comment is skipped by `str.find` for its `*)` and any
    nested `(*`, and a string by `str.find` for its closing quote.  The cost
    is one split per stretch and a few C calls per sentence, so a commented
    file is read by the same code as one without comments, and no slower
    than a character-wise scan when a comment sits between every two
    sentences.
    """
    sentences: list[Sentence] = []
    buf: list[str] = []  # the pieces of the sentence still open
    line = 1
    start_line: int | None = None
    i = 0
    while True:
        opener = _OPENER_RE.search(source, i)
        j = opener.start() if opener else len(source)
        # [head, gap, sentence, ..., gap, tail]: head ends the open sentence, and tail opens the
        # next; a piece after a gap starts with no whitespace, so on the line its gap ends
        pieces = (_TERMINATOR_RE if opener else _LAST_TERMINATOR_RE).split(source[i:j])
        head = pieces[0]
        if start_line is None and (rest := head.lstrip()):
            start_line = line + head.count("\n", 0, len(head) - len(rest))
        line += head.count("\n")
        buf.append(head)
        if len(pieces) > 1:
            sentences.append(Sentence("".join(buf).strip(), start_line or line))
            for k in range(2, len(pieces) - 1, 2):
                line += pieces[k - 1].count("\n")
                text = pieces[k]
                # Sentence(text, line) without the named tuple's Python-level __new__, which
                # takes a quarter of this loop's time
                sentences.append(tuple.__new__(Sentence, (text.rstrip(), line)))
                line += text.count("\n")
            line += pieces[-2].count("\n")
            head = pieces[-1]
            buf = [head]
            start_line = line if head else None
            line += head.count("\n")
        if opener is None:
            break
        if source[j] == '"':
            i = source.find('"', j + 1) + 1
            if not i:
                raise ParseError("string never closed", file=filename, line=line)
            if start_line is None:
                start_line = line
            buf.append(source[j:i])
            line += source.count("\n", j, i)
        else:
            # the next mark is the first `*)` unless a `(*` starts before it
            depth, i, close = 1, j + 2, -1
            while depth:
                if close < i:
                    close = source.find("*)", i)
                    if close < 0:
                        raise ParseError("comment never closed", file=filename, line=line)
                nested = source.find("(*", i, close + 1)
                if nested < 0:
                    depth, i = depth - 1, close + 2
                else:
                    depth, i = depth + 1, nested + 2
            buf.append(" ")
            line += source.count("\n", j, i)
    trailing = "".join(buf).strip()
    if trailing:
        sentences.append(Sentence(trailing, start_line or line))
    return sentences


def _first_word(text: str) -> str | None:
    m = _IDENT_RE.match(text)
    return m.group(0) if m else None


# ---------------------------------------------------------------------------
# tactic command-line lexer


def _lex_segments(text: str) -> tuple[tuple[tuple[str, str], ...], ...]:
    """The ';'-separated segments of a command line, as (kind, text) tokens.

    Kinds: ':', '=>' and 'unit', a run of other characters that keeps each
    bracket group whole.  The whole line is lexed before any segment is read,
    so a delimiter error anywhere in it wins over every other error; the
    caller gives it the line's location.
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
            raise TermError(f"stray {c!r}")
        else:
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
            segments[-1].append(("unit", text[i:j]))
            i = j
    return tuple(map(tuple, segments))


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
    except TermError:
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
            except TermError:
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


_INTRO_SEPARATOR_RE = re.compile(r"[\s|\[\]\(\)\{\}]+")


def _intro_names(texts: list[str]) -> list[str]:
    names = []
    for text in texts:
        for piece in _INTRO_SEPARATOR_RE.split(text):
            if not piece or piece in WILDCARD_TOKENS or piece in ("->", "<-"):
                continue
            if _IDENT_RE.fullmatch(piece):
                names.append(piece)
    return names


def _arguments(name: str, tokens: tuple[tuple[str, str], ...], ctx: _ProofContext) -> tuple[ArgumentToken, ...]:
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
             file: str, line: int, classify: bool = True) -> tuple[TacticApplication, ...]:
    """The tactic applications of one command line; empty_message if it has no tokens.

    Without classify, each application keeps its name only.  Only
    `_arguments` is skipped, which raises nothing, so the line's errors are
    the same either way.
    """
    try:
        segments = _lex_segments(text)
    except TermError as exc:
        raise ParseError(str(exc), file=file, line=line) from exc
    if segments == ((),):
        raise ParseError(empty_message, file=file, line=line)
    apps: list[TacticApplication] = []
    for tokens in segments:
        if not tokens:
            raise ParseError("empty tactic between ';'", file=file, line=line)
        # `by tac args` reads as a bare `by`, then `tac args`
        while (tokens[0] == ("unit", "by") and len(tokens) > 1 and tokens[1][0] == "unit"
               and tokens[1][1] != "by" and _IDENT_RE.match(tokens[1][1])):
            apps.append(TacticApplication("by"))
            tokens = tokens[1:]
        kind, first = tokens[0]
        m = _IDENT_RE.match(first) if kind == "unit" else None
        if m is None:
            raise ParseError(f"tactic expected, got {first!r}", file=file, line=line)
        name, rest = m.group(0), tokens[1:]
        if m.end() < len(first):  # `apply/view` is `apply` with the argument `/view`
            rest = (("unit", first[m.end():]),) + rest
        apps.append(TacticApplication(name, _arguments(name, rest, ctx) if classify else ()))
    return tuple(apps)


# ---------------------------------------------------------------------------
# vernacular files


# a sentence whose first word is a lemma keyword
_LEMMA_START_RE = re.compile(rf"(?:{'|'.join(sorted(LEMMA_KEYWORDS))})(?![A-Za-z0-9_'])")
# the keyword, then the lemma's name (the lookahead keeps the keyword whole), then whatever
# follows the name before whitespace, a bracket opener or a colon: text that makes it no name
_HEADER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*(?![A-Za-z0-9_'])\s*([A-Za-z_][A-Za-z0-9_']*)([^\s(\[{:]*)")
# a bracket or a colon; `::` and `:=` are read as one token, as Coq lexes them
_HEADER_TOKEN_RE = re.compile(r"[()\[\]{}]|:[:=]?")


def _lemmas(sentences: list[Sentence]) -> Iterator[tuple[Sentence, list[Sentence], bool]]:
    """Each lemma sentence with its body and whether a closing sentence ends it.

    A body runs up to a closer or the next lemma sentence; a `Proof.` right
    after the lemma sentence is not part of it.  Sentences outside lemmas
    (imports, definitions, ...) are skipped.  A closer is a sentence that is
    exactly `Qed` or `Defined`, so a body sentence costs one set lookup and
    one anchored regex match.
    """
    starts_lemma = _LEMMA_START_RE.match
    i, n = 0, len(sentences)
    while i < n:
        sen = sentences[i]
        i += 1
        if not starts_lemma(sen.text):
            continue
        if i < n and _first_word(sentences[i].text) == "Proof":
            i += 1
        body: list[Sentence] = []
        closed = False
        while i < n:
            nxt = sentences[i]
            if nxt.text in PROOF_CLOSERS:
                i += 1
                closed = True
                break
            if starts_lemma(nxt.text):
                break
            i += 1
            body.append(nxt)
        yield sen, body, closed


def _parse_header(sentence: Sentence, file: str) -> tuple[str, str]:
    """The name and statement text of a lemma sentence.

    The name is an identifier that ends at whitespace, `(`, `[`, `{`, `:` or
    the end of the sentence.  The statement follows the first `:` outside
    brackets that is not part of a `::` or `:=`.  After the name, only
    brackets and colons are visited, each found by one regex.
    """
    text = sentence.text
    m = _HEADER_RE.match(text)
    if not m:
        raise ParseError("lemma sentence without a name", file=file, line=sentence.line_start)
    name = m.group(1)
    if m.group(2):
        raise ParseError(f"lemma name {name + m.group(2)!r} is not an identifier", file=file,
                         line=sentence.line_start)
    depth = 0
    for token in _HEADER_TOKEN_RE.finditer(text, m.end()):
        t = token.group()
        if t == ":":
            if not depth:
                statement = text[token.end():].strip()
                if not statement:
                    raise ParseError(f"missing statement for {name}", file=file, line=sentence.line_start)
                return name, statement
        elif t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
    raise ParseError(f"missing ':' in statement of {name}", file=file, line=sentence.line_start)


def _statement_tree(name: str, statement_text: str, intern: dict, *, file: str, line: int) -> TermTree:
    try:
        return parse_term_tree(statement_text, intern)
    except TermError as exc:
        raise ParseError(f"bad statement for {name}: {exc}", file=file, line=line) from exc


def _record(name: str, statement: TermTree, body: list[Sentence], library: str, proofs: dict,
            file: str, patch_len: int | None = None) -> LemmaRecord:
    """A lemma record whose first step's goal is the statement.

    proofs maps the command-line texts of each body already parsed in the
    file to its steps, without goals, so a repeated body is classified once:
    a proof's context starts empty and changes only through its own lines.
    The records of a repeated body share its steps after the first, and all
    its tactic tuples, which saves building them again; a reader gets the
    same values from separate equal objects.  A body that fails to parse is
    not stored.  Steps from patch_len on, when it is given, keep their
    tactic names only.
    """
    texts = tuple([sen.text for sen in body])
    steps = proofs.get(texts)
    if steps is None:
        ctx = _ProofContext()
        classified = len(body) if patch_len is None else patch_len
        steps = proofs[texts] = tuple([
            ProofStep(_tactics(sen.text, ctx, "proof step without tokens", file=file, line=sen.line_start,
                               classify=pos < classified))
            for pos, sen in enumerate(body)])
    steps = (ProofStep(steps[0].tactics, statement),) + steps[1:]
    return LemmaRecord(name, statement, steps, library)


def parse_library(source: str, library_tag: str, *, filename: str = "<string>",
                  symbols: set[str] | None = None, patch_len: int | None = None) -> list[LemmaRecord]:
    """Extract every proved lemma from vernacular source text.

    Sentences that are not lemma statements, proof steps, or proof delimiters
    (imports, definitions, ...) are skipped.  A proof without steps is a
    ParseError at its lemma's line.  If the parse succeeds, symbols, when
    given, receives the symbol of every node of the returned terms.  With
    patch_len, the steps after a lemma's first patch_len keep their tactic
    names and no arguments: all that the encoder reads of them.
    """
    records: list[LemmaRecord] = []
    seen: set[str] = set()
    intern: dict = {}  # one per file: equal subterms are shared, a repeated statement text parsed once
    proofs: dict = {}  # one per file: a repeated proof body classified once
    for sen, body, closed in _lemmas(split_sentences(source, filename=filename)):
        name, statement_text = _parse_header(sen, filename)
        if name in seen:
            raise ParseError(f"duplicate lemma {name}", file=filename, line=sen.line_start)
        seen.add(name)
        statement = _statement_tree(name, statement_text, intern, file=filename, line=sen.line_start)
        if not closed:
            raise ParseError(f"proof of {name} never closed", file=filename, line=sen.line_start)
        if not body:
            raise ParseError(f"proof of {name} has no steps", file=filename, line=sen.line_start)
        records.append(_record(name, statement, body, library_tag, proofs, filename, patch_len))
    if symbols is not None:
        symbols.update(interned_symbols(intern))
    return records


def parse_partial(source: str, *, filename: str = "<query>") -> LemmaRecord:
    """Lenient parse of an unfinished proof, tagged "query": its first lemma with a step; no closer needed."""
    lemma = next(_lemmas(split_sentences(source, filename=filename)), None)
    if lemma is None:
        raise ParseError("no lemma statement found", file=filename)
    sen, body, _ = lemma
    name, statement_text = _parse_header(sen, filename)
    statement = _statement_tree(name, statement_text, {}, file=filename, line=sen.line_start)
    if not body:
        raise ParseError(f"partial proof of {name} has no steps", file=filename, line=sen.line_start)
    return _record(name, statement, body, "query", {}, filename)


# ---------------------------------------------------------------------------
# trace files ("proofmine trace v1", JSON Lines)

# str.splitlines also splits at U+2028, U+2029, U+0085 and other characters that
# a JSON string may hold raw
_LINE_BREAK_RE = re.compile(r"\r\n?|\n")
_TRACE_FIELDS = {"lemma": str, "library": str, "step_index": int, "tactic_line": str,
                 "goal_before": str, "subgoals_after": int}


def parse_trace(source: str, *, filename: str = "<trace>",
                symbols: set[str] | None = None, patch_len: int | None = None) -> list[LemmaRecord]:
    """Read per-step trace records with goal text and subgoal counts.

    Records are split at CRLF, LF and CR only, none of which a JSON string
    holds raw.  If the parse succeeds, symbols, when given, receives
    the symbol of every node of the returned terms.  patch_len is as for
    parse_library.
    """
    per_lemma: dict[str, tuple[str, dict]] = {}  # name -> (library, steps by index), in first-seen order
    for line_no, raw in enumerate(_LINE_BREAK_RE.split(source), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        # RecursionError: nested too deeply; a plain ValueError: an integer literal
        # longer than Python's int string limit (JSONDecodeError is a ValueError too)
        except (ValueError, RecursionError) as exc:
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
        # a name as a vernacular file writes it: never empty, never the hint query's row name
        if not _IDENT_RE.fullmatch(name):
            raise ParseError("lemma must be an identifier", file=filename, line=line_no)
        if not obj["library"]:  # as a --lib tag and parse_library's tag must be
            raise ParseError("library must be non-empty", file=filename, line=line_no)
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
        text = obj["tactic_line"].strip()  # the command line, without its final '.'
        by_index[idx] = (text[:-1] if text.endswith(".") else text, obj["goal_before"],
                         obj["subgoals_after"], line_no)

    records: list[LemmaRecord] = []
    intern: dict = {}  # one per file: equal subterms are shared, a repeated goal text parsed once
    proofs: dict = {}  # one per file: the tactic lines of a proof, in step order -> their applications
    for name, (library, by_index) in per_lemma.items():
        order = sorted(by_index)
        texts = tuple([by_index[idx][0] for idx in order])
        # a known proof parsed without error, so only the index and goal checks below can fail
        known = proofs.get(texts)
        ctx = _ProofContext()
        steps: list[ProofStep] = []
        for pos, idx in enumerate(order):
            _, goal_text, subgoals, line_no = by_index[idx]
            if idx != pos + 1:
                raise ParseError(f"missing step {pos + 1} for {name}", file=filename, line=line_no)
            apps = known[pos] if known is not None else _tactics(
                texts[pos], ctx, f"empty tactic_line for {name}", file=filename, line=line_no,
                classify=patch_len is None or pos < patch_len)
            goal = _statement_tree(name, goal_text, intern, file=filename, line=line_no)
            steps.append(ProofStep(apps, goal_before=goal, subgoals_after=subgoals))
        if known is None:
            proofs[texts] = tuple(step.tactics for step in steps)
        records.append(LemmaRecord(name, steps[0].goal_before, tuple(steps), library))
    if symbols is not None:
        symbols.update(interned_symbols(intern))
    return records


def looks_like_trace(source: str) -> bool:
    stripped = source.lstrip()
    return stripped.startswith("{")


def read_source(path: Path) -> str:
    """A library, trace or query file's text: UTF-8, with or without a byte order mark.

    A byte that does not decode is a ParseError at its line, counted as the
    parser of the file's kind counts lines.
    """
    data = path.read_bytes()
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8):]
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        line = len(_LINE_BREAK_RE.split(before)) if looks_like_trace(before) else before.count("\n") + 1
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})", file=str(path),
                         line=line) from None
