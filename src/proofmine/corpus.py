"""Persistent corpora: the parsed lemmas are the only state.

A corpus file ("proofmine corpus v3") is a JSON header line holding the format
tag and the sha256 checksum of the payload bytes, then the canonical JSON
payload: the patch length, a term table and the lemma records of each library.
A record is {name, statement, steps, library, source_span: {file, line_start,
line_end}}; a step is {index, tactics, goal_before, subgoals_after} and a tactic
{name, arguments: [{text, kind}]}.
The term table lists each distinct term subtree once as [symbol, child_id, ...],
children before parents; an id is a position in that list.  A record's
statement and step goals are ids (a goal may be null), and loading builds one
shared tree per table entry.  Every id must be an int (not a bool), a child id
must be below its own entry's position and a record's id below the table
length; anything else is a corrupt file.  The encoding table and the raw
feature matrix are derived from the records whenever a corpus is built or
loaded, so they always match them.

Older files are still read.  Version 2 payloads store each term as a nested
{"symbol", "children"} tree.  Version 1 files are one JSON document whose
payload also stored the table and the feature vectors; those are ignored.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import (EncodingTable, FeatureDatabase, build_encoding_table, extract_features,
                       min_max_scale, PATCH_LEN, SLOTS_PER_STEP)
from .script import (ArgumentKind, ArgumentToken, DuplicateLemmaName, LemmaRecord, ProofStep,
                     SourceSpan, TacticApplication, looks_like_trace, parse_library, parse_trace)
from .terms import TermTree

CORPUS_FORMAT = "proofmine corpus v3"
CORPUS_FORMAT_V2 = "proofmine corpus v2"
CORPUS_FORMAT_V1 = "proofmine corpus v1"
QUERY_NAME = "?query"


class VersionMismatch(ValueError):
    pass


class CorruptFile(ValueError):
    pass


class EmptyCorpus(ValueError):
    pass


@dataclass
class Corpus:
    """Lemma records by library tag, and what is derived from them at construction."""

    libraries: dict[str, list[LemmaRecord]] = field(default_factory=dict)
    patch_len: int = PATCH_LEN
    # derived from the records: vocabulary codes, sorted lemma names, one raw row per name
    table: EncodingTable = field(init=False, compare=False)
    names: list[str] = field(init=False, compare=False)
    raw: np.ndarray = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.patch_len) is not int or self.patch_len < 1:  # bool is not a length
            raise ValueError(f"patch_len must be a positive integer, got {self.patch_len!r}")
        records = sorted((r for recs in self.libraries.values() for r in recs), key=lambda r: r.name)
        # an empty corpus gets an empty vocabulary, so every query token encodes as 0
        self.table = build_encoding_table(records)
        self.names = [r.name for r in records]
        rows = [extract_features(r, self.table, self.patch_len) for r in records]
        self.raw = np.array(rows, dtype=np.float64).reshape(len(rows), SLOTS_PER_STEP * self.patch_len)

    def lemma_count(self) -> int:
        return len(self.names)

    def library_tags(self) -> dict[str, str]:
        return {r.name: tag for tag, records in self.libraries.items() for r in records}

    def feature_database(self) -> FeatureDatabase:
        matrix = min_max_scale(self.raw) if self.names else self.raw
        return FeatureDatabase(names=list(self.names), libraries=self.library_tags(), matrix=matrix)


def ingest(paths: list[str | Path], tags: list[str], corpus: Corpus | None = None, *,
           patch_len: int | None = None) -> Corpus:
    """Parse each file under its tag and return the enlarged corpus.

    Trace files carry their own per-record library field, which wins over the
    supplied tag.  Lemma names must stay unique across all libraries.
    """
    if corpus is None:
        corpus = Corpus()
    if len(paths) != len(tags):
        raise ValueError("paths and tags must be parallel lists")
    if any(not t for t in tags):
        raise ValueError("library tags must be non-empty")
    if patch_len is None:
        patch_len = corpus.patch_len
    if not paths:
        return corpus

    libraries: dict[str, list[LemmaRecord]] = {tag: list(recs) for tag, recs in corpus.libraries.items()}
    names = {r.name: r.library for recs in libraries.values() for r in recs}
    for path, tag in zip(paths, tags):
        path = Path(path)
        source = path.read_text(encoding="utf-8")
        if looks_like_trace(source):
            records = parse_trace(source, filename=str(path))
        else:
            records = parse_library(source, tag, filename=str(path))
        for record in records:
            if record.name in names:
                raise DuplicateLemmaName(
                    f"lemma {record.name} already ingested under library {names[record.name]!r}",
                    file=str(path))
            names[record.name] = record.library
            libraries.setdefault(record.library, []).append(record)
    if not names:
        raise EmptyCorpus("cannot build an encoding table from an empty corpus")
    return Corpus(libraries, patch_len)


def database_with_query(corpus: Corpus, query: LemmaRecord) -> FeatureDatabase:
    """Corpus features plus one temporary query row, re-scaled together.

    Unknown query vocabulary encodes as 0; the query row is named QUERY_NAME.
    """
    row = extract_features(query, corpus.table, corpus.patch_len)
    matrix = min_max_scale(np.vstack([corpus.raw, row]))
    libraries = corpus.library_tags()
    libraries[QUERY_NAME] = query.library
    return FeatureDatabase(names=corpus.names + [QUERY_NAME], libraries=libraries, matrix=matrix)


# ---------------------------------------------------------------------------
# persistence


class TermTable:
    """Each distinct subtree once, children before parents, as format v3 stores it.

    `ids` maps each entry (symbol, child_id, ...) to its id, its position in
    the dict's insertion order, so `list(ids)` is the stored table.  Trees are
    memoised by object identity, so they must outlive the table.
    """

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}
        self._seen: dict[int, int] = {}

    def add(self, tree: TermTree) -> int:
        """The id of tree's entry, adding entries for it and its subtrees as needed."""
        tid = self._seen.get(id(tree))
        if tid is None:
            # keyed on child ids: hashing a TermTree would recurse through it
            key = (tree.symbol, *map(self.add, tree.children))
            tid = self._seen[id(tree)] = self.ids.setdefault(key, len(self.ids))
        return tid


def read_term_table(entries) -> Callable[[object], TermTree]:
    """Decode a stored term table into a lookup from id to one shared tree per entry.

    Ids are ints (not bools); a child id must be below its entry's position and
    a looked-up id below the table length.  Anything else raises ValueError.
    """
    if not isinstance(entries, list):
        raise ValueError("term table must be a list")
    trees: list[TermTree] = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or not entry or not isinstance(entry[0], str):
            raise ValueError(f"term {pos} is not [symbol, child_id, ...]")
        kids = entry[1:]
        for k in kids:
            if type(k) is not int or not 0 <= k < pos:
                raise ValueError(f"term {pos} has child id {k!r} outside 0..{pos - 1}")
        trees.append(TermTree(entry[0], tuple(map(trees.__getitem__, kids))))

    def lookup(tid) -> TermTree:
        if type(tid) is not int or not 0 <= tid < len(trees):
            raise ValueError(f"term id {tid!r} outside 0..{len(trees) - 1}")
        return trees[tid]

    return lookup


def read_nested_term(data: dict) -> TermTree:
    """Decode the nested {"symbol", "children"} term of formats v1 and v2."""
    return TermTree(data["symbol"], tuple(map(read_nested_term, data.get("children", ()))))


def encode_record(record: LemmaRecord, term: Callable[[TermTree], object]) -> dict:
    """A JSON-ready dict; term gives the stored form of each term tree."""
    return {
        "name": record.name,
        "statement": term(record.statement),
        "steps": [{
            "index": step.index,
            "tactics": [{"name": app.name,
                         "arguments": [{"text": arg.text, "kind": arg.kind.value} for arg in app.arguments]}
                        for app in step.tactics],
            "goal_before": None if step.goal_before is None else term(step.goal_before),
            "subgoals_after": step.subgoals_after,
        } for step in record.steps],
        "library": record.library,
        "source_span": {"file": record.source_span.file, "line_start": record.source_span.line_start,
                        "line_end": record.source_span.line_end},
    }


def decode_record(data: dict, term: Callable[[object], TermTree]) -> LemmaRecord:
    """Inverse of encode_record; term turns a stored term back into a tree."""
    span = data["source_span"]
    steps = tuple(ProofStep(
        index=step["index"],
        tactics=tuple(TacticApplication(app["name"], tuple(
            ArgumentToken(arg["text"], ArgumentKind(arg["kind"])) for arg in app.get("arguments", ())))
            for app in step["tactics"]),
        goal_before=None if step.get("goal_before") is None else term(step["goal_before"]),
        subgoals_after=step.get("subgoals_after"),
    ) for step in data["steps"])
    return LemmaRecord(name=data["name"], statement=term(data["statement"]), steps=steps,
                       library=data["library"],
                       source_span=SourceSpan(span["file"], span["line_start"], span["line_end"]))


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save(corpus: Corpus, path: str | Path) -> None:
    terms = TermTable()
    libraries = {tag: [encode_record(r, terms.add) for r in records]
                 for tag, records in corpus.libraries.items()}
    payload = _canonical({"patch_len": corpus.patch_len, "terms": list(terms.ids), "libraries": libraries})
    header = {"format": CORPUS_FORMAT, "checksum": hashlib.sha256(payload).hexdigest()}
    Path(path).write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload)


def load(path: str | Path) -> Corpus:
    first, _, rest = Path(path).read_bytes().partition(b"\n")
    try:
        header = json.loads(first)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise CorruptFile(f"{path}: not parseable as JSON ({exc})") from exc
    if not isinstance(header, dict) or "format" not in header:
        raise CorruptFile(f"{path}: missing format header")
    version = header["format"]
    if version in (CORPUS_FORMAT, CORPUS_FORMAT_V2):
        payload = rest
    elif version == CORPUS_FORMAT_V1:
        # the whole v1 document is one line; its checksum covers the canonical payload
        payload = _canonical(header.get("payload"))
    else:
        raise VersionMismatch(f"{path}: expected {CORPUS_FORMAT!r}, found {version!r}")
    if hashlib.sha256(payload).hexdigest() != header.get("checksum"):
        raise CorruptFile(f"{path}: checksum mismatch")
    try:
        data = json.loads(payload)
        term = read_term_table(data["terms"]) if version == CORPUS_FORMAT else read_nested_term
        libraries = {tag: [decode_record(r, term) for r in records]
                     for tag, records in data["libraries"].items()}
        return Corpus(libraries, data.get("patch_len", PATCH_LEN))
    except (LookupError, TypeError, ValueError, AttributeError, RecursionError, OverflowError) as exc:
        raise CorruptFile(f"{path}: malformed payload ({exc!r})") from exc
