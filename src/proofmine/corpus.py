"""Persistent corpora: the parsed lemmas are the only state.

A corpus file ("proofmine corpus v4") is a JSON header line holding the format
tag and the sha256 checksum of the payload bytes, then the canonical JSON
payload: the patch length, three tables and the lemma records of each library.
`terms` lists each distinct term subtree once as [symbol, child_id, ...],
children before parents; `arguments` each distinct argument once as
[text, kind]; `tactics` each distinct tactic application once as
[name, argument_id, ...].  An id is a position in its table.  `libraries`
maps each tag to positional records
[name, statement_id, file, line_start, line_end, steps], and a step is
[goal_id | null, subgoals_after | null, tactic_id, ...].  A record's library
is its tag and a step's index its position, counted from 1, as the parsers
guarantee.  Loading builds one shared tree, argument and application per
table entry.  Every id must be an int (not a bool) within its table, a child
id below its own entry's position, subgoals_after null or a non-negative
int, and a lemma name may appear once across all libraries, as `ingest`
requires; anything else is a corrupt file.  The encoding table and the raw
feature matrix are derived from the records whenever a corpus is built or
loaded, so they always match them.

A corpus is a cache of its parsed sources, so a file with any other format
tag, older ones included, is refused: `extract` rebuilds it.
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

CORPUS_FORMAT = "proofmine corpus v4"
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
        repeated = sorted({a.name for a, b in zip(records, records[1:]) if a.name == b.name})
        if repeated:  # members, proximities and tags are all keyed by name
            raise ValueError(f"lemma names must be unique across libraries, repeated: {', '.join(repeated)}")
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
        raise EmptyCorpus(f"the given libraries hold no proved lemma: {', '.join(map(str, paths))}")
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
    """Each distinct subtree once, children before parents, as a corpus file stores it.

    `ids` maps each entry (symbol, child_id, ...) to its id, its position in
    the dict's insertion order, so `list(ids)` is the stored table.  Trees are
    memoised by object identity, so they must outlive the table.
    """

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}
        self._seen: dict[int, int] = {}

    def add(self, tree: TermTree) -> int:
        """The id of tree's entry, adding entries for it and its subtrees as needed.

        A post-order walk on an explicit stack, one frame per node still being
        keyed: children get their ids left to right before their parent, so
        ids follow the order of a recursive walk.
        """
        seen, ids = self._seen, self.ids
        tid = seen.get(id(tree))
        if tid is not None:
            return tid
        # a frame is (node, its key so far, its children not yet visited); the key
        # holds child ids, since hashing a TermTree would recurse through it
        stack = [(tree, [tree.symbol], iter(tree.children))]
        while stack:
            node, key, children = stack[-1]
            for child in children:
                cid = seen.get(id(child))
                if cid is None:
                    stack.append((child, [child.symbol], iter(child.children)))
                    break
                key.append(cid)
            else:
                stack.pop()
                tid = seen[id(node)] = ids.setdefault(tuple(key), len(ids))
                if stack:
                    stack[-1][1].append(tid)
        return tid


def _lookup(table: list, what: str) -> Callable[[object], object]:
    """table[i] for a stored id i, which must be an int (not a bool) within range."""
    def lookup(i):
        if type(i) is not int or not 0 <= i < len(table):
            raise ValueError(f"{what} id {i!r} outside 0..{len(table) - 1}")
        return table[i]

    return lookup


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
    return _lookup(trees, "term")


def _subgoal_count(value):
    """A stored subgoals_after: null or a non-negative int (not a bool), as the parsers give it."""
    if value is not None and (type(value) is not int or value < 0):
        raise ValueError(f"subgoals_after {value!r} is not null or a non-negative integer")
    return value


def _list(value, what: str) -> list:
    if type(value) is not list:
        raise ValueError(f"{what} must be a list")
    return value


def _read_v4(data: dict) -> dict[str, list[LemmaRecord]]:
    """Decode a v4 payload's tables and positional records into records by library tag."""
    term = read_term_table(data["terms"])
    arguments = []
    for entry in _list(data["arguments"], "arguments"):
        if type(entry) is not list or len(entry) != 2 or type(entry[0]) is not str:
            raise ValueError(f"argument {len(arguments)} is not [text, kind]")
        arguments.append(ArgumentToken(entry[0], ArgumentKind(entry[1])))
    argument = _lookup(arguments, "argument")
    tactics = []
    for entry in _list(data["tactics"], "tactics"):
        if type(entry) is not list or not entry or type(entry[0]) is not str:
            raise ValueError(f"tactic {len(tactics)} is not [name, argument_id, ...]")
        tactics.append(TacticApplication(entry[0], tuple(map(argument, entry[1:]))))
    tactic = _lookup(tactics, "tactic")

    def step(index: int, row) -> ProofStep:
        if type(row) is not list or len(row) < 3:
            raise ValueError(f"step {index} is not [goal_id, subgoals_after, tactic_id, ...]")
        goal = row[0]
        return ProofStep(index, tuple(map(tactic, row[2:])), None if goal is None else term(goal),
                         _subgoal_count(row[1]))

    def record(tag: str, row) -> LemmaRecord:
        if type(row) is not list or len(row) != 6:
            raise ValueError(f"a record in {tag!r} is not [name, statement_id, file, lines, steps]")
        name, statement, file, line_start, line_end, steps = row
        if (type(name) is not str or type(file) is not str or type(line_start) is not int
                or type(line_end) is not int):
            raise ValueError(f"record {name!r} in {tag!r} has an ill-typed name, file or line")
        return LemmaRecord(name, term(statement),
                           tuple(step(i, s) for i, s in enumerate(_list(steps, "steps"), start=1)),
                           tag, SourceSpan(file, line_start, line_end))

    return {tag: [record(tag, row) for row in _list(rows, "records")]
            for tag, rows in data["libraries"].items()}


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus as format v4; equal corpora give equal bytes, since tags are visited in order."""
    terms = TermTable()
    applications: dict[TacticApplication, int] = {}
    libraries: dict[str, list] = {}
    for tag in sorted(corpus.libraries):
        rows = libraries[tag] = []
        for record in corpus.libraries[tag]:
            # positions stand for a record's library and a step's index, so they must agree
            if record.library != tag:
                raise ValueError(f"lemma {record.name} of library {record.library!r} is filed under {tag!r}")
            steps = []
            for index, step in enumerate(record.steps, start=1):
                if step.index != index:
                    raise ValueError(f"step {step.index} of lemma {record.name} is at position {index}")
                steps.append([None if step.goal_before is None else terms.add(step.goal_before),
                              step.subgoals_after,
                              *[applications.setdefault(app, len(applications)) for app in step.tactics]])
            span = record.source_span
            rows.append([record.name, terms.add(record.statement), span.file, span.line_start,
                         span.line_end, steps])
    arguments: dict[ArgumentToken, int] = {}
    tactics = [[app.name, *[arguments.setdefault(arg, len(arguments)) for arg in app.arguments]]
               for app in applications]
    payload = _canonical({"patch_len": corpus.patch_len, "terms": list(terms.ids),
                          "arguments": [[arg.text, arg.kind.value] for arg in arguments],
                          "tactics": tactics, "libraries": libraries})
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
    if header["format"] != CORPUS_FORMAT:
        raise VersionMismatch(f"{path}: expected {CORPUS_FORMAT!r}, found {header['format']!r}; "
                              "run `proofmine extract` on its sources to rebuild it")
    if hashlib.sha256(rest).hexdigest() != header.get("checksum"):
        raise CorruptFile(f"{path}: checksum mismatch")
    try:
        data = json.loads(rest)
        return Corpus(_read_v4(data), data["patch_len"])
    except (LookupError, TypeError, ValueError, AttributeError, RecursionError, OverflowError) as exc:
        raise CorruptFile(f"{path}: malformed payload ({exc!r})") from exc
