"""Persistent corpora: the parsed lemmas are the only state.

A corpus file ("proofmine corpus v3") is a JSON header line holding the format
tag and the sha256 checksum of the payload bytes, then the canonical JSON
payload: the patch length, a term table and the lemma records of each library.
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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import (EmptyCorpus, EncodingTable, FeatureDatabase, build_encoding_table,
                       extract_features, min_max_scale, PATCH_LEN, SLOTS_PER_STEP)
from .script import DuplicateLemmaName, LemmaRecord, looks_like_trace, parse_library, parse_trace
from .terms import TermTable, TermTree, read_term_table

CORPUS_FORMAT = "proofmine corpus v3"
CORPUS_FORMAT_V2 = "proofmine corpus v2"
CORPUS_FORMAT_V1 = "proofmine corpus v1"
QUERY_NAME = "?query"


class VersionMismatch(ValueError):
    pass


class CorruptFile(ValueError):
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
        self.table = build_encoding_table(records) if records else EncodingTable({}, {})
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


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save(corpus: Corpus, path: str | Path) -> None:
    terms = TermTable()
    libraries = {tag: [r.to_dict(terms.add) for r in records] for tag, records in corpus.libraries.items()}
    payload = _canonical({"patch_len": corpus.patch_len, "terms": terms.entries, "libraries": libraries})
    header = {"format": CORPUS_FORMAT, "checksum": hashlib.sha256(payload).hexdigest()}
    Path(path).write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload)


def load(path: str | Path) -> Corpus:
    first, _, rest = Path(path).read_bytes().partition(b"\n")
    try:
        header = json.loads(first)
    except ValueError as exc:
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
        term = read_term_table(data["terms"]) if version == CORPUS_FORMAT else TermTree.from_dict
        libraries = {tag: [LemmaRecord.from_dict(r, term) for r in records]
                     for tag, records in data["libraries"].items()}
        return Corpus(libraries, data.get("patch_len", PATCH_LEN))
    except (LookupError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise CorruptFile(f"{path}: malformed payload ({exc!r})") from exc
