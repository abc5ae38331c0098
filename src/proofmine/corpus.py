"""Persistent corpora: each lemma's encoded row and the vocabulary.

A corpus file ("proofmine corpus v5") is a JSON header line holding the format
tag and the sha256 checksum of the payload bytes, then the canonical JSON
payload {"patch_len", "tactics", "symbols", "rows", "libraries"}.  `tactics`
and `symbols` are the vocabularies in strictly ascending order, a word's code
being its position plus one, as `build_encoding_table` assigns them.  `rows`
holds each distinct raw feature row once, 8 * patch_len finite numbers, and
`libraries` maps each non-empty tag to records [name, row_id], where name is an
identifier, as parsing requires, and row_id is an int (not a bool) within
`rows`.  A lemma name may appear once across all libraries, as `ingest`
requires; anything else is a corrupt file.

The rows are stored, not derived on load, so they hold the feature encoding
that `extract` used.  Any change to that encoding or to the vocabulary rule
must bump CORPUS_FORMAT.  A corpus is a cache of its parsed sources, so a file
with any other format tag, older ones included, is refused: `extract`
rebuilds it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import _distinct_rows
from .features import (EncodingTable, FeatureDatabase, LemmaPatch, build_encoding_table,
                       extract_features, lemma_patches, min_max_scale, PATCH_LEN, SLOTS_PER_STEP)
from .script import (_IDENT_RE, LemmaRecord, ParseError, looks_like_trace, parse_library, parse_trace,
                     read_source)

# Rows are stored: a change to the feature encoding or the vocabulary rule must bump this tag.
CORPUS_FORMAT = "proofmine corpus v5"
QUERY_NAME = "?query"


class CorruptFile(ValueError):
    """A corpus file that is damaged, malformed or of another format version (exit 3)."""


@dataclass
class Corpus:
    """What clustering and queries read of a set of libraries."""

    names: list[str]  # sorted
    libraries: dict[str, str]  # lemma name -> library tag
    raw: np.ndarray  # one unscaled feature row per name
    table: EncodingTable
    patch_len: int = PATCH_LEN

    def feature_database(self) -> FeatureDatabase:
        matrix = min_max_scale(self.raw) if self.names else self.raw
        return FeatureDatabase(names=list(self.names), libraries=dict(self.libraries), matrix=matrix)


def _read_library(path: Path, tag: str, patch_len: int, symbols: set[str],
                  tactics: set[str]) -> list[LemmaPatch]:
    """The lemmas of one file reduced to the encoder's inputs.

    The goal symbols of the file go into symbols and the tactic names of
    every step, not only of the patches, into tactics.  Nothing here depends
    on which objects the parser shares between records.  The file's text,
    records and term trees are dropped when this returns.
    """
    source = read_source(path)
    if looks_like_trace(source):
        parsed = parse_trace(source, filename=str(path), symbols=symbols, patch_len=patch_len)
    else:
        parsed = parse_library(source, tag, filename=str(path), symbols=symbols, patch_len=patch_len)
    tactics.update(app.name for record in parsed for step in record.steps for app in step.tactics)
    return lemma_patches(parsed, patch_len)


def ingest(paths: list[str | Path], tags: list[str], *, patch_len: int = PATCH_LEN) -> Corpus:
    """Parse each file under its tag, then encode every lemma against the whole corpus's vocabulary.

    An empty tag is refused before any file is read.  Files are read in
    order, as UTF-8, with or without a byte order mark, and the first error
    of a file ends the call.  Trace files carry their own per-record library
    field, which wins over the supplied tag.  Lemma names must be unique
    across all libraries.  Each file is reduced to the encoder's inputs
    before the next is read, so the parsed records of one file at a time are held.
    """
    if len(paths) != len(tags):
        raise ValueError("paths and tags must be parallel lists")
    if any(not t for t in tags):
        raise ValueError("library tags must be non-empty")
    patches: dict[str, LemmaPatch] = {}
    symbols: set[str] = set()
    tactics: set[str] = set()
    for path, tag in zip(paths, tags):
        for patch in _read_library(Path(path), tag, patch_len, symbols, tactics):
            if patch.name in patches:
                raise ParseError(
                    f"lemma {patch.name} already ingested under library {patches[patch.name].library!r}",
                    file=str(path))
            patches[patch.name] = patch
    if not patches:
        raise ValueError(f"the given libraries hold no proved lemma: {', '.join(map(str, paths))}")
    names = sorted(patches)
    table = build_encoding_table(tactics, symbols)
    rows = []  # the distinct rows, in the order of their first lemma by name
    coded: dict = {}  # a patch's steps -> its position in rows: a repeated patch is coded once
    positions = []
    for name in names:
        patch = patches[name]
        pos = coded.get(patch.steps)
        if pos is None:
            pos = coded[patch.steps] = len(rows)
            rows.append(extract_features(patch, table, patch_len))
        positions.append(pos)
    raw = np.array(rows, dtype=np.float64).reshape(len(rows), SLOTS_PER_STEP * patch_len)[positions]
    return Corpus(names, {name: patches[name].library for name in names}, raw, table, patch_len)


def database_with_query(corpus: Corpus, query: LemmaRecord) -> FeatureDatabase:
    """Corpus features plus one temporary query row, re-scaled together.

    The query is reduced and coded as `ingest` codes a lemma; unknown query
    vocabulary encodes as 0.  The query row is named QUERY_NAME.
    """
    row = extract_features(lemma_patches([query], corpus.patch_len)[0], corpus.table, corpus.patch_len)
    matrix = min_max_scale(np.vstack([corpus.raw, row]))
    libraries = {**corpus.libraries, QUERY_NAME: query.library}
    return FeatureDatabase(names=corpus.names + [QUERY_NAME], libraries=libraries, matrix=matrix)


# ---------------------------------------------------------------------------
# persistence


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus as format v5; equal corpora give equal bytes."""
    # a record is stored as its row's position, so rows must line up with the sorted names
    if (corpus.raw.shape != (len(corpus.names), SLOTS_PER_STEP * corpus.patch_len)
            or sorted(corpus.libraries) != corpus.names):
        raise ValueError("the corpus rows, sorted names and library tags do not line up")
    distinct, row_ids = _distinct_rows(corpus.raw)
    libraries: dict[str, list] = {}
    for name, row_id in zip(corpus.names, row_ids.tolist()):
        libraries.setdefault(corpus.libraries[name], []).append([name, row_id])
    payload = _canonical({"patch_len": corpus.patch_len, "tactics": sorted(corpus.table.tactic_codes),
                          "symbols": sorted(corpus.table.symbol_codes), "rows": distinct.tolist(),
                          "libraries": libraries})
    header = {"format": CORPUS_FORMAT, "checksum": hashlib.sha256(payload).hexdigest()}
    Path(path).write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload)


def _vocabulary(words, what: str) -> set[str]:
    """A stored vocabulary, checked to be non-empty strings in strictly ascending order."""
    if type(words) is not list:
        raise ValueError(f"{what} is not a list")
    for pos, word in enumerate(words):
        if type(word) is not str or not word or (pos and words[pos - 1] >= word):
            raise ValueError(f"{what} entry {pos} is not a non-empty string above the one before it")
    return set(words)


def _rows(rows, width: int) -> np.ndarray:
    """The stored distinct rows: lists of width finite numbers, int or float but not bool."""
    if type(rows) is not list:
        raise ValueError("rows is not a list")
    for pos, row in enumerate(rows):
        if type(row) is not list or len(row) != width:
            raise ValueError(f"row {pos} is not a list of {width} numbers")
        if not all(type(v) is float or type(v) is int for v in row):
            raise ValueError(f"row {pos} holds a value that is not a number")
    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), width)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))} holds a value that is not finite")
    return matrix


def _read_v5(data: dict) -> Corpus:
    """Check a v5 payload and build the corpus it stores."""
    if type(data) is not dict:
        raise ValueError("payload is not an object")
    patch_len = data["patch_len"]
    if type(patch_len) is not int or patch_len < 1:  # bool is not a length
        raise ValueError("patch_len is not a positive integer")
    table = build_encoding_table(_vocabulary(data["tactics"], "tactics"),
                                 _vocabulary(data["symbols"], "symbols"))
    rows = _rows(data["rows"], SLOTS_PER_STEP * patch_len)
    stored = data["libraries"]
    if type(stored) is not dict:
        raise ValueError("libraries is not an object")
    row_of: dict[str, int] = {}
    libraries: dict[str, str] = {}
    repeated = set()
    for tag, records in stored.items():
        if not tag:  # as parsing requires
            raise ValueError("a library tag is empty")
        if type(records) is not list:
            raise ValueError("the records of a library are not a list")
        for pos, record in enumerate(records):
            if (type(record) is not list or len(record) != 2 or type(record[0]) is not str
                    or type(record[1]) is not int or not 0 <= record[1] < len(rows)):
                raise ValueError(f"record {pos} of a library is not [name, row_id] within rows")
            name, row_id = record
            if not _IDENT_RE.fullmatch(name):  # as parsing requires; QUERY_NAME is not one
                raise ValueError(f"record {pos} of a library does not name its lemma by an identifier")
            if name in libraries:
                repeated.add(name)
            row_of[name], libraries[name] = row_id, tag
    if repeated:  # members, proximities and tags are all keyed by name
        raise ValueError(f"lemma names must be unique across libraries, repeated: {', '.join(sorted(repeated))}")
    names = sorted(libraries)
    raw = rows[np.array([row_of[name] for name in names], dtype=np.intp)]
    return Corpus(names, libraries, raw, table, patch_len)


def load(path: str | Path) -> Corpus:
    first, _, rest = Path(path).read_bytes().partition(b"\n")
    try:
        header = json.loads(first)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise CorruptFile(f"{path}: not parseable as JSON ({exc})") from exc
    if not isinstance(header, dict) or "format" not in header:
        raise CorruptFile(f"{path}: missing format header")
    if header["format"] != CORPUS_FORMAT:
        found = repr(header["format"])
        if len(found) > 80:  # a format tag is short; do not echo a long value whole
            found = found[:80] + "... (cut)"
        raise CorruptFile(f"{path}: expected {CORPUS_FORMAT!r}, found {found}; "
                          "run `proofmine extract` on its sources to rebuild it")
    if hashlib.sha256(rest).hexdigest() != header.get("checksum"):
        raise CorruptFile(f"{path}: checksum mismatch")
    try:
        return _read_v5(json.loads(rest))
    except (LookupError, ValueError, RecursionError, OverflowError) as exc:
        # the type and message only: the repr of a decoding error holds every byte it read
        raise CorruptFile(f"{path}: malformed payload ({type(exc).__name__}: {exc})") from exc
