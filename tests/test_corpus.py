import gc
import hashlib
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from proofmine import corpus as corpus_module
from proofmine.cli import main
from proofmine.corpus import CORPUS_FORMAT, CorruptFile, database_with_query, ingest, load, save
from proofmine.features import SLOTS_PER_STEP, build_encoding_table, extract_features, lemma_patches
from proofmine.script import ParseError, parse_library, parse_partial, parse_trace
from proofmine.terms import TermTree

from conftest import (FIXTURES, GOLDEN_SOURCES, HINT, HINT_LIBS, iter_nodes, random_library_source,
                      random_trace_source, tactic_names)

# written by `extract --lib ssrbool:ssr_bool.v --lib matrix:matrix_trace.jsonl`
V5_CORPUS = FIXTURES / "ssr_bool_matrix_v5.corpus"


def test_ingest_counts_and_tags():
    corpus = ingest([FIXTURES / "ssr_bool.v", FIXTURES / "ssr_seq.v"], ["ssrbool", "seq"])
    assert Counter(corpus.libraries.values()) == {"ssrbool": 6, "seq": 9}
    assert len(corpus.names) == 15
    assert corpus.libraries["andbb"] == "ssrbool"
    assert corpus.libraries["rot0"] == "seq"


def test_ingest_same_file_twice_duplicates():
    path = FIXTURES / "ssr_bool.v"
    with pytest.raises(ParseError, match=r"^.*ssr_bool\.v: lemma andbb already ingested under library 'a'$") as err:
        ingest([path, path], ["a", "b"])
    assert (err.value.file, err.value.line) == (str(path), None)


def test_ingest_refuses_an_empty_tag_before_reading_a_file(tmp_path):
    with pytest.raises(ValueError, match=r"^library tags must be non-empty$"):
        ingest([tmp_path / "missing.v"], [""])


def test_ingest_of_no_paths_is_an_empty_corpus():
    with pytest.raises(ValueError, match=r"^the given libraries hold no proved lemma: $"):
        ingest([], [])


def test_incremental_ingest_rebuilds_table():
    """Adding a library means ingesting again: the vocabulary is rebuilt over every library and
    the earlier lemmas are re-encoded against it."""
    corpus = ingest([FIXTURES / "ssr_bool.v"], ["ssrbool"])
    grown = ingest([FIXTURES / "ssr_bool.v", FIXTURES / "ssr_seq.v"], ["ssrbool", "seq"])
    assert len(grown.names) == len(corpus.names) + 9 and set(corpus.names) <= set(grown.names)
    symbols: set[str] = set()
    earlier = parse_library((FIXTURES / "ssr_bool.v").read_text(), "ssrbool", symbols=symbols)
    records = earlier + parse_library((FIXTURES / "ssr_seq.v").read_text(), "seq", symbols=symbols)
    assert grown.table == build_encoding_table(tactic_names(records), symbols) != corpus.table
    changed = 0
    for record in earlier:
        row = grown.raw[grown.names.index(record.name)]
        assert row.tolist() == list(extract_features(lemma_patches([record])[0], grown.table))
        changed += row.tolist() != corpus.raw[corpus.names.index(record.name)].tolist()
    assert changed  # the grown vocabulary shifted codes that earlier rows hold


def test_ingest_order_independent(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(5):
        src_a = random_library_source(rng, int(rng.integers(2, 8)), f"a{trial}")
        src_b = random_library_source(rng, int(rng.integers(2, 8)), f"b{trial}")
        pa, pb = tmp_path / f"a{trial}.v", tmp_path / f"b{trial}.v"
        pa.write_text(src_a)
        pb.write_text(src_b)
        assert_same_corpus(ingest([pa, pb], ["ta", "tb"]), ingest([pb, pa], ["tb", "ta"]))


def test_features_cover_each_lemma_once():
    corpus = ingest([FIXTURES / "ssr_nat.v"], ["ssrnat"])
    records = parse_library((FIXTURES / "ssr_nat.v").read_text(), "ssrnat")
    assert corpus.names == sorted(r.name for r in records)
    assert corpus.raw.shape == (len(records), 40)
    table = corpus.table
    for record in records:
        for step in record.steps:
            for app in step.tactics:
                assert table.tactic_code(app.name) > 0
        for node in iter_nodes(record.statement):
            assert table.symbol_code(node.symbol) > 0


def test_scaled_features_within_unit_interval():
    corpus = ingest([FIXTURES / "ssr_nat.v", FIXTURES / "jvm_fact.v"], ["ssrnat", "jvm"])
    matrix = corpus.feature_database().matrix
    assert matrix.min() >= 0.0 and matrix.max() <= 1.0
    assert matrix.shape[1] == 40


def test_trace_ingestion_uses_embedded_library():
    corpus = ingest([FIXTURES / "matrix_trace.jsonl"], ["ignored"])
    assert set(corpus.libraries.values()) == {"matrix"}
    assert (corpus.raw[:, 7] >= 0).all()  # every first step's subgoal count is known


def test_mixed_trace_and_vernacular():
    corpus = ingest(
        [FIXTURES / "ssr_bool.v", FIXTURES / "matrix_trace.jsonl"],
        ["ssrbool", "matrix"])
    assert set(corpus.libraries.values()) == {"ssrbool", "matrix"}
    assert len(corpus.names) == 8


# ---------------------------------------------------------------------------
# ingest reduces each file to the encoder's inputs before it reads the next


def _live_term_trees() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is TermTree)


def test_ingest_holds_no_term_tree_of_an_earlier_file(monkeypatch):
    # matrix_trace.jsonl traces the lemmas of matrix_nilpotent.v, so it stands in for it
    paths = [*(path for tag, path in GOLDEN_SOURCES.items() if tag != "matrix_nilpotent"),
             FIXTURES / "matrix_trace.jsonl", *(path for _, path in HINT_LIBS)]
    gc.collect()
    before = _live_term_trees()
    at_start: list[int] = []

    def counted(parse):
        def wrapper(*args, **kwargs):
            at_start.append(_live_term_trees() - before)
            return parse(*args, **kwargs)
        return wrapper

    # wrapped where ingest looks them up, as the benchmark's tracer wraps them
    monkeypatch.setattr(corpus_module, "parse_library", counted(corpus_module.parse_library))
    monkeypatch.setattr(corpus_module, "parse_trace", counted(corpus_module.parse_trace))
    corpus = ingest(paths, [path.stem for path in paths])
    assert at_start == [0] * len(paths)
    assert _live_term_trees() == before  # nor does the corpus hold one
    assert len(corpus.names) > len(paths)


def test_tactic_vocabulary_holds_names_used_only_after_the_patch(tmp_path):
    path = tmp_path / "long.v"
    path.write_text("Lemma long : f x = x.\nProof. " + "move=> y. " * 6 + "zorg y. by []. Qed.\n"
                    "Lemma short : g x.\nProof. by []. Qed.\n")
    corpus = ingest([path], ["t"])
    assert "zorg" in corpus.table.tactic_codes
    symbols: set[str] = set()
    records = parse_library(path.read_text(), "t", symbols=symbols)
    assert corpus.table == build_encoding_table(tactic_names(records), symbols)


def test_vocabulary_does_not_depend_on_the_patch_length():
    paths = [FIXTURES / "ssr_seq.v", FIXTURES / "jvm_fact.v", FIXTURES / "matrix_trace.jsonl"]
    tags = ["seq", "jvm", "ignored"]
    symbols: set[str] = set()
    records = [*parse_library(paths[0].read_text(), "seq", symbols=symbols),
               *parse_library(paths[1].read_text(), "jvm", symbols=symbols),
               *parse_trace(paths[2].read_text(), symbols=symbols)]
    table = build_encoding_table(tactic_names(records), symbols)
    for patch_len in (1, 2, 5, 8):
        corpus = ingest(paths, tags, patch_len=patch_len)
        assert corpus.table == table
        for record in records:  # the rows of the lemmas themselves, encoded whole
            row = corpus.raw[corpus.names.index(record.name)]
            assert row.tolist() == list(extract_features(lemma_patches([record], patch_len)[0], table, patch_len))


ERROR_ORDER_FILES = {
    "ok.v": "Lemma a1 : f x = x.\nProof. by rewrite g. Qed.\n",
    "bad.v": "Lemma b1 : f (x = x.\nProof. by []. Qed.\n",
    "dup.v": "Lemma z9 : g y.\nProof. by []. Qed.\nLemma a1 : h y.\nProof. by []. Qed.\n",
    "bare.v": "Lemma bare0 : Q.\nProof. Qed.\nLemma c1 : h z.\nProof. by []. Qed.\n",
    "dup.jsonl": json.dumps({"lemma": "a1", "library": "tr", "step_index": 1, "tactic_line": "by [].",
                             "goal_before": "f x", "subgoals_after": 0}) + "\n",
}


# Files are read in --lib order, each parsed and then checked for names that an earlier file
# holds; the first error ends extract, so no later file's error can hide it.
BARE = "parse error: <bare.v>:1: proof of bare0 has no steps"
ERROR_ORDER_CASES = [
    (["ok.v", "bad.v", "dup.v"], "parse error: <bad.v>:1: bad statement for b1: missing ')'"),
    (["ok.v", "dup.v", "bad.v"], "parse error: <dup.v>: lemma a1 already ingested under library 't1'"),
    (["ok.v", "dup.jsonl"], "parse error: <dup.jsonl>: lemma a1 already ingested under library 't1'"),
    (["dup.jsonl", "ok.v"], "parse error: <ok.v>: lemma a1 already ingested under library 'tr'"),
    (["bare.v", "dup.v", "ok.v"], BARE),
    (["ok.v", "bare.v"], BARE),
    (["bare.v", "bad.v"], BARE),
    (["bare.v", "ok.v", "dup.v"], BARE),
    (["bad.v", "bare.v"], "parse error: <bad.v>:1: bad statement for b1: missing ')'"),
]


@pytest.mark.parametrize("files, message", ERROR_ORDER_CASES,
                         ids=["+".join(files) for files, _ in ERROR_ORDER_CASES])
def test_extract_reports_the_first_error_in_file_then_name_order(tmp_path, capsys, files, message):
    paths = {}
    for name in files:
        paths[name] = tmp_path / name
        paths[name].write_text(ERROR_ORDER_FILES[name])
    libs = [f"--lib=t{i}:{paths[name]}" for i, name in enumerate(files, start=1)]
    assert main(["extract", *libs, "--out", str(tmp_path / "c")]) == 2
    for name, path in paths.items():
        message = message.replace(f"<{name}>", str(path))
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "c").exists()


def test_save_load_round_trip(tmp_path):
    corpus = ingest([FIXTURES / "ssr_bool.v", FIXTURES / "matrix_trace.jsonl"],
                    ["ssrbool", "matrix"])
    path = tmp_path / "c.corpus"
    save(corpus, path)
    assert_same_corpus(load(path), corpus)


def assert_same_corpus(got, want) -> None:
    assert got.names == want.names
    assert got.libraries == want.libraries
    assert got.table == want.table
    assert got.patch_len == want.patch_len
    assert got.raw.shape == want.raw.shape
    assert got.raw.tobytes() == want.raw.tobytes()


def test_round_trip_random_corpora(tmp_path):
    rng = np.random.default_rng(77)
    query = parse_partial((HINT / "hint_query.v").read_text())
    for trial in range(6):
        paths = [tmp_path / f"lib{lib}_{trial}.v" for lib in range(2)]
        for lib, lib_path in enumerate(paths):
            lib_path.write_text(random_library_source(rng, int(rng.integers(2, 9)), f"lib{lib}"))
        trace = tmp_path / f"t{trial}.jsonl"
        trace.write_text(random_trace_source(rng, int(rng.integers(1, 6)), f"tr{trial}", "traced"))
        corpus = ingest(paths + [trace], ["lib0", "lib1", "ignored"])
        path = tmp_path / f"t{trial}.corpus"
        save(corpus, path)
        loaded = load(path)
        assert_same_corpus(loaded, corpus)
        # a query encodes against the stored vocabulary exactly as against the ingested one
        assert (database_with_query(loaded, query).matrix.tobytes()
                == database_with_query(corpus, query).matrix.tobytes())


def test_truncated_file_rejected(tmp_path):
    corpus = ingest([FIXTURES / "ssr_bool.v"], ["a"])
    path = tmp_path / "c.corpus"
    save(corpus, path)
    data = path.read_bytes()
    rng = np.random.default_rng(5)
    for _ in range(8):
        cut = int(rng.integers(0, len(data) - 1))
        path.write_bytes(data[:cut])
        with pytest.raises(CorruptFile):
            load(path)


def test_flipped_byte_rejected(tmp_path):
    corpus = ingest([FIXTURES / "ssr_bool.v"], ["a"])
    path = tmp_path / "c.corpus"
    save(corpus, path)
    data = bytearray(path.read_bytes())
    # flip a digit inside the payload line, past the header and its checksum
    target = data.find(b'"patch_len"', data.index(b"\n"))
    assert target > 0
    probe = target
    while not chr(data[probe]).isdigit():
        probe += 1
    data[probe] = ord("7") if data[probe] != ord("7") else ord("3")
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptFile):
        load(path)


def test_database_with_query_appends_scaled_row():
    corpus = ingest([FIXTURES / "ssr_bool.v"], ["ssrbool"])
    query = parse_partial("Lemma q : idempotent andb.\nProof. by case.\n")
    db = database_with_query(corpus, query)
    assert db.names[-1] == "?query"
    assert len(db.names) == len(corpus.names) + 1
    assert db.matrix.shape == (len(db.names), 40)
    assert db.matrix.min() >= 0.0 and db.matrix.max() <= 1.0


def test_save_rejects_positions_that_would_misstate_a_record(tmp_path):
    """A record is stored as its row's position, so save refuses rows that do not line up with the names."""
    corpus = ingest([FIXTURES / "ssr_bool.v"], ["ssrbool"])
    path = tmp_path / "c.corpus"
    for misaligned in (replace(corpus, raw=corpus.raw[:-1]),  # the last lemma would have no row
                       replace(corpus, raw=corpus.raw[:, :-SLOTS_PER_STEP]),  # rows one step short
                       replace(corpus, names=corpus.names[::-1]),  # rows would go to other names
                       replace(corpus, libraries={**corpus.libraries, "extra": "ssrbool"})):
        with pytest.raises(ValueError, match="do not line up"):
            save(misaligned, path)
        assert not path.exists()
    save(corpus, path)
    assert_same_corpus(load(path), corpus)


def test_corpus_rejects_a_repeated_lemma_name(tmp_path):
    """A lemma name repeated within one library or across two is refused, naming the lemma."""
    twice = tmp_path / "twice.v"
    twice.write_text("Lemma andbb : idempotent andb.\nProof. by case. Qed.\n" * 2)
    other = tmp_path / "other.v"
    other.write_text("Lemma andbb : idempotent andb.\nProof. by case. Qed.\n")
    for paths, tags in (([twice], ["twice"]), ([FIXTURES / "ssr_bool.v", other], ["ssrbool", "other"])):
        with pytest.raises(ParseError, match="andbb"):
            ingest(paths, tags)


def test_save_writes_header_line_then_checksummed_payload(tmp_path):
    corpus = ingest([FIXTURES / "ssr_bool.v"], ["ssrbool"])
    path = tmp_path / "c.corpus"
    save(corpus, path)
    header, payload = path.read_bytes().split(b"\n", 1)
    assert json.loads(header) == {"format": CORPUS_FORMAT,
                                  "checksum": hashlib.sha256(payload).hexdigest()}
    assert set(json.loads(payload)) == {"libraries", "patch_len", "rows", "symbols", "tactics"}


def test_rows_are_stored_once_with_the_vocabulary_in_code_order(tmp_path):
    corpus = ingest([p for _, p in HINT_LIBS], [t for t, _ in HINT_LIBS])  # 24 lemmas, 4 distinct rows
    path = tmp_path / "c.corpus"
    save(corpus, path)
    payload = json.loads(path.read_bytes().split(b"\n", 1)[1])
    assert len(payload["rows"]) == len(np.unique(corpus.raw, axis=0)) < len(corpus.names)
    records = [(tag, name, row_id) for tag, recs in payload["libraries"].items() for name, row_id in recs]
    assert sorted(name for _, name, _ in records) == corpus.names
    for tag, name, row_id in records:
        assert corpus.libraries[name] == tag
        assert payload["rows"][row_id] == corpus.raw[corpus.names.index(name)].tolist()
    for words, codes in ((payload["tactics"], corpus.table.tactic_codes),
                         (payload["symbols"], corpus.table.symbol_codes)):
        assert [codes[w] for w in words] == list(range(1, len(codes) + 1))


def test_v5_corpus_loads_as_ingested_and_saves_to_the_same_bytes(tmp_path):
    """A change to the encoding that leaves CORPUS_FORMAT alone fails here."""
    fresh = ingest([FIXTURES / "ssr_bool.v", FIXTURES / "matrix_trace.jsonl"], ["ssrbool", "matrix"])
    assert_same_corpus(load(V5_CORPUS), fresh)
    save(fresh, tmp_path / "v5.corpus")
    assert (tmp_path / "v5.corpus").read_bytes() == V5_CORPUS.read_bytes()


def _write_checked(path, body: bytes, version: str = CORPUS_FORMAT) -> None:
    """A corpus file whose header checksum matches body."""
    header = {"format": version, "checksum": hashlib.sha256(body).hexdigest()}
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)


def _json(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


# payloads built from the v5 fixture's, for files with a valid checksum
_V5 = json.loads(V5_CORPUS.read_bytes().partition(b"\n")[2])
_V5_ROW = _V5["rows"][0]
_V5_RECORD = _V5["libraries"]["ssrbool"][0]  # [name, row_id]


def _v5(**changes) -> bytes:
    """The v5 fixture's payload with changes; a change to None drops the key."""
    return _json({k: v for k, v in {**_V5, **changes}.items() if v is not None})


def _v5_record(record) -> bytes:
    return _v5(libraries={"ssrbool": [record]})


def _v5_row(row) -> bytes:
    """The v5 fixture's payload with one more row, which no record uses."""
    return _v5(rows=_V5["rows"] + [row])


def _v5_row_value(text: bytes) -> bytes:
    """A row ending in a JSON number that no Python value dumps as."""
    return _v5_row(_V5_ROW[:-1] + ["VALUE"]).replace(b'"VALUE"', text)


MALFORMED_PAYLOADS = {
    "libraries is a list": _v5(libraries=[]),
    "payload is a list": _json([_V5]),
    "patch_len is a string": _v5(patch_len="5"),
    "patch_len is zero": _v5(patch_len=0),
    "patch_len is negative": _v5(patch_len=-2),
    "patch_len is true": _v5(patch_len=True),
    "patch_len missing": _v5(patch_len=None),
    "patch_len does not match the row width": _v5(patch_len=4),
    "payload is not JSON": _v5()[:-1],
    "payload is not UTF-8": _v5().replace(b'"ssrbool"', b'"ssr\xffbool"'),
    "tactics missing": _v5(tactics=None),
    "symbols missing": _v5(symbols=None),
    "rows missing": _v5(rows=None),
    "libraries missing": _v5(libraries=None),
    "tactics is not a list": _v5(tactics={"0": "by"}),
    "symbols is not a list": _v5(symbols="abc"),
    "rows is not a list": _v5(rows={"0": _V5_ROW}),
    "records is not a list": _v5(libraries={"ssrbool": {"0": _V5_RECORD}}),
    # vocabularies: non-empty strings, strictly ascending
    "unsorted tactics": _v5(tactics=_V5["tactics"][::-1]),
    "repeated tactic": _v5(tactics=_V5["tactics"] + _V5["tactics"][-1:]),
    "empty tactic": _v5(tactics=[""] + _V5["tactics"]),
    "non-string tactic": _v5(tactics=_V5["tactics"] + [5]),
    "unsorted symbols": _v5(symbols=_V5["symbols"][::-1]),
    "repeated symbol": _v5(symbols=_V5["symbols"][:1] + _V5["symbols"]),
    "empty symbol": _v5(symbols=[""] + _V5["symbols"]),
    "non-string symbol": _v5(symbols=_V5["symbols"] + [5]),
    # rows: 8 * patch_len finite numbers, int or float but not bool
    "NaN in a row": _v5_row(_V5_ROW[:-1] + [math.nan]),
    "Infinity in a row": _v5_row(_V5_ROW[:-1] + [math.inf]),
    "-Infinity in a row": _v5_row(_V5_ROW[:-1] + [-math.inf]),
    "1e400 in a row": _v5_row_value(b"1e400"),
    # a JSON integer in the last slot of a step's block, its subgoal count, that overflows a float
    "subgoal count too large for a float": _v5_row(_V5_ROW[:-1] + [10 ** 400]),
    "true in a row": _v5_row(_V5_ROW[:-1] + [True]),
    "null in a row": _v5_row(_V5_ROW[:-1] + [None]),
    "string in a row": _v5_row(_V5_ROW[:-1] + ["0"]),
    "row too short": _v5_row(_V5_ROW[:-1]),
    "row too long": _v5_row(_V5_ROW + [0.0]),
    "row is not a list": _v5_row("abc"),
    # records: [name, row_id] with the id within rows
    "row_id out of range": _v5_record([_V5_RECORD[0], len(_V5["rows"])]),
    "negative row_id": _v5_record([_V5_RECORD[0], -1]),
    "row_id is true": _v5_record([_V5_RECORD[0], True]),
    "row_id is a float": _v5_record([_V5_RECORD[0], 0.0]),
    "record list too short": _v5_record(_V5_RECORD[:1]),
    "record list too long": _v5_record(_V5_RECORD + [0]),
    "record is a dict": _v5_record(dict(enumerate(_V5_RECORD))),
    "non-string lemma name": _v5_record([7, _V5_RECORD[1]]),
    # names: identifiers, as parsing gives them; the query row's name is not one
    "lemma named as the query row": _v5_record(["?query", _V5_RECORD[1]]),
    "empty lemma name": _v5_record(["", _V5_RECORD[1]]),
    # tags: non-empty, as parsing requires
    "empty library tag": _v5(libraries={**_V5["libraries"], "": [["emptytagged", _V5_RECORD[1]]]}),
}


def _repeated_name(across: bool) -> bytes:
    """The v5 fixture's payload with ssrbool's first record stored once more, in ssrbool or under a new tag."""
    tag = "other" if across else "ssrbool"
    return _v5(libraries={**_V5["libraries"], tag: _V5["libraries"].get(tag, []) + [_V5_RECORD]})


@pytest.mark.parametrize("across", [False, True], ids=["in one library", "across libraries"])
def test_repeated_lemma_name_is_corrupt(tmp_path, across):
    path = tmp_path / "c.corpus"
    _write_checked(path, _repeated_name(across))
    with pytest.raises(CorruptFile, match=f"repeated: {_V5_RECORD[0]}\\)"):
        load(path)
    assert main(["cluster", "--corpus", str(path), "--out", str(tmp_path / "d")]) == 3


@pytest.mark.parametrize("body", MALFORMED_PAYLOADS.values(), ids=MALFORMED_PAYLOADS.keys())
def test_checksum_valid_malformed_payload_is_corrupt(tmp_path, capsys, body):
    path = tmp_path / "c.corpus"
    _write_checked(path, body)
    with pytest.raises(CorruptFile):
        load(path)
    assert main(["cluster", "--corpus", str(path), "--out", str(tmp_path / "d")]) == 3
    assert main(["hint", "--corpus", str(path), "--query", str(HINT / "hint_query.v")]) == 3
    # each message names what is wrong, not the stored values
    assert len(capsys.readouterr().err) < 1000


@pytest.mark.parametrize("tag", [f"proofmine corpus v{n}" for n in range(5)])
def test_version_mismatch(tmp_path, capsys, tag):
    """A corpus in any other format, older ones included, is refused; `extract` rebuilds it."""
    path = tmp_path / "c.corpus"
    _write_checked(path, _v5(), tag)
    with pytest.raises(CorruptFile, match=tag):
        load(path)
    for argv in (["cluster", "--corpus", str(path), "--out", str(tmp_path / "d")],
                 ["hint", "--corpus", str(path), "--query", str(HINT / "hint_query.v")]):
        assert main(argv) == 3
        assert "extract" in capsys.readouterr().err


def test_empty_corpus_is_insufficient_data(tmp_path):
    path = tmp_path / "c.corpus"
    _write_checked(path, _v5(tactics=[], symbols=[], rows=[], libraries={}))
    corpus = load(path)
    assert corpus.names == []
    assert corpus.feature_database().matrix.shape == (0, 40)
    assert main(["cluster", "--corpus", str(path), "--out", str(tmp_path / "d")]) == 4
    assert main(["hint", "--corpus", str(path), "--query", str(HINT / "hint_query.v")]) == 4
