import hashlib
import json

import numpy as np
import pytest

from proofmine.cli import main
from proofmine.corpus import (CORPUS_FORMAT, CorruptFile, TermTable, VersionMismatch,
                              database_with_query, encode_record, ingest, load, save)
from proofmine.script import DuplicateLemmaName, parse_partial

from conftest import (FIXTURES, HINT, iter_nodes, random_corpus, random_library_source,
                      random_trace_source)

# written by the v1, v2 and v3 code: `extract --lib ssrbool:ssr_bool.v --lib matrix:matrix_trace.jsonl`
# run inside tests/fixtures, so their source spans name the files relatively
V1_CORPUS = FIXTURES / "ssr_bool_matrix_v1.corpus"
V2_CORPUS = FIXTURES / "ssr_bool_matrix_v2.corpus"
V3_CORPUS = FIXTURES / "ssr_bool_matrix_v3.corpus"


def test_ingest_counts_and_tags():
    corpus = ingest([FIXTURES / "ssr_bool.v", FIXTURES / "ssr_seq.v"], ["ssrbool", "seq"])
    assert set(corpus.libraries) == {"ssrbool", "seq"}
    assert len(corpus.libraries["ssrbool"]) == 6
    assert len(corpus.libraries["seq"]) == 9
    assert corpus.lemma_count() == 15
    tags = corpus.library_tags()
    assert tags["andbb"] == "ssrbool"
    assert tags["rot0"] == "seq"


def test_ingest_same_file_twice_duplicates():
    corpus = ingest([FIXTURES / "ssr_bool.v"], ["a"])
    with pytest.raises(DuplicateLemmaName):
        ingest([FIXTURES / "ssr_bool.v"], ["b"], corpus)


def test_ingest_empty_paths_is_identity():
    corpus = ingest([FIXTURES / "ssr_bool.v"], ["a"])
    assert ingest([], [], corpus) is corpus


def test_ingest_order_independent(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(5):
        src_a = random_library_source(rng, int(rng.integers(2, 8)), f"a{trial}")
        src_b = random_library_source(rng, int(rng.integers(2, 8)), f"b{trial}")
        pa, pb = tmp_path / f"a{trial}.v", tmp_path / f"b{trial}.v"
        pa.write_text(src_a)
        pb.write_text(src_b)
        ab = ingest([pa, pb], ["ta", "tb"])
        ba = ingest([pb, pa], ["tb", "ta"])
        assert ab.table == ba.table
        assert ab.names == ba.names
        assert np.array_equal(ab.raw, ba.raw)
        assert ab == ba


def test_incremental_ingest_rebuilds_table(tmp_path):
    corpus = ingest([FIXTURES / "ssr_bool.v"], ["ssrbool"])
    before = list(corpus.names)
    grown = ingest([FIXTURES / "ssr_seq.v"], ["seq"], corpus)
    assert grown.lemma_count() == corpus.lemma_count() + 9
    combined = ingest([FIXTURES / "ssr_bool.v", FIXTURES / "ssr_seq.v"], ["ssrbool", "seq"])
    assert grown.names == combined.names
    assert np.array_equal(grown.raw, combined.raw)
    assert grown.table == combined.table
    # vocabulary grew, so the earlier lemmas' vectors were re-extracted
    assert set(before) <= set(grown.names)


def test_features_cover_each_lemma_once():
    corpus = ingest([FIXTURES / "ssr_nat.v"], ["ssrnat"])
    records = [r for recs in corpus.libraries.values() for r in recs]
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
    assert set(corpus.libraries) == {"matrix"}
    record = corpus.libraries["matrix"][0]
    assert record.steps[0].subgoals_after is not None


def test_mixed_trace_and_vernacular():
    corpus = ingest(
        [FIXTURES / "ssr_bool.v", FIXTURES / "matrix_trace.jsonl"],
        ["ssrbool", "matrix"])
    assert set(corpus.libraries) == {"ssrbool", "matrix"}
    assert corpus.lemma_count() == 8


def test_save_load_round_trip(tmp_path):
    corpus = ingest([FIXTURES / "ssr_bool.v", FIXTURES / "matrix_trace.jsonl"],
                    ["ssrbool", "matrix"])
    path = tmp_path / "c.corpus"
    save(corpus, path)
    assert load(path) == corpus


def assert_same_corpus(got, want) -> None:
    assert got == want
    assert got.table == want.table
    assert got.names == want.names
    assert np.array_equal(got.raw, want.raw)


def test_round_trip_random_corpora(tmp_path):
    rng = np.random.default_rng(77)
    for trial in range(6):
        corpus = random_corpus(rng, tmp_path, max_lemmas=8)
        trace = tmp_path / f"t{trial}.jsonl"
        trace.write_text(random_trace_source(rng, int(rng.integers(1, 6)), f"tr{trial}", "traced"))
        corpus = ingest([trace], ["ignored"], corpus)
        path = tmp_path / f"t{trial}.corpus"
        save(corpus, path)
        assert_same_corpus(load(path), corpus)


def test_version_mismatch(tmp_path):
    path = tmp_path / "old.corpus"
    path.write_text('{"format": "proofmine corpus v0", "checksum": "", "payload": {}}')
    with pytest.raises(VersionMismatch):
        load(path)


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
    target = data.find(b'"line_start"', data.index(b"\n"))
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
    assert len(db.names) == corpus.lemma_count() + 1
    assert db.matrix.shape == (len(db.names), 40)
    assert db.matrix.min() >= 0.0 and db.matrix.max() <= 1.0


def test_save_writes_header_line_then_checksummed_payload(tmp_path):
    corpus = ingest([FIXTURES / "ssr_bool.v"], ["ssrbool"])
    path = tmp_path / "c.corpus"
    save(corpus, path)
    header, payload = path.read_bytes().split(b"\n", 1)
    assert json.loads(header) == {"format": CORPUS_FORMAT,
                                  "checksum": hashlib.sha256(payload).hexdigest()}
    assert set(json.loads(payload)) == {"libraries", "patch_len", "terms"}


def test_term_table_stores_each_subtree_once_and_load_shares_it(tmp_path):
    corpus = ingest([FIXTURES / "ssr_bool.v", FIXTURES / "ssr_nat.v", FIXTURES / "matrix_trace.jsonl"],
                    ["ssrbool", "ssrnat", "matrix"])
    path = tmp_path / "c.corpus"
    save(corpus, path)
    terms = json.loads(path.read_bytes().split(b"\n", 1)[1])["terms"]
    assert len({tuple(entry) for entry in terms}) == len(terms)
    loaded = load(path)
    assert_same_corpus(loaded, corpus)
    records = [r for recs in loaded.libraries.values() for r in recs]
    for record in loaded.libraries["ssrbool"] + loaded.libraries["ssrnat"]:
        assert record.steps[0].goal_before is record.statement
    # equal subtrees anywhere in the corpus are one object
    trees = [r.statement for r in records] + [s.goal_before for r in records for s in r.steps]
    objects: dict = {}
    for tree in trees:
        for node in iter_nodes(tree):
            objects.setdefault(node, set()).add(id(node))
    assert len(objects) == len(terms)
    assert all(len(ids) == 1 for ids in objects.values())


def test_v1_corpus_loads_as_ingested(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    old = load(V1_CORPUS)
    fresh = ingest(["ssr_bool.v", "matrix_trace.jsonl"], ["ssrbool", "matrix"])
    assert_same_corpus(old, fresh)
    # the table and vectors the v1 file stored are the ones derived on load
    stored = json.loads(V1_CORPUS.read_text())["payload"]
    assert stored["table"] == old.table.to_dict()
    assert [stored["features"][n]["raw"] for n in old.names] == old.raw.tolist()
    scaled = [stored["features"][n]["scaled"] for n in old.names]
    assert scaled == old.feature_database().matrix.tolist()


def test_v2_corpus_loads_as_ingested(monkeypatch, tmp_path):
    monkeypatch.chdir(FIXTURES)
    old = load(V2_CORPUS)
    fresh = ingest(["ssr_bool.v", "matrix_trace.jsonl"], ["ssrbool", "matrix"])
    assert_same_corpus(old, fresh)
    # saving rewrites it as the current format
    save(old, tmp_path / "v3.corpus")
    assert_same_corpus(load(tmp_path / "v3.corpus"), fresh)


def test_v3_corpus_loads_as_ingested_and_saves_to_the_same_bytes(monkeypatch, tmp_path):
    monkeypatch.chdir(FIXTURES)
    fresh = ingest(["ssr_bool.v", "matrix_trace.jsonl"], ["ssrbool", "matrix"])
    assert_same_corpus(load(V3_CORPUS), fresh)
    save(fresh, tmp_path / "v3.corpus")
    assert (tmp_path / "v3.corpus").read_bytes() == V3_CORPUS.read_bytes()


def test_v1_corpus_with_changed_payload_digit_rejected(tmp_path):
    data = bytearray(V1_CORPUS.read_bytes())
    probe = data.index(b'"line_start": ') + len(b'"line_start": ')
    data[probe] = ord("7") if data[probe] != ord("7") else ord("3")
    path = tmp_path / "v1.corpus"
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptFile):
        load(path)


def _write_checked(path, body: bytes) -> None:
    """A corpus file whose header checksum matches body."""
    header = {"format": CORPUS_FORMAT, "checksum": hashlib.sha256(body).hexdigest()}
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)


_TERMS = TermTable()
_RECORDS = [encode_record(r, _TERMS.add)
            for r in ingest([FIXTURES / "ssr_bool.v"], ["ssrbool"]).libraries["ssrbool"]]
_ENTRIES = list(_TERMS.ids)


def _payload(**changes) -> dict:
    return {"patch_len": 5, "terms": _ENTRIES, "libraries": {"ssrbool": _RECORDS}, **changes}


def _first_record(**changes) -> dict:
    """The first record with changes applied; a change to None drops the field."""
    record = {**_RECORDS[0], **changes}
    return {k: v for k, v in record.items() if v is not None}


def _json(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


MALFORMED_PAYLOADS = {
    "record without statement": _json(_payload(
        libraries={"ssrbool": [_first_record(statement=None)]})),
    "record with no steps": _json(_payload(libraries={"ssrbool": [_first_record(steps=[])]})),
    "libraries is a list": _json(_payload(libraries=[])),
    "payload is a list": _json([_payload()]),
    "patch_len is a string": _json(_payload(patch_len="5")),
    "patch_len is zero": _json(_payload(patch_len=0)),
    "patch_len is negative": _json(_payload(patch_len=-2)),
    "patch_len is true": _json(_payload(patch_len=True)),
    "unknown argument kind": _json(_payload(libraries={"ssrbool": [_first_record(steps=[
        {"index": 1, "tactics": [{"name": "by", "arguments": [{"text": "x", "kind": "?"}]}]}])]})),
    "payload is not JSON": b'{"patch_len": 5, "libraries": ',
    "payload is not UTF-8": b'{"patch_len": 5, "libraries": {"\xff": []}}',
    "term id out of range": _json(_payload(libraries={"ssrbool": [
        _first_record(statement=len(_ENTRIES))]})),
    "negative term id": _json(_payload(libraries={"ssrbool": [_first_record(statement=-1)]})),
    "term id is true": _json(_payload(libraries={"ssrbool": [_first_record(statement=True)]})),
    "goal id out of range": _json(_payload(libraries={"ssrbool": [_first_record(steps=[
        {"index": 1, "tactics": [], "goal_before": len(_ENTRIES)}])]})),
    "child id not below its entry": _json(_payload(terms=_ENTRIES + [["x", len(_ENTRIES)]])),
    "negative child id": _json(_payload(terms=_ENTRIES + [["x", -1]])),
    "child id is true": _json(_payload(terms=_ENTRIES + [["x", True]])),
    "empty symbol": _json(_payload(terms=_ENTRIES + [[""]])),
    "non-string symbol": _json(_payload(terms=_ENTRIES + [[5]])),
    "empty term entry": _json(_payload(terms=_ENTRIES + [[]])),
    "terms is not a list": _json(_payload(terms={"0": ["x"]})),
    "terms missing": _json({"patch_len": 5, "libraries": {"ssrbool": _RECORDS}}),
    "subgoal count too large for a float": _json(_payload(libraries={"ssrbool": [_first_record(steps=[
        {"index": 1, "tactics": [], "subgoals_after": 10 ** 400}])]})),
}


@pytest.mark.parametrize("body", MALFORMED_PAYLOADS.values(), ids=MALFORMED_PAYLOADS.keys())
def test_checksum_valid_malformed_payload_is_corrupt(tmp_path, body):
    path = tmp_path / "c.corpus"
    _write_checked(path, body)
    with pytest.raises(CorruptFile):
        load(path)
    assert main(["cluster", "--corpus", str(path), "--out", str(tmp_path / "d")]) == 3
    assert main(["hint", "--corpus", str(path), "--query", str(HINT / "hint_query.v")]) == 3


def test_empty_corpus_is_insufficient_data(tmp_path):
    path = tmp_path / "c.corpus"
    _write_checked(path, _json(_payload(libraries={})))
    corpus = load(path)
    assert corpus.lemma_count() == 0
    assert corpus.feature_database().matrix.shape == (0, 40)
    assert main(["cluster", "--corpus", str(path), "--out", str(tmp_path / "d")]) == 4
    assert main(["hint", "--corpus", str(path), "--query", str(HINT / "hint_query.v")]) == 4
