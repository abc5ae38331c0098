import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from proofmine.cli import main
from proofmine.corpus import (CORPUS_FORMAT, Corpus, CorruptFile, TermTable, VersionMismatch,
                              database_with_query, ingest, load, save)
from proofmine.script import DuplicateLemmaName, parse_partial
from proofmine.terms import TermTree

from conftest import (FIXTURES, HINT, PARSER_INPUT_GROUPS, iter_nodes, random_corpus,
                      random_library_source, random_trace_source)

# written by `extract --lib ssrbool:ssr_bool.v --lib matrix:matrix_trace.jsonl` run inside
# tests/fixtures, so its source spans name the files relatively
V4_CORPUS = FIXTURES / "ssr_bool_matrix_v4.corpus"


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
    assert set(json.loads(payload)) == {"arguments", "libraries", "patch_len", "tactics", "terms"}


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


def _applications(corpus) -> list:
    return [app for records in corpus.libraries.values() for record in records
            for step in record.steps for app in step.tactics]


def test_arguments_and_applications_are_stored_once_and_shared_on_load(tmp_path):
    corpus = ingest([FIXTURES / "ssr_bool.v", FIXTURES / "ssr_nat.v", FIXTURES / "matrix_trace.jsonl"],
                    ["ssrbool", "ssrnat", "matrix"])
    path = tmp_path / "c.corpus"
    save(corpus, path)
    payload = json.loads(path.read_bytes().split(b"\n", 1)[1])
    apps = _applications(corpus)
    assert len(payload["tactics"]) == len(set(apps)) < len(apps)
    assert len(payload["arguments"]) == len({arg for app in apps for arg in app.arguments})
    for table in ("arguments", "tactics"):
        assert len({tuple(entry) for entry in payload[table]}) == len(payload[table])
    loaded = load(path)
    assert_same_corpus(loaded, corpus)
    # equal applications and arguments anywhere in the corpus are one object
    apps = _applications(loaded)
    for items, table in ((apps, "tactics"), ([arg for app in apps for arg in app.arguments], "arguments")):
        objects: dict = {}
        for item in items:
            objects.setdefault(item, set()).add(id(item))
        assert len(objects) == len(payload[table])
        assert all(len(ids) == 1 for ids in objects.values())


def test_save_rejects_positions_that_would_misstate_a_record(tmp_path):
    record = ingest([FIXTURES / "ssr_bool.v"], ["ssrbool"]).libraries["ssrbool"][0]
    renumbered = replace(record, steps=tuple(replace(s, index=s.index + 1) for s in record.steps))
    for libraries in ({"elsewhere": [record]}, {"ssrbool": [renumbered]}):
        with pytest.raises(ValueError):
            save(Corpus(libraries), tmp_path / "c.corpus")


def test_corpus_rejects_a_repeated_lemma_name():
    record = ingest([FIXTURES / "ssr_bool.v"], ["ssrbool"]).libraries["ssrbool"][0]
    other = replace(record, library="other")
    for libraries in ({"ssrbool": [record, record]}, {"ssrbool": [record], "other": [other]}):
        with pytest.raises(ValueError, match=record.name):
            Corpus(libraries)


class RecursiveTermTable:
    """The recursive TermTable.add that the explicit-stack walk replaced, kept as its oracle."""

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}
        self._seen: dict[int, int] = {}

    def add(self, tree: TermTree) -> int:
        tid = self._seen.get(id(tree))
        if tid is None:
            key = (tree.symbol, *map(self.add, tree.children))
            tid = self._seen[id(tree)] = self.ids.setdefault(key, len(self.ids))
        return tid


def _term_trees(corpus) -> list[TermTree]:
    records = [record for tag in sorted(corpus.libraries) for record in corpus.libraries[tag]]
    return [tree for record in records
            for tree in [record.statement, *(s.goal_before for s in record.steps)] if tree is not None]


def test_term_table_ids_match_the_recursive_oracle(tmp_path):
    leaf = TermTree("x")
    chain = leaf
    for depth in range(600):
        chain = TermTree("s", (chain, TermTree(f"c{depth % 7}")))
    rng = np.random.default_rng(41)
    corpora = [ingest([path], ["lib"]) for group in PARSER_INPUT_GROUPS[:2] for path in group]
    corpora += [random_corpus(rng, tmp_path, max_lemmas=10, tag_prefix=f"r{trial}") for trial in range(6)]
    trace = tmp_path / "t.jsonl"
    trace.write_text(random_trace_source(rng, 8, "tr", "traced"))
    corpora.append(ingest([trace], ["ignored"]))
    # one table across every corpus, so later trees meet entries and objects seen before
    fast, slow = TermTable(), RecursiveTermTable()
    trees = [TermTree("f", (leaf, leaf, TermTree("x"))), chain]
    trees += [tree for corpus in corpora for tree in _term_trees(corpus)]
    for tree in trees:
        assert fast.add(tree) == slow.add(tree)
    assert list(fast.ids.items()) == list(slow.ids.items())


def test_v4_corpus_loads_as_ingested_and_saves_to_the_same_bytes(monkeypatch, tmp_path):
    monkeypatch.chdir(FIXTURES)
    fresh = ingest(["ssr_bool.v", "matrix_trace.jsonl"], ["ssrbool", "matrix"])
    assert_same_corpus(load(V4_CORPUS), fresh)
    save(fresh, tmp_path / "v4.corpus")
    assert (tmp_path / "v4.corpus").read_bytes() == V4_CORPUS.read_bytes()


def _write_checked(path, body: bytes, version: str = CORPUS_FORMAT) -> None:
    """A corpus file whose header checksum matches body."""
    header = {"format": version, "checksum": hashlib.sha256(body).hexdigest()}
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)


def _json(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


# payloads built from the v4 fixture's, for files with a valid checksum
_V4 = json.loads(V4_CORPUS.read_bytes().partition(b"\n")[2])
_V4_RECORD = _V4["libraries"]["ssrbool"][0]  # [name, statement_id, file, line_start, line_end, steps]


def _v4(**changes) -> bytes:
    """The v4 fixture's payload with changes; a change to None drops the key."""
    return _json({k: v for k, v in {**_V4, **changes}.items() if v is not None})


def _v4_record(record: list) -> bytes:
    return _v4(libraries={"ssrbool": [record]})


def _v4_step(step: list) -> bytes:
    return _v4_record(_V4_RECORD[:5] + [[step]])


# JSON numbers that no Python value dumps as, spliced into the payload in place of a marker
_SUBGOALS = {"1e400": b"1e400", "-1": b"-1", "true": b"true", "1.5": b"1.5"}


def _with_subgoals(body: bytes, text: bytes) -> bytes:
    return body.replace(b'"SUBGOALS"', text)


MALFORMED_PAYLOADS = {
    "libraries is a list": _v4(libraries=[]),
    "payload is a list": _json([_V4]),
    "patch_len is a string": _v4(patch_len="5"),
    "patch_len is zero": _v4(patch_len=0),
    "patch_len is negative": _v4(patch_len=-2),
    "patch_len is true": _v4(patch_len=True),
    "patch_len missing": _v4(patch_len=None),
    "payload is not JSON": _v4()[:-1],
    "payload is not UTF-8": _v4().replace(b'"ssrbool"', b'"ssr\xffbool"'),
    "record without statement": _v4_record(_V4_RECORD[:1] + [None] + _V4_RECORD[2:]),
    "negative term id": _v4_record(_V4_RECORD[:1] + [-1] + _V4_RECORD[2:]),
    "term id is true": _v4_record(_V4_RECORD[:1] + [True] + _V4_RECORD[2:]),
    "child id not below its entry": _v4(terms=_V4["terms"] + [["x", len(_V4["terms"])]]),
    "negative child id": _v4(terms=_V4["terms"] + [["x", -1]]),
    "child id is true": _v4(terms=_V4["terms"] + [["x", True]]),
    "empty symbol": _v4(terms=_V4["terms"] + [[""]]),
    "non-string symbol": _v4(terms=_V4["terms"] + [[5]]),
    "empty term entry": _v4(terms=_V4["terms"] + [[]]),
    "terms is not a list": _v4(terms={"0": ["x"]}),
    # a JSON integer that passes the subgoal check but overflows a float in the features
    "subgoal count too large for a float": _v4_step([None, 10 ** 400, 0]),
    **{f"v4 {name}": body for name, body in {
        "argument id out of range": _v4(tactics=_V4["tactics"] + [["apply", len(_V4["arguments"])]]),
        "negative argument id": _v4(tactics=_V4["tactics"] + [["apply", -1]]),
        "argument id is true": _v4(tactics=_V4["tactics"] + [["apply", True]]),
        "tactic id out of range": _v4_step([None, None, len(_V4["tactics"])]),
        "negative tactic id": _v4_step([None, None, -1]),
        "tactic id is true": _v4_step([None, None, True]),
        "unknown argument kind": _v4(arguments=_V4["arguments"] + [["x", "?"]]),
        "argument entry of the wrong length": _v4(arguments=_V4["arguments"] + [["x"]]),
        "non-string argument text": _v4(arguments=_V4["arguments"] + [[5, "wildcard"]]),
        "tactic entry without a name": _v4(tactics=_V4["tactics"] + [[]]),
        "record list too short": _v4_record(_V4_RECORD[:5]),
        "record list too long": _v4_record(_V4_RECORD + [0]),
        "record is a dict": _v4_record(dict(enumerate(_V4_RECORD))),
        "non-string lemma name": _v4_record([7] + _V4_RECORD[1:]),
        "line number is true": _v4_record(_V4_RECORD[:3] + [True] + _V4_RECORD[4:]),
        "record with no steps": _v4_record(_V4_RECORD[:5] + [[]]),
        "steps is not a list": _v4_record(_V4_RECORD[:5] + [{}]),
        "step list too short": _v4_step([None, None]),
        "step is not a list": _v4_step("abc"),
        "statement id out of range": _v4_record(_V4_RECORD[:1] + [len(_V4["terms"])] + _V4_RECORD[2:]),
        "goal id out of range": _v4_step([len(_V4["terms"]), None, 0]),
        "arguments missing": _v4(arguments=None),
        "tactics missing": _v4(tactics=None),
        "terms missing": _v4(terms=None),
        "tactics is not a list": _v4(tactics={"0": ["by"]}),
        "records is not a list": _v4(libraries={"ssrbool": {"0": _V4_RECORD}}),
        **{f"subgoals_after {name}": _with_subgoals(_v4_step([None, "SUBGOALS", 0]), text)
           for name, text in _SUBGOALS.items()},
    }.items()},
}


def _repeated_name(across: bool) -> bytes:
    """The v4 fixture's payload with ssrbool's first record stored once more, in ssrbool or under a new tag."""
    tag = "other" if across else "ssrbool"
    return _v4(libraries={**_V4["libraries"], tag: _V4["libraries"].get(tag, []) + [_V4_RECORD]})


@pytest.mark.parametrize("across", [False, True], ids=["in one library", "across libraries"])
def test_repeated_lemma_name_is_corrupt(tmp_path, across):
    path = tmp_path / "c.corpus"
    _write_checked(path, _repeated_name(across))
    with pytest.raises(CorruptFile, match="repeated: andbb"):
        load(path)
    assert main(["cluster", "--corpus", str(path), "--out", str(tmp_path / "d")]) == 3


@pytest.mark.parametrize("body", MALFORMED_PAYLOADS.values(), ids=MALFORMED_PAYLOADS.keys())
def test_checksum_valid_malformed_payload_is_corrupt(tmp_path, body):
    path = tmp_path / "c.corpus"
    _write_checked(path, body)
    with pytest.raises(CorruptFile):
        load(path)
    assert main(["cluster", "--corpus", str(path), "--out", str(tmp_path / "d")]) == 3
    assert main(["hint", "--corpus", str(path), "--query", str(HINT / "hint_query.v")]) == 3


@pytest.mark.parametrize("tag", [f"proofmine corpus v{n}" for n in range(4)])
def test_version_mismatch(tmp_path, capsys, tag):
    """A corpus in any other format, older ones included, is refused; `extract` rebuilds it."""
    path = tmp_path / "c.corpus"
    _write_checked(path, _v4(), tag)
    with pytest.raises(VersionMismatch, match=tag):
        load(path)
    for argv in (["cluster", "--corpus", str(path), "--out", str(tmp_path / "d")],
                 ["hint", "--corpus", str(path), "--query", str(HINT / "hint_query.v")]):
        assert main(argv) == 3
        assert "extract" in capsys.readouterr().err


def test_empty_corpus_is_insufficient_data(tmp_path):
    path = tmp_path / "c.corpus"
    _write_checked(path, _v4(terms=[], arguments=[], tactics=[], libraries={}))
    corpus = load(path)
    assert corpus.lemma_count() == 0
    assert corpus.feature_database().matrix.shape == (0, 40)
    assert main(["cluster", "--corpus", str(path), "--out", str(tmp_path / "d")]) == 4
    assert main(["hint", "--corpus", str(path), "--query", str(HINT / "hint_query.v")]) == 4
