import json

import numpy as np
import pytest

from proofmine.features import (EncodingTable, KIND_CODES, NoProofBody,
                                build_encoding_table, encode_step, extract_features,
                                min_max_scale, write_feature_records)
from proofmine.corpus import load
from proofmine.script import ArgumentKind, parse_library, parse_trace

from conftest import FIXTURES, iter_nodes, random_library_source, random_trace_source

PAIR_SRC = (
    "Lemma andbb : idempotent andb.\nProof. by case. Qed.\n"
    "Lemma orbb : idempotent orb.\nProof. by case. Qed.\n"
)

TRIO_SRC = (
    "Lemma has_map a s : has a (map s) = has (preim f a) s.\n"
    "Proof. by elim: s => //= x s ->. Qed.\n"
    "Lemma all_map a s : all a (map s) = all (preim f a) s.\n"
    "Proof. by elim: s => //= x s ->. Qed.\n"
    "Lemma count_map a s : count a (map s) = count (preim f a) s.\n"
    "Proof. by elim: s => //= x s ->. Qed.\n"
)


def pair_records():
    return parse_library(PAIR_SRC, "ssrbool")


def test_table_codes_are_lexicographic_from_one():
    table = build_encoding_table(pair_records())
    assert table.tactic_codes == {"by": 1, "case": 2}
    assert table.symbol_codes == {"andb": 1, "idempotent": 2, "orb": 3}


def test_table_vocabulary_covers_pair_corpus():
    table = build_encoding_table(pair_records())
    assert set(table.symbol_codes) == {"idempotent", "andb", "orb"}
    assert set(table.tactic_codes) == {"by", "case"}


def test_table_rebuild_is_deterministic():
    t1 = build_encoding_table(pair_records())
    t2 = build_encoding_table(pair_records())
    assert t1 == t2
    assert t1.version_hash() == t2.version_hash()


def build_encoding_table_oracle(records):
    """The vocabulary walk that visits every node reference, shared or not."""
    tactics: set[str] = set()
    symbols: set[str] = set()
    for record in records:
        symbols.update(node.symbol for node in iter_nodes(record.statement))
        for step in record.steps:
            for app in step.tactics:
                tactics.add(app.name)
            if step.goal_before is not None:
                symbols.update(node.symbol for node in iter_nodes(step.goal_before))
    return EncodingTable(
        tactic_codes={name: i for i, name in enumerate(sorted(tactics), start=1)},
        symbol_codes={sym: i for i, sym in enumerate(sorted(symbols), start=1)},
    )


def test_table_matches_per_reference_walk_on_random_corpora():
    rng = np.random.default_rng(11)
    for trial in range(6):
        records = [r for lib in range(2)
                   for r in parse_library(random_library_source(rng, int(rng.integers(2, 13)), f"t{trial}{lib}"),
                                          f"t{trial}{lib}")]
        records += parse_trace(random_trace_source(rng, 8, f"q{trial}", "traced"))
        assert build_encoding_table(records) == build_encoding_table_oracle(records)


def test_table_matches_per_reference_walk_on_loaded_fixtures():
    records = parse_library((FIXTURES / "ssr_bool.v").read_text(), "ssrbool")
    records += parse_trace((FIXTURES / "matrix_trace.jsonl").read_text())
    oracle = build_encoding_table_oracle(records)
    assert build_encoding_table(records) == oracle
    # the corpus that `extract` wrote from the same two sources stores the same vocabulary
    assert load(FIXTURES / "ssr_bool_matrix_v5.corpus").table == oracle


def test_empty_records_give_empty_vocabularies():
    assert build_encoding_table([]) == EncodingTable({}, {})


def test_growing_corpus_keeps_relative_code_order():
    small = build_encoding_table(pair_records())
    grown = build_encoding_table(pair_records() + parse_library(TRIO_SRC, "seq"))
    shared = sorted(small.symbol_codes, key=small.symbol_codes.get)
    regrown = sorted(shared, key=grown.symbol_codes.get)
    assert shared == regrown
    shared_t = sorted(small.tactic_codes, key=small.tactic_codes.get)
    assert shared_t == sorted(shared_t, key=grown.tactic_codes.get)


# hand-computed slots for `by case.` against the pair-corpus table:
# tactics by=1, case=2 fold to 1.2; two tactics; no arguments; goal is the
# statement tree `idempotent andb` with symbol codes idempotent=2, andb=1.
def test_encode_by_case_step():
    records = pair_records()
    table = build_encoding_table(records)
    andbb = records[0]
    slots = encode_step(andbb.steps[0], table)
    assert slots == (1.2, 2.0, 0.0, 0.0, 2.0, 1.0, 0.0, -1.0)


def test_kind_codes_fixed_range():
    assert sorted(KIND_CODES.values()) == list(range(7))
    assert KIND_CODES[ArgumentKind.WILDCARD] == 0


def test_elim_step_slots_from_hand_enumeration():
    records = parse_library(TRIO_SRC, "seq")
    table = build_encoding_table(records)
    has_map = records[0]
    slots = encode_step(has_map.steps[0], table)
    # tactics by=1, elim=2 -> 1.2; arg kinds ext,wild,intro,intro,intro
    assert slots[0] == pytest.approx(1.2)
    assert slots[1] == 2.0
    assert slots[2] == pytest.approx(3.0 + 0.06 + 0.006 + 0.0006)
    assert slots[3] == 2.0  # only related argument is an external lemma
    root, first, second = (table.symbol_code(s) if s else 0
                           for s in has_map.statement.top_symbols())
    assert slots[4:7] == (float(root), float(first), float(second))
    assert slots[7] == -1.0


def test_vector_length_and_padding():
    records = pair_records()
    table = build_encoding_table(records)
    vec = extract_features(records[0], table)
    assert len(vec) == 40
    assert vec[8:] == (0.0,) * 32  # one-step proof pads blocks 2..5
    assert np.all(np.isfinite(vec))


def test_identical_sources_identical_vectors():
    records = parse_library(
        "Lemma one : wrap a = wrap b.\nProof. by rewrite u v. Qed.\n"
        "Lemma two : wrap a = wrap b.\nProof. by rewrite u v. Qed.\n", "t")
    table = build_encoding_table(records)
    v1 = extract_features(records[0], table)
    v2 = extract_features(records[1], table)
    assert v1 == v2


def test_trio_blocks_match_except_statement_symbols():
    records = parse_library(TRIO_SRC, "seq")
    table = build_encoding_table(records)
    vectors = [extract_features(r, table) for r in records]
    differing = {
        dim
        for a in vectors
        for b in vectors
        for dim in range(40)
        if a[dim] != b[dim]
    }
    # slots 6 and 7 of block 1 carry the statement head arguments (has/all/count)
    assert differing == {5, 6}
    assert vectors[0][4] == vectors[1][4] == vectors[2][4]  # shared '=' root


def test_unknown_vocabulary_encodes_to_zero():
    records = pair_records()
    table = build_encoding_table(records)
    foreign = parse_library(
        "Lemma zzz : mystery gadget.\nProof. frobnicate x. Qed.\n", "t")[0]
    vec = extract_features(foreign, table)
    assert vec[0] == 0.0  # unknown tactic folds to zero
    assert vec[4] == vec[5] == 0.0  # unknown statement symbols
    assert vec[1] == 1.0  # the tactic count is structural, not vocabulary


def test_no_proof_body_rejected():
    records = pair_records()
    table = build_encoding_table(records)
    bare = records[0].__class__(name="empty", statement=records[0].statement, steps=(), library="t")
    with pytest.raises(NoProofBody):
        extract_features(bare, table)


def test_patch_len_controls_block_count():
    records = parse_library(TRIO_SRC, "seq")
    table = build_encoding_table(records)
    assert len(extract_features(records[0], table, patch_len=3)) == 24


def test_subgoal_slot_reads_trace_counts():
    records = parse_trace((FIXTURES / "matrix_trace.jsonl").read_text())
    table = build_encoding_table(records)
    vec = extract_features(records[0], table)
    assert vec[7] == 1.0
    assert vec[23] == 2.0  # third step splits into two subgoals


def test_min_max_scaling_bounds_and_zero_range():
    matrix = np.array([
        [1.0, -1.0, 5.0],
        [3.0, -1.0, 0.0],
        [2.0, -1.0, 10.0],
    ])
    scaled = min_max_scale(matrix)
    assert scaled.min() >= 0.0 and scaled.max() <= 1.0
    assert np.all(scaled[:, 1] == 0.0)  # constant column collapses to 0
    assert scaled[0, 0] == 0.0 and scaled[1, 0] == 1.0


def test_feature_records_round_trip(tmp_path):
    from proofmine.corpus import ingest
    corpus = ingest([FIXTURES / "ssr_bool.v"], ["ssrbool"])
    path = tmp_path / "features.jsonl"
    db = corpus.feature_database()
    count = write_feature_records(path, db.names, db.libraries, corpus.raw, db.matrix,
                                  corpus.table)
    assert count == len(corpus.names)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in records] == corpus.names
    version = corpus.table.version_hash()
    for record in records:
        assert record["table_version"] == version
        assert len(record["raw"]) == 40
        assert len(record["scaled"]) == 40
        assert record["library"] == "ssrbool"
