import json

import numpy as np
import pytest

from proofmine.features import (EncodingTable, KIND_CODES,
                                build_encoding_table, extract_features, lemma_patches,
                                min_max_scale, write_feature_records)
from proofmine.corpus import load
from proofmine.script import ArgumentKind, parse_library, parse_trace

from conftest import (FIXTURES, GOLDEN_SOURCES, HINT_LIBS, iter_nodes, random_library_source,
                      random_trace_source, tactic_names)

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


def library_and_table(source: str, tag: str):
    """The records of one library source and the table built from the symbols its parse hands back."""
    symbols: set[str] = set()
    records = parse_library(source, tag, symbols=symbols)
    return records, build_encoding_table(tactic_names(records), symbols)


def pair_records():
    return library_and_table(PAIR_SRC, "ssrbool")


def test_table_codes_are_lexicographic_from_one():
    _, table = pair_records()
    assert table.tactic_codes == {"by": 1, "case": 2}
    assert table.symbol_codes == {"andb": 1, "idempotent": 2, "orb": 3}


def test_table_vocabulary_covers_pair_corpus():
    _, table = pair_records()
    assert set(table.symbol_codes) == {"idempotent", "andb", "orb"}
    assert set(table.tactic_codes) == {"by", "case"}


def test_table_rebuild_is_deterministic():
    _, t1 = pair_records()
    _, t2 = pair_records()
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


def parsed_with_symbols(sources):
    """The records of (source, tag) pairs, a tag of None marking a trace, and the symbols their parses hand back."""
    symbols: set[str] = set()
    records = []
    for source, tag in sources:
        if tag is None:
            records += parse_trace(source, symbols=symbols)
        else:
            records += parse_library(source, tag, symbols=symbols)
    return records, symbols


def assert_table_matches_walk(sources):
    records, symbols = parsed_with_symbols(sources)
    oracle = build_encoding_table_oracle(records)
    assert build_encoding_table(tactic_names(records), symbols) == oracle
    return oracle


def test_table_matches_per_reference_walk_on_random_corpora():
    rng = np.random.default_rng(11)
    for trial in range(6):
        sources = [(random_library_source(rng, int(rng.integers(2, 13)), f"t{trial}{lib}"), f"t{trial}{lib}")
                   for lib in range(2)]
        sources.append((random_trace_source(rng, 8, f"q{trial}", "traced"), None))
        assert_table_matches_walk(sources)


def test_table_matches_per_reference_walk_on_random_traces():
    rng = np.random.default_rng(12)
    for trial in range(6):
        assert_table_matches_walk([(random_trace_source(rng, int(rng.integers(1, 20)), f"q{trial}_{i}", "traced"),
                                    None) for i in range(int(rng.integers(1, 4)))])


def test_table_matches_per_reference_walk_on_loaded_fixtures():
    oracle = assert_table_matches_walk([((FIXTURES / "ssr_bool.v").read_text(), "ssrbool"),
                                        ((FIXTURES / "matrix_trace.jsonl").read_text(), None)])
    # the corpus that `extract` wrote from the same two sources stores the same vocabulary
    assert load(FIXTURES / "ssr_bool_matrix_v5.corpus").table == oracle


def test_table_matches_per_reference_walk_on_every_fixture_library():
    libraries = [(path.read_text(), tag) for tag, path in [*GOLDEN_SOURCES.items(), *HINT_LIBS]]
    assert_table_matches_walk(libraries + [((FIXTURES / "matrix_trace.jsonl").read_text(), None)])


def test_table_matches_per_reference_walk_on_repeats_shared_subterms_and_applications():
    # repeated statement texts, subterms shared across statements and goals, applications whose
    # head leaf the parser drops (`f x`, `g (f x) (h y)`), applications of applications (`(f x) y`)
    # and a symbol that occurs only as an application head (`k`)
    library = ("Lemma a1 : f x = f x.\nProof. by []. Qed.\n"
               "Lemma a2 : f x = f x.\nProof. by []. Qed.\n"
               "Lemma a3 : g (f x) (h y) = h y.\nProof. by rewrite a1. Qed.\n"
               "Lemma a4 : forall n, P (S n) -> (f x) y = k n.\nProof. move=> n. by []. Qed.\n")
    trace = "\n".join(json.dumps({"lemma": f"t{i}", "library": "tr", "step_index": step, "tactic_line": "by [].",
                                  "goal_before": goal, "subgoals_after": 0})
                      for i, goals in enumerate([["f x = f x", "h y"], ["g (f x) (h y) = h y", "f x = f x"],
                                                 ["m z", "(m z) w"]])
                      for step, goal in enumerate(goals, start=1))
    oracle = assert_table_matches_walk([(library, "lib"), (trace, None)])
    assert set(oracle.symbol_codes) == {"=", "->", "@", "forall", "P", "S", "f", "g", "h", "k", "m", "n", "w",
                                        "x", "y", "z"}


def test_empty_records_give_empty_vocabularies():
    assert build_encoding_table(set(), set()) == EncodingTable({}, {})


def test_growing_corpus_keeps_relative_code_order():
    _, small = pair_records()
    symbols: set[str] = set()
    records = [r for src, tag in ((PAIR_SRC, "ssrbool"), (TRIO_SRC, "seq"))
               for r in parse_library(src, tag, symbols=symbols)]
    grown = build_encoding_table(tactic_names(records), symbols)
    shared = sorted(small.symbol_codes, key=small.symbol_codes.get)
    regrown = sorted(shared, key=grown.symbol_codes.get)
    assert shared == regrown
    shared_t = sorted(small.tactic_codes, key=small.tactic_codes.get)
    assert shared_t == sorted(shared_t, key=grown.tactic_codes.get)


# hand-computed slots for `by case.` against the pair-corpus table:
# tactics by=1, case=2 fold to 1.2; two tactics; no arguments; goal is the
# statement tree `idempotent andb` with symbol codes idempotent=2, andb=1.
def test_encode_by_case_step():
    records, table = pair_records()
    andbb = records[0]
    slots = extract_features(lemma_patches([andbb], 1)[0], table, patch_len=1)  # its one step
    assert slots == (1.2, 2.0, 0.0, 0.0, 2.0, 1.0, 0.0, -1.0)


def test_kind_codes_fixed_range():
    assert sorted(KIND_CODES.values()) == list(range(7))
    assert KIND_CODES[ArgumentKind.WILDCARD] == 0


def test_elim_step_slots_from_hand_enumeration():
    records, table = library_and_table(TRIO_SRC, "seq")
    has_map = records[0]
    slots = extract_features(lemma_patches([has_map], 1)[0], table, patch_len=1)  # its one step
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
    records, table = pair_records()
    vec = extract_features(lemma_patches(records)[0], table)
    assert len(vec) == 40
    assert vec[8:] == (0.0,) * 32  # one-step proof pads blocks 2..5
    assert np.all(np.isfinite(vec))


def test_identical_sources_identical_vectors():
    records, table = library_and_table(
        "Lemma one : wrap a = wrap b.\nProof. by rewrite u v. Qed.\n"
        "Lemma two : wrap a = wrap b.\nProof. by rewrite u v. Qed.\n", "t")
    v1, v2 = (extract_features(patch, table) for patch in lemma_patches(records))
    assert v1 == v2


def test_trio_blocks_match_except_statement_symbols():
    records, table = library_and_table(TRIO_SRC, "seq")
    vectors = [extract_features(patch, table) for patch in lemma_patches(records)]
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
    records, table = pair_records()
    foreign = parse_library(
        "Lemma zzz : mystery gadget.\nProof. frobnicate x. Qed.\n", "t")[0]
    vec = extract_features(lemma_patches([foreign])[0], table)
    assert vec[0] == 0.0  # unknown tactic folds to zero
    assert vec[4] == vec[5] == 0.0  # unknown statement symbols
    assert vec[1] == 1.0  # the tactic count is structural, not vocabulary


def test_patch_len_controls_block_count():
    records, table = library_and_table(TRIO_SRC, "seq")
    assert len(extract_features(lemma_patches(records, 3)[0], table, patch_len=3)) == 24


def test_subgoal_slot_reads_trace_counts():
    symbols: set[str] = set()
    records = parse_trace((FIXTURES / "matrix_trace.jsonl").read_text(), symbols=symbols)
    table = build_encoding_table(tactic_names(records), symbols)
    vec = extract_features(lemma_patches(records)[0], table)
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
