import json

import numpy as np
import pytest

from proofmine.digest import (ConsensusCluster, DigestConfig, Homogeneity, TooFewLemmas,
                              UnknownLemma, _member_proximities, classify_homogeneity,
                              co_occurrence_counts,
                              components_at, digest_to_dict, read_digest, run_digest,
                              run_partitions, select_reliable, write_digest)
from proofmine.features import FeatureDatabase


def make_db(matrix, tags=None):
    matrix = np.asarray(matrix, dtype=float)
    names = [f"lm{i:02d}" for i in range(len(matrix))]
    if tags is None:
        tags = ["lib"] * len(matrix)
    return FeatureDatabase(names=names, libraries=dict(zip(names, tags)), matrix=matrix)


def family_matrix(families=4, per=5, jitter=0.0, dim=40, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for fam in range(families):
        base = np.zeros(dim)
        base[fam] = 1.0
        for _ in range(per):
            rows.append(base + rng.uniform(-jitter, jitter, size=dim))
    return np.array(rows)


def test_identical_pair_has_unit_frequency():
    rng = np.random.default_rng(3)
    rows = [np.zeros(40), np.zeros(40)]
    for i in range(8):
        far = np.zeros(40)
        far[4 + i] = 5.0 + i
        rows.append(far + rng.uniform(0, 0.05, size=40))
    db = make_db(np.array(rows))
    cfg = DigestConfig(runs=40, frequency_threshold=1.0, granularity=5, master_seed=9)
    clusters = run_digest(db, cfg)
    pair = [c for c in clusters if {"lm00", "lm01"} <= set(c.members)]
    assert pair and pair[0].frequency == 1.0


def test_single_run_digest_is_that_partition_minus_singletons():
    db = make_db(family_matrix(families=3, per=3))
    cfg = DigestConfig(runs=1, frequency_threshold=0.6, granularity=5, master_seed=5)
    labels, _, _ = run_partitions(db.matrix, cfg)
    counts = co_occurrence_counts(labels)
    assert set(np.unique(counts)) <= {0, 1}
    clusters = run_digest(db, cfg)
    run_groups = {
        frozenset(db.names[i] for i in np.flatnonzero(labels[0] == lab))
        for lab in np.unique(labels[0])
    }
    expected = {g for g in run_groups if len(g) > 1}
    assert {frozenset(c.members) for c in clusters} == expected


def _family_split_check(matrix):
    within = max(np.linalg.norm(matrix[a] - matrix[b])
                 for fam in range(4)
                 for a in range(fam * 5, fam * 5 + 5)
                 for b in range(fam * 5, fam * 5 + 5))
    across = min(np.linalg.norm(matrix[a] - matrix[b])
                 for a in range(5) for b in range(5, 20))
    assert within <= 0.01 < 0.5 <= across


def test_four_identical_vector_families_recovered():
    # coincident in-family vectors: no run can split a family, so every
    # family pair co-occurs in all 200 runs
    matrix = family_matrix(families=4, per=5, jitter=0.0)
    _family_split_check(matrix)
    db = make_db(matrix)
    cfg = DigestConfig(runs=200, frequency_threshold=0.6, granularity=5, master_seed=1)
    clusters = run_digest(db, cfg)
    assert len(clusters) == 4
    got = {frozenset(c.members) for c in clusters}
    want = {frozenset(f"lm{i:02d}" for i in range(f * 5, f * 5 + 5)) for f in range(4)}
    assert got == want
    assert all(c.frequency >= 0.95 for c in clusters)


def test_four_jittered_families_recovered():
    # with nonzero spread a run can converge to a family split, so the
    # frequency drops below 1.0 but the consensus components stay families
    matrix = family_matrix(families=4, per=5, jitter=0.0007, seed=12)
    _family_split_check(matrix)
    db = make_db(matrix)
    cfg = DigestConfig(runs=200, frequency_threshold=0.6, granularity=5, master_seed=1)
    clusters = run_digest(db, cfg)
    assert len(clusters) == 4
    got = {frozenset(c.members) for c in clusters}
    want = {frozenset(f"lm{i:02d}" for i in range(f * 5, f * 5 + 5)) for f in range(4)}
    assert got == want
    assert all(c.frequency >= 0.9 for c in clusters)


def test_co_occurrence_symmetric_unit_diagonal():
    db = make_db(family_matrix(families=2, per=4, jitter=0.05, seed=2))
    cfg = DigestConfig(runs=12, granularity=4, master_seed=3)
    labels, _, _ = run_partitions(db.matrix, cfg)
    matrix = co_occurrence_counts(labels) / cfg.runs
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 1.0)
    assert matrix.min() >= 0.0 and matrix.max() <= 1.0


def co_occurrence_oracle(labels_runs):
    """One np.ix_ update per label and run."""
    runs, m = labels_runs.shape
    counts = np.zeros((m, m), dtype=np.int64)
    for row in labels_runs:
        for label in np.unique(row):
            idx = np.flatnonzero(row == label)
            counts[np.ix_(idx, idx)] += 1
    return counts


def member_proximities_oracle(component, labels_runs, proximity_runs):
    """Agreement counted member by member against a list of the others."""
    out = {}
    size = len(component)
    for x in component:
        others = [y for y in component if y != x]
        co = labels_runs[:, others] == labels_runs[:, [x]]
        qualifying = co.sum(axis=1) * 2 >= (size - 1)
        out[x] = float(proximity_runs[qualifying, x].mean()) if qualifying.any() else 0.0
    return out


def random_runs(rng):
    runs, m = int(rng.integers(1, 30)), int(rng.integers(2, 40))
    labels = rng.integers(0, int(rng.integers(1, m + 1)), size=(runs, m))
    return labels, rng.uniform(size=(runs, m))


def test_co_occurrence_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(30):
        labels, _ = random_runs(rng)
        assert np.array_equal(co_occurrence_counts(labels), co_occurrence_oracle(labels))
    labels, _, _ = run_partitions(family_matrix(jitter=0.2),
                                  DigestConfig(runs=12, granularity=5, master_seed=4))
    assert np.array_equal(co_occurrence_counts(labels), co_occurrence_oracle(labels))


def test_member_proximities_match_oracle():
    rng = np.random.default_rng(12)
    for _ in range(30):
        labels, proximity = random_runs(rng)
        m = labels.shape[1]
        component = sorted(rng.choice(m, size=int(rng.integers(2, m + 1)), replace=False).tolist())
        assert (_member_proximities(component, labels, proximity)
                == member_proximities_oracle(component, labels, proximity))


def test_threshold_monotonicity():
    rng = np.random.default_rng(8)
    db = make_db(rng.uniform(size=(12, 40)))
    cfg = DigestConfig(runs=15, granularity=4, master_seed=7)
    labels, _, _ = run_partitions(db.matrix, cfg)
    matrix = co_occurrence_counts(labels) / cfg.runs
    low = components_at(matrix, 0.4)
    high = components_at(matrix, 0.8)
    for component in high:
        assert any(set(component) <= set(big) for big in low)


def test_digest_deterministic_and_order_independent():
    rng = np.random.default_rng(10)
    db = make_db(rng.uniform(size=(10, 40)))
    cfg = DigestConfig(runs=20, granularity=4, master_seed=11)
    assert run_digest(db, cfg) == run_digest(db, cfg)
    labels, _, _ = run_partitions(db.matrix, cfg)
    shuffled = labels[::-1].copy()
    assert np.array_equal(co_occurrence_counts(labels), co_occurrence_counts(shuffled))


def test_cluster_invariants_hold():
    rng = np.random.default_rng(14)
    db = make_db(rng.uniform(size=(14, 40)))
    cfg = DigestConfig(runs=25, frequency_threshold=0.55, granularity=3, master_seed=2)
    for cluster in run_digest(db, cfg):
        assert len(cluster.members) >= 2
        assert cluster.frequency >= cfg.frequency_threshold or pytest.approx(
            cluster.frequency, abs=1e-12) == cfg.frequency_threshold
        assert all(0.0 <= p <= 1.0 for p in cluster.member_proximity.values())


def test_too_few_lemmas():
    db = make_db(np.zeros((1, 40)))
    with pytest.raises(TooFewLemmas):
        run_digest(db, DigestConfig(runs=2))


# ---------------------------------------------------------------------------
# select_reliable


def _cluster(members, freq, prox, homogeneity=Homogeneity.HOMOGENEOUS):
    return ConsensusCluster(
        members=tuple(sorted(members)),
        frequency=freq,
        member_proximity={m: prox for m in members},
        homogeneity=homogeneity,
    )


def test_select_reliable_single_candidate():
    clusters = [_cluster(["a", "b"], 0.8, 0.5)]
    assert select_reliable(clusters, "a") is clusters[0]


def test_select_reliable_maximizes_frequency_times_proximity():
    first = _cluster(["a", "b"], 0.9, 0.8)    # score 0.72
    second = _cluster(["a", "c"], 0.7, 0.9)   # score 0.63
    assert select_reliable([second, first], "a") is first


def test_select_reliable_absent_lemma():
    assert select_reliable([_cluster(["a", "b"], 0.9, 0.9)], "zz") is None


def test_select_reliable_returns_containing_cluster():
    rng = np.random.default_rng(6)
    db = make_db(rng.uniform(size=(12, 40)))
    cfg = DigestConfig(runs=20, frequency_threshold=0.5, granularity=4, master_seed=4)
    clusters = run_digest(db, cfg)
    for cluster in clusters:
        for member in cluster.members:
            chosen = select_reliable(clusters, member)
            assert chosen is not None
            assert member in chosen.members


# ---------------------------------------------------------------------------
# homogeneity


def test_homogeneity_single_library():
    tags = {"a": "seq", "b": "seq"}
    assert classify_homogeneity(("a", "b"), tags) is Homogeneity.HOMOGENEOUS


def test_homogeneity_mixed_libraries():
    tags = {"a": "seq", "b": "ssrnat"}
    assert classify_homogeneity(("a", "b"), tags) is Homogeneity.HETEROGENEOUS


def test_homogeneity_unknown_member():
    with pytest.raises(UnknownLemma):
        classify_homogeneity(("a", "zz"), {"a": "seq"})


def test_single_library_corpus_all_homogeneous():
    db = make_db(family_matrix(families=2, per=4, jitter=0.01, seed=3))
    cfg = DigestConfig(runs=15, granularity=5, master_seed=5)
    clusters = run_digest(db, cfg)
    assert clusters
    assert all(c.homogeneity is Homogeneity.HOMOGENEOUS for c in clusters)


# ---------------------------------------------------------------------------
# digest files


def test_digest_file_round_trip(tmp_path):
    db = make_db(family_matrix(families=2, per=3, jitter=0.0),
                 tags=["u"] * 3 + ["v"] * 3)
    cfg = DigestConfig(runs=10, granularity=5, master_seed=1)
    clusters = run_digest(db, cfg)
    doc = digest_to_dict(clusters, cfg, objects=len(db.names), clusters_per_run=1,
                         libraries=db.libraries)
    path = tmp_path / "digest.json"
    write_digest(path, doc)
    assert read_digest(path) == doc
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something else"}')
        read_digest(bad)


@pytest.mark.parametrize("doc", [
    {"format": "proofmine digest v1"},
    {"format": "proofmine digest v1", "config": [], "objects": 2, "clusters_per_run": 1,
     "clusters": []},
    {"format": "proofmine digest v1", "config": {"runs": 1}, "objects": 2,
     "clusters_per_run": 1, "clusters": []},
    {"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": "2",
     "clusters_per_run": 1, "clusters": []},
    {"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": 2,
     "clusters_per_run": 1, "clusters": [{"members": ["a", "b"], "frequency": 1.0,
                                          "member_proximity": {"a": 1.0},
                                          "homogeneity": "homogeneous"}]},
])
def test_read_digest_rejects_missing_report_fields(tmp_path, doc):
    path = tmp_path / "digest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="malformed digest"):
        read_digest(path)
