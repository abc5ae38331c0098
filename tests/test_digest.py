import json
import sys
from pathlib import Path

import numpy as np
import pytest

from proofmine import digest, ingest
from proofmine.clustering import _distinct_rows, choose_n
from proofmine.corpus import QUERY_NAME, database_with_query
from proofmine.digest import (HOMOGENEITY, ConsensusCluster, DigestConfig, TooFewLemmas,
                              _consensus_clusters, _LabelClasses, co_occurrence_counts,
                              components_at, digest_to_dict, read_digest, run_digest,
                              run_partitions, select_reliable, write_digest)
from proofmine.features import FeatureDatabase
from proofmine.script import parse_partial

from conftest import HINT, random_corpus
from test_clustering import einsum_sq, lattice_points, per_run_oracle, planted_duplicates, sum_sq

# the benchmark's workload generator, imported read-only
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from generate import WORKLOADS, generate  # noqa: E402


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
    labels, _ = run_partitions(db.matrix, cfg)
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
    labels, _ = run_partitions(db.matrix, cfg)
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
    labels, _ = run_partitions(family_matrix(jitter=0.2),
                                  DigestConfig(runs=12, granularity=5, master_seed=4))
    assert np.array_equal(co_occurrence_counts(labels), co_occurrence_oracle(labels))


@pytest.mark.parametrize("labels", [
    np.zeros((1, 1), dtype=np.int64),  # one column
    np.zeros((4, 9), dtype=np.int64),  # every column in one cluster of every run
    np.tile(np.arange(9), (3, 1)),  # every column alone
    np.array([[7, 0, 7, 3, 7], [1, 1, 1, 1, 0], [0, 5, 5, 5, 5]]),  # labels not 0..n-1
], ids=["one column", "one cluster", "all apart", "sparse labels"])
def test_co_occurrence_matches_oracle_on_extreme_shapes(labels):
    counts = co_occurrence_counts(labels)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, co_occurrence_oracle(labels))


def label_classes(component, labels):
    """The component's lemmas grouped by label column, and each group's column."""
    columns, inverse = _distinct_rows(labels[:, component].T)
    component = np.asarray(component)
    return [component[inverse == j] for j in range(len(columns))], columns.T


def planted_classes(labels: np.ndarray, proximity: np.ndarray) -> _LabelClasses:
    """The label classes of planted (runs, lemmas) label and proximity matrices."""
    columns, of_lemma = _distinct_rows(labels.T)
    return _LabelClasses(labels=np.ascontiguousarray(columns.T), of_lemma=of_lemma,
                         proximity=np.ascontiguousarray(proximity.T))


def builder_proximities(component, labels, proximity):
    """Member proximities of the lemmas in component, from the consensus builder
    run over those lemmas alone as one component, rates forced to 1 so it is kept."""
    classes = planted_classes(labels[:, component], proximity[:, component])
    db = make_db(np.zeros((len(component), 40)))
    [cluster] = _consensus_clusters(db, DigestConfig(runs=len(labels)), classes,
                                    [list(range(classes.labels.shape[1]))],
                                    lambda component: np.ones((len(component), len(component))))
    return {component[int(name[2:])]: value for name, value in cluster.member_proximity.items()}


def test_member_proximities_match_oracle():
    rng = np.random.default_rng(12)
    for case in range(30):
        labels, proximity = random_runs(rng)
        m = labels.shape[1]
        if case % 2:  # planted duplicate columns: lemmas that share every label
            labels = labels[:, rng.integers(0, m, size=m)]
        component = sorted(rng.choice(m, size=int(rng.integers(2, m + 1)), replace=False).tolist())
        classes, class_labels = label_classes(component, labels)
        want = member_proximities_oracle(component, labels, proximity)
        assert member_proximities_per_class(classes, class_labels, proximity.T) == want
        assert builder_proximities(component, labels, proximity) == want


def test_threshold_monotonicity():
    rng = np.random.default_rng(8)
    db = make_db(rng.uniform(size=(12, 40)))
    cfg = DigestConfig(runs=15, granularity=4, master_seed=7)
    labels, _ = run_partitions(db.matrix, cfg)
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
    labels, _ = run_partitions(db.matrix, cfg)
    shuffled = labels[::-1].copy()
    assert np.array_equal(co_occurrence_counts(labels), co_occurrence_counts(shuffled))


def test_cluster_invariants_hold():
    rng = np.random.default_rng(14)
    cfg = DigestConfig(runs=25, frequency_threshold=0.55, granularity=3, master_seed=2)
    # uniform rows give one cluster, the jittered families several
    for matrix in (rng.uniform(size=(14, 40)), family_matrix(families=4, per=4, jitter=0.05, seed=3)):
        clusters = run_digest(make_db(matrix), cfg)
        for cluster in clusters:
            assert len(cluster.members) >= 2
            assert cluster.frequency >= cfg.frequency_threshold or pytest.approx(
                cluster.frequency, abs=1e-12) == cfg.frequency_threshold
            assert all(0.0 <= p <= 1.0 for p in cluster.member_proximity.values())
        # clusters are components, so pairwise disjoint
        members = [name for cluster in clusters for name in cluster.members]
        assert len(members) == len(set(members))
    assert len(clusters) >= 2


def test_too_few_lemmas():
    db = make_db(np.zeros((1, 40)))
    with pytest.raises(TooFewLemmas):
        run_digest(db, DigestConfig(runs=2))


def test_digest_config_rejects_granularity_outside_1_to_5():
    # choose_n trusts its caller to keep g in range; DigestConfig is that caller's check
    for granularity in (0, 6):
        with pytest.raises(ValueError, match="granularity must be in 1..5"):
            DigestConfig(granularity=granularity)


# ---------------------------------------------------------------------------
# the consensus over label classes against the lemma-level loop it replaced


def lemma_member_proximities(component: list[int], labels_runs: np.ndarray,
                             proximity_runs: np.ndarray) -> dict[int, float]:
    """The lemma-level _member_proximities that the per-class means replaced:
    one mean per member over the runs where it is co-labeled with the
    majority of the other members; 0 when no run qualifies."""
    sub = labels_runs[:, component]
    # per run, how many other members share each member's label
    keys = sub + np.arange(len(sub))[:, None] * (int(sub.max()) + 1)
    agree = np.bincount(keys.ravel())[keys] - 1
    qualifying = agree * 2 >= len(component) - 1
    out: dict[int, float] = {}
    for pos, x in enumerate(component):
        runs = qualifying[:, pos]
        out[x] = float(proximity_runs[runs, x].mean()) if runs.any() else 0.0
    return out


def run_digest_oracle(db: FeatureDatabase, cfg: DigestConfig) -> list[ConsensusCluster]:
    """The lemma-level run_digest that the label-class consensus replaced:
    m x m rates, one component walk per lemma, a Python list of pair rates."""
    m = len(db.names)
    if m < 2:
        raise TooFewLemmas(f"need at least 2 lemmas, have {m}")
    labels_runs, proximity_runs = run_partitions(db.matrix, cfg)
    co_matrix = co_occurrence_counts(labels_runs) / cfg.runs
    clusters: list[ConsensusCluster] = []
    for component in components_at(co_matrix, cfg.frequency_threshold):
        if len(component) < 2:
            continue
        frequency = float(np.mean([co_matrix[a, b] for pos, a in enumerate(component)
                                   for b in component[pos + 1:]]))
        # loosely chained components can average below the threshold even
        # though every edge clears it; those are not frequent enough to show
        if frequency < cfg.frequency_threshold - 1e-12:
            continue
        proximities = lemma_member_proximities(component, labels_runs, proximity_runs)
        members = tuple(sorted(db.names[i] for i in component))
        clusters.append(ConsensusCluster(
            members=members,
            frequency=frequency,
            member_proximity={db.names[i]: proximities[i] for i in component},
            homogeneity="homogeneous" if len({db.libraries[n] for n in members}) == 1 else "heterogeneous",
        ))
    clusters.sort(key=lambda c: (-c.frequency, c.members[0]))
    return clusters


def assert_digest_matches_oracle(db, cfg):
    def doc(clusters):
        return repr(digest_to_dict(clusters, cfg, libraries=db.libraries))

    clusters = run_digest(db, cfg)
    assert doc(clusters) == doc(run_digest_oracle(db, cfg))
    return clusters


def planted_partitions(monkeypatch, labels, proximity):
    """Make every digest run see these label and proximity matrices."""
    def planted(matrix, cfg):
        return labels, proximity

    monkeypatch.setattr(digest, "run_partitions", planted)
    monkeypatch.setitem(globals(), "run_partitions", planted)


def planted_db(m, rng):
    return make_db(np.zeros((m, 40)), tags=[f"lib{int(t)}" for t in rng.integers(0, 3, size=m)])


@pytest.mark.parametrize("runs", [1, 2, 7, 8, 9, 25, 200])
@pytest.mark.parametrize("threshold", [0.3, 0.6, 1.0])
def test_digest_matches_oracle_on_template_corpora(tmp_path, runs, threshold):
    rng = np.random.default_rng(runs * 10 + int(threshold * 10))
    db = random_corpus(rng, tmp_path, max_lemmas=30, libraries=3).feature_database()
    assert len(_distinct_rows(db.matrix)[0]) < len(db.names)  # duplicate rows
    algorithms = {1: ("kmeans", "farthest-first", "em"), 2: ("kmeans", "farthest-first", "em"),
                  200: ("kmeans",)}.get(runs, ("kmeans", "farthest-first"))
    for algorithm in algorithms:
        cfg = DigestConfig(runs=runs, frequency_threshold=threshold, algorithm=algorithm,
                           granularity=int(rng.integers(1, 6)), master_seed=runs)
        assert_digest_matches_oracle(db, cfg)


@pytest.mark.parametrize("threshold", [0.3, 0.6, 1.0])
def test_digest_matches_oracle_on_planted_duplicate_columns(monkeypatch, threshold):
    rng = np.random.default_rng(int(threshold * 10))
    for _ in range(25):
        runs, m = int(rng.integers(1, 30)), int(rng.integers(2, 60))
        classes = int(rng.integers(1, m + 1))
        labels = rng.integers(0, int(rng.integers(1, 8)), size=(runs, classes))
        labels = labels[:, rng.integers(0, classes, size=m)]
        planted_partitions(monkeypatch, labels, rng.uniform(size=(runs, m)))
        assert_digest_matches_oracle(planted_db(m, rng), DigestConfig(runs=runs, frequency_threshold=threshold))


def test_chained_component_averaging_below_the_threshold_is_dropped(monkeypatch):
    # classes a, b, c of two lemmas each: a-b and b-c co-occur in 3 of 5 runs,
    # a-c in 1, so every edge clears 0.6 but the 15 pairs average 8.6 / 15
    a, b, c = [0, 0, 0, 0, 0], [0, 0, 0, 1, 1], [0, 1, 1, 1, 1]
    labels = np.array([a, a, b, b, c, c, [2, 2, 2, 2, 2], [3, 3, 3, 3, 3]]).T
    planted_partitions(monkeypatch, labels, np.random.default_rng(1).uniform(size=labels.shape))
    db = make_db(np.zeros((8, 40)))
    cfg = DigestConfig(runs=5, frequency_threshold=0.6)
    assert components_at(co_occurrence_counts(labels) / 5, 0.6)[0] == [0, 1, 2, 3, 4, 5]
    assert assert_digest_matches_oracle(db, cfg) == []
    assert len(assert_digest_matches_oracle(db, DigestConfig(runs=5, frequency_threshold=0.5))) == 1


@pytest.mark.parametrize("runs", [1, 9])
def test_digest_matches_oracle_with_all_distinct_columns_or_one_class(monkeypatch, runs):
    rng = np.random.default_rng(runs)
    m = 12
    distinct = np.tile(np.arange(m), (runs, 1))
    distinct[0] = rng.integers(0, 3, size=m)  # one shared run; the other runs keep columns apart
    for labels in (distinct, np.zeros((runs, m), dtype=np.int64)):
        planted_partitions(monkeypatch, labels, rng.uniform(size=(runs, m)))
        for threshold in (0.3, 0.6, 1.0):
            assert_digest_matches_oracle(planted_db(m, rng),
                                         DigestConfig(runs=runs, frequency_threshold=threshold))


@pytest.mark.parametrize("runs", [2, 8, 25])
def test_digest_matches_oracle_on_a_hint_database(hint_corpus, runs):
    query = HINT / "hint_query.v"
    db = database_with_query(hint_corpus, parse_partial(query.read_text(), filename=str(query)))
    for threshold in (0.3, 0.6, 1.0):
        assert_digest_matches_oracle(db, DigestConfig(runs=runs, frequency_threshold=threshold,
                                                      master_seed=runs))


# ---------------------------------------------------------------------------
# run_partitions shares one PointSet across its runs; the per-run code is the oracle


def partitions_oracle(matrix: np.ndarray, cfg: DigestConfig,
                      sq=einsum_sq) -> tuple[np.ndarray, np.ndarray]:
    """Labels and proximities of cfg.runs separate runs of the per-run code."""
    n = choose_n(len(matrix), cfg.granularity)
    runs = [per_run_oracle(cfg.algorithm, matrix, n, cfg.master_seed + i, sq) for i in range(cfg.runs)]
    return (np.array([r.labels for r in runs], dtype=np.int64),
            np.array([r.proximity for r in runs], dtype=np.float64))


def assert_partitions_match_oracle(matrix: np.ndarray, cfg: DigestConfig) -> None:
    got = run_partitions(matrix, cfg)
    want = partitions_oracle(matrix, cfg)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("algorithm, runs", [("farthest-first", 12), ("kmeans", 12), ("em", 1), ("em", 2)])
def test_run_partitions_match_per_run_oracle(algorithm, runs):
    matrices = [planted_duplicates(7, m=90, distinct=20, dims=40), lattice_points(),
                family_matrix(jitter=0.2, seed=5)]
    for matrix in matrices:
        for granularity in (1, 5):
            assert_partitions_match_oracle(matrix, DigestConfig(
                runs=runs, algorithm=algorithm, granularity=granularity, master_seed=granularity))


BENCHMARK_SEEDS = (12, 1, 2)


@pytest.fixture(scope="module")
def benchmark_matrices(tmp_path_factory):
    """Feature matrices of the dup-kmeans and long-proofs-ff benchmark corpora, by (name, seed)."""
    out = {}
    for name in ("dup-kmeans", "long-proofs-ff"):
        for seed in BENCHMARK_SEEDS:
            inputs = generate(WORKLOADS[name], seed, tmp_path_factory.mktemp(name))
            corpus = ingest([p for _, p in inputs.libraries], [t for t, _ in inputs.libraries])
            out[name, seed] = corpus.feature_database().matrix
    return out


@pytest.mark.parametrize("name, algorithm, runs", [
    ("dup-kmeans", "kmeans", 1), ("dup-kmeans", "farthest-first", 20), ("dup-kmeans", "em", 1),
    ("long-proofs-ff", "farthest-first", 20), ("long-proofs-ff", "kmeans", 3),
    ("long-proofs-ff", "em", 1),
])
def test_run_partitions_match_per_run_oracle_on_benchmark_corpora(benchmark_matrices, name,
                                                                 algorithm, runs):
    assert_partitions_match_oracle(benchmark_matrices[name, 12], DigestConfig(
        runs=runs, algorithm=algorithm, granularity=3, master_seed=12))


@pytest.mark.parametrize("seed", BENCHMARK_SEEDS)
@pytest.mark.parametrize("name", ["dup-kmeans", "long-proofs-ff"])
def test_one_distance_kernel_moves_only_the_last_bits_of_proximities(benchmark_matrices, name, seed):
    """Against the per-run code with the row-sum kernel the clustering code also used
    once (max-min loop, reseeds, proximities): the same labels in every run, and
    proximities within 1e-15."""
    for algorithm, runs in (("kmeans", 3), ("farthest-first", 20), ("em", 1)):
        cfg = DigestConfig(runs=runs, algorithm=algorithm, granularity=3, master_seed=seed)
        labels, proximity = run_partitions(benchmark_matrices[name, seed], cfg)
        want_labels, want_proximity = partitions_oracle(benchmark_matrices[name, seed], cfg, sum_sq)
        assert np.array_equal(labels, want_labels), algorithm
        assert np.abs(proximity - want_proximity).max() <= 1e-15, algorithm


def test_co_occurrence_is_counted_over_distinct_label_columns(tmp_path, monkeypatch):
    db = random_corpus(np.random.default_rng(5), tmp_path, max_lemmas=60, libraries=3).feature_database()
    cfg = DigestConfig(runs=6, master_seed=3)
    labels, _ = run_partitions(db.matrix, cfg)
    columns = len(np.unique(labels.T, axis=0))
    assert columns < len(db.names) // 2
    shapes = []

    def spy(labels_runs):
        shapes.append(labels_runs.shape)
        return co_occurrence_counts(labels_runs)

    monkeypatch.setattr(digest, "co_occurrence_counts", spy)
    run_digest(db, cfg)
    assert shapes == [(cfg.runs, columns)]


# ---------------------------------------------------------------------------
# select_reliable grows only the lemma's component; a search of run_digest is the oracle


def select_reliable_oracle(clusters: list[ConsensusCluster], lemma: str) -> ConsensusCluster | None:
    """The search over a whole digest that select_reliable replaced: the cluster
    holding the lemma, if any; consensus clusters are disjoint, so there is at most one."""
    return next((c for c in clusters if lemma in c.members), None)


def _doc(cluster: ConsensusCluster | None) -> str:
    return repr(None if cluster is None else cluster.to_dict())


def assert_select_matches_oracle(db, cfg, lemmas=None):
    """select_reliable against the oracle for each lemma (default: every lemma);
    returns how many of them got a cluster."""
    clusters = run_digest(db, cfg)
    hits = 0
    for lemma in db.names if lemmas is None else lemmas:
        got = select_reliable(db, cfg, lemma)
        assert _doc(got) == _doc(select_reliable_oracle(clusters, lemma)), lemma
        hits += got is not None
    return hits


# columns are lemmas lm00..lm10, rows the 5 runs:
#   A = lm00, lm01   always label 0
#   B = lm02, lm03   with A in runs 0-2 (0.6), with C in runs 0, 3, 4 (0.6)
#   C = lm04, lm05   with A in run 0 only (0.2)
#   G = lm06         alone
#   H = lm07, lm08   always label 3
#   I = lm09         with H in runs 0-2 (0.6)
#   J = lm10         alone
_A, _B, _C = [0, 0, 0, 0, 0], [0, 0, 0, 1, 1], [0, 1, 1, 1, 1]
_H, _I = [3, 3, 3, 3, 3], [3, 3, 3, 4, 4]
FOUR_CASES_LABELS = np.array([_A, _A, _B, _B, _C, _C, [2] * 5, _H, _H, _I, [5] * 5]).T


@pytest.mark.parametrize("threshold, lemma, members, frequency", [
    # single-class hit: at 1.0 only class-mates stay together
    (1.0, "lm00", ("lm00", "lm01"), 1.0),
    (1.0, "lm08", ("lm07", "lm08"), 1.0),
    # multi-class hit through an edge exactly at the threshold: pairs 1, 0.6, 0.6
    (0.6, "lm09", ("lm07", "lm08", "lm09"), 2.2 / 3),
    # the chain A-B-C, its 15 pairs averaging 8.6 / 15, kept below that mean
    (0.5, "lm04", ("lm00", "lm01", "lm02", "lm03", "lm04", "lm05"), 8.6 / 15),
    # the same chain dropped by the mean filter: every edge clears 0.6, the mean does not
    (0.6, "lm00", None, None),
    (0.6, "lm03", None, None),
    # singletons, whatever the threshold
    (0.3, "lm06", None, None),
    (0.6, "lm10", None, None),
    (1.0, "lm09", None, None),
])
def test_select_reliable_four_cases(monkeypatch, threshold, lemma, members, frequency):
    labels = FOUR_CASES_LABELS
    planted_partitions(monkeypatch, labels, np.random.default_rng(2).uniform(size=labels.shape))
    db = make_db(np.zeros((labels.shape[1], 40)))
    cfg = DigestConfig(runs=5, frequency_threshold=threshold)
    chosen = select_reliable(db, cfg, lemma)
    if members is None:
        assert chosen is None
    else:
        assert chosen.members == members
        assert chosen.frequency == pytest.approx(frequency, abs=1e-12)
    assert_select_matches_oracle(db, cfg)


def test_select_reliable_single_candidate(monkeypatch):
    labels = np.array([[0, 0, 1, 2]] * 3)  # lm00 and lm01 together in every run, the rest apart
    planted_partitions(monkeypatch, labels, np.full(labels.shape, 0.5))
    db = make_db(np.zeros((4, 40)))
    cfg = DigestConfig(runs=3)
    clusters = run_digest(db, cfg)
    assert [c.members for c in clusters] == [("lm00", "lm01")]
    assert select_reliable(db, cfg, "lm00") == clusters[0]
    assert select_reliable(db, cfg, "lm02") is None


def test_select_reliable_absent_lemma():
    db = make_db(family_matrix(families=2, per=3))
    assert select_reliable(db, DigestConfig(runs=3), "zz") is None


def test_select_reliable_returns_containing_cluster():
    rng = np.random.default_rng(6)
    db = make_db(rng.uniform(size=(12, 40)))
    cfg = DigestConfig(runs=20, frequency_threshold=0.5, granularity=4, master_seed=4)
    clusters = run_digest(db, cfg)
    assert clusters
    for cluster in clusters:
        for member in cluster.members:
            assert select_reliable(db, cfg, member) == cluster


@pytest.mark.parametrize("algorithm, runs", [("kmeans", 7), ("farthest-first", 12), ("em", 2)])
@pytest.mark.parametrize("threshold", [0.3, 0.6, 1.0])
def test_select_reliable_matches_oracle_on_small_corpora(tmp_path, hint_corpus, algorithm, runs,
                                                         threshold):
    rng = np.random.default_rng(runs + int(threshold * 10))
    query = HINT / "hint_query.v"
    databases = [random_corpus(rng, tmp_path, max_lemmas=12, libraries=2).feature_database(),
                 database_with_query(hint_corpus, parse_partial(query.read_text(), filename=str(query)))]
    for db in databases:
        for granularity in (1, 4):
            cfg = DigestConfig(runs=runs, frequency_threshold=threshold, algorithm=algorithm,
                               granularity=granularity, master_seed=runs + granularity)
            assert_select_matches_oracle(db, cfg)


@pytest.mark.parametrize("threshold", [0.3, 0.6, 1.0])
def test_select_reliable_matches_oracle_on_random_label_matrices(monkeypatch, threshold):
    rng = np.random.default_rng(20 + int(threshold * 10))
    hits = 0
    for case in range(25):
        runs, m = int(rng.integers(1, 30)), int(rng.integers(2, 40))
        labels = rng.integers(0, int(rng.integers(1, 8)), size=(runs, m))
        if case % 2:  # planted duplicate columns: lemmas that share every label
            labels = labels[:, rng.integers(0, m, size=m)]
        planted_partitions(monkeypatch, labels, rng.uniform(size=(runs, m)))
        hits += assert_select_matches_oracle(planted_db(m, rng),
                                             DigestConfig(runs=runs, frequency_threshold=threshold))
    assert hits


@pytest.mark.parametrize("name", ["dup-kmeans", "long-proofs-ff"])
def test_select_reliable_matches_oracle_on_benchmark_hints(tmp_path, name):
    workload = WORKLOADS[name]
    inputs = generate(workload, 12, tmp_path)
    corpus = ingest([p for _, p in inputs.libraries], [t for t, _ in inputs.libraries])
    db = database_with_query(corpus, parse_partial(inputs.query.read_text(), filename=str(inputs.query)))
    for algorithm, runs in ((workload.algorithm, workload.runs), ("kmeans", 5)):
        for threshold in (0.3, 0.6, 1.0):
            cfg = DigestConfig(runs=runs, frequency_threshold=threshold, algorithm=algorithm,
                               granularity=3, master_seed=12)
            assert_select_matches_oracle(db, cfg, lemmas=[QUERY_NAME])


# ---------------------------------------------------------------------------
# the one-pass consensus builder against the per-component code it replaced


def member_proximities_per_class(classes: list[np.ndarray], class_labels: np.ndarray,
                                 proximity: np.ndarray) -> dict[int, float]:
    """Mean proximity over the runs where a member is co-labeled with the
    majority of the other members; 0 when no run qualifies.

    The component is the union of label classes: classes[j] holds the lemma
    indices of class j and class_labels[:, j] its label in each run.  Class-mates
    share every label, so they share the qualifying runs.  proximity is
    (lemmas, runs), so each class's means are one last-axis reduction, which
    sums each row exactly as a one-row mean would.
    """
    sizes = np.array([len(members) for members in classes])
    # per run, how many other members share each class's label
    keys = class_labels + np.arange(len(class_labels))[:, None] * (int(class_labels.max()) + 1)
    agree = np.bincount(keys.ravel(), weights=np.tile(sizes, len(keys)))[keys] - 1
    qualifying = agree * 2 >= sizes.sum() - 1
    out: dict[int, float] = {}
    for members, runs in zip(classes, qualifying.T):
        means = proximity[np.ix_(members, runs)].mean(axis=1) if runs.any() else np.zeros(len(members))
        out.update(zip(members.tolist(), means.tolist()))
    return out


def consensus_cluster_per_component(db: FeatureDatabase, cfg: DigestConfig, classes: _LabelClasses,
                                    class_component: list[int],
                                    rates: np.ndarray) -> ConsensusCluster | None:
    """The cluster of one class component, or None when it is a single lemma or
    its mean pair rate falls below the threshold.

    rates[i, j] is the co-occurrence rate of class_component[i] and class_component[j].
    """
    members_of = [np.flatnonzero(classes.of_lemma == c) for c in class_component]
    component = np.sort(np.concatenate(members_of))
    if len(component) < 2:
        return None
    # the mean of the lemma pair rates (a, b), a < b, taken in row-major order
    position = np.searchsorted(class_component, classes.of_lemma[component])
    order = np.arange(len(component))
    frequency = float(rates[position][:, position][order[:, None] < order].mean())
    # loosely chained components can average below the threshold even
    # though every edge clears it; those are not frequent enough to show
    if frequency < cfg.frequency_threshold - 1e-12:
        return None
    proximities = member_proximities_per_class(members_of, classes.labels[:, class_component],
                                               classes.proximity)
    members = tuple(sorted(db.names[i] for i in component))
    return ConsensusCluster(
        members=members,
        frequency=frequency,
        member_proximity={db.names[i]: proximities[i] for i in component.tolist()},
        homogeneity=HOMOGENEITY[len({db.libraries[name] for name in members}) > 1],
    )


def builder_cases(db: FeatureDatabase, cfg: DigestConfig, classes: _LabelClasses, components,
                  rates_among) -> dict[str, int]:
    """How many of each case the builder meets in these components."""
    sizes = np.bincount(classes.of_lemma)
    cases = dict.fromkeys(("one class", "all runs", "some runs", "no run", "dropped"), 0)
    for component in components:
        if sizes[component].sum() < 2:
            continue
        if len(component) == 1:
            cases["one class"] += 1
            continue
        if consensus_cluster_per_component(db, cfg, classes, component, rates_among(component)) is None:
            cases["dropped"] += 1
            continue
        labels = classes.labels[:, component]
        for j in range(len(component)):
            agree = (sizes[component] * (labels == labels[:, [j]])).sum(axis=1) - 1
            qualifying = 2 * agree >= sizes[component].sum() - 1
            cases["all runs" if qualifying.all() else "some runs" if qualifying.any() else "no run"] += 1
    return cases


def assert_builder_matches_oracle(db: FeatureDatabase, cfg: DigestConfig,
                                  labels: np.ndarray, proximity: np.ndarray) -> dict[str, int]:
    """The builder over every component against one oracle call per component,
    and select_reliable against the oracle's cluster of each lemma; returns the
    cases met."""
    classes = planted_classes(labels, proximity)
    class_co = co_occurrence_counts(classes.labels) / cfg.runs

    def rates_among(component):
        return class_co[np.ix_(component, component)]

    components = components_at(class_co, cfg.frequency_threshold)
    want = [consensus_cluster_per_component(db, cfg, classes, component, rates_among(component))
            for component in components]
    got = _consensus_clusters(db, cfg, classes, components, rates_among)
    assert [_doc(c) for c in got] == [_doc(c) for c in want if c is not None]
    for lemma in db.names:
        assert _doc(select_reliable(db, cfg, lemma)) == _doc(select_reliable_oracle(got, lemma)), lemma
    return builder_cases(db, cfg, classes, components, rates_among)


def chained_labels(rng, runs: int, classes: int, hub: bool) -> np.ndarray:
    """(runs, classes) labels that chain into components.  Class j follows a
    shared base label, with some noise, over a window of runs starting at
    j * step, and keeps a label of its own elsewhere, so neighbours co-occur
    and far ends rarely do.  With hub, class 0 follows the base label in every run."""
    base = rng.integers(0, 3, size=runs)
    labels = np.tile(np.arange(3, 3 + classes), (runs, 1))
    noise = float(rng.uniform(0, 0.2))
    step, width = rng.uniform(0.1, 0.2) * runs, rng.uniform(0.4, 0.55) * runs
    for j in range(classes):
        start = int(j * step)
        window = slice(0, runs) if hub and j == 0 else slice(start, max(int(start + width), start + 1))
        size = len(range(runs)[window])
        labels[window, j] = np.where(rng.uniform(size=size) < noise,
                                     rng.integers(0, 3, size=size), base[window])
    return labels


# runs around numpy's pairwise-sum edges: 8-way unrolling, then blocks of 128
@pytest.mark.parametrize("runs", [1, 7, 8, 9, 128, 129, 300])
def test_consensus_builder_matches_oracle_on_planted_labels(monkeypatch, runs):
    rng = np.random.default_rng(runs)
    met = dict.fromkeys(("one class", "all runs", "some runs", "no run", "dropped"), 0)
    for case in range(18):
        m, classes = int(rng.integers(2, 40)), int(rng.integers(2, 16))
        of_lemma = rng.integers(0, classes, size=m)  # class-mates: duplicate columns
        if case % 3 == 0:  # few labels per run, so classes co-occur often enough to chain
            labels = rng.integers(0, int(rng.integers(1, 5)), size=(runs, classes))
        elif case % 3 == 1:  # one lemma per class, so far ends pull the mean rate down
            labels, of_lemma = chained_labels(rng, runs, classes, hub=False), np.arange(classes)
        else:  # about half of the lemmas in the hub, which then has the majority in most runs
            labels = chained_labels(rng, runs, classes, hub=True)
            of_lemma[rng.uniform(size=m) < 0.5] = 0
        labels = labels[:, of_lemma]
        proximity = rng.uniform(size=labels.shape)
        planted_partitions(monkeypatch, labels, proximity)
        db = planted_db(len(of_lemma), rng)
        for threshold in (0.3, 0.6, 1.0):
            cases = assert_builder_matches_oracle(db, DigestConfig(runs=runs, frequency_threshold=threshold),
                                                  labels, proximity)
            for key in met:
                met[key] += cases[key]
    assert met["one class"]
    if runs > 1:  # in one run every component is a single class
        assert met["all runs"] and met["some runs"]


# A = lm00..lm04, D = lm05, C = lm06, over 4 runs: A and D together in runs 0
# and 2, D and C in runs 1 and 3, so A-D and D-C clear 0.5.  C never shares a
# label with more than one of the 6 other members, so it never has the
# majority: its proximity is 0.  D has it in runs 0 and 2 only.
_NO_RUN_LABELS = np.array([[0, 1, 0, 1]] * 5 + [[0, 2, 0, 2], [3, 2, 4, 2]]).T


@pytest.mark.parametrize("labels, threshold, cases", [
    (_NO_RUN_LABELS, 0.5, {"one class": 0, "all runs": 1, "some runs": 1, "no run": 1, "dropped": 0}),
    # the chain A-B-C dropped by the mean filter, and H-I kept
    (FOUR_CASES_LABELS, 0.6, {"one class": 0, "all runs": 1, "some runs": 1, "no run": 0, "dropped": 1}),
    (FOUR_CASES_LABELS, 1.0, {"one class": 4, "all runs": 0, "some runs": 0, "no run": 0, "dropped": 0}),
], ids=["no qualifying run", "mean filter", "single classes"])
def test_consensus_builder_matches_oracle_on_named_cases(monkeypatch, labels, threshold, cases):
    proximity = np.random.default_rng(5).uniform(size=labels.shape)
    planted_partitions(monkeypatch, labels, proximity)
    db = make_db(np.zeros((labels.shape[1], 40)))
    cfg = DigestConfig(runs=len(labels), frequency_threshold=threshold)
    assert assert_builder_matches_oracle(db, cfg, labels, proximity) == cases


def test_a_class_with_no_qualifying_run_has_proximity_zero(monkeypatch):
    labels = _NO_RUN_LABELS
    proximity = np.random.default_rng(5).uniform(size=labels.shape)
    planted_partitions(monkeypatch, labels, proximity)
    [cluster] = run_digest(make_db(np.zeros((7, 40))), DigestConfig(runs=4, frequency_threshold=0.5))
    assert cluster.member_proximity["lm06"] == 0.0
    assert cluster.member_proximity["lm05"] == proximity[[0, 2], 5].mean()
    assert cluster.member_proximity["lm00"] == proximity[:, 0].mean()


# ---------------------------------------------------------------------------
# homogeneity


def _two_family_clusters():
    """Digest clusters of two well-separated families: one from library seq, one mixed."""
    db = make_db(family_matrix(families=2, per=5), tags=["seq"] * 7 + ["ssrnat"] * 3)
    clusters = run_digest(db, DigestConfig(runs=10, granularity=5, master_seed=2))
    return {c.members: c.homogeneity for c in clusters}


def test_homogeneity_single_library():
    assert _two_family_clusters()[("lm00", "lm01", "lm02", "lm03", "lm04")] == "homogeneous"


def test_homogeneity_mixed_libraries():
    assert _two_family_clusters()[("lm05", "lm06", "lm07", "lm08", "lm09")] == "heterogeneous"


def test_single_library_corpus_all_homogeneous():
    db = make_db(family_matrix(families=2, per=4, jitter=0.01, seed=3))
    cfg = DigestConfig(runs=15, granularity=5, master_seed=5)
    clusters = run_digest(db, cfg)
    assert clusters
    assert all(c.homogeneity == "homogeneous" for c in clusters)


# ---------------------------------------------------------------------------
# digest files


def test_digest_file_round_trip(tmp_path):
    db = make_db(family_matrix(families=2, per=3, jitter=0.0),
                 tags=["u"] * 3 + ["v"] * 3)
    cfg = DigestConfig(runs=10, granularity=5, master_seed=1)
    clusters = run_digest(db, cfg)
    doc = digest_to_dict(clusters, cfg, libraries=db.libraries)
    path = tmp_path / "digest.json"
    write_digest(path, doc)
    assert read_digest(path) == doc
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something else"}')
        read_digest(bad)


def test_digest_counts_are_derived_so_every_written_digest_reads_back(tmp_path):
    path = tmp_path / "digest.json"
    for m in range(2, 61):
        libraries = {f"l{i}": "lib" for i in range(m)}
        for g in range(1, 6):
            doc = digest_to_dict([], DigestConfig(granularity=g), libraries=libraries)
            assert (doc["objects"], doc["clusters_per_run"]) == (m, choose_n(m, g))
            write_digest(path, doc)
            assert read_digest(path) == doc


def test_write_digest_writes_compact_canonical_json(tmp_path):
    db = make_db(family_matrix(families=2, per=3, jitter=0.0), tags=["u"] * 3 + ["v"] * 3)
    cfg = DigestConfig(runs=10, granularity=5, master_seed=1)
    doc = digest_to_dict(run_digest(db, cfg), cfg, libraries=db.libraries)
    path = tmp_path / "digest.json"
    write_digest(path, doc)
    assert path.read_bytes() == (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


@pytest.mark.parametrize("doc", [
    {"format": "proofmine digest v1"},
    {"format": "proofmine digest v1", "config": [], "objects": 2, "clusters_per_run": 1,
     "clusters": []},
    {"format": "proofmine digest v1", "config": {"runs": 1}, "objects": 2,
     "clusters_per_run": 1, "clusters": []},
    {"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": "2",
     "clusters_per_run": 1, "clusters": []},
    {"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": 2,
     "clusters_per_run": 1, "libraries": {"a": "u", "b": "u"},
     "clusters": [{"members": ["a", "b"], "frequency": 1.0,
                   "member_proximity": {"a": 1.0},
                   "homogeneity": "homogeneous"}]},
    {"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": 2,
     "clusters_per_run": 1, "libraries": {"a": "u", "b": "u"},
     "clusters": [{"members": ["a", "b"], "frequency": 1.0,
                   "member_proximity": {"a": 1.0, "b": 1.0},
                   "homogeneity": "mixed"}]},
    # JSON true and false load as Python bools, which are ints; none is a count or a rate
    {"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": True,
     "clusters_per_run": 1, "clusters": []},
    {"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": 2,
     "clusters_per_run": True, "clusters": []},
    {"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": 2,
     "clusters_per_run": 1, "libraries": {"a": "u", "b": "u"},
     "clusters": [{"members": ["a", "b"], "frequency": True,
                   "member_proximity": {"a": 1.0, "b": 1.0},
                   "homogeneity": "homogeneous"}]},
    {"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": 2,
     "clusters_per_run": 1, "libraries": {"a": "u", "b": "u"},
     "clusters": [{"members": ["a", "b"], "frequency": 1.0,
                   "member_proximity": {"a": 1.0, "b": False},
                   "homogeneity": "homogeneous"}]},
    # no cluster writes a rate outside [0, 1]; JSON Infinity and NaN load as floats
    *({"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": 2,
       "clusters_per_run": 1, "libraries": {"a": "u", "b": "u"},
       "clusters": [{"members": ["a", "b"], "frequency": frequency,
                     "member_proximity": {"a": 1.0, "b": proximity},
                     "homogeneity": "homogeneous"}]}
      for frequency, proximity in [(float("inf"), 1.0), (float("nan"), 1.0), (1.5, 1.0), (-0.5, 1.0),
                                   (1.0, float("nan")), (1.0, float("-inf")), (1.0, 1.01), (1.0, -1e-9)]),
    {"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": 2,
     "clusters_per_run": 1, "libraries": {"a": 1}, "clusters": []},
    # config values of the wrong type, or out of DigestConfig's ranges
    *({"format": "proofmine digest v1", "config": {**DigestConfig().to_dict(), key: value},
       "objects": 2, "clusters_per_run": 1, "clusters": []}
      for key, value in [("algorithm", ["x"]), ("algorithm", "x"), ("runs", "many"), ("runs", 0),
                         ("runs", True), ("runs", 2.0), ("frequency_threshold", float("nan")),
                         ("frequency_threshold", float("inf")), ("frequency_threshold", 0),
                         ("frequency_threshold", True), ("frequency_threshold", "0.6"),
                         ("granularity", 6), ("granularity", 3.0), ("master_seed", -1),
                         ("master_seed", None)]),
    # fewer than two objects, or a cluster count that choose_n does not give
    *({"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": objects,
       "clusters_per_run": n, "clusters": []}
      for objects, n in [(1, 1), (0, 1), (-3, 1), (2, -5), (2, 2), (2, 0), (70, 1), (70, 10.0)]),
    # a digest's libraries tag exactly its objects: every member, and the tags give homogeneity
    {"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": 70,
     "clusters_per_run": 10, "libraries": {"a": "u", "b": "v"}, "clusters": []},
    {"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": 2,
     "clusters_per_run": 1, "libraries": {"a": "u", "b": "v"},
     "clusters": [{"members": ["a", "zz"], "frequency": 1.0, "member_proximity": {"a": 1.0, "zz": 1.0},
                   "homogeneity": "homogeneous"}]},
    {"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": 2,
     "clusters_per_run": 1, "libraries": {"a": "u", "b": "v"},
     "clusters": [{"members": ["a", "b"], "frequency": 1.0, "member_proximity": {"a": 1.0, "b": 1.0},
                   "homogeneity": "homogeneous"}]},
    # what run_digest writes: disjoint clusters of 2 or more sorted members, a proximity for each
    # member and none else, and a frequency that the threshold keeps
    *({"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": 3,
       "clusters_per_run": 1, "libraries": {"a": "u", "b": "u", "c": "u"},
       "clusters": [{"members": members, "frequency": frequency,
                     "member_proximity": dict.fromkeys(named, 1.0), "homogeneity": "homogeneous"}
                    for members, frequency, named in clusters]}
      for clusters in [[(["a", "b"], 1.0, "ab"), (["a", "b"], 1.0, "ab")],
                       [(["a", "b"], 1.0, "ab"), (["b", "c"], 1.0, "bc")],
                       [(["a", "a"], 1.0, "a")], [(["a"], 1.0, "a")], [(["a", "b"], 1.0, "abc")],
                       [(["a", "b"], 0.1, "ab")], [(["b", "a"], 1.0, "ab")]]),
])
def test_read_digest_rejects_missing_report_fields(tmp_path, doc):
    path = tmp_path / "digest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="malformed digest"):
        read_digest(path)
