"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from proofmine.clustering import PointSet, choose_n, farthest_first, kmeans
from proofmine.corpus import (CorruptFile, QUERY_NAME, database_with_query, ingest, load, save)
from proofmine.digest import (DigestConfig, co_occurrence_counts, components_at, run_digest,
                              run_partitions, select_reliable)
from proofmine.features import FeatureDatabase
from proofmine.script import parse_library, parse_trace, parse_partial

from conftest import (FIXTURES, GOLDEN_SOURCES, HINT, HINT_LIBS, compare_with_golden,
                      em_with_responsibilities, load_golden, random_corpus, row_indices)


def _report(num: int, name: str, started: float, limit_s: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit_s, f"criterion {num} took {elapsed:.3f}s, limit {limit_s}s"
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed * 1000.0:.1f} ms)")


# 1 ------------------------------------------------------------------------

PUBLISHED_PAIRS = [
    (1404, 5, 280),
    (758, 1, 84), (758, 2, 94), (758, 3, 108), (758, 4, 126), (758, 5, 151),
    (1118, 1, 124), (1118, 2, 139), (1118, 3, 159), (1118, 4, 186), (1118, 5, 223),
    (147, 1, 16), (147, 2, 18), (147, 3, 21), (147, 4, 24), (147, 5, 29),
]


def test_acceptance_1_granularity_formula():
    started = time.perf_counter()
    for m, g, n in PUBLISHED_PAIRS:
        assert choose_n(m, g) == n
    _report(1, "granularity formula reproduction", started, 0.001)


# 2 ------------------------------------------------------------------------


def test_acceptance_2_table_scope_documented():
    started = time.perf_counter()
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    assert "not reproducible" in readme
    print("    (cluster contents of the published case-study tables depend on "
          "full third-party libraries; the property suites below substitute)")
    _report(2, "table non-reproducibility acknowledged", started, 1.0)


# 3 ------------------------------------------------------------------------


def test_acceptance_3_synthetic_family_recovery():
    started = time.perf_counter()
    families, per = 4, 5
    matrix = np.zeros((families * per, 40))
    for fam in range(families):
        matrix[fam * per:(fam + 1) * per, fam] = 1.0
    within = max(np.linalg.norm(matrix[a] - matrix[b])
                 for fam in range(families)
                 for a in range(fam * per, (fam + 1) * per)
                 for b in range(fam * per, (fam + 1) * per))
    across = min(np.linalg.norm(matrix[a] - matrix[b])
                 for a in range(per) for b in range(per, families * per))
    assert within <= 0.01 and across >= 0.5
    names = [f"lm{i:02d}" for i in range(families * per)]
    db = FeatureDatabase(names=names, libraries={n: "synthetic" for n in names}, matrix=matrix)
    assert choose_n(len(names), 5) == families
    cfg = DigestConfig(runs=200, frequency_threshold=0.6, algorithm="kmeans",
                       granularity=5, master_seed=1)
    clusters = run_digest(db, cfg)
    assert len(clusters) == families
    got = {frozenset(c.members) for c in clusters}
    want = {frozenset(names[f * per:(f + 1) * per]) for f in range(families)}
    assert got == want
    for cluster in clusters:
        assert cluster.frequency >= 0.95
        assert all(p >= 0.9 for p in cluster.member_proximity.values())
    _report(3, "synthetic family recovery", started, 5.0)


# 4 ------------------------------------------------------------------------


def test_acceptance_4_fixture_scenario_hint():
    started = time.perf_counter()
    corpus = ingest([p for _, p in HINT_LIBS], [t for t, _ in HINT_LIBS])
    query = parse_partial((HINT / "hint_query.v").read_text())
    db = database_with_query(corpus, query)
    # distance check precedes the clustering claim
    index = {name: i for i, name in enumerate(db.names)}
    group = [n for n in db.names if n.startswith("gsum_")] + [QUERY_NAME]
    decoys = [n for n in db.names if n not in group]
    within = max(np.linalg.norm(db.matrix[index[a]] - db.matrix[index[b]])
                 for a in group for b in group)
    across = min(np.linalg.norm(db.matrix[index[a]] - db.matrix[index[b]])
                 for a in group for b in decoys)
    assert within < across
    expected = {"gsum_expand_l", "gsum_expand_r", "gsum_split_lo", "gsum_split_hi"}
    for seed in range(1, 11):
        cfg = DigestConfig(runs=200, frequency_threshold=0.6, algorithm="kmeans",
                           granularity=4, master_seed=seed)
        chosen = select_reliable(db, cfg, QUERY_NAME)
        assert chosen is not None, f"seed {seed} returned no cluster"
        members = set(chosen.members) - {QUERY_NAME}
        assert members == expected, f"seed {seed} returned {sorted(members)}"
    _report(4, "fixture-scenario hint", started, 5.0)


# 5 ------------------------------------------------------------------------


def _greedy_oracle(points: np.ndarray, n: int, first: int) -> list[int]:
    chosen = [first]
    while len(chosen) < n:
        best_idx, best_d = None, -1.0
        for i in range(len(points)):
            d = min(math.dist(points[i], points[c]) for c in chosen)
            if d > best_d:
                best_idx, best_d = i, d
        chosen.append(best_idx)
    return chosen


def test_acceptance_5_algorithm_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for case in range(100):
        m = int(rng.integers(2, 9))
        dims = int(rng.integers(1, 4))
        n = int(rng.integers(1, m + 1))
        points = rng.uniform(-3, 3, size=(m, dims))
        seed = int(rng.integers(10_000))

        km = kmeans(PointSet(points), n, seed)
        dist_sq = np.sum((points[:, None, :] - km.centers[None, :, :]) ** 2, axis=2)
        own = dist_sq[np.arange(m), km.labels]
        assert own.sum() <= km.objective_history[0] + 1e-9
        assert np.all(dist_sq >= own[:, None] - 1e-12), "a relabeling would improve"

        ff = farthest_first(PointSet(points), n, seed)
        chosen = row_indices(points, ff.centers)
        assert chosen == _greedy_oracle(points, n, chosen[0]), f"case {case}"

        em, responsibilities = em_with_responsibilities(points, n, seed)
        sums = responsibilities.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-9)
        history = em.log_likelihood_history
        assert all(history[i + 1] >= history[i] - 1e-9 for i in range(len(history) - 1))
    _report(5, "algorithm correctness oracles (100 cases)", started, 10.0)


# 6 ------------------------------------------------------------------------


def test_acceptance_6_digest_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(104729)
    algorithms = ("kmeans", "em", "farthest-first")
    for case in range(100):
        m = int(rng.integers(4, 31))
        matrix = rng.uniform(size=(m, 40))
        names = [f"lm{i:02d}" for i in range(m)]
        tags = {n: f"lib{int(rng.integers(3))}" for n in names}
        db = FeatureDatabase(names=names, libraries=tags, matrix=matrix)
        cfg = DigestConfig(
            runs=int(rng.integers(8, 21)),
            frequency_threshold=float(rng.choice([0.4, 0.6, 0.8])),
            algorithm=algorithms[case % len(algorithms)],
            granularity=int(rng.integers(1, 6)),
            master_seed=int(rng.integers(10_000)),
        )
        labels, _ = run_partitions(db.matrix, cfg)
        counts = co_occurrence_counts(labels)
        co = counts / cfg.runs
        assert np.array_equal(co, co.T)
        assert np.all(np.diag(co) == 1.0)
        assert co.min() >= 0.0 and co.max() <= 1.0

        low, high = sorted(rng.choice([0.3, 0.5, 0.7, 0.9], size=2, replace=False))
        big = components_at(co, low)
        for component in components_at(co, high):
            assert any(set(component) <= set(b) for b in big)

        order = rng.permutation(cfg.runs)
        assert np.array_equal(counts, co_occurrence_counts(labels[order]))

        if case % 7 == 0:
            assert run_digest(db, cfg) == run_digest(db, cfg)
    _report(6, "digest properties (100 corpora)", started, 30.0)


# 7 ------------------------------------------------------------------------


def test_acceptance_7_parser_goldens():
    started = time.perf_counter()
    for name, path in sorted(GOLDEN_SOURCES.items()):
        records = parse_library(path.read_text(), name, filename=path.name)
        compare_with_golden(records, load_golden(name))
    trace_records = parse_trace((FIXTURES / "matrix_trace.jsonl").read_text())
    compare_with_golden(trace_records, load_golden("matrix_trace"))
    _report(7, "parser listing goldens", started, 1.0)


# 8 ------------------------------------------------------------------------


def test_acceptance_8_persistence_round_trip(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(88)
    query = parse_partial((HINT / "hint_query.v").read_text())
    for trial in range(50):
        corpus = random_corpus(rng, tmp_path, max_lemmas=6)
        path = tmp_path / f"round_{trial}.corpus"
        save(corpus, path)
        loaded = load(path)
        assert (loaded.names, loaded.libraries, loaded.table, loaded.patch_len) == (
            corpus.names, corpus.libraries, corpus.table, corpus.patch_len)
        assert loaded.raw.shape == corpus.raw.shape and loaded.raw.tobytes() == corpus.raw.tobytes()
        assert (database_with_query(loaded, query).matrix.tobytes()
                == database_with_query(corpus, query).matrix.tobytes())
        if trial % 10 == 0:
            data = path.read_bytes()
            cut = int(rng.integers(0, len(data) - 1))
            broken = tmp_path / f"broken_{trial}.corpus"
            broken.write_bytes(data[:cut])
            with pytest.raises(CorruptFile):
                load(broken)
    _report(8, "persistence round-trip (50 corpora)", started, 5.0)
