import itertools
import math

import numpy as np
import pytest

from proofmine import clustering, ingest
from proofmine.clustering import (KMEANS_MAX_ITER, ClusterAssignment, TooFewPoints, choose_n,
                                  em_gaussian, farthest_first, kmeans)

from conftest import random_library_source

# (m, g) -> n pairs fixed by the published granularity tables
GRANULARITY_TABLE = [
    (1404, 5, 280),
    (758, 1, 84), (758, 2, 94), (758, 3, 108), (758, 4, 126), (758, 5, 151),
    (1118, 1, 124), (1118, 2, 139), (1118, 3, 159), (1118, 4, 186), (1118, 5, 223),
    (147, 1, 16), (147, 2, 18), (147, 3, 21), (147, 4, 24), (147, 5, 29),
]


@pytest.mark.parametrize("m,g,n", GRANULARITY_TABLE)
def test_choose_n_reproduces_published_values(m, g, n):
    assert choose_n(m, g) == n


def test_choose_n_floor_and_clamp():
    assert choose_n(9, 1) == 1
    assert choose_n(5, 1) == 1  # formula would give 0


def _pad(points, dim=40):
    out = np.zeros((len(points), dim))
    arr = np.asarray(points, dtype=float)
    out[:, :arr.shape[1]] = arr
    return out


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_singleton_clusters():
    points = _pad([[i, 0] for i in range(5)])
    result = kmeans(points, n=5, seed=3)
    assert sorted(result.labels) == list(range(5))
    assert result.objective == 0.0
    assert np.all(result.proximity == 1.0)


def test_kmeans_single_cluster_center_is_mean():
    points = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 6.0]])
    result = kmeans(points, n=1, seed=0)
    assert np.allclose(result.centers[0], points.mean(axis=0))


def brute_force_best_partition(points):
    """Minimum within-cluster sum of squares over all 2-partitions."""
    best = None
    best_obj = math.inf
    m = len(points)
    for mask in range(1, 2 ** m - 1):
        sides = [[], []]
        for i in range(m):
            sides[(mask >> i) & 1].append(i)
        obj = 0.0
        for side in sides:
            block = points[side]
            obj += float(np.sum((block - block.mean(axis=0)) ** 2))
        if obj < best_obj:
            best_obj = obj
            best = frozenset(frozenset(side) for side in sides)
    return best, best_obj


def test_kmeans_two_triples_match_brute_force():
    points = np.array([
        [0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
        [10.0, 10.0], [10.1, 10.0], [10.0, 10.1],
    ])
    best, best_obj = brute_force_best_partition(points)
    result = kmeans(points, n=2, seed=0)
    got = frozenset(frozenset(int(i) for i in np.flatnonzero(result.labels == lab))
                    for lab in np.unique(result.labels))
    assert got == best
    assert result.objective == pytest.approx(best_obj)


def test_kmeans_objective_history_non_increasing():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(30, 4))
    result = kmeans(points, n=4, seed=5)
    history = result.objective_history
    assert all(history[i + 1] <= history[i] + 1e-9 for i in range(len(history) - 1))
    assert result.objective <= history[0] + 1e-9


def test_kmeans_terminates_on_nearest_centers():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(25, 3))
    result = kmeans(points, n=3, seed=9)
    dist = np.sum((points[:, None, :] - result.centers[None, :, :]) ** 2, axis=2)
    assert np.array_equal(result.labels, np.argmin(dist, axis=1))


def test_kmeans_handles_duplicate_points_with_repair():
    points = _pad([[0, 0]] * 4 + [[9, 9]], dim=2)
    result = kmeans(points, n=3, seed=1)
    assert len(result.centers) == 3
    assert result.labels.max() < 3
    assert 0.0 <= result.proximity.min() <= result.proximity.max() <= 1.0


def test_kmeans_too_few_points():
    with pytest.raises(TooFewPoints):
        kmeans(np.zeros((2, 3)), n=3, seed=0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(20, 5))
    a = kmeans(points, n=4, seed=42)
    b = kmeans(points, n=4, seed=42)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centers, b.centers)
    assert a.objective == b.objective


# ---------------------------------------------------------------------------
# k-means against the plain Lloyd loop


def kmeans_oracle(points, n: int, seed: int) -> ClusterAssignment:
    """The Lloyd loop without cycle detection or distinct-row assignment."""
    pts = clustering._as_points(points)
    m = len(pts)
    clustering._check_n(n, m)
    rng = np.random.default_rng(seed)
    init = rng.choice(m, size=n, replace=False)
    centers = pts[init].copy()
    labels = np.argmin(clustering._sq_distances(pts, centers), axis=1)
    history = [float(np.sum((pts - centers[labels]) ** 2))]
    for _ in range(KMEANS_MAX_ITER):
        centers = clustering._update_centers(pts, labels, centers)
        new_labels = np.argmin(clustering._sq_distances(pts, centers), axis=1)
        history.append(float(np.sum((pts - centers[new_labels]) ** 2)))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    objective = float(np.sum((pts - centers[labels]) ** 2))
    return ClusterAssignment(
        labels=labels,
        centers=centers,
        proximity=clustering._nearest_proximity(pts, centers, labels),
        objective=objective,
        center_indices=tuple(int(i) for i in init),
        objective_history=tuple(history),
    )


@pytest.fixture(scope="module")
def template_matrix(tmp_path_factory):
    """Duplicate-heavy features: 120 template lemmas encode to few distinct rows."""
    rng = np.random.default_rng(0)
    root = tmp_path_factory.mktemp("templates")
    paths = []
    for lib in range(2):
        path = root / f"lib{lib}.v"
        path.write_text(random_library_source(rng, 60, f"lib{lib}"))
        paths.append(path)
    return ingest(paths, ["lib0", "lib1"]).feature_database().matrix


def distinct_rows(points) -> int:
    return len(np.unique(points, axis=0))


def assert_same_run(got: ClusterAssignment, want: ClusterAssignment) -> None:
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.centers, want.centers)
    assert got.objective == want.objective
    assert np.array_equal(got.proximity, want.proximity)
    assert got.center_indices == want.center_indices
    # the same iterations, cut short where the oracle only cycles on to its cap
    assert got.objective_history == want.objective_history[:len(got.objective_history)]


def test_kmeans_matches_oracle_when_n_exceeds_distinct_rows(template_matrix):
    n = distinct_rows(template_matrix) + 1
    capped = 0
    for seed in range(6):
        want = kmeans_oracle(template_matrix, n, seed)
        assert_same_run(kmeans(template_matrix, n, seed), want)
        capped += len(want.objective_history) == KMEANS_MAX_ITER + 1
    assert capped, "no oracle run reached the iteration cap"


@pytest.mark.parametrize("share", [1.0, 0.5, 0.1])
def test_kmeans_matches_oracle_when_n_within_distinct_rows(template_matrix, share):
    n = max(1, int(distinct_rows(template_matrix) * share))
    for seed in range(6):
        want = kmeans_oracle(template_matrix, n, seed)
        got = kmeans(template_matrix, n, seed)
        assert_same_run(got, want)
        assert got.objective_history == want.objective_history


def test_kmeans_matches_oracle_on_gaussian_data():
    rng = np.random.default_rng(14)
    for seed in range(12):
        points = rng.normal(size=(int(rng.integers(10, 80)), int(rng.integers(1, 6))))
        n = int(rng.integers(1, len(points) // 2))
        want = kmeans_oracle(points, n, seed)
        got = kmeans(points, n, seed)
        assert_same_run(got, want)
        assert got.objective_history == want.objective_history


def unique_rows_oracle(pts):
    """The distinct-row step as np.unique over a structured row dtype."""
    distinct, inverse = np.unique(pts, axis=0, return_inverse=True)
    return distinct, inverse.reshape(-1)  # numpy 2.0.0 returns it as a column


def test_kmeans_distinct_rows_match_unique_oracle(template_matrix, monkeypatch):
    rng = np.random.default_rng(5)
    strided = np.repeat(template_matrix, 2, axis=1)[:, ::2]
    assert not strided.flags.c_contiguous and np.array_equal(strided, template_matrix)
    # rounding makes duplicate rows, and signed zeros that compare equal but differ bytewise
    rounded = np.round(rng.normal(scale=0.6, size=(60, 2)))
    assert len(unique_rows_oracle(rounded)[0]) < len({row.tobytes() for row in rounded}) < 60
    cases = [(template_matrix, distinct_rows(template_matrix) + 1), (strided, 9), (rounded, 12)]
    for points, _ in cases:
        distinct, inverse = clustering._distinct_rows(points)
        assert np.array_equal(distinct[inverse], points)
        keys = {row.tobytes() for row in points}
        assert len(distinct) == len(keys) and {row.tobytes() for row in distinct} == keys
    got = [[kmeans(points, n, seed) for seed in range(4)] for points, n in cases]
    monkeypatch.setattr(clustering, "_distinct_rows", unique_rows_oracle)
    for (points, n), runs in zip(cases, got):
        for seed, result in enumerate(runs):
            want = kmeans(points, n, seed)
            assert_same_run(result, want)
            assert result.objective_history == want.objective_history


def test_kmeans_capped_case_ends_on_repeated_labelling(template_matrix):
    n = distinct_rows(template_matrix) + 1
    for seed in range(6):
        assert len(kmeans(template_matrix, n, seed).objective_history) - 1 < KMEANS_MAX_ITER


def test_em_unchanged_by_kmeans_start(template_matrix, monkeypatch):
    n = distinct_rows(template_matrix) + 1
    got = [em_gaussian(template_matrix, n, seed) for seed in range(3)]
    monkeypatch.setattr(clustering, "kmeans", kmeans_oracle)
    for seed, result in enumerate(got):
        want = em_gaussian(template_matrix, n, seed)
        assert np.array_equal(result.labels, want.labels)
        assert result.log_likelihood_history == want.log_likelihood_history


# ---------------------------------------------------------------------------
# EM


def test_em_responsibilities_rows_sum_to_one():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(18, 3))
    result = em_gaussian(points, n=3, seed=4)
    sums = result.responsibilities.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-9)
    assert 0.0 <= result.proximity.min() <= result.proximity.max() <= 1.0


def test_em_separated_blobs_confident():
    rng = np.random.default_rng(123)
    sigma = 0.05
    blob_a = rng.normal(0.0, sigma, size=(10, 2))
    blob_b = rng.normal(0.0, sigma, size=(10, 2)) + np.array([5.0, 5.0])
    points = np.vstack([blob_a, blob_b])
    result = em_gaussian(points, n=2, seed=1)
    labels = result.labels
    assert len(set(labels[:10])) == 1
    assert len(set(labels[10:])) == 1
    assert labels[0] != labels[10]
    assert result.proximity.min() >= 0.99


def test_em_log_likelihood_non_decreasing():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(24, 3))
    result = em_gaussian(points, n=3, seed=8)
    history = result.log_likelihood_history
    assert all(history[i + 1] >= history[i] - 1e-9 for i in range(len(history) - 1))


def test_em_deterministic():
    rng = np.random.default_rng(9)
    points = rng.normal(size=(15, 4))
    a = em_gaussian(points, n=3, seed=13)
    b = em_gaussian(points, n=3, seed=13)
    assert np.array_equal(a.labels, b.labels)
    assert a.objective == b.objective


# ---------------------------------------------------------------------------
# farthest-first


def greedy_oracle(points, n, first):
    """Replay of the max-min rule; ties go to the lowest point index."""
    chosen = [first]
    while len(chosen) < n:
        best_idx, best_d = None, -1.0
        for i in range(len(points)):
            d = min(math.dist(points[i], points[c]) for c in chosen)
            if d > best_d:
                best_idx, best_d = i, d
        chosen.append(best_idx)
    return chosen


def test_farthest_first_collinear_picks_far_end():
    points = _pad([[0.0], [1.0], [10.0]])
    for seed in range(50):
        result = farthest_first(points, n=2, seed=seed)
        if result.center_indices[0] == 0:
            assert result.center_indices[1] == 2
            return
    pytest.fail("no seed started farthest-first from point 0")


def test_farthest_first_full_cover_radius_zero():
    points = _pad([[i, i * 2] for i in range(6)], dim=3)
    result = farthest_first(points, n=6, seed=2)
    assert result.objective == 0.0
    assert np.all(result.proximity == 1.0)


def test_farthest_first_matches_greedy_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        m = int(rng.integers(3, 11))
        n = int(rng.integers(2, m + 1))
        points = rng.normal(size=(m, int(rng.integers(1, 4))))
        result = farthest_first(points, n=n, seed=int(rng.integers(1000)))
        oracle = greedy_oracle(points.tolist(), n, result.center_indices[0])
        assert list(result.center_indices) == oracle


def brute_force_optimal_radius(points, n):
    best = math.inf
    for subset in itertools.combinations(range(len(points)), n):
        centers = points[list(subset)]
        dist = np.sqrt(np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2))
        best = min(best, float(dist.min(axis=1).max()))
    return best


def test_farthest_first_within_twice_optimal():
    rng = np.random.default_rng(17)
    for _ in range(15):
        m = int(rng.integers(4, 11))
        n = int(rng.integers(1, 4))
        points = rng.uniform(-5, 5, size=(m, 2))
        result = farthest_first(points, n=n, seed=int(rng.integers(1000)))
        optimal = brute_force_optimal_radius(points, n)
        assert result.objective <= 2.0 * optimal + 1e-9


def test_farthest_first_deterministic():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(12, 6))
    a = farthest_first(points, n=4, seed=77)
    b = farthest_first(points, n=4, seed=77)
    assert a.center_indices == b.center_indices
    assert np.array_equal(a.labels, b.labels)


def test_all_algorithms_proximity_in_unit_interval():
    rng = np.random.default_rng(21)
    points = rng.normal(size=(20, 5))
    for algo in (kmeans, em_gaussian, farthest_first):
        result = algo(points, 4, 3)
        assert result.proximity.min() >= 0.0
        assert result.proximity.max() <= 1.0
