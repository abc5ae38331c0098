import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proofmine import clustering, ingest
from proofmine.clustering import (KMEANS_MAX_ITER, ClusterAssignment, PointSet, TooFewPoints,
                                  choose_n, em_gaussian, farthest_first, kmeans)

from conftest import em_with_responsibilities, random_library_source, row_indices

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


def einsum_sq(diff: np.ndarray) -> np.ndarray:
    """Squared row lengths, reduced as the clustering code's one kernel reduces them."""
    return np.einsum("md,md->m", diff, diff)


def sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The (rows, centers) matrix of squared distances in one einsum call: the per-run
    oracles assign by it, and each column k-means fills on its own must match it."""
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("mnd,mnd->mn", diff, diff)


def sum_sq(diff: np.ndarray) -> np.ndarray:
    """Squared row lengths as row sums: the second kernel the clustering code once had,
    kept as the reference that einsum_sq moves only the last bits from."""
    return np.sum(diff ** 2, axis=1)


def nearest_proximity(points, centers, labels, sq=einsum_sq) -> np.ndarray:
    return clustering._proximity(np.sqrt(sq(points - centers[labels])))


def within_sum_of_squares(points, result: ClusterAssignment) -> float:
    return float(np.sum((points - result.centers[result.labels]) ** 2))


def cover_radius(points, result: ClusterAssignment) -> float:
    """The largest distance from a point to its own center."""
    return float(np.sqrt(np.sum((points - result.centers[result.labels]) ** 2, axis=1)).max())


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_singleton_clusters():
    points = _pad([[i, 0] for i in range(5)])
    result = kmeans(points, n=5, seed=3)
    assert sorted(result.labels) == list(range(5))
    assert within_sum_of_squares(points, result) == 0.0
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
    assert within_sum_of_squares(points, result) == pytest.approx(best_obj)


def test_kmeans_objective_history_non_increasing():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(30, 4))
    result = kmeans(points, n=4, seed=5)
    history = result.objective_history
    assert all(history[i + 1] <= history[i] + 1e-9 for i in range(len(history) - 1))
    assert within_sum_of_squares(points, result) <= history[0] + 1e-9


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
    assert np.array_equal(a.proximity, b.proximity)
    assert a.objective_history == b.objective_history


# ---------------------------------------------------------------------------
# k-means against the plain Lloyd loop


def _update_centers(points: np.ndarray, labels: np.ndarray, centers: np.ndarray,
                    sq=einsum_sq) -> np.ndarray:
    n = len(centers)
    new = centers.copy()
    counts = np.bincount(labels, minlength=n)
    for j in range(n):
        if counts[j]:
            new[j] = points[labels == j].mean(axis=0)
    empties = np.flatnonzero(counts == 0)
    if len(empties):
        # re-seed each empty cluster with the point farthest from its own center
        own = np.sqrt(sq(points - new[labels]))
        for j in empties:
            pick = int(np.argmax(own))
            new[j] = points[pick]
            own[pick] = -1.0
    return new


def kmeans_oracle(points, n: int, seed: int) -> ClusterAssignment:
    """The Lloyd loop without cycle detection or distinct-row assignment.

    EM hands its k-means start a PointSet; only its matrix is read here."""
    pts = clustering._as_points(getattr(points, "points", points))
    m = len(pts)
    clustering._check_n(n, m)
    rng = np.random.default_rng(seed)
    init = rng.choice(m, size=n, replace=False)
    centers = pts[init].copy()
    labels = np.argmin(sq_distances(pts, centers), axis=1)
    history = [float(np.sum((pts - centers[labels]) ** 2))]
    for _ in range(KMEANS_MAX_ITER):
        centers = _update_centers(pts, labels, centers)
        new_labels = np.argmin(sq_distances(pts, centers), axis=1)
        history.append(float(np.sum((pts - centers[new_labels]) ** 2)))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return ClusterAssignment(
        labels=labels,
        proximity=nearest_proximity(pts, centers, labels),
        centers=centers,
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
    assert np.array_equal(got.proximity, want.proximity)
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
    result, responsibilities = em_with_responsibilities(points, n=3, seed=4)
    sums = responsibilities.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-9)
    assert np.array_equal(result.labels, np.argmax(responsibilities, axis=1))
    assert np.array_equal(result.proximity, responsibilities[np.arange(18), result.labels])
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
    assert a.log_likelihood_history == b.log_likelihood_history


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
        if row_indices(points, result.centers)[0] == 0:
            assert row_indices(points, result.centers)[1] == 2
            return
    pytest.fail("no seed started farthest-first from point 0")


def test_farthest_first_full_cover_radius_zero():
    points = _pad([[i, i * 2] for i in range(6)], dim=3)
    result = farthest_first(points, n=6, seed=2)
    assert cover_radius(points, result) == 0.0
    assert np.all(result.proximity == 1.0)


def test_farthest_first_matches_greedy_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        m = int(rng.integers(3, 11))
        n = int(rng.integers(2, m + 1))
        points = rng.normal(size=(m, int(rng.integers(1, 4))))
        result = farthest_first(points, n=n, seed=int(rng.integers(1000)))
        chosen = row_indices(points, result.centers)
        assert chosen == greedy_oracle(points.tolist(), n, chosen[0])


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
        assert cover_radius(points, result) <= 2.0 * optimal + 1e-9


def test_farthest_first_deterministic():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(12, 6))
    a = farthest_first(points, n=4, seed=77)
    b = farthest_first(points, n=4, seed=77)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.labels, b.labels)


def test_all_algorithms_proximity_in_unit_interval():
    rng = np.random.default_rng(21)
    points = rng.normal(size=(20, 5))
    for algo in (kmeans, em_gaussian, farthest_first):
        result = algo(points, 4, 3)
        assert result.proximity.min() >= 0.0
        assert result.proximity.max() <= 1.0


# ---------------------------------------------------------------------------
# the runs of one digest share a PointSet; each run must match the per-run code


def kmeans_per_run_oracle(points, n: int, seed: int, sq=einsum_sq) -> ClusterAssignment:
    """kmeans as it was before the runs shared a PointSet: the distinct rows
    are split again on every run, in _distinct_rows' own order.  `sq` reduces
    the reseed and proximity distances."""
    pts = clustering._as_points(getattr(points, "points", points))
    m = len(pts)
    clustering._check_n(n, m)
    rng = np.random.default_rng(seed)
    init = rng.choice(m, size=n, replace=False)
    distinct, inverse = clustering._distinct_rows(pts)

    def assign(centers: np.ndarray) -> np.ndarray:
        return np.argmin(sq_distances(distinct, centers), axis=1)[inverse]

    centers = pts[init].copy()
    labels = assign(centers)
    states = [(labels, centers)]
    first_seen = {labels.tobytes(): 0}
    history = [float(np.sum((pts - centers[labels]) ** 2))]
    for step in range(1, KMEANS_MAX_ITER + 1):
        centers = _update_centers(pts, labels, centers, sq)
        labels = assign(centers)
        history.append(float(np.sum((pts - centers[labels]) ** 2)))
        states.append((labels, centers))
        start = first_seen.setdefault(labels.tobytes(), step)
        if start != step:
            # states start+1 .. step repeat with period step - start
            labels, centers = states[start + 1 + (KMEANS_MAX_ITER - start - 1) % (step - start)]
            break
    return ClusterAssignment(
        labels=labels,
        proximity=nearest_proximity(pts, centers, labels, sq),
        centers=centers,
        objective_history=tuple(history),
    )


def farthest_first_oracle(points, n: int, seed: int, sq=einsum_sq) -> ClusterAssignment:
    """farthest_first as it was before the runs shared a PointSet: every
    distance over every row, computed again on every run.  `sq` reduces the
    distances of the max-min loop and of the proximities."""
    pts = clustering._as_points(points)
    m = len(pts)
    clustering._check_n(n, m)
    rng = np.random.default_rng(seed)
    first = int(rng.integers(m))
    chosen = [first]
    min_sq = sq(pts - pts[first])
    for _ in range(1, n):
        nxt = int(np.argmax(min_sq))
        chosen.append(nxt)
        min_sq = np.minimum(min_sq, sq(pts - pts[nxt]))
    centers = pts[chosen].copy()
    labels = np.argmin(sq_distances(pts, centers), axis=1)
    return ClusterAssignment(
        labels=labels,
        proximity=nearest_proximity(pts, centers, labels, sq),
        centers=centers,
    )


def per_run_oracle(algorithm: str, points, n: int, seed: int, sq=einsum_sq) -> ClusterAssignment:
    """One run of the named algorithm by the per-run code; EM starts from the per-run k-means."""
    if algorithm == "em":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(clustering, "kmeans", functools.partial(kmeans_per_run_oracle, sq=sq))
            return em_gaussian(points, n, seed)
    return {"kmeans": kmeans_per_run_oracle, "farthest-first": farthest_first_oracle}[algorithm](
        points, n, seed, sq)


def assert_identical_runs(got: ClusterAssignment, want: ClusterAssignment) -> None:
    for field in ("labels", "centers", "proximity"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field
    assert got.objective_history == want.objective_history
    assert got.log_likelihood_history == want.log_likelihood_history


def planted_duplicates(seed: int, m: int = 70, distinct: int = 25, dims: int = 6) -> np.ndarray:
    """m rows drawn with replacement from a few rounded random rows."""
    rng = np.random.default_rng(seed)
    base = np.round(rng.uniform(size=(distinct, dims)), 1)
    return base[rng.integers(0, distinct, size=m)]


def lattice_points() -> np.ndarray:
    """A 5 x 5 integer grid, some points twice: many exactly equal distances."""
    grid = np.array([[x, y] for x in range(5) for y in range(5)], dtype=float)
    return _pad(np.vstack([grid, grid[::3]]), dim=8)


SHARED_CASES = {
    "planted duplicates": planted_duplicates(3),
    "lattice ties": lattice_points(),
    "all rows distinct": np.random.default_rng(8).normal(size=(30, 4)),
    "one row": np.ones((1, 3)),
}


@pytest.mark.parametrize("algorithm, seeds", [("kmeans", 8), ("farthest-first", 8), ("em", 2)])
@pytest.mark.parametrize("case", SHARED_CASES)
def test_runs_on_a_shared_point_set_match_per_run_oracles(case, algorithm, seeds):
    matrix = SHARED_CASES[case]
    m = len(matrix)
    shared = PointSet(matrix)
    distinct = len(shared.distinct)
    for n in sorted({1, max(1, distinct // 3), distinct, m}):
        for seed in range(seeds):
            got = clustering.ALGORITHMS[algorithm](shared, n, seed)
            assert_identical_runs(got, per_run_oracle(algorithm, matrix, n, seed))
    assert len(shared._columns) <= distinct


def test_shared_runs_do_not_depend_on_the_columns_already_kept(template_matrix):
    n = len(np.unique(template_matrix, axis=0)) // 2
    seeds = range(12)
    for algorithm in ("farthest-first", "kmeans"):
        shared = PointSet(template_matrix)  # one PointSet, filled by later seeds first
        backwards = {seed: clustering.ALGORITHMS[algorithm](shared, n, seed) for seed in reversed(seeds)}
        for seed in seeds:
            want = per_run_oracle(algorithm, template_matrix, n, seed)
            assert_identical_runs(backwards[seed], want)
            assert_identical_runs(clustering.ALGORITHMS[algorithm](PointSet(template_matrix), n, seed), want)


def test_point_set_numbers_distinct_rows_by_first_occurrence():
    matrix = planted_duplicates(5)
    shared = PointSet(matrix)
    assert np.array_equal(shared.distinct[shared.inverse], matrix)
    first = [int(np.flatnonzero(shared.inverse == row)[0]) for row in range(len(shared.distinct))]
    assert np.all(np.diff(first) > 0)
    assert first == row_indices(matrix, shared.distinct)


def assert_columns_match_oracle(matrix: np.ndarray) -> None:
    """Each kept column is the column of a one-center sq_distances call on its
    row, and that of the full call from every distinct row to every distinct row."""
    shared = PointSet(matrix)
    distinct = shared.distinct
    full = sq_distances(distinct, distinct)
    for row in range(len(distinct)):
        got = shared.column(row)
        for want in (sq_distances(distinct, distinct[row:row + 1])[:, 0], full[:, row]):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("case", SHARED_CASES)
def test_point_set_columns_match_both_formulas_bit_for_bit(case):
    assert_columns_match_oracle(SHARED_CASES[case])


@given(st.integers(0, 2 ** 16), st.integers(1, 300), st.integers(1, 64), st.booleans())
@settings(max_examples=60, deadline=None)
def test_point_set_columns_match_both_formulas_on_random_rows(seed, m, dims, rounded):
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(size=(m, dims))
    assert_columns_match_oracle(np.round(matrix, 1) if rounded else matrix)


# ---------------------------------------------------------------------------
# k-means keeps its distance matrix and redoes only what moved; it must match
# the per-run oracle, which updates every center and recomputes every distance


def duplicate_rows(seed: int, m: int, distinct: int, dims: int, lattice: bool) -> np.ndarray:
    """m rows drawn with replacement from a few base rows: small integers, whose
    distances tie exactly, or uniform values rounded to one decimal."""
    rng = np.random.default_rng(seed)
    if lattice:
        base = rng.integers(0, 3, size=(distinct, dims)).astype(float)
    else:
        base = np.round(rng.uniform(size=(distinct, dims)), 1)
    return base[rng.integers(0, distinct, size=m)]


@st.composite
def kmeans_cases(draw):
    """(rows, n, seed) with n = 1, below, above or at the distinct row count, or n = m."""
    params = (draw(st.integers(0, 2 ** 16)), draw(st.integers(1, 40)), draw(st.integers(1, 12)),
              draw(st.integers(1, 5)), draw(st.booleans()))
    m = params[1]
    distinct = len(PointSet(duplicate_rows(*params)).distinct)
    n = draw(st.sampled_from([
        st.just(1),
        st.integers(1, distinct),
        st.integers(min(distinct + 1, m), m),
        st.just(m),
    ]).flatmap(lambda choice: choice))
    return params, n, draw(st.integers(0, 2 ** 32 - 1))


CAPPED_CASE = ((0, 30, 8, 3, False), 9, 0)  # cycles with period > 1 until the cap


def test_capped_case_cycles_to_the_cap():
    params, n, seed = CAPPED_CASE
    assert len(kmeans_oracle(duplicate_rows(*params), n, seed).objective_history) == KMEANS_MAX_ITER + 1


@given(kmeans_cases())
@example(CAPPED_CASE)
@settings(max_examples=150, deadline=None)
def test_kmeans_matches_per_run_oracle_byte_for_byte(case):
    params, n, seed = case
    rows = duplicate_rows(*params)
    assert_identical_runs(kmeans(rows, n, seed), kmeans_per_run_oracle(rows, n, seed))


@pytest.mark.parametrize("m, n, dims", [(150, 30, 40), (64, 7, 3), (65, 1, 1), (3, 5, 2)])
def test_sq_distances_columns_match_one_center_sq_norms(m, n, dims):
    """k-means fills its distance matrix one center at a time with _sq_norms;
    each column must have the bits of the full call's column."""
    rng = np.random.default_rng(m + n + dims)
    rows = np.round(rng.normal(size=(m, dims)), 2)
    means = [rows[rng.permutation(m)[:rng.integers(2, m + 1)]].mean(axis=0) for _ in range(n)]
    centers = np.vstack([rows[rng.integers(0, m, size=n)], means])
    full = sq_distances(rows, centers)
    for j in range(len(centers)):
        want = clustering._sq_norms(rows - centers[j])
        assert (want.dtype, want.shape, want.tobytes()) == (full.dtype, (m,), full[:, j].tobytes())


def sequential_picks(own: np.ndarray, k: int) -> list[int]:
    """The reseed loop of the per-run oracle: argmax, then strike the pick out."""
    own = own.copy()
    picks = []
    for _ in range(k):
        pick = int(np.argmax(own))
        picks.append(pick)
        own[pick] = -1.0
    return picks


@pytest.mark.parametrize("own", [
    np.zeros(6),
    np.array([0.0, 2.0, 0.0, 2.0, 1.0, 0.0, 2.0]),
    np.array([3.0, 0.0, 3.0, 0.5]),
    np.sqrt(np.round(np.random.default_rng(2).uniform(size=40), 1)),
])
def test_farthest_picks_match_sequential_argmax(own):
    for k in range(1, len(own) + 1):
        assert clustering._farthest(own, k).tolist() == sequential_picks(own, k)
