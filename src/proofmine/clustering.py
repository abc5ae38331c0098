"""Seeded clustering backends: k-means, diagonal-covariance EM, farthest-first.

All three are deterministic given (points, n, seed) and report a per-point
proximity in [0, 1].  The cluster count for a corpus of m objects at
granularity g is floor(m / (10 - g)), clamped to at least 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KMEANS_MAX_ITER = 100
EM_MAX_ITER = 200
EM_TOLERANCE = 1e-6
VARIANCE_FLOOR = 1e-6


class TooFewPoints(ValueError):
    pass


def choose_n(m: int, g: int) -> int:
    """Cluster count for m objects at granularity g; callers keep g in 1..5."""
    return max(1, m // (10 - g))


@dataclass
class ClusterAssignment:
    labels: np.ndarray
    proximity: np.ndarray
    centers: np.ndarray
    objective_history: tuple[float, ...] = ()
    log_likelihood_history: tuple[float, ...] = ()


def _as_points(points) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("points must form a 2-d array")
    return arr


def _check_n(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"cluster count must be positive, got {n}")
    if n > m:
        raise TooFewPoints(f"asked for {n} clusters over {m} points")


def _sq_norms(diff: np.ndarray) -> np.ndarray:
    """The squared length of each difference along the last axis: the one
    squared-distance kernel of this module, so every distance it compares or
    reports has the same bits."""
    return np.einsum("...d,...d->...", diff, diff)


def _proximity(dist: np.ndarray) -> np.ndarray:
    """1 - dist / max(dist), or all ones when every distance is 0."""
    top = dist.max() if len(dist) else 0.0
    if top == 0.0:
        return np.ones(len(dist))
    return 1.0 - dist / top


def _farthest(own: np.ndarray, k: int) -> np.ndarray:
    """The indices of the k largest entries of `own` >= 0, largest first, ties
    to the lower index: the picks of k rounds of argmax, each of which then
    sets its pick to -1."""
    return np.argsort(-own, kind="stable")[:k]


def _distinct_rows(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows, compared bytewise, and the index of each row among them."""
    if not pts.size:  # no columns: every row is the same empty row
        return pts[:1], np.zeros(len(pts), dtype=np.intp)
    # one opaque key per row sorts as bytes, far faster than np.unique's structured row dtype
    keys = np.ascontiguousarray(pts).view(np.dtype((np.void, pts.itemsize * pts.shape[1])))
    _, first, inverse = np.unique(keys.reshape(len(pts)), return_index=True, return_inverse=True)
    return pts[first], inverse


class PointSet:
    """The points of one digest, shared by its seeded runs.

    The distinct rows are split out once, and the distance columns that
    farthest-first reads, and those of k-means' seeds and reseeds, are kept
    from run to run, each computed on first use.
    Every entry of a column is its own reduction over one row, so a column over
    the distinct rows, read through `inverse`, is the column over every row bit
    for bit, and a kept column is the one a fresh run would compute.  It keeps
    at most one column per distinct row, for as long as the PointSet lives.
    The clustering functions also take a plain array, which gets a PointSet of
    its own.
    """

    def __init__(self, points) -> None:
        self.points = _as_points(points)
        rows, inverse = _distinct_rows(self.points)
        first = np.unique(inverse, return_index=True)[1]
        # renumbered by first occurrence, so the first maximum over the distinct
        # rows is the distinct row of the first maximum over all rows
        order = np.argsort(first)
        self.distinct = rows[order]
        self.inverse = np.argsort(order)[inverse]
        self._columns: dict[int, np.ndarray] = {}

    def column(self, row: int) -> np.ndarray:
        """Squared distances from distinct row `row` to every distinct row."""
        col = self._columns.get(row)
        if col is None:
            col = self._columns[row] = _sq_norms(self.distinct - self.distinct[row])
        return col


def _point_set(points) -> PointSet:
    return points if isinstance(points, PointSet) else PointSet(points)


def kmeans(points, n: int, seed: int) -> ClusterAssignment:
    """Lloyd iteration from n seeded starting rows: distinct row indices, which
    may hold equal rows.

    Updated centers depend only on the labels, so once a labelling repeats the
    run cycles for good; it then stops with the state that KMEANS_MAX_ITER
    iterations would reach.  A fixed point is the cycle of period 1.

    Each iteration redoes only what moved, and gets the bits of a full Lloyd
    step.  The squared distances from every distinct row to every center are
    kept, one column per center, and only the columns of centers whose bytes
    changed are refilled.  A seed or a reseed is a row, so its column is the
    PointSet's column of that row; a mean's column is the same reduction over
    one pair of rows, computed afresh.
    A mean is recomputed only for a cluster that gained or lost a row since the
    last update, or whose center is not yet the mean of its members (a seed or
    a reseed); the mean of the same rows in the same order is the same.  Means
    are taken over each cluster's slice of the rows sorted stably by label,
    which holds its members in index order, as a boolean mask would.
    """
    shared = _point_set(points)
    pts, distinct, inverse = shared.points, shared.distinct, shared.inverse
    m = len(pts)
    _check_n(n, m)
    rng = np.random.default_rng(seed)
    init = rng.choice(m, size=n, replace=False)

    centers = pts[init].copy()
    source = inverse[init]  # the distinct row center j was taken from, or -1 for a mean
    dist = np.empty((len(distinct), n))
    for j, row in enumerate(source.tolist()):
        dist[:, j] = shared.column(row)
    rows = np.argmin(dist, axis=1)  # the label of each distinct row
    labels = rows[inverse]
    settled = np.zeros(n, dtype=bool)  # center j is the mean of its members under `labels`
    states = [(rows, centers)]
    first_seen = {rows.tobytes(): 0}  # rows repeat exactly when labels do
    history = [float(np.sum((pts - centers[labels]) ** 2))]
    for step in range(1, KMEANS_MAX_ITER + 1):
        counts = np.bincount(labels, minlength=n)
        new = centers.copy()
        stale = np.flatnonzero((counts > 0) & ~settled)
        if len(stale):
            grouped = pts[np.argsort(labels, kind="stable")]
            ends = np.cumsum(counts)
            for j in stale.tolist():
                new[j] = grouped[ends[j] - counts[j]:ends[j]].mean(axis=0)
            source[stale] = -1
        empties = np.flatnonzero(counts == 0)
        if len(empties):
            # re-seed each empty cluster with the point farthest from its own center
            own = np.sqrt(_sq_norms(pts - new[labels]))
            picks = _farthest(own, len(empties))
            new[empties] = pts[picks]
            source[empties] = inverse[picks]
        moved = np.flatnonzero((new.view(np.uint64) != centers.view(np.uint64)).any(axis=1))
        for j, row in zip(moved.tolist(), source[moved].tolist()):
            dist[:, j] = shared.column(row) if row >= 0 else _sq_norms(distinct - new[j])
        centers = new
        settled = counts > 0
        new_rows = np.argmin(dist, axis=1)
        changed = new_rows != rows
        settled[rows[changed]] = False
        settled[new_rows[changed]] = False
        rows = new_rows
        labels = rows[inverse]
        history.append(float(np.sum((pts - centers[labels]) ** 2)))
        states.append((rows, centers))
        start = first_seen.setdefault(rows.tobytes(), step)
        if start != step:
            # states start+1 .. step repeat with period step - start; the centers
            # picked may not be the ones whose distances `dist` holds
            rows, centers = states[start + 1 + (KMEANS_MAX_ITER - start - 1) % (step - start)]
            break
    near = np.sqrt(_sq_norms(distinct - centers[rows]))
    return ClusterAssignment(
        labels=rows[inverse],
        proximity=_proximity(near)[inverse],
        centers=centers,
        objective_history=tuple(history),
    )


def _log_gaussian_prob(points: np.ndarray, means: np.ndarray, variances: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
    # (m, n) log of weight_j * N(x_i | mu_j, diag(var_j))
    log_w = np.log(np.maximum(weights, 1e-300))
    log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * variances), axis=1)
    quad = np.empty((len(points), len(means)))
    for j in range(len(means)):
        quad[:, j] = np.sum((points - means[j]) ** 2 / variances[j], axis=1)
    return log_w[None, :] + log_norm[None, :] - 0.5 * quad


def _logsumexp(rows: np.ndarray) -> np.ndarray:
    peak = rows.max(axis=1, keepdims=True)
    return (peak + np.log(np.sum(np.exp(rows - peak), axis=1, keepdims=True)))[:, 0]


def em_gaussian(points, n: int, seed: int) -> ClusterAssignment:
    """Diagonal Gaussian mixture fitted by EM, initialized from one k-means pass."""
    shared = _point_set(points)
    pts = shared.points
    m, dims = pts.shape
    _check_n(n, m)
    base = kmeans(shared, n, seed)
    means = base.centers.copy()
    variances = np.ones((n, dims))
    weights = np.zeros(n)
    for j in range(n):
        members = pts[base.labels == j]
        weights[j] = len(members) / m
        if len(members):
            variances[j] = np.maximum(members.var(axis=0), VARIANCE_FLOOR)

    history: list[float] = []
    resp = np.full((m, n), 1.0 / n)
    for _ in range(EM_MAX_ITER):
        log_prob = _log_gaussian_prob(pts, means, variances, weights)
        norm = _logsumexp(log_prob)
        resp = np.exp(log_prob - norm[:, None])
        ll = float(norm.sum())
        if history and ll - history[-1] < EM_TOLERANCE:
            history.append(ll)
            break
        history.append(ll)
        mass = resp.sum(axis=0)
        live = mass > 1e-12
        weights = mass / m
        means[live] = (resp.T @ pts)[live] / mass[live, None]
        second = (resp.T @ (pts ** 2))[live] / mass[live, None]
        variances[live] = np.maximum(second - means[live] ** 2, VARIANCE_FLOOR)

    labels = np.argmax(resp, axis=1)
    return ClusterAssignment(
        labels=labels,
        proximity=resp[np.arange(m), labels],
        centers=means,
        log_likelihood_history=tuple(history),
    )


def farthest_first(points, n: int, seed: int) -> ClusterAssignment:
    """Greedy max-min center selection from one seeded starting point.

    The loop, the assignment and the proximities run over the distinct rows
    with the PointSet's columns, and are broadcast back to every row.  The
    centers are the chosen distinct rows, byte-equal to the rows picked.
    """
    shared = _point_set(points)
    m = len(shared.points)
    _check_n(n, m)
    rng = np.random.default_rng(seed)
    first = int(rng.integers(m))
    chosen = [int(shared.inverse[first])]  # distinct rows
    min_sq = shared.column(chosen[0])
    for _ in range(1, n):
        nxt = int(np.argmax(min_sq))
        chosen.append(nxt)
        min_sq = np.minimum(min_sq, shared.column(nxt))
    sq = np.column_stack([shared.column(row) for row in chosen])
    labels = np.argmin(sq, axis=1)
    dist = np.sqrt(sq[np.arange(len(labels)), labels])
    return ClusterAssignment(
        labels=labels[shared.inverse],
        proximity=_proximity(dist)[shared.inverse],
        centers=shared.distinct[chosen],
    )


ALGORITHMS = {
    "kmeans": kmeans,
    "em": em_gaussian,
    "farthest-first": farthest_first,
}
