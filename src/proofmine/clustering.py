"""Seeded clustering backends: k-means, diagonal-covariance EM, farthest-first.

All three take a PointSet, are deterministic given (points, n, seed) and
report a per-point proximity in [0, 1].  The cluster count for a corpus of m
objects at granularity g is floor(m / (10 - g)), clamped to at least 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KMEANS_MAX_ITER = 100
EM_MAX_ITER = 200
EM_TOLERANCE = 1e-6
VARIANCE_FLOOR = 1e-6


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


def _check_n(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"cluster count must be positive, got {n}")
    if n > m:
        raise ValueError(f"asked for {n} clusters over {m} points")


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
    """The points of one digest, as float64 in two dimensions, shared by its seeded runs.

    The distinct rows are split out once, and the distance columns that
    farthest-first reads, and those of k-means' seeds and reseeds, are kept
    from run to run, each computed on first use.
    Every entry of a column is its own reduction over one row, so a column over
    the distinct rows, read through `inverse`, is the column over every row bit
    for bit, and a kept column is the one a fresh run would compute.  It keeps
    at most one column per distinct row, for as long as the PointSet lives.
    """

    def __init__(self, points) -> None:
        self.points = np.asarray(points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError("points must form a 2-d array")
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

    def columns(self, rows: list[int]) -> np.ndarray:
        """The columns of distinct rows `rows`, side by side: (distinct rows, len(rows))."""
        return np.stack([self.column(row) for row in rows], axis=1)


def kmeans(shared: PointSet, n: int, seed: int) -> ClusterAssignment:
    """Lloyd iteration from n seeded starting rows: distinct row indices, which
    may hold equal rows.  It stops when an iteration changes no label, or after
    KMEANS_MAX_ITER iterations.

    A cluster's center is the mean of its members, except that a cluster whose
    members are all copies of one row takes that row's bytes: the mean of k
    copies can sit a rounding error off the row, and a row would then move back
    and forth between that mean and an exact copy of itself elsewhere.

    Each iteration redoes only what moved, and gets the bits of a full Lloyd
    step.  The squared distances from every distinct row to every center are
    kept, one column per center, and only the columns of centers whose bytes
    changed are refilled.  A seed or a reseed is a row, so its column is the
    PointSet's column of that row, and all of them are written in one gather;
    an updated center's column is the same reduction over one pair of rows,
    computed afresh.  A center is recomputed only for a cluster that gained or
    lost a row since the last update, or whose center was not yet computed from
    its members (a seed or a reseed); the same rows in the same order give the
    same center.  Centers are taken over each cluster's slice of the rows sorted
    stably by label, which holds its members in index order, as a boolean mask
    would, and a mean is ndarray.mean's arithmetic: one add.reduce, then a
    division by the count.  The reseed distances and the objective's summands
    are computed once per distinct row and read through `inverse`: each depends
    only on its row's bytes, so every row gets the bits of its duplicates.
    """
    pts, distinct, inverse = shared.points, shared.distinct, shared.inverse
    m = len(pts)
    _check_n(n, m)
    rng = np.random.default_rng(seed)
    init = rng.choice(m, size=n, replace=False)

    centers = pts[init].copy()
    dist = shared.columns(inverse[init].tolist())
    rows = np.argmin(dist, axis=1)  # the label of each distinct row
    labels = rows[inverse]
    settled = np.zeros(n, dtype=bool)  # center j was computed from its members under `labels`
    history = [float(np.sum(((distinct - centers[rows]) ** 2)[inverse]))]
    for _ in range(KMEANS_MAX_ITER):
        counts = np.bincount(labels, minlength=n)
        new = centers.copy()
        stale = np.flatnonzero((counts > 0) & ~settled)
        if len(stale):
            order = np.argsort(labels, kind="stable")
            grouped, grouped_rows = pts[order], inverse[order]
            ends = np.cumsum(counts).tolist()
            # breaks[i]: how often the distinct row changes along grouped_rows[:i + 1]
            breaks = np.r_[0, np.cumsum(grouped_rows[1:] != grouped_rows[:-1])].tolist()
            for j in stale.tolist():
                start, end = ends[j] - int(counts[j]), ends[j]
                if breaks[start] == breaks[end - 1]:  # copies of one distinct row
                    new[j] = distinct[grouped_rows[start]]
                else:
                    new[j] = np.add.reduce(grouped[start:end], axis=0) / (end - start)
            moved = stale[(new[stale].view(np.uint64) != centers[stale].view(np.uint64)).any(axis=1)]
            for j in moved.tolist():
                dist[:, j] = _sq_norms(distinct - new[j])
        empties = np.flatnonzero(counts == 0)
        if len(empties):
            # re-seed each empty cluster with the point farthest from its own center
            own = np.sqrt(_sq_norms(distinct - new[rows]))[inverse]
            picks = _farthest(own, len(empties))
            new[empties] = pts[picks]
            dist[:, empties] = shared.columns(inverse[picks].tolist())
        centers = new
        new_rows = np.argmin(dist, axis=1)
        history.append(float(np.sum(((distinct - centers[new_rows]) ** 2)[inverse])))
        changed = new_rows != rows
        if not changed.any():  # a fixed point
            break
        settled = counts > 0
        settled[rows[changed]] = False
        settled[new_rows[changed]] = False
        rows = new_rows
        labels = rows[inverse]
    near = np.sqrt(dist[np.arange(len(rows)), rows])
    return ClusterAssignment(
        labels=labels,
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


def em_gaussian(shared: PointSet, n: int, seed: int) -> ClusterAssignment:
    """Diagonal Gaussian mixture fitted by EM, initialized from one k-means pass."""
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


def farthest_first(shared: PointSet, n: int, seed: int) -> ClusterAssignment:
    """Greedy max-min center selection from one seeded starting point.

    The loop, the assignment and the proximities run over the distinct rows
    with the PointSet's columns, and are broadcast back to every row.  The
    centers are the chosen distinct rows, byte-equal to the rows picked.
    """
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
    sq = shared.columns(chosen)
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
