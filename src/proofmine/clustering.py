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


@dataclass(frozen=True)
class GranularityConfig:
    g: int
    m: int

    def __post_init__(self) -> None:
        if not 1 <= self.g <= 5:
            raise ValueError(f"granularity must be in 1..5, got {self.g}")
        if self.m < 1:
            raise ValueError(f"object count must be positive, got {self.m}")


def choose_n(cfg: GranularityConfig) -> int:
    """Cluster count for m objects at granularity g."""
    return max(1, cfg.m // (10 - cfg.g))


@dataclass
class ClusterAssignment:
    labels: np.ndarray
    centers: np.ndarray
    proximity: np.ndarray
    objective: float
    center_indices: tuple[int, ...] = ()
    objective_history: tuple[float, ...] = ()
    log_likelihood_history: tuple[float, ...] = ()
    responsibilities: np.ndarray | None = None


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


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("mnd,mnd->mn", diff, diff)


def _nearest_proximity(points: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    dist = np.sqrt(np.sum((points - centers[labels]) ** 2, axis=1))
    top = dist.max() if len(dist) else 0.0
    if top == 0.0:
        return np.ones(len(points))
    return 1.0 - dist / top


def _update_centers(points: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> np.ndarray:
    n = len(centers)
    new = centers.copy()
    counts = np.bincount(labels, minlength=n)
    for j in range(n):
        if counts[j]:
            new[j] = points[labels == j].mean(axis=0)
    empties = np.flatnonzero(counts == 0)
    if len(empties):
        # re-seed each empty cluster with the point farthest from its own center
        own = np.sqrt(np.sum((points - new[labels]) ** 2, axis=1))
        for j in empties:
            pick = int(np.argmax(own))
            new[j] = points[pick]
            own[pick] = -1.0
    return new


def kmeans(points, n: int, seed: int) -> ClusterAssignment:
    """Lloyd iteration from n seeded distinct starting points.

    Updated centers depend only on the labels, so once a labelling repeats the
    run cycles for good; it then stops with the state that KMEANS_MAX_ITER
    iterations would reach.  A fixed point is the cycle of period 1.
    Assignments are computed once per distinct row and broadcast back.
    """
    pts = _as_points(points)
    m = len(pts)
    _check_n(n, m)
    rng = np.random.default_rng(seed)
    init = rng.choice(m, size=n, replace=False)
    distinct, inverse = np.unique(pts, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)  # numpy 2.0.0 returns it as a column

    def assign(centers: np.ndarray) -> np.ndarray:
        return np.argmin(_sq_distances(distinct, centers), axis=1)[inverse]

    centers = pts[init].copy()
    labels = assign(centers)
    states = [(labels, centers)]
    first_seen = {labels.tobytes(): 0}
    history = [float(np.sum((pts - centers[labels]) ** 2))]
    for step in range(1, KMEANS_MAX_ITER + 1):
        centers = _update_centers(pts, labels, centers)
        labels = assign(centers)
        history.append(float(np.sum((pts - centers[labels]) ** 2)))
        states.append((labels, centers))
        start = first_seen.setdefault(labels.tobytes(), step)
        if start != step:
            # states start+1 .. step repeat with period step - start
            labels, centers = states[start + 1 + (KMEANS_MAX_ITER - start - 1) % (step - start)]
            break
    objective = float(np.sum((pts - centers[labels]) ** 2))
    return ClusterAssignment(
        labels=labels,
        centers=centers,
        proximity=_nearest_proximity(pts, centers, labels),
        objective=objective,
        center_indices=tuple(int(i) for i in init),
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
    pts = _as_points(points)
    m, dims = pts.shape
    _check_n(n, m)
    base = kmeans(pts, n, seed)
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
    proximity = resp[np.arange(m), labels]
    return ClusterAssignment(
        labels=labels,
        centers=means,
        proximity=proximity,
        objective=history[-1],
        log_likelihood_history=tuple(history),
        responsibilities=resp,
    )


def farthest_first(points, n: int, seed: int) -> ClusterAssignment:
    """Greedy max-min center selection from one seeded starting point."""
    pts = _as_points(points)
    m = len(pts)
    _check_n(n, m)
    rng = np.random.default_rng(seed)
    first = int(rng.integers(m))
    chosen = [first]
    min_sq = np.sum((pts - pts[first]) ** 2, axis=1)
    for _ in range(1, n):
        nxt = int(np.argmax(min_sq))
        chosen.append(nxt)
        min_sq = np.minimum(min_sq, np.sum((pts - pts[nxt]) ** 2, axis=1))
    centers = pts[chosen].copy()
    labels = np.argmin(_sq_distances(pts, centers), axis=1)
    dist = np.sqrt(np.sum((pts - centers[labels]) ** 2, axis=1))
    objective = float(dist.max()) if m else 0.0
    return ClusterAssignment(
        labels=labels,
        centers=centers,
        proximity=_nearest_proximity(pts, centers, labels),
        objective=objective,
        center_indices=tuple(chosen),
    )


ALGORITHMS = {
    "kmeans": kmeans,
    "em": em_gaussian,
    "farthest-first": farthest_first,
}
