"""Aggregate many seeded clustering runs into frequency-scored consensus clusters.

Run i uses seed master_seed + i.  Two lemmas "co-occur" when a run gives them
the same label; consensus clusters are connected components of the graph whose
edges are co-occurrence rates >= the frequency threshold.  Singleton components
carry no hint value and are dropped.

The graph is built over label classes: lemmas with the same label in every run
are one class.  Class-mates co-occur at rate 1.0 and the rate between two
lemmas depends only on their classes, so every lemma component is a union of
class components and counting over the k distinct label columns loses
nothing.  A component's frequency is still the mean of its lemma pair rates in
the lemma-level order, and class-mates share the runs their proximity averages
over, so the digest is the one a lemma-level graph gives.

A hint needs only the cluster of its query.  Consensus clusters are disjoint,
so `select_reliable` grows the query's class component alone and builds that
one cluster with the same code `run_digest` uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .clustering import ALGORITHMS, PointSet, _distinct_rows, choose_n
from .features import FeatureDatabase

DIGEST_FORMAT = "proofmine digest v1"
# a cluster's members share one library tag, or they do not
HOMOGENEITY = ("homogeneous", "heterogeneous")


class TooFewLemmas(ValueError):
    pass


@dataclass(frozen=True)
class DigestConfig:
    runs: int = 200
    frequency_threshold: float = 0.6
    algorithm: str = "kmeans"
    granularity: int = 3
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if not 0.0 < self.frequency_threshold <= 1.0:
            raise ValueError(f"frequency threshold must be in (0, 1], got {self.frequency_threshold}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not 1 <= self.granularity <= 5:
            raise ValueError(f"granularity must be in 1..5, got {self.granularity}")
        if self.master_seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.master_seed}")

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "frequency_threshold": self.frequency_threshold,
            "algorithm": self.algorithm,
            "granularity": self.granularity,
            "master_seed": self.master_seed,
        }


@dataclass
class ConsensusCluster:
    members: tuple[str, ...]  # sorted lemma names, len >= 2
    frequency: float
    member_proximity: dict[str, float]
    homogeneity: str  # one of HOMOGENEITY

    def to_dict(self) -> dict:
        return {
            "members": list(self.members),
            "frequency": self.frequency,
            "member_proximity": dict(self.member_proximity),
            "homogeneity": self.homogeneity,
        }


def run_partitions(matrix: np.ndarray, cfg: DigestConfig) -> tuple[np.ndarray, np.ndarray]:
    """Labels and proximities for every run, one row per run.

    The runs share one PointSet, so its distinct rows and distance columns are
    computed once per call, not once per run.
    """
    m = len(matrix)
    n = choose_n(m, cfg.granularity)
    algorithm = ALGORITHMS[cfg.algorithm]
    points = PointSet(matrix)
    labels = np.empty((cfg.runs, m), dtype=np.int64)
    proximity = np.empty((cfg.runs, m))
    for i in range(cfg.runs):
        result = algorithm(points, n, cfg.master_seed + i)
        labels[i] = result.labels
        proximity[i] = result.proximity
    return labels, proximity


def co_occurrence_counts(labels_runs: np.ndarray) -> np.ndarray:
    """Integer co-label counts; summation order cannot change the result.

    All (run, label) keys are sorted at once, so each cluster of each run is
    one stretch of equal keys whose columns ascend.  Every pair of positions
    (p, p + d) inside a stretch is one co-labeled column pair; they are written
    into one array, counted by one bincount, and mirrored.
    """
    runs, k = labels_runs.shape
    keys = labels_runs + np.arange(runs)[:, None] * (int(labels_runs.max()) + 1)
    order = np.argsort(keys, axis=None, kind="stable")
    flat = keys.ravel()[order]
    columns = order % k
    sizes = np.diff(np.flatnonzero(np.r_[True, flat[1:] != flat[:-1], True]))
    pairs = np.empty(int((sizes * (sizes - 1) // 2).sum()), dtype=np.intp)
    filled, distance, first = 0, 1, np.arange(flat.size)
    while filled < len(pairs):
        # positions whose stretch reaches `distance` further on
        first = first[first + distance < flat.size]
        first = first[flat[first] == flat[first + distance]]
        pairs[filled:filled + len(first)] = columns[first] * k + columns[first + distance]
        filled += len(first)
        distance += 1
    upper = np.bincount(pairs, minlength=k * k).reshape(k, k)
    del pairs
    counts = upper + upper.T
    np.fill_diagonal(counts, runs)
    return counts


def _grow(start: int, rates_of, threshold: float, seen: np.ndarray) -> list[int]:
    """The component of start, sorted, in the graph whose edges are rates >= threshold.

    rates_of(node) is node's row of rates; it is asked once per node of the
    component, and the component is marked in seen.
    """
    stack = [start]
    seen[start] = True
    component = []
    while stack:
        node = stack.pop()
        component.append(node)
        neighbors = np.flatnonzero((rates_of(node) >= threshold) & ~seen)
        seen[neighbors] = True
        stack.extend(neighbors.tolist())
    return sorted(component)


def components_at(co_matrix: np.ndarray, threshold: float) -> list[list[int]]:
    """Connected components of the thresholded co-occurrence graph, by index order."""
    seen = np.zeros(len(co_matrix), dtype=bool)
    return [_grow(start, co_matrix.__getitem__, threshold, seen)
            for start in range(len(co_matrix)) if not seen[start]]


@dataclass
class _LabelClasses:
    """The runs of one digest, with lemmas that share every label merged into a class."""
    labels: np.ndarray  # (runs, classes): each class's label in each run
    of_lemma: np.ndarray  # each lemma's class
    proximity: np.ndarray  # (lemmas, runs)


def _label_classes(db: FeatureDatabase, cfg: DigestConfig) -> _LabelClasses:
    m = len(db.names)
    if m < 2:
        raise TooFewLemmas(f"need at least 2 lemmas, have {m}")
    labels_runs, proximity_runs = run_partitions(db.matrix, cfg)
    columns, lemma_class = _distinct_rows(labels_runs.T)
    return _LabelClasses(
        labels=np.ascontiguousarray(columns.T),
        of_lemma=lemma_class,
        proximity=np.ascontiguousarray(proximity_runs.T),
    )


def _consensus_clusters(db: FeatureDatabase, cfg: DigestConfig, classes: _LabelClasses,
                        components: list[list[int]], rates_among) -> list[ConsensusCluster]:
    """The clusters of the given class components, in their order.  A component
    of a single lemma is left out, and so is one whose mean pair rate falls below
    the threshold.

    components are disjoint, each a sorted list of class indices;
    rates_among(component) is the square block of co-occurrence rates among a
    component's classes, asked only for components of several classes.

    A member's proximity is its mean over the runs where it is co-labeled with
    the majority of the other members, 0 when no run qualifies.  Class-mates
    share every label, so they share the qualifying runs.  A single class
    qualifies in every run and its pair rates are all runs / runs = 1.0, so
    only components of several classes need per-component numpy calls: for
    their frequency, and for a class that qualifies in only some runs.  Every
    other member takes its row of one mean over the (lemmas, runs) proximity,
    the same one-row reduction as a mean over a copy of that row.
    """
    count = len(components)
    component_of = np.full(classes.labels.shape[1], count)  # classes in no component sort last
    component_of[list(chain.from_iterable(components))] = np.repeat(
        np.arange(count), [len(component) for component in components])
    lemma_component = component_of[classes.of_lemma]
    grouped = np.argsort(lemma_component, kind="stable")  # each component's lemmas, ascending
    sizes = np.bincount(lemma_component, minlength=count + 1)[:count]
    bounds = np.r_[0, np.cumsum(sizes)].tolist()  # component i's lemmas: grouped[bounds[i]:bounds[i + 1]]

    frequency = [1.0] * count
    kept = []
    for i, component in enumerate(components):
        if bounds[i + 1] - bounds[i] < 2:
            continue
        if len(component) > 1:
            # the mean of the lemma pair rates (a, b), a < b, taken in row-major order
            lemmas = grouped[bounds[i]:bounds[i + 1]]
            position = np.searchsorted(component, classes.of_lemma[lemmas])
            order = np.arange(len(lemmas))
            frequency[i] = float(rates_among(component)[position][:, position][order[:, None] < order].mean())
            # loosely chained components can average below the threshold even
            # though every edge clears it; those are not frequent enough to show
            if frequency[i] < cfg.frequency_threshold - 1e-12:
                continue
        kept.append(i)

    proximity = classes.proximity.mean(axis=1)
    shared = np.array([c for i in kept if len(components[i]) > 1 for c in components[i]], dtype=np.intp)
    if len(shared):
        # per run, how many other members share each class's label: one count
        # over (component, run, label) keys, each class weighted by its lemmas;
        # the keys are numbered densely first, as their range can reach
        # components x runs x labels
        runs = len(classes.labels)
        labels = classes.labels[:, shared]
        keys = ((component_of[shared] * runs + np.arange(runs)[:, None]) * (int(labels.max()) + 1)
                + labels)
        _, inverse = np.unique(keys.ravel(), return_inverse=True)
        class_sizes = np.bincount(classes.of_lemma)[shared]
        agree = np.bincount(inverse, weights=np.tile(class_sizes, runs))[inverse] - 1
        qualifying = agree.reshape(keys.shape) * 2 >= sizes[component_of[shared]] - 1
        partly = ~qualifying.all(axis=0)
        for c, runs_of_class in zip(shared[partly].tolist(), qualifying.T[partly]):
            members = np.flatnonzero(classes.of_lemma == c)
            proximity[members] = (classes.proximity[np.ix_(members, runs_of_class)].mean(axis=1)
                                  if runs_of_class.any() else 0.0)

    grouped_list, proximity_list = grouped.tolist(), proximity.tolist()
    clusters = []
    for i in kept:
        lemmas = grouped_list[bounds[i]:bounds[i + 1]]
        members = [db.names[j] for j in lemmas]
        clusters.append(ConsensusCluster(
            members=tuple(sorted(members)),
            frequency=frequency[i],
            member_proximity={db.names[j]: proximity_list[j] for j in lemmas},
            homogeneity=HOMOGENEITY[len({db.libraries[name] for name in members}) > 1],
        ))
    return clusters


def run_digest(db: FeatureDatabase, cfg: DigestConfig) -> list[ConsensusCluster]:
    """Consensus clusters over cfg.runs seeded runs, sorted by falling frequency.

    The graph is built over label classes; each class component expands to
    the lemmas of its classes.
    """
    classes = _label_classes(db, cfg)
    class_co = co_occurrence_counts(classes.labels) / cfg.runs
    clusters = _consensus_clusters(db, cfg, classes, components_at(class_co, cfg.frequency_threshold),
                                   lambda component: class_co[np.ix_(component, component)])
    clusters.sort(key=lambda c: (-c.frequency, c.members[0]))
    return clusters


def select_reliable(db: FeatureDatabase, cfg: DigestConfig, lemma: str) -> ConsensusCluster | None:
    """The consensus cluster run_digest(db, cfg) gives the lemma, if any.

    Consensus clusters are disjoint components, so only the lemma's class
    component is grown, from count rows computed for the classes it visits.
    Each row holds the integers co_occurrence_counts would, and the rates are
    the same count / runs divisions, so every edge test and pair rate is
    run_digest's to the bit.
    """
    if lemma not in db.names:
        return None
    classes = _label_classes(db, cfg)
    counts: dict[int, np.ndarray] = {}

    def rates_of(c: int) -> np.ndarray:
        counts[c] = (classes.labels == classes.labels[:, [c]]).sum(axis=0)
        return counts[c] / cfg.runs

    start = int(classes.of_lemma[db.names.index(lemma)])
    seen = np.zeros(classes.labels.shape[1], dtype=bool)
    class_component = _grow(start, rates_of, cfg.frequency_threshold, seen)
    clusters = _consensus_clusters(
        db, cfg, classes, [class_component],
        lambda component: np.array([counts[c][component] for c in component]) / cfg.runs)
    return clusters[0] if clusters else None


# ---------------------------------------------------------------------------
# digest files ("proofmine digest v1", JSON)


def digest_to_dict(clusters: list[ConsensusCluster], cfg: DigestConfig, *,
                   objects: int, clusters_per_run: int,
                   libraries: dict[str, str]) -> dict:
    return {
        "format": DIGEST_FORMAT,
        "config": cfg.to_dict(),
        "objects": objects,
        "clusters_per_run": clusters_per_run,
        "libraries": dict(sorted(libraries.items())),
        "clusters": [c.to_dict() for c in clusters],
    }


def write_digest(path: str | Path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_digest(path: str | Path) -> dict:
    """Load a digest file, checking the fields a report reads and their types."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: not a {DIGEST_FORMAT} file (nested too deeply)") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: not a {DIGEST_FORMAT} file ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != DIGEST_FORMAT:
        raise ValueError(f"{path}: not a {DIGEST_FORMAT} file")

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"{path}: malformed digest: bad or missing {what}")

    # JSON true and false load as bool, a subclass of int; NaN fails both bounds
    def rate(value) -> bool:
        return (type(value) is int or type(value) is float) and 0.0 <= value <= 1.0

    config, keys = doc.get("config"), DigestConfig().to_dict()
    need(isinstance(config, dict) and all(k in config for k in keys), "config")
    # exact types first: DigestConfig's range checks raise TypeError on a string count
    need(all(type(config[k]) is int for k in ("runs", "granularity", "master_seed"))
         and type(config["frequency_threshold"]) in (int, float)
         and type(config["algorithm"]) is str, "config")
    try:
        cfg = DigestConfig(**{k: config[k] for k in keys})
    except ValueError as exc:
        raise ValueError(f"{path}: malformed digest: bad config ({exc})") from None
    objects, n = doc.get("objects"), doc.get("clusters_per_run")
    need(type(objects) is int and objects >= 2, "objects")
    need(type(n) is int and n == choose_n(objects, cfg.granularity), "clusters_per_run")
    libraries = doc.get("libraries", {})
    need(isinstance(libraries, dict) and all(isinstance(tag, str) for tag in libraries.values()),
         "libraries")
    need(isinstance(doc.get("clusters"), list), "clusters")
    for cluster in doc["clusters"]:
        need(isinstance(cluster, dict) and rate(cluster.get("frequency"))
             and cluster.get("homogeneity") in HOMOGENEITY
             and isinstance(cluster.get("members"), list)
             and isinstance(cluster.get("member_proximity"), dict), "cluster fields")
        for name in cluster["members"]:
            need(isinstance(name, str) and rate(cluster["member_proximity"].get(name)),
                 "member proximity")
    return doc
