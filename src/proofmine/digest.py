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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import ALGORITHMS, _distinct_rows, choose_n
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
    """Labels and proximities for every run, one row per run."""
    m = len(matrix)
    n = choose_n(m, cfg.granularity)
    algorithm = ALGORITHMS[cfg.algorithm]
    labels = np.empty((cfg.runs, m), dtype=np.int64)
    proximity = np.empty((cfg.runs, m))
    for i in range(cfg.runs):
        result = algorithm(matrix, n, cfg.master_seed + i)
        labels[i] = result.labels
        proximity[i] = result.proximity
    return labels, proximity


def co_occurrence_counts(labels_runs: np.ndarray) -> np.ndarray:
    """Integer co-label counts; summation order cannot change the result."""
    runs, m = labels_runs.shape
    counts = np.zeros((m, m), dtype=np.int64)
    for row in labels_runs:
        counts += row[:, None] == row[None, :]
    return counts


def components_at(co_matrix: np.ndarray, threshold: float) -> list[list[int]]:
    """Connected components of the thresholded co-occurrence graph, by index order."""
    m = len(co_matrix)
    adjacency = co_matrix >= threshold
    seen = np.zeros(m, dtype=bool)
    components: list[list[int]] = []
    for start in range(m):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        component = []
        while stack:
            node = stack.pop()
            component.append(node)
            neighbors = np.flatnonzero(adjacency[node] & ~seen)
            seen[neighbors] = True
            stack.extend(int(v) for v in neighbors)
        components.append(sorted(component))
    return components


def _member_proximities(classes: list[np.ndarray], class_labels: np.ndarray,
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


def run_digest(db: FeatureDatabase, cfg: DigestConfig) -> list[ConsensusCluster]:
    """Consensus clusters over cfg.runs seeded runs, sorted by falling frequency.

    The graph is built over label classes; each class component expands to
    the lemmas of its classes.
    """
    m = len(db.names)
    if m < 2:
        raise TooFewLemmas(f"need at least 2 lemmas, have {m}")
    labels_runs, proximity_runs = run_partitions(db.matrix, cfg)
    columns, lemma_class = _distinct_rows(labels_runs.T)
    class_labels = np.ascontiguousarray(columns.T)
    class_co = co_occurrence_counts(class_labels) / cfg.runs
    # each class's lemma indices, ascending
    class_members = np.split(np.argsort(lemma_class, kind="stable"),
                             np.cumsum(np.bincount(lemma_class))[:-1])
    proximity = np.ascontiguousarray(proximity_runs.T)
    clusters: list[ConsensusCluster] = []
    for class_component in components_at(class_co, cfg.frequency_threshold):
        component = np.sort(np.concatenate([class_members[c] for c in class_component]))
        if len(component) < 2:
            continue
        # the mean of the lemma pair rates (a, b), a < b, taken in row-major order
        in_class = lemma_class[component]
        order = np.arange(len(component))
        frequency = float(class_co[in_class][:, in_class][order[:, None] < order].mean())
        # loosely chained components can average below the threshold even
        # though every edge clears it; those are not frequent enough to show
        if frequency < cfg.frequency_threshold - 1e-12:
            continue
        proximities = _member_proximities([class_members[c] for c in class_component],
                                          class_labels[:, class_component], proximity)
        members = tuple(sorted(db.names[i] for i in component))
        clusters.append(ConsensusCluster(
            members=members,
            frequency=frequency,
            member_proximity={db.names[i]: proximities[i] for i in component.tolist()},
            homogeneity=HOMOGENEITY[len({db.libraries[name] for name in members}) > 1],
        ))
    clusters.sort(key=lambda c: (-c.frequency, c.members[0]))
    return clusters


def select_reliable(clusters: list[ConsensusCluster], lemma: str) -> ConsensusCluster | None:
    """The cluster holding the lemma, if any; consensus clusters are disjoint, so there is at most one."""
    return next((c for c in clusters if lemma in c.members), None)


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
    if not isinstance(doc, dict) or doc.get("format") != DIGEST_FORMAT:
        raise ValueError(f"{path}: not a {DIGEST_FORMAT} file")

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"{path}: malformed digest: bad or missing {what}")

    number = (int, float)
    config = doc.get("config")
    need(isinstance(config, dict) and all(k in config for k in DigestConfig().to_dict()), "config")
    need(isinstance(doc.get("objects"), int), "objects")
    need(isinstance(doc.get("clusters_per_run"), int), "clusters_per_run")
    need(isinstance(doc.get("libraries", {}), dict), "libraries")
    need(isinstance(doc.get("clusters"), list), "clusters")
    for cluster in doc["clusters"]:
        need(isinstance(cluster, dict) and isinstance(cluster.get("frequency"), number)
             and cluster.get("homogeneity") in HOMOGENEITY
             and isinstance(cluster.get("members"), list)
             and isinstance(cluster.get("member_proximity"), dict), "cluster fields")
        for name in cluster["members"]:
            need(isinstance(name, str) and isinstance(cluster["member_proximity"].get(name), number),
                 "member proximity")
    return doc
