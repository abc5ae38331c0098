"""Aggregate many seeded clustering runs into frequency-scored consensus clusters.

Run i uses seed master_seed + i.  Two lemmas "co-occur" when a run gives them
the same label; consensus clusters are connected components of the graph whose
edges are co-occurrence rates >= the frequency threshold.  Singleton components
carry no hint value and are dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .clustering import ALGORITHMS, GranularityConfig, choose_n
from .features import FeatureDatabase

DIGEST_FORMAT = "proofmine digest v1"


class TooFewLemmas(ValueError):
    pass


class UnknownLemma(KeyError):
    pass


class Homogeneity(str, Enum):
    HOMOGENEOUS = "homogeneous"
    HETEROGENEOUS = "heterogeneous"


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
    homogeneity: Homogeneity

    def to_dict(self) -> dict:
        return {
            "members": list(self.members),
            "frequency": self.frequency,
            "member_proximity": dict(self.member_proximity),
            "homogeneity": self.homogeneity.value,
        }


def run_partitions(matrix: np.ndarray, cfg: DigestConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """Labels and proximities for every run; also returns the per-run cluster count."""
    m = len(matrix)
    n = choose_n(GranularityConfig(cfg.granularity, m))
    algorithm = ALGORITHMS[cfg.algorithm]
    labels = np.empty((cfg.runs, m), dtype=np.int64)
    proximity = np.empty((cfg.runs, m))
    for i in range(cfg.runs):
        result = algorithm(matrix, n, cfg.master_seed + i)
        labels[i] = result.labels
        proximity[i] = result.proximity
    return labels, proximity, n


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


def _member_proximities(component: list[int], labels_runs: np.ndarray,
                        proximity_runs: np.ndarray) -> dict[int, float]:
    """Mean proximity over the runs where a member is co-labeled with the
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


def classify_homogeneity(members: tuple[str, ...] | list[str],
                         library_tags: dict[str, str]) -> Homogeneity:
    tags = set()
    for name in members:
        if name not in library_tags:
            raise UnknownLemma(name)
        tags.add(library_tags[name])
    return Homogeneity.HOMOGENEOUS if len(tags) == 1 else Homogeneity.HETEROGENEOUS


def run_digest(db: FeatureDatabase, cfg: DigestConfig) -> list[ConsensusCluster]:
    """Consensus clusters over cfg.runs seeded runs, sorted by falling frequency."""
    m = len(db.names)
    if m < 2:
        raise TooFewLemmas(f"need at least 2 lemmas, have {m}")
    labels_runs, proximity_runs, _ = run_partitions(db.matrix, cfg)
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
        proximities = _member_proximities(component, labels_runs, proximity_runs)
        members = tuple(sorted(db.names[i] for i in component))
        clusters.append(ConsensusCluster(
            members=members,
            frequency=frequency,
            member_proximity={db.names[i]: proximities[i] for i in component},
            homogeneity=classify_homogeneity(members, db.libraries),
        ))
    clusters.sort(key=lambda c: (-c.frequency, c.members[0]))
    return clusters


def select_reliable(clusters: list[ConsensusCluster], lemma: str) -> ConsensusCluster | None:
    """The single best cluster containing the lemma: max frequency x mean proximity."""
    candidates = [c for c in clusters if lemma in c.members]
    if not candidates:
        return None

    def score(cluster: ConsensusCluster) -> float:
        return cluster.frequency * float(np.mean(list(cluster.member_proximity.values())))

    candidates.sort(key=lambda c: (-score(c), -c.frequency, c.members[0]))
    return candidates[0]


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
             and isinstance(cluster.get("homogeneity"), str)
             and isinstance(cluster.get("members"), list)
             and isinstance(cluster.get("member_proximity"), dict), "cluster fields")
        for name in cluster["members"]:
            need(isinstance(name, str) and isinstance(cluster["member_proximity"].get(name), number),
                 "member proximity")
    return doc
