"""Correctness checks on what the CLI printed and wrote; standard library only.

Each check returns a list of problems, empty when the output is correct.  The
checks rely on the documented CLI surface (printed summaries, the digest file
format and the cluster-count formula), never on proofmine's Python API.
"""

from __future__ import annotations

import re

DIGEST_FORMAT = "proofmine digest v1"
_EPS = 1e-9

_LIBRARY_LINE = re.compile(r"^(\S+): (\d+) lemmas$")
_CORPUS_LINE = re.compile(r"^corpus written to .* \((\d+) lemmas\)$")
_HINT_LINE = re.compile(r"^hint for (\S+): cluster of (\d+) similar proofs \(frequency ([0-9.]+)\)$")
_MEMBER_LINE = re.compile(r"^  (\S+) \((\S+)\) proximity=([0-9.]+)$")


def clusters_per_run(objects: int, granularity: int) -> int:
    """The documented cluster count: floor(m / (10 - g)), at least 1."""
    return max(1, objects // (10 - granularity))


def _in_unit(value, low: float = 0.0) -> bool:
    return isinstance(value, (int, float)) and low - _EPS <= value <= 1.0 + _EPS


def extract_problems(stdout: str, tags: dict[str, str]) -> list[str]:
    """`extract` must report every generated library with its lemma count."""
    want: dict[str, int] = {}
    for tag in tags.values():
        want[tag] = want.get(tag, 0) + 1
    got = {}
    total = None
    for line in stdout.splitlines():
        if m := _LIBRARY_LINE.match(line):
            got[m.group(1)] = int(m.group(2))
        elif m := _CORPUS_LINE.match(line):
            total = int(m.group(1))
    problems = []
    if got != want:
        problems.append(f"extract reported libraries {got}, generated {want}")
    if total != len(tags):
        problems.append(f"extract reported {total} lemmas, generated {len(tags)}")
    return problems


def digest_problems(doc, tags: dict[str, str], config: dict) -> list[str]:
    """Invariants of a digest over a corpus whose lemma -> library map is tags."""
    try:
        return _digest_problems(doc, tags, config)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed digest: {exc!r}"]


def _digest_problems(doc: dict, tags: dict[str, str], config: dict) -> list[str]:
    problems = []
    if doc["format"] != DIGEST_FORMAT:
        problems.append(f"format {doc['format']!r}")
    for key, want in config.items():
        if doc["config"][key] != want:
            problems.append(f"config {key}={doc['config'][key]!r}, asked for {want!r}")
    m = len(tags)
    if doc["objects"] != m:
        problems.append(f"objects {doc['objects']}, corpus has {m}")
    n = clusters_per_run(m, config["granularity"])
    if doc["clusters_per_run"] != n:
        problems.append(f"clusters_per_run {doc['clusters_per_run']}, expected {n}")
    if doc["libraries"] != tags:
        problems.append("library tags differ from the generated corpus")
    seen: set[str] = set()
    for i, cluster in enumerate(doc["clusters"]):
        members = cluster["members"]
        where = f"cluster {i}"
        if len(members) < 2:
            problems.append(f"{where} has {len(members)} members")
        unknown = [name for name in members if name not in tags]
        if unknown:
            problems.append(f"{where} has members outside the corpus: {unknown[:3]}")
        shared = seen.intersection(members)
        if shared or len(set(members)) != len(members):
            problems.append(f"{where} repeats members: {sorted(shared)[:3]}")
        seen.update(members)
        if not _in_unit(cluster["frequency"], config["frequency_threshold"]):
            problems.append(f"{where} frequency {cluster['frequency']} outside "
                            f"[{config['frequency_threshold']}, 1]")
        proximity = cluster["member_proximity"]
        if set(proximity) != set(members):
            problems.append(f"{where} proximities do not match its members")
        if not all(_in_unit(v) for v in proximity.values()):
            problems.append(f"{where} has a proximity outside [0, 1]")
        libraries = {tags.get(name) for name in members}
        want = "homogeneous" if len(libraries) == 1 else "heterogeneous"
        if cluster["homogeneity"] != want:
            problems.append(f"{where} is marked {cluster['homogeneity']}, members say {want}")
    return problems


def hint_problems(stdout: str, tags: dict[str, str], query_name: str,
                  threshold: float) -> list[str]:
    """`hint` prints either no cluster, or one cluster of corpus lemmas."""
    lines = stdout.splitlines()
    if lines == [f"no reliable cluster found for {query_name}"]:
        return []
    m = _HINT_LINE.match(lines[0]) if lines else None
    if not m:
        return [f"unexpected hint output: {lines[:1]}"]
    problems = []
    if m.group(1) != query_name:
        problems.append(f"hint answered {m.group(1)}, asked {query_name}")
    if not _in_unit(float(m.group(3)), threshold):
        problems.append(f"hint frequency {m.group(3)} outside [{threshold}, 1]")
    members = lines[1:]
    if len(members) != int(m.group(2)):
        problems.append(f"hint announced {m.group(2)} proofs, listed {len(members)}")
    for line in members:
        member = _MEMBER_LINE.match(line)
        if not member:
            problems.append(f"unexpected hint line {line!r}")
        elif tags.get(member.group(1)) != member.group(2):
            problems.append(f"hint member {member.group(1)} is not a {member.group(2)} lemma")
        elif not _in_unit(float(member.group(3))):
            problems.append(f"hint member {member.group(1)} proximity {member.group(3)}")
    return problems
