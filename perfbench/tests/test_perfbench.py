"""Tests of the benchmark's own code: generators, output checks and tracing.

Run from the repository root with `python -m pytest perfbench/tests`.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import worker  # noqa: E402
from generate import WORKLOADS, generate  # noqa: E402
from spans import Tracer  # noqa: E402

from proofmine import ingest  # noqa: E402
from proofmine.cli import main as cli_main  # noqa: E402


def _matrix(inputs):
    corpus = ingest([p for _, p in inputs.libraries], [t for t, _ in inputs.libraries])
    return corpus.feature_database().matrix


def _small(name: str, per_library: int):
    return dataclasses.replace(WORKLOADS[name], lemmas_per_library=per_library)


def _spec(tmp_path: Path, workload, seed: int = 5) -> dict:
    inputs = generate(workload, seed, tmp_path / "inputs")
    return {"root": str(ROOT), "work": str(tmp_path), "seed": seed, "seconds": 0,
            "trace": True, "algorithm": workload.algorithm, "runs": workload.runs,
            "libraries": [[t, str(p)] for t, p in inputs.libraries],
            "query": str(inputs.query), "tags": inputs.tags}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(tmp_path, name):
    workload = _small(name, 20)
    first = generate(workload, 7, tmp_path / "a")
    again = generate(workload, 7, tmp_path / "b")
    other = generate(workload, 8, tmp_path / "c")
    files = [p for _, p in first.libraries] + [first.query]
    assert [p.read_bytes() for p in files] == [
        p.read_bytes() for p in [p for _, p in again.libraries] + [again.query]]
    assert first.tags == again.tags and len(first.tags) == workload.lemmas
    assert [p.read_bytes() for _, p in first.libraries] != [
        p.read_bytes() for _, p in other.libraries]


def test_dup_kmeans_asks_for_more_clusters_than_distinct_rows(tmp_path):
    workload = WORKLOADS["dup-kmeans"]
    matrix = _matrix(generate(workload, 3, tmp_path))
    distinct = len(np.unique(matrix, axis=0))
    assert checks.clusters_per_run(len(matrix), worker.GRANULARITY) > distinct
    assert 1.0 - distinct / len(matrix) > 0.9


@pytest.mark.parametrize("name", ["distinct-em", "long-proofs-ff"])
def test_compositional_rows_are_distinct(tmp_path, name):
    matrix = _matrix(generate(WORKLOADS[name], 3, tmp_path))
    assert len(matrix) == WORKLOADS[name].lemmas
    assert len(np.unique(matrix, axis=0)) >= 0.95 * len(matrix)


def test_long_proofs_mix_vernacular_and_trace_files(tmp_path):
    inputs = generate(_small("long-proofs-ff", 3), 1, tmp_path)
    suffixes = [p.suffix for _, p in inputs.libraries]
    assert suffixes.count(".v") == suffixes.count(".jsonl") == 4


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A digest, its cluster report and a hint over a small duplicate-heavy corpus."""
    tmp = tmp_path_factory.mktemp("small")
    spec = _spec(tmp, _small("dup-kmeans", 12))
    runner = worker.Runner(cli_main)
    bench = worker.Commands(spec, runner)
    outputs = {c: runner.call(bench.argv[c])[1] for c in worker.COMMANDS}
    assert runner.failed == 0, runner.problems
    doc = json.loads(bench.digest.read_text())
    return types.SimpleNamespace(spec=spec, bench=bench, doc=doc, outputs=outputs)


def test_checks_accept_real_outputs(small_run):
    tags = small_run.spec["tags"]
    assert checks.extract_problems(small_run.outputs["extract"], tags) == []
    assert checks.digest_problems(small_run.doc, tags, small_run.bench.config) == []
    assert checks.hint_problems(small_run.outputs["hint"], tags, "query_goal", 0.6) == []


def _tamper_member_into_two_clusters(doc):
    first, second = doc["clusters"][0], doc["clusters"][1]
    second["members"].append(first["members"][0])
    second["member_proximity"][first["members"][0]] = 0.5


def _tamper_unknown_member(doc):
    cluster = doc["clusters"][0]
    cluster["members"][0] = "nowhere_0000"
    cluster["member_proximity"] = {m: 0.5 for m in cluster["members"]}


TAMPERS = {
    "frequency above 1": lambda d: d["clusters"][0].update(frequency=1.5),
    "frequency below threshold": lambda d: d["clusters"][0].update(frequency=0.2),
    "member in two clusters": _tamper_member_into_two_clusters,
    "member outside the corpus": _tamper_unknown_member,
    "singleton cluster": lambda d: d["clusters"][0].update(
        members=d["clusters"][0]["members"][:1]),
    "proximity above 1": lambda d: d["clusters"][0]["member_proximity"].update(
        {d["clusters"][0]["members"][0]: 1.2}),
    "wrong object count": lambda d: d.update(objects=d["objects"] - 1),
    "wrong cluster count": lambda d: d.update(clusters_per_run=d["clusters_per_run"] + 1),
    "wrong library tag": lambda d: d["libraries"].update({next(iter(d["libraries"])): "elsewhere"}),
    "config not echoed": lambda d: d["config"].update(runs=d["config"]["runs"] + 1),
    "homogeneity flipped": lambda d: d["clusters"][0].update(
        homogeneity="heterogeneous" if d["clusters"][0]["homogeneity"] == "homogeneous"
        else "homogeneous"),
    "missing key": lambda d: d.pop("clusters"),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_checks_flag_a_tampered_digest(small_run, tamper):
    doc = copy.deepcopy(small_run.doc)
    assert len(doc["clusters"]) >= 2
    TAMPERS[tamper](doc)
    assert checks.digest_problems(doc, small_run.spec["tags"], small_run.bench.config)


def test_checks_flag_tampered_extract_and_hint_output(small_run):
    tags = small_run.spec["tags"]
    extract = small_run.outputs["extract"].replace("lib0: 12 lemmas", "lib0: 11 lemmas")
    assert checks.extract_problems(extract, tags)
    hint = small_run.outputs["hint"].splitlines()
    assert hint[0].startswith("hint for query_goal")
    tampered = "\n".join(hint[:1] + [hint[1].replace("proximity=", "proximity=1")] + hint[2:])
    assert checks.hint_problems(tampered, tags, "query_goal", 0.6)
    assert checks.hint_problems("\n".join(hint[:-1]), tags, "query_goal", 0.6)


def test_repeated_samples_must_match(small_run):
    bench = small_run.bench
    failed = bench.runner.failed
    bench.run("cluster")
    assert bench.runner.failed == failed
    bench.digest.write_text(bench.digest.read_text().replace('"objects"', '"objects" '))
    bench._check_cluster(small_run.outputs["cluster"])
    assert bench.runner.failed == failed + 1


def test_self_times_sum_to_command_wall_time(small_run):
    tracer = Tracer()
    worker.install(tracer)
    try:
        assert tracer.absent == {}
        wall = small_run.bench.run("cluster", around=lambda: tracer.span("cli.main"))
    finally:
        tracer.restore()
    (root,) = [s for s in tracer.spans if s.parent is None]
    names = {s.name for s in tracer.spans}
    assert {"corpus.load", "digest.run_digest", "clustering.run", "digest.write"} <= names
    assert sum(s.self_time for s in tracer.spans) == pytest.approx(root.duration, abs=1e-9)
    assert all(s.self_time >= 0 for s in tracer.spans)
    assert root.duration <= wall <= root.duration * 1.02 + 1e-3


def test_traced_measure_reports_every_layer_metric(small_run):
    runner = worker.Runner(cli_main)
    result = worker.measure(runner, dict(small_run.spec, seconds=0))
    assert runner.failed == 0, runner.problems
    for samples in (result["samples"], result["traced_samples"]):
        assert all(len(samples[c]) >= worker.MIN_SAMPLES for c in worker.COMMANDS)
    layers = result["layers"]
    assert result["absent"] == []
    em_only = {"clustering.kmeans_init_s", "clustering.capped_inits"}
    assert set(layers) == (set(worker.SELF_TIME_METRICS.values())
                           | set(worker.DERIVED_METRICS)) - em_only
    assert all(v is not None for v in layers.values())
    assert layers["script.lemmas"] == 48 and layers["features.distinct_rows"] >= 2
    assert layers["clustering.capped_runs"] in (0, 1)
    assert result["shape"]["lemmas"] == 48


def test_missing_wrap_target_is_listed_not_fatal():
    module = types.ModuleType("renamed")
    module.kept = lambda x: x + 1
    table = {"a": lambda: 1}
    tracer = Tracer()
    tracer.wrap(module, "gone", "layer.gone", label="renamed.gone")
    tracer.wrap(module, "kept", "layer.kept", label="renamed.kept")
    tracer.wrap(table, "b", "layer.b", label="table[b]")
    assert tracer.absent == {"renamed.gone": "layer.gone", "table[b]": "layer.b"}
    assert module.kept(1) == 2 and tracer.spans == []  # no root span open
    with tracer.span("root"):
        assert module.kept(1) == 2
    assert [s.name for s in tracer.spans] == ["root", "layer.kept"]
    tracer.restore()
    assert not hasattr(module.kept, "__wrapped__")


def test_em_reports_its_kmeans_init(tmp_path):
    spec = _spec(tmp_path, _small("distinct-em", 15))
    bench = worker.Commands(spec, worker.Runner(cli_main))
    assert bench.run("extract") is not None
    _, values, absent = worker.traced_sample(bench, "cluster")
    assert bench.runner.failed == 0, bench.runner.problems
    assert absent == []
    assert values["clustering.kmeans_init_s"] > 0
    assert values["clustering.capped_inits"] == 0
