"""The scripts under tools/, run as a user runs them or loaded in-process."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_output_hashes_prints_one_sha256_per_output():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "output_hashes.py"), "--seeds", "12"],
                            cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert {line.split(" ", 1)[0] for line in lines} == {"dup-kmeans", "long-proofs-ff"}
    for line in lines:
        assert re.fullmatch(r".+: [0-9a-f]{64}", line), line


def test_layers_measures_every_layer_of_a_small_corpus(monkeypatch):
    """tools/layers.py reads private names of every layer; one small in-process
    measure keeps it running against the code it times."""
    # what the script changes at import: the BLAS thread variables, bytecode writing, sys.path
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("layers", ROOT / "tools" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    layers.LIBRARIES, layers.LEMMAS_PER_LIBRARY, layers.DIGEST_RUNS = 2, 12, 3

    got = layers.measure(12, 2)
    assert set(got["layers"]) == {
        "parse.vernacular_s", "encode.reduce_s", "parse.trace_s", "encode.table_s", "encode.features_s",
        "corpus.save_s", "corpus.load_s", "run.kmeans_s", "run.em_s", "run.farthest-first_s",
        "digest.kmeans_partitions_s", "digest.farthest_first_200_s", "digest.partitions_s",
        "digest.cooccurrence_s", "digest.components_s", "digest.consensus_s",
        "hint.digest_search_s", "hint.consensus_s"}
    assert all(type(seconds) is float for seconds in got["layers"].values())
    assert set(got["shape"]) == {
        "lemmas", "vernacular_steps", "trace_steps", "distinct_proofs", "distinct_patches",
        "corpus_bytes", "distinct_rows", "tactics", "symbols", "m", "n", "kmeans_runs",
        "kmeans_point_set_kept_bytes", "digest_clusters", "point_set_kept_bytes", "hint_members"}
    assert (got["shape"]["lemmas"], got["shape"]["m"], got["shape"]["kmeans_runs"]) == (24, 24, 2)
    assert set(got["iterations"]) == {"kmeans", "em", "farthest-first"}
    assert set(got["hashes"]) == {"kmeans_partitions"}
    assert re.fullmatch(r"[0-9a-f]{64}", got["hashes"]["kmeans_partitions"])


@pytest.mark.parametrize("tool, args", [
    ("output_hashes.py", ["--src", "missing", "--seeds", "12"]),
    ("output_hashes.py", ["--src", ".", "--seeds", "12"]),
    ("output_hashes.py", ["--workloads", "nope", "--seeds", "12"]),
    ("layers.py", ["--src", "bad"]),
    ("layers.py", ["--src", f"change={ROOT / 'src'}", "--src", "bad"]),
    ("layers.py", ["--src", "missing=missing"]),
    ("layers.py", ["--src", f"={ROOT / 'src'}"]),
    ("layers.py", ["--src", "change="]),
])
def test_a_tool_refuses_a_source_tree_it_would_not_measure(tmp_path, tool, args):
    """With proofmine importable from PYTHONPATH, as in the tier-1 command, a wrong --src
    must not measure that tree instead."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / tool), *args,
         *(["--out", str(tmp_path / "layers.json")] if tool == "layers.py" else [])],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stderr
    assert result.stdout == "" and list(tmp_path.iterdir()) == []


def test_output_hashes_refuses_a_proofmine_imported_from_another_tree(tmp_path, monkeypatch):
    import proofmine  # noqa: F401  (loaded here before the tool imports it)

    (tmp_path / "proofmine").mkdir()
    (tmp_path / "proofmine" / "__init__.py").write_text("")
    # what the script changes at import: the BLAS thread variables, bytecode writing, sys.path
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("output_hashes", ROOT / "tools" / "output_hashes.py")
    output_hashes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(output_hashes)
    with pytest.raises(SystemExit) as exit_info:
        output_hashes.main(["--src", str(tmp_path)])
    assert exit_info.value.code == 2
