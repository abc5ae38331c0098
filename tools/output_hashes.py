"""Print one sha256 per proofmine output on the benchmark workloads.

Usage (from the repository root):

    python3 tools/output_hashes.py [--src DIR] [--seeds 12 1 2] > hashes.txt

Each workload's inputs are written by `perfbench/generate.py` into a
temporary directory.  `extract` runs in-process at the default patch length
and at `--patch-len` 1 and 8, and the corpus and feature dump of each are
hashed.  For dup-kmeans this is done first over its lemmas written as trace
JSON Lines (`generate.trace_jsonl`), where many lemmas share their tactic
lines but not their goals.  `cluster`, `hint` and `report` then run on the default corpus,
once with the workload's algorithm and run count, once with
`--algorithm kmeans --runs 5` and once with `--algorithm em --runs 2`, and
every stdout and written file is hashed.  Each pass also hashes `cluster`
(stdout and digest) and `hint` at `--freq-threshold` 0.3 and 1.0.  At seeds
12, 1 and 2 these reach every way a hint's consensus can end: the query's
class alone, a component of several classes (long-proofs-ff, kmeans x5), a
component of over a hundred classes that the mean-rate filter drops, and a
query alone in its class.  The digests reach classes that have the majority
in only some runs (long-proofs-ff, farthest-first x20 at 0.6) and components
that the mean-rate filter drops (long-proofs-ff, kmeans x5 at 0.3).  Every
component of dup-kmeans, in digests and hints alike, is a single class.

Every digest and `report --format json` output is hashed twice more, each
time after parsing it and dumping it again with sorted keys and no
indentation: once whole (the lines ending in "as parsed") and once with each
cluster's `member_proximity` removed (the lines ending in "without
proximities").  A change to the digest file's whitespace alone then differs
from its parent only in the raw digest lines, and in none of the "as parsed"
lines.  A change that moves only the last bits of proximities differs in
digest and report-json lines alone, and in none of their proximity-free
lines.

proofmine is imported from DIR (default: this checkout's `src`), so two
checkouts are compared with

    python3 tools/output_hashes.py --src ../other/src > other.txt
    python3 tools/output_hashes.py > this.txt
    diff other.txt this.txt

BLAS is pinned to one thread, as in the benchmark, because EM's output bits
depend on the thread count.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True  # leave no cache files beside perfbench/generate.py
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("dup-kmeans", "long-proofs-ff")
GRANULARITY = 3
FREQ_THRESHOLD = 0.6
THRESHOLDS = (0.3, 1.0)  # cluster and hint are also hashed at these
PATCH_LENS = (1, 8)  # extract is also hashed at these
TRACE_RENDERED = "dup-kmeans"  # extract is also hashed over this workload's lemmas written as traces


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _parsed(data: bytes) -> dict:
    """A digest's JSON, up to any appended exit line."""
    return json.loads(data.decode().split("\nexit ")[0])


def _as_parsed(data: bytes) -> str:
    """sha256 of a digest's JSON re-dumped with sorted keys, whatever its whitespace."""
    return _sha(json.dumps(_parsed(data), sort_keys=True).encode())


def _without_proximities(data: bytes) -> str:
    """sha256 of a digest's JSON re-dumped with each member_proximity removed."""
    doc = _parsed(data)
    for cluster in doc["clusters"]:
        del cluster["member_proximity"]
    return _sha(json.dumps(doc, sort_keys=True).encode())


def _digest_rows(label: str, data: bytes) -> list[tuple[str, str]]:
    return [(label, _sha(data)), (f"{label} as parsed", _as_parsed(data)),
            (f"{label} without proximities", _without_proximities(data))]


def _run(cli_main, argv: list[str]) -> bytes:
    """stdout of one command, with its exit code appended."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return f"{out.getvalue()}exit {code}\n".encode()


def extract_hashes(cli_main, libs: list[str], label: str = "") -> list[tuple[str, str]]:
    """extract's stdout, corpus and feature dump at the default patch length, then the
    corpus and feature dump at each of PATCH_LENS; the default corpus is left in `corpus`."""
    rows = [(f"{label}extract stdout", _sha(_run(cli_main, [
        "extract", *libs, "--out", "corpus", "--features", "features.jsonl"])))]
    rows.append((f"{label}corpus", _sha(Path("corpus").read_bytes())))
    rows.append((f"{label}features", _sha(Path("features.jsonl").read_bytes())))
    for patch_len in PATCH_LENS:
        _run(cli_main, ["extract", *libs, "--out", f"corpus-p{patch_len}",
                        "--features", f"features-p{patch_len}.jsonl", "--patch-len", str(patch_len)])
        rows.append((f"{label}corpus at patch-len {patch_len}",
                     _sha(Path(f"corpus-p{patch_len}").read_bytes())))
        rows.append((f"{label}features at patch-len {patch_len}",
                     _sha(Path(f"features-p{patch_len}.jsonl").read_bytes())))
    return rows


def trace_rendering_hashes(cli_main, workload, seed: int) -> list[tuple[str, str]]:
    """extract over the workload's lemmas written as trace JSON Lines, one file per library.

    Lemmas that share a proof then share their tactic lines but not their
    goals after the first step, nor their subgoal counts.
    """
    from generate import trace_jsonl

    rng = random.Random(f"{workload.name} as traces:{seed}")
    libs = []
    for lib in range(workload.libraries):
        tag = f"lib{lib}"
        lemmas = [(f"{tag}_{i:04d}", *workload.lemma(rng)) for i in range(workload.lemmas_per_library)]
        path = Path(f"traces-{tag}.jsonl")
        path.write_text(trace_jsonl(rng, tag, lemmas, workload.depth), encoding="utf-8")
        libs.append(f"--lib={tag}:{path}")
    return extract_hashes(cli_main, libs, "as traces: ")


def workload_hashes(cli_main, workload, seed: int) -> list[tuple[str, str]]:
    from generate import generate

    rows = []
    if workload.name == TRACE_RENDERED:
        rows += trace_rendering_hashes(cli_main, workload, seed)
    inputs = generate(workload, seed, Path("inputs"))
    rows += extract_hashes(cli_main, [f"--lib={tag}:{path}" for tag, path in inputs.libraries])
    for algorithm, runs in ((workload.algorithm, workload.runs), ("kmeans", 5), ("em", 2)):
        flags = ["--algorithm", algorithm, "--granularity", str(GRANULARITY), "--runs", str(runs),
                 "--freq-threshold", str(FREQ_THRESHOLD), "--seed", str(seed)]
        tag = f"{algorithm} x{runs}"
        rows.append((f"{tag} cluster stdout", _sha(_run(cli_main, [
            "cluster", "--corpus", "corpus", "--out", "digest.json", *flags]))))
        rows += _digest_rows(f"{tag} digest", Path("digest.json").read_bytes())
        rows.append((f"{tag} hint stdout", _sha(_run(cli_main, [
            "hint", "--corpus", "corpus", "--query", str(inputs.query), *flags]))))
        rows.append((f"{tag} report text", _sha(_run(cli_main, [
            "report", "digest.json", "--format", "text"]))))
        rows += _digest_rows(f"{tag} report json", _run(cli_main, [
            "report", "digest.json", "--format", "json"]))
        for threshold in THRESHOLDS:
            at = [*flags, "--freq-threshold", str(threshold)]
            rows.append((f"{tag} hint stdout at {threshold}", _sha(_run(cli_main, [
                "hint", "--corpus", "corpus", "--query", str(inputs.query), *at]))))
            rows.append((f"{tag} cluster stdout at {threshold}", _sha(_run(cli_main, [
                "cluster", "--corpus", "corpus", "--out", "digest.json", *at]))))
            rows += _digest_rows(f"{tag} digest at {threshold}", Path("digest.json").read_bytes())
    return rows


def _import_proofmine(parser: argparse.ArgumentParser, src: str) -> None:
    """Import proofmine from the directory src, put first on sys.path.

    A directory without the package, or a proofmine imported from elsewhere (one
    already loaded), is a usage error (exit 2): the hashes would be of another tree.
    """
    path = Path(src).resolve()
    if not (path / "proofmine" / "__init__.py").is_file():
        parser.error(f"--src {src}: no proofmine package in this directory")
    sys.path.insert(0, str(path))
    import proofmine
    if not Path(proofmine.__file__).resolve().is_relative_to(path):
        parser.error(f"--src {src}: proofmine was imported from {proofmine.__file__} instead")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the proofmine package to run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[12, 1, 2])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES, default=list(WORKLOAD_NAMES))
    args = parser.parse_args(argv)
    _import_proofmine(parser, args.src)
    sys.path.insert(1, str(ROOT / "perfbench"))
    from generate import WORKLOADS
    from proofmine.cli import main as cli_main

    here = Path.cwd()
    for name in args.workloads:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as work:
                os.chdir(work)  # relative paths, so the printed paths do not vary
                try:
                    for label, digest in workload_hashes(cli_main, WORKLOADS[name], seed):
                        print(f"{name} seed={seed} {label}: {digest}", flush=True)
                finally:
                    os.chdir(here)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
