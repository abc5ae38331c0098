"""Print one sha256 per proofmine output on the benchmark workloads.

Usage (from the repository root):

    python3 tools/output_hashes.py [--src DIR] [--seeds 12 1 2] > hashes.txt

Each workload's inputs are written by `perfbench/generate.py` into a
temporary directory.  `extract`, `cluster`, `hint` and `report` then run
in-process, once with the workload's algorithm and run count and once with
`--algorithm em --runs 2`, and every stdout and written file is hashed.
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
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("dup-kmeans", "long-proofs-ff")
GRANULARITY = 3
FREQ_THRESHOLD = 0.6


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(cli_main, argv: list[str]) -> bytes:
    """stdout of one command, with its exit code appended."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return f"{out.getvalue()}exit {code}\n".encode()


def workload_hashes(cli_main, workload, seed: int) -> list[tuple[str, str]]:
    from generate import generate

    rows = []
    inputs = generate(workload, seed, Path("inputs"))
    libs = [f"--lib={tag}:{path}" for tag, path in inputs.libraries]
    rows.append(("extract stdout", _sha(_run(cli_main, [
        "extract", *libs, "--out", "corpus", "--features", "features.jsonl"]))))
    rows.append(("corpus", _sha(Path("corpus").read_bytes())))
    rows.append(("features", _sha(Path("features.jsonl").read_bytes())))
    for algorithm, runs in ((workload.algorithm, workload.runs), ("em", 2)):
        flags = ["--algorithm", algorithm, "--granularity", str(GRANULARITY), "--runs", str(runs),
                 "--freq-threshold", str(FREQ_THRESHOLD), "--seed", str(seed)]
        tag = f"{algorithm} x{runs}"
        rows.append((f"{tag} cluster stdout", _sha(_run(cli_main, [
            "cluster", "--corpus", "corpus", "--out", "digest.json", *flags]))))
        rows.append((f"{tag} digest", _sha(Path("digest.json").read_bytes())))
        rows.append((f"{tag} hint stdout", _sha(_run(cli_main, [
            "hint", "--corpus", "corpus", "--query", str(inputs.query), *flags]))))
        for fmt in ("text", "json"):
            rows.append((f"{tag} report {fmt}", _sha(_run(cli_main, [
                "report", "digest.json", "--format", fmt]))))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the proofmine package to run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[12, 1, 2])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOAD_NAMES))
    args = parser.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
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
