"""proofmine benchmark: CLI latencies end to end, per-layer self times when traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload dup-kmeans --seed 1 --seconds 45 --trace 0

The workload's inputs are generated from the seed into `.perfbench_work/`
(removed at exit).  Each set-up sample is a fresh process that imports
proofmine and numpy and runs one extract/cluster/hint pass over
`tests/fixtures`; the last of them goes on to time `proofmine extract`,
`cluster` and `hint` in a closed loop: one caller, each command repeated with
identical arguments, for `--seconds` seconds and at least three samples each.
Every output is checked.  With `--trace 0` the last stdout line reports the
end-to-end metrics (medians).  With `--trace 1` each command also runs with
proofmine's public functions wrapped from outside, and the line reports the
per-layer metrics instead.  Lines before it give the environment, the
workload's shape and sample counts.

Exits 2 without a result when the checkout lacks `src/proofmine` or
`tests/fixtures`, and 1 when a benchmark process fails or times out.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from generate import WORKLOADS, generate  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 7
# A run must end within 180 s; stop waiting on workers well before that.
DEADLINE_S = 170.0
THREAD_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                      "NUMEXPR_NUM_THREADS")}
END_TO_END = ("setup_s", "extract_s", "cluster_s", "hint_s", "peak_rss_mb")


class BenchError(RuntimeError):
    pass


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _worker_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(spec: dict, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    work = Path(spec["work"])
    index = len(list(work.glob("spec-*.json")))
    spec = dict(spec, mode=mode, result=str(work / f"result-{index}.json"))
    spec_path = work / f"spec-{index}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path), repr(spawned_at)],
            env=_worker_env(), stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"{mode} worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None  # no sample: every call failed


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> int:
    if not (ROOT / "src" / "proofmine" / "cli.py").is_file() or not (ROOT / "tests" / "fixtures").is_dir():
        print("perfbench: run from a proofmine checkout (needs src/proofmine and tests/fixtures)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[workload_name]
    deadline = time.monotonic() + DEADLINE_S
    load_at_start = os.getloadavg()
    work = ROOT / ".perfbench_work" / f"{workload_name}-{seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        inputs = generate(workload, seed, work / "inputs")
        spec = {
            "root": str(ROOT), "work": str(work), "seed": seed, "seconds": seconds,
            "trace": trace, "algorithm": workload.algorithm, "runs": workload.runs,
            "libraries": [[t, str(p)] for t, p in inputs.libraries],
            "query": str(inputs.query), "tags": inputs.tags,
        }
        setups = [_spawn(spec, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        result = _spawn(spec, "measure", deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    runs = setups + [result]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    env = dict(result["env"], cpu=_cpu_model(), nproc=os.cpu_count(),
               loadavg_at_start=[round(x, 2) for x in load_at_start])
    print(f"perfbench workload={workload_name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    print("shape " + json.dumps(result["shape"], sort_keys=True))
    print("closed loop: 1 caller, each command repeated with identical arguments")
    samples = {"setup_s": [r["setup_s"] for r in runs]}
    samples.update({f"{c}_s": v for c, v in result["samples"].items()})
    for name, values in samples.items():
        if values:
            print(f"  {name} = {_median(values):.4f} s (median of {len(values)} samples, "
                  f"range {min(values):.4f}-{max(values):.4f})")
    print(f"  peak_rss_mb = {result['peak_rss_mb']:.1f} MB (ru_maxrss of the measuring process)")
    print(f"  error_rate = {failed / max(attempted, 1):.4f} ({failed} of {attempted} operations failed)")
    print(f"digest sha256 {result['digest_sha256']} (information only)")
    for problem in problems:
        print(f"problem: {problem}")

    if trace:
        print("absent " + json.dumps(result["absent"]))
        for command, values in result["traced_samples"].items():
            if values:
                print(f"  traced {command}_s = {_median(values):.4f} s "
                      f"(median of {len(values)} samples)")
        metrics = {}
        for name, value in result["layers"].items():
            unit = ("s" if name.endswith("_s") else "MB" if name.endswith("_mb")
                    else "fraction" if name.endswith("_frac") else "count")
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {name: _median(v) for name, v in samples.items()}
        values["peak_rss_mb"] = result["peak_rss_mb"]
        metrics = {name: {"value": values[name], "unit": "MB" if name == "peak_rss_mb" else "s"}
                   for name in END_TO_END}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
