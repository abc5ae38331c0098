"""One fresh benchmark process: set up, then time CLI commands in a closed loop.

Usage: worker.py SPEC.json SPAWNED_AT

run.py starts this file with the BLAS/OpenMP pools pinned to one thread in
its environment and `src` on PYTHONPATH; SPAWNED_AT is run.py's
`time.monotonic()` just before the spawn, so set-up time includes interpreter
start-up.  A "setup" spec stops once the process is ready; a "measure" spec
then times extract, cluster and hint in a closed loop (see `measure`), with
tracing on also their traced twins.  The result is written as JSON to the
spec's result path.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from generate import QUERY_NAME  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_SAMPLES = 3
# Stop starting commands after this long even below MIN_SAMPLES, so a much slower
# program still finishes inside the 180 s a run may take.
HARD_LIMIT_S = 110.0
FREQ_THRESHOLD = 0.6
GRANULARITY = 3
COMMANDS = ("extract", "cluster", "hint")

# Span name -> per-layer metric reporting the span's self time per round.
SELF_TIME_METRICS = {
    "script.parse_library": "script.parse_library_s",
    "script.parse_trace": "script.parse_trace_s",
    "script.parse_partial": "script.parse_partial_s",
    "terms.parse_term_tree": "terms.parse_term_tree_s",
    "features.build_table": "features.build_table_s",
    "features.extract_features": "features.extract_features_s",
    "features.min_max_scale": "features.min_max_scale_s",
    "corpus.ingest": "corpus.ingest_self_s",
    "corpus.save": "corpus.save_s",
    "corpus.load": "corpus.load_s",
    "corpus.query_db": "corpus.query_db_s",
    "digest.partitions": "digest.partitions_s",
    "digest.cooccurrence": "digest.cooccurrence_s",
    "digest.components": "digest.components_s",
    "digest.run_digest": "digest.consensus_self_s",
    "digest.select_reliable": "digest.select_reliable_s",
    "digest.write": "digest.write_s",
    "cli.render_report": "cli.render_report_s",
    "cli.main": "cli.self_s",
}

# (module, attribute the caller looks up, span name)
WRAPPED = [
    ("proofmine.cli", "ingest", "corpus.ingest"),
    ("proofmine.cli", "save", "corpus.save"),
    ("proofmine.cli", "load", "corpus.load"),
    ("proofmine.cli", "database_with_query", "corpus.query_db"),
    ("proofmine.cli", "parse_partial", "script.parse_partial"),
    ("proofmine.cli", "run_digest", "digest.run_digest"),
    ("proofmine.cli", "select_reliable", "digest.select_reliable"),
    ("proofmine.cli", "write_digest", "digest.write"),
    ("proofmine.cli", "render_report", "cli.render_report"),
    ("proofmine.corpus", "parse_library", "script.parse_library"),
    ("proofmine.corpus", "parse_trace", "script.parse_trace"),
    ("proofmine.corpus", "build_encoding_table", "features.build_table"),
    ("proofmine.corpus", "extract_features", "features.extract_features"),
    ("proofmine.corpus", "min_max_scale", "features.min_max_scale"),
    ("proofmine.script", "parse_term_tree", "terms.parse_term_tree"),
    ("proofmine.digest", "run_partitions", "digest.partitions"),
    ("proofmine.digest", "co_occurrence_counts", "digest.cooccurrence"),
    ("proofmine.digest", "components_at", "digest.components"),
    # EM's k-means start looks up the module attribute; digest runs go
    # through the ALGORITHMS table, which is wrapped entry by entry below.
    ("proofmine.clustering", "kmeans", "clustering.kmeans_init"),
]

# Metrics that are not self times, and the span names they are read from.
DERIVED_METRICS = {
    "script.lemmas": ("script.parse_library", "script.parse_trace"),
    "script.steps": ("script.parse_library", "script.parse_trace"),
    "terms.calls": ("terms.parse_term_tree",),
    "features.distinct_rows": ("digest.run_digest",),
    "features.duplicate_frac": ("digest.run_digest",),
    "corpus.file_mb": (),
    "clustering.run_s": ("clustering.run",),
    "clustering.kmeans_init_s": ("clustering.kmeans_init",),
    "clustering.iterations": ("clustering.run",),
    "clustering.capped_runs": ("clustering.run",),
    "clustering.capped_inits": ("clustering.kmeans_init",),
    "clustering.useful_iter_frac": ("clustering.run",),
    "clustering.minflt_per_run": ("clustering.run",),
    "digest.clusters": ("digest.run_digest",),
    "trace.overhead_frac": (),
}


class Runner:
    """Calls the CLI in-process with stdout captured and counts failed operations."""

    def __init__(self, cli_main) -> None:
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check(self, problems: list[str]) -> None:
        if problems:
            self.fail("; ".join(problems[:3]))

    def call(self, argv: list[str], around=contextlib.nullcontext) -> tuple[float, str | None]:
        """Wall seconds of one command, and its stdout (None when it failed)."""
        gc.collect()
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                with around():
                    code = self.cli_main(argv)
                wall = time.perf_counter() - start
        except SystemExit as exc:
            wall, code = 0.0, exc.code
        except Exception as exc:  # a traceback is a failed operation, not a crash
            self.fail(f"{argv[0]} raised {exc!r}")
            return 0.0, None
        if code != 0:
            self.fail(f"{argv[0]} exited with {code}: {err.getvalue().strip()[-200:]}")
            return wall, None
        return wall, out.getvalue()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digest_flags(algorithm: str, runs: int, seed: int) -> list[str]:
    return ["--algorithm", algorithm, "--granularity", str(GRANULARITY), "--runs", str(runs),
            "--freq-threshold", str(FREQ_THRESHOLD), "--seed", str(seed)]


def warm_up(runner: Runner, spec: dict) -> None:
    """One extract/cluster/hint pass over the repository's fixture corpus (75 lemmas)."""
    fixtures = Path(spec["root"]) / "tests" / "fixtures"
    libs = sorted(fixtures.glob("*.v")) + sorted(
        p for p in (fixtures / "hint").glob("*.v") if not p.stem.startswith("hint_query"))
    out = Path(spec["work"]) / f"warm-{os.getpid()}"
    out.mkdir()
    flags = _digest_flags(spec["algorithm"], 2, 0)
    runner.call(["extract", *[f"--lib={p.stem}:{p}" for p in libs], "--out", str(out / "corpus")])
    runner.call(["cluster", "--corpus", str(out / "corpus"), "--out", str(out / "digest"), *flags])
    runner.call(["hint", "--corpus", str(out / "corpus"),
                 "--query", str(fixtures / "hint" / "hint_query.v"), *flags])


class Commands:
    """The three timed commands of one workload, and the checks on their outputs."""

    def __init__(self, spec: dict, runner: Runner) -> None:
        self.spec = spec
        self.runner = runner
        work = Path(spec["work"])
        self.corpus = work / "bench.corpus"
        self.digest = work / "bench.digest.json"
        self.tags: dict[str, str] = spec["tags"]
        self.config = {"runs": spec["runs"], "frequency_threshold": FREQ_THRESHOLD,
                       "algorithm": spec["algorithm"], "granularity": GRANULARITY,
                       "master_seed": spec["seed"]}
        flags = _digest_flags(spec["algorithm"], spec["runs"], spec["seed"])
        libs = [f"--lib={tag}:{path}" for tag, path in spec["libraries"]]
        self.argv = {
            "extract": ["extract", *libs, "--out", str(self.corpus)],
            "cluster": ["cluster", "--corpus", str(self.corpus), "--out", str(self.digest), *flags],
            "hint": ["hint", "--corpus", str(self.corpus), "--query", spec["query"], *flags],
        }
        self.first: dict[str, str] = {}  # first output of each command, for repeat checks

    def run(self, command: str, around=contextlib.nullcontext) -> float | None:
        wall, out = self.runner.call(self.argv[command], around)
        if out is None:
            return None
        getattr(self, f"_check_{command}")(out)
        return wall

    def _same_as_first(self, command: str, value: str) -> list[str]:
        first = self.first.setdefault(command, value)
        return [] if first == value else [f"{command} output differs between samples"]

    def _check_extract(self, out: str) -> None:
        problems = checks.extract_problems(out, self.tags)
        self.runner.check(problems + self._same_as_first("extract", _sha256(self.corpus)))

    def _check_cluster(self, out: str) -> None:
        raw = self.digest.read_bytes()
        try:
            problems = checks.digest_problems(json.loads(raw), self.tags, self.config)
        except ValueError as exc:
            problems = [f"digest is not JSON: {exc}"]
        problems += self._same_as_first("cluster", hashlib.sha256(raw).hexdigest())
        self.runner.check(problems)
        _, report = self.runner.call(["report", str(self.digest)])
        if report is not None and report != out:
            self.runner.fail("report does not render the digest as cluster printed it")

    def _check_hint(self, out: str) -> None:
        problems = checks.hint_problems(out, self.tags, QUERY_NAME, FREQ_THRESHOLD)
        self.runner.check(problems + self._same_as_first("hint", out))

    def shape(self) -> dict:
        """Corpus shape from the CLI's feature dump; run after timing."""
        dump = Path(self.spec["work"]) / "bench.features.jsonl"
        _, out = self.runner.call(self.argv["extract"] + ["--features", str(dump)])
        rows = set()
        if out is not None:
            for line in dump.read_text(encoding="utf-8").splitlines():
                rows.add(tuple(json.loads(line)["scaled"]))
        m = len(self.tags)
        return {
            "lemmas": m,
            "distinct_rows": len(rows),
            "duplicate_frac": 1.0 - len(rows) / m,
            "clusters_per_run": checks.clusters_per_run(m, GRANULARITY),
            "digest_runs": self.spec["runs"],
            "source_bytes": sum(Path(p).stat().st_size for _, p in self.spec["libraries"]),
            "corpus_mb": self.corpus.stat().st_size / 1e6,
        }


# ---------------------------------------------------------------------------
# tracing


def _history_info(span, result, algorithm: str, caps: dict) -> None:
    """Iterations, cap hits and improving iterations of one clustering run."""
    field = "log_likelihood_history" if algorithm == "em" else "objective_history"
    history = getattr(result, field, None)
    if history is None:
        return
    sign = 1.0 if algorithm == "em" else -1.0  # EM raises its objective, k-means lowers it
    iterations = len(history) if algorithm == "em" else max(len(history) - 1, 0)
    span.info["iterations"] = iterations
    span.info["transitions"] = max(len(history) - 1, 0)
    span.info["useful"] = sum(1 for a, b in zip(history, history[1:]) if sign * (b - a) > 0)
    if algorithm in caps:
        cap = caps[algorithm]
        span.info["capped"] = None if cap is None else int(iterations >= cap)
    else:
        span.info["capped"] = 0  # no iteration loop, so nothing to cap


def install(tracer: Tracer) -> None:
    modules = {}
    for name in {module for module, _, _ in WRAPPED}:
        try:
            modules[name] = importlib.import_module(name)
        except ImportError:
            modules[name] = None
    clustering = modules["proofmine.clustering"]
    caps = {"kmeans": getattr(clustering, "KMEANS_MAX_ITER", None),
            "em": getattr(clustering, "EM_MAX_ITER", None)}

    def count_records(span, records, args):
        span.info["lemmas"] = len(records)
        span.info["steps"] = sum(len(r.steps) for r in records)

    def digest_info(span, clusters, args):
        span.info["clusters"] = len(clusters)
        span.info["matrix"] = getattr(args[0], "matrix", None)

    hooks = {"script.parse_library": count_records, "script.parse_trace": count_records,
             "digest.run_digest": digest_info,
             "clustering.kmeans_init": lambda s, r, a: _history_info(s, r, "kmeans", caps)}
    for module, attr, name in WRAPPED:
        tracer.wrap(modules[module], attr, name, label=f"{module}.{attr}",
                    after=hooks.get(name), faults=name == "clustering.kmeans_init")
    algorithms = getattr(clustering, "ALGORITHMS", None)
    if not isinstance(algorithms, dict) or not algorithms:
        tracer.absent["proofmine.clustering.ALGORITHMS"] = "clustering.run"
        return
    for key in list(algorithms):
        tracer.wrap(algorithms, key, "clustering.run", label=f"proofmine.clustering.ALGORITHMS[{key!r}]",
                    faults=True, after=lambda s, r, a, key=key: _history_info(s, r, key, caps))


def _distinct_rows(matrix) -> int:
    import numpy
    return len(numpy.unique(numpy.asarray(matrix), axis=0))


def traced_sample(commands: Commands, command: str) -> tuple[float | None, dict, list[str]]:
    """Wall time, per-layer values and missing wrap targets of one traced command."""
    tracer = Tracer()
    install(tracer)
    try:
        wall = commands.run(command, around=lambda: tracer.span("cli.main"))
    finally:
        tracer.restore()
    values: dict[str, float | None] = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    for name, seconds in tracer.self_times().items():
        if name in SELF_TIME_METRICS:
            values[SELF_TIME_METRICS[name]] += seconds
    values["terms.calls"] = len(tracer.named("terms.parse_term_tree"))
    parsed = tracer.named("script.parse_library") + tracer.named("script.parse_trace")
    values["script.lemmas"] = sum(span.info.get("lemmas", 0) for span in parsed)
    values["script.steps"] = sum(span.info.get("steps", 0) for span in parsed)
    if command == "extract":
        values["corpus.file_mb"] = commands.corpus.stat().st_size / 1e6
    if command == "cluster":
        values.update(_cluster_values(tracer))
    missing = set(tracer.absent.values())
    for metric, names in DERIVED_METRICS.items():
        if metric in values and missing.intersection(names):
            values[metric] = None
    for name, metric in SELF_TIME_METRICS.items():
        if name in missing:
            values[metric] = None
    return wall, values, sorted(tracer.absent)


def _cluster_values(tracer: Tracer) -> dict[str, float | None]:
    runs = tracer.named("clustering.run")
    inits = tracer.named("clustering.kmeans_init")
    digests = tracer.named("digest.run_digest")
    out: dict[str, float | None] = {
        "clustering.run_s": statistics.median(s.duration for s in runs) if runs else 0.0,
        "clustering.minflt_per_run": statistics.median(s.minflt for s in runs) if runs else 0.0,
    }
    if inits:  # only EM starts from k-means; elsewhere these metrics are left out
        out["clustering.kmeans_init_s"] = statistics.median(s.duration for s in inits)
        out["clustering.capped_inits"] = _total(inits, "capped")
    iterations = _total(runs, "iterations")
    transitions = _total(runs, "transitions")
    out["clustering.iterations"] = None if iterations is None else iterations / max(len(runs), 1)
    out["clustering.capped_runs"] = _total(runs, "capped")
    useful = _total(runs, "useful")
    out["clustering.useful_iter_frac"] = (None if useful is None
                                          else useful / transitions if transitions else 0.0)
    matrix = digests[0].info.get("matrix") if digests else None
    if matrix is None:
        out["features.distinct_rows"] = out["features.duplicate_frac"] = None
        out["digest.clusters"] = None
    else:
        distinct = _distinct_rows(matrix)
        out["features.distinct_rows"] = distinct
        out["features.duplicate_frac"] = 1.0 - distinct / len(matrix)
        out["digest.clusters"] = digests[0].info["clusters"]
    return out


def _total(spans, key: str) -> float | None:
    """Sum of an info field over spans; None when any span lacks it."""
    values = [span.info.get(key) for span in spans]
    if any(v is None for v in values):
        return None
    return sum(values)


# ---------------------------------------------------------------------------


def measure(runner: Runner, spec: dict) -> dict:
    """Closed loop over the commands (and, traced, their traced twins).

    Each step runs the stream that has used the least time so far, so every
    stream gets an equal share of the budget and cheap commands collect more
    samples.  The loop ends before a step would overrun the budget, once every
    stream has MIN_SAMPLES attempts.
    """
    commands = Commands(spec, runner)
    streams = [(c, False) for c in COMMANDS] + [(c, True) for c in COMMANDS if spec["trace"]]
    walls: dict[tuple, list[float]] = {s: [] for s in streams}
    spent = dict.fromkeys(streams, 0.0)
    last = dict.fromkeys(streams, 0.0)
    attempts = dict.fromkeys(streams, 0)
    layer_samples: dict[str, list[dict]] = {c: [] for c in COMMANDS}
    absent: list[str] = []
    start = time.perf_counter()
    while True:
        stream = min(streams, key=spent.get)
        now = time.perf_counter()
        if now - start >= HARD_LIMIT_S or (min(attempts.values()) >= MIN_SAMPLES
                                           and now - start + last[stream] > spec["seconds"]):
            break
        command, traced = stream
        if traced:
            wall, values, absent = traced_sample(commands, command)
        else:
            wall = commands.run(command)
        if wall is not None:
            walls[stream].append(wall)
            if traced:
                layer_samples[command].append(values)
        last[stream] = time.perf_counter() - now
        spent[stream] += last[stream]
        attempts[stream] += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "samples": {c: walls[(c, False)] for c in COMMANDS},
        "peak_rss_mb": peak_rss_mb,
        "shape": commands.shape(),
        "digest_sha256": commands.first.get("cluster"),
    }
    if spec["trace"]:
        result["traced_samples"] = {c: walls[(c, True)] for c in COMMANDS}
        result["layers"] = _layer_medians(layer_samples, result["samples"],
                                          result["traced_samples"])
        result["absent"] = absent
    return result


def _layer_medians(layer_samples: dict[str, list[dict]], untraced, traced) -> dict:
    """Each metric summed over the commands that report it, of per-command medians.

    A metric no command reports (the k-means init ones outside EM) is left out.
    """
    layers = {}
    for metric in list(SELF_TIME_METRICS.values()) + list(DERIVED_METRICS):
        medians = []
        for samples in layer_samples.values():
            values = [s[metric] for s in samples if metric in s]
            if values:
                medians.append(None if None in values else statistics.median(values))
        if medians:
            layers[metric] = None if None in medians else sum(medians)
    base = sum(statistics.median(v) for v in untraced.values() if v)
    over = sum(statistics.median(v) for v in traced.values() if v)
    layers["trace.overhead_frac"] = (over - base) / base if base else None
    return layers


def environment() -> dict:
    import numpy
    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning a dict
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pins": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                         "MKL_NUM_THREADS")},
    }


def main(spec_path: str, spawned_at: float) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import numpy  # noqa: F401  (its import is part of set-up)
    from proofmine.cli import main as cli_main
    runner = Runner(cli_main)
    warm_up(runner, spec)
    result = {"setup_s": time.monotonic() - spawned_at}
    if spec["mode"] == "measure":
        result.update(measure(runner, spec))
        result["env"] = environment()
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
