"""Time each proofmine layer once on a paper-scale corpus and write the split as JSON.

Usage (from the repository root):

    python3 tools/layers.py [--src LABEL=DIR ...] [--seed 12] [--kmeans-runs 20]
                            [--out BENCH_paper_scale.json]

The corpus has the shape of the paper's case studies: 7 libraries of 200
compositional lemmas each (m = 1400), written by `perfbench/generate.py`
with its `distinct-em` generator settings, once as vernacular files and once
as trace JSON Lines.  At granularity 3 each clustering run makes n = 200
clusters.  For every `--src` (default: this checkout's `src`, labelled
`change`) a fresh process imports proofmine from DIR and times, once each:

* parsing per file kind (`parse_library` over the `.v` files, `parse_trace`
  over the `.jsonl` files), with the distinct proof bodies of each file
  summed over both kinds (`shape.distinct_proofs`);
* encoding: each parsed file reduced to the encoder's inputs, as `ingest`
  does before it reads the next file (`encode.reduce_s`); the vocabulary
  table; then the coding of the feature rows (`encode.features_s`).
  `shape.distinct_patches` counts the distinct reduced vernacular lemmas,
  which `ingest` codes once each;
* `corpus.save` and `corpus.load`;
* one partition run per algorithm on a fresh point set, with its iteration count;
* a `--kmeans-runs`-run k-means `run_partitions` (default 20), with the
  bytes its PointSet keeps once the runs end
  (`shape.kmeans_point_set_kept_bytes`: distinct rows, their numbering and
  every kept distance column);
* a 200-run farthest-first `run_digest`, split into its partition runs,
  co-occurrence counts, components and the building of its clusters
  (`_consensus_clusters`), with the bytes its PointSet keeps once the runs
  end (`shape.point_set_kept_bytes`);
* the consensus step of a hint: the same 200 runs with the workload's query
  row added, then `run_digest` and a search for the query's cluster
  (`hint.digest_search_s`), and what `hint` calls (`hint.consensus_s`);
  both leave out the partition runs, and must give the same cluster.

BLAS is pinned to one thread, as in the benchmark.  Nothing here is gated;
the numbers explain where the time goes at the reference size.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True  # leave no cache files beside perfbench/generate.py
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import generate  # noqa: E402
from run import _cpu_model  # noqa: E402

LIBRARIES = 7
LEMMAS_PER_LIBRARY = 200
GRANULARITY = 3
DIGEST_RUNS = 200


def _workload(*, traces: bool):
    """The distinct-em generator shape at 7 x 200 lemmas, as vernacular or as traces."""
    base = generate.WORKLOADS["distinct-em"]
    return generate.Workload("paper-scale", templates=False, libraries=LIBRARIES,
                             lemmas_per_library=LEMMAS_PER_LIBRARY, algorithm="kmeans",
                             runs=DIGEST_RUNS, steps=base.steps, depth=base.depth,
                             trace_libraries=LIBRARIES if traces else 0)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, round(time.perf_counter() - start, 4)


@contextlib.contextmanager
def _stage_times(module, names):
    """Seconds spent in each named function of module while the block runs."""
    spent = dict.fromkeys(names, 0.0)
    originals = {name: getattr(module, name) for name in names}

    def wrap(name, inner):
        def timed(*args, **kwargs):
            result, seconds = _timed(inner, *args, **kwargs)
            spent[name] += seconds
            return result
        return timed

    for name, inner in originals.items():
        setattr(module, name, wrap(name, inner))
    try:
        yield spent
    finally:
        for name, inner in originals.items():
            setattr(module, name, inner)


@contextlib.contextmanager
def _point_sets(module):
    """Every PointSet that module builds while the block runs."""
    built = []
    original = module.PointSet

    class Recorded(original):
        def __init__(self, points):
            super().__init__(points)
            built.append(self)

    module.PointSet = Recorded
    try:
        yield built
    finally:
        module.PointSet = original


def _kept_bytes(point_set) -> int:
    """Bytes of the arrays a PointSet holds besides the matrix it was handed."""
    arrays = [value for name, value in vars(point_set).items()
              if name != "points" and hasattr(value, "nbytes")]
    return sum(array.nbytes for array in arrays + list(point_set._columns.values()))


def measure(seed: int, kmeans_runs: int) -> dict:
    """Every layer's time in this process, with the counts that explain it."""
    import numpy as np

    from proofmine import clustering, corpus, digest, features, script

    layers: dict[str, float] = {}
    shape: dict[str, int] = {}
    with tempfile.TemporaryDirectory(prefix="proofmine-layers-") as tmp:
        tmp = Path(tmp)
        vernacular = generate.generate(_workload(traces=False), seed, tmp / "v")
        traces = generate.generate(_workload(traces=True), seed, tmp / "t")
        query_text = vernacular.query.read_text(encoding="utf-8")

        lemmas = []
        symbols: set[str] = set()
        tactics: set[str] = set()
        proofs = 0  # distinct proof bodies, counted per file as the parser's memo holds them

        def reduce(parsed):  # what ingest keeps of one parsed file
            tactics.update(app.name for r in parsed for step in r.steps for app in step.tactics)
            return features.lemma_patches(parsed, features.PATCH_LEN)

        def distinct_proofs(parsed) -> int:
            return len({tuple(step.tactics for step in r.steps) for r in parsed})

        layers["parse.vernacular_s"] = 0.0
        layers["encode.reduce_s"] = 0.0
        vernacular_steps = 0
        for tag, path in vernacular.libraries:
            parsed, seconds = _timed(script.parse_library, path.read_text(encoding="utf-8"), tag,
                                     filename=str(path), symbols=symbols)
            layers["parse.vernacular_s"] += seconds
            vernacular_steps += sum(len(r.steps) for r in parsed)
            proofs += distinct_proofs(parsed)
            parsed, seconds = _timed(reduce, parsed)
            layers["encode.reduce_s"] += seconds
            lemmas += parsed
        layers["parse.trace_s"] = 0.0
        trace_steps = 0
        for _, path in traces.libraries:
            parsed, seconds = _timed(script.parse_trace, path.read_text(encoding="utf-8"),
                                     filename=str(path))
            trace_steps += sum(len(r.steps) for r in parsed)
            proofs += distinct_proofs(parsed)
            layers["parse.trace_s"] += seconds
        shape.update(lemmas=len(lemmas), vernacular_steps=vernacular_steps, trace_steps=trace_steps,
                     distinct_proofs=proofs,
                     distinct_patches=len({patch.steps for patch in lemmas}))  # each coded once by ingest

        lemmas.sort(key=lambda r: r.name)
        table, layers["encode.table_s"] = _timed(features.build_encoding_table, tactics, symbols)
        rows, layers["encode.features_s"] = _timed(
            lambda: [features.extract_features(r, table, features.PATCH_LEN) for r in lemmas])
        raw = np.array(rows, dtype=np.float64)
        built = corpus.Corpus([r.name for r in lemmas], {r.name: r.library for r in lemmas}, raw, table)
        _, layers["corpus.save_s"] = _timed(corpus.save, built, tmp / "c.corpus")
        loaded, layers["corpus.load_s"] = _timed(corpus.load, tmp / "c.corpus")
        shape.update(corpus_bytes=(tmp / "c.corpus").stat().st_size,
                     distinct_rows=len(clustering._distinct_rows(raw)[0]),
                     tactics=len(table.tactic_codes), symbols=len(table.symbol_codes))

    db = loaded.feature_database()
    n = clustering.choose_n(len(db.names), GRANULARITY)
    shape.update(m=len(db.names), n=n)
    iterations = {}
    for name, history in (("kmeans", "objective_history"), ("em", "log_likelihood_history"),
                          ("farthest-first", None)):
        result, layers[f"run.{name}_s"] = _timed(clustering.ALGORITHMS[name], db.matrix, n, 0)
        iterations[name] = len(getattr(result, history)) if history else n

    kmeans_cfg = digest.DigestConfig(runs=kmeans_runs, algorithm="kmeans", granularity=GRANULARITY)
    with _point_sets(digest) as point_sets:
        _, layers["digest.kmeans_partitions_s"] = _timed(digest.run_partitions, db.matrix, kmeans_cfg)
    shape.update(kmeans_runs=kmeans_runs, kmeans_point_set_kept_bytes=_kept_bytes(point_sets[0]))

    # one farthest-first digest, its stages timed by wrapping what run_digest calls
    cfg = digest.DigestConfig(runs=DIGEST_RUNS, algorithm="farthest-first", granularity=GRANULARITY)
    stages = ("run_partitions", "co_occurrence_counts", "components_at", "_consensus_clusters")
    with _stage_times(digest, stages) as spent, _point_sets(digest) as point_sets:
        clusters, layers["digest.farthest_first_200_s"] = _timed(digest.run_digest, db, cfg)
    layers.update({"digest.partitions_s": spent["run_partitions"],
                   "digest.cooccurrence_s": spent["co_occurrence_counts"],
                   "digest.components_s": spent["components_at"],
                   "digest.consensus_s": spent["_consensus_clusters"]})
    shape.update(digest_clusters=len(clusters), point_set_kept_bytes=_kept_bytes(point_sets[0]))

    # the same digest with the query row: the consensus step of a hint, without its runs
    query_db = corpus.database_with_query(loaded, script.parse_partial(query_text))
    query = corpus.QUERY_NAME

    def digest_and_search():
        return next((c for c in digest.run_digest(query_db, cfg) if query in c.members), None)

    def hint_consensus():  # what cmd_hint calls
        return digest.select_reliable(query_db, cfg, query)

    hints = []
    for name, fn in (("digest_search", digest_and_search), ("consensus", hint_consensus)):
        with _stage_times(digest, ("run_partitions",)) as spent:
            chosen, seconds = _timed(fn)
        layers[f"hint.{name}_s"] = seconds - spent["run_partitions"]
        hints.append(None if chosen is None else chosen.to_dict())
    if hints[0] != hints[1]:
        raise RuntimeError("the hint's cluster is not the one the digest holds")
    shape.update(hint_members=0 if hints[0] is None else len(hints[0]["members"]))
    return {"layers": {k: round(v, 4) for k, v in layers.items()}, "iterations": iterations,
            "shape": shape}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", metavar="LABEL=DIR",
                        help="a proofmine source tree to time, repeatable (default: change=src)")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--kmeans-runs", type=int, default=20,
                        help="runs of the timed k-means run_partitions (default 20)")
    parser.add_argument("--out", default="BENCH_paper_scale.json")
    parser.add_argument("--measure", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        sys.path.insert(0, str(Path(args.measure).resolve()))
        print(json.dumps(measure(args.seed, args.kmeans_runs)))
        return 0
    results = {}
    for spec in args.src or [f"change={ROOT / 'src'}"]:
        label, _, src = spec.partition("=")
        done = subprocess.run([sys.executable, __file__, "--measure", src, "--seed", str(args.seed),
                               "--kmeans-runs", str(args.kmeans_runs)],
                              check=True, capture_output=True, text=True)
        results[label] = json.loads(done.stdout)
        print(label, json.dumps(results[label]["layers"]), file=sys.stderr)
    doc = {
        "what": "each layer timed once in-process on a 7 x 200-lemma compositional corpus "
                "(perfbench/generate.py distinct-em shape), granularity 3, clustering seed 0; "
                f"the k-means run_partitions over seeds 0-{args.kmeans_runs - 1}; the hint stages "
                "leave out their partition runs",
        "command": f"python3 tools/layers.py --src LABEL=DIR ... --seed {args.seed} "
                   f"--kmeans-runs {args.kmeans_runs}",
        "seed": args.seed,
        "env": {"python": platform.python_version(), "cpu": _cpu_model(), "nproc": os.cpu_count(),
                "blas_threads": 1},
        "results": results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
