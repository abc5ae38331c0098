"""Command-line driver: extract | cluster | hint | report.

Exit codes: 0 success (including an empty hint), 2 parse errors,
3 I/O or corpus-file errors, 4 insufficient data.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .clustering import GranularityConfig, choose_n
from .corpus import (CorruptFile, QUERY_NAME, VersionMismatch, database_with_query,
                     ingest, load, save)
from .digest import (DigestConfig, TooFewLemmas, digest_to_dict, read_digest, run_digest,
                     select_reliable, write_digest)
from .features import write_feature_records
from .script import ParseError, parse_partial
from .terms import TermError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_INSUFFICIENT = 4


def _add_digest_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algorithm", choices=("kmeans", "em", "farthest-first"),
                        default="kmeans", help="clustering backend (default kmeans)")
    parser.add_argument("--granularity", type=int, choices=range(1, 6), default=3,
                        metavar="1..5", help="cluster-count knob (default 3)")
    parser.add_argument("--runs", type=int, default=200, help="randomized runs per digest (default 200)")
    parser.add_argument("--freq-threshold", type=float, default=0.6,
                        help="co-occurrence rate needed to keep a pair together (default 0.6)")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default: $PROOFMINE_SEED or 0)")


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PROOFMINE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"PROOFMINE_SEED must be an integer, got {env!r}")
    return 0


def _digest_config(args: argparse.Namespace) -> DigestConfig:
    return DigestConfig(
        runs=args.runs,
        frequency_threshold=args.freq_threshold,
        algorithm=args.algorithm,
        granularity=args.granularity,
        master_seed=_resolve_seed(args),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proofmine",
        description="Mine similar-proof clusters from prover script libraries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="parse libraries into a corpus file")
    p_extract.add_argument("--lib", action="append", required=True, metavar="TAG:PATH",
                           help="library tag and source path; repeatable")
    p_extract.add_argument("--out", required=True, help="corpus file to write")
    p_extract.add_argument("--features", default=None,
                           help="also dump the feature database as JSON Lines")
    p_extract.add_argument("--patch-len", type=int, default=5,
                           help="steps per feature patch (default 5)")

    p_cluster = sub.add_parser("cluster", help="digest a corpus and print the cluster report")
    p_cluster.add_argument("--corpus", required=True)
    p_cluster.add_argument("--out", required=True, help="digest file to write")
    _add_digest_flags(p_cluster)

    p_hint = sub.add_parser("hint", help="find the most reliable cluster for a partial proof")
    p_hint.add_argument("--corpus", required=True)
    p_hint.add_argument("--query", required=True, help="file with one unfinished proof")
    _add_digest_flags(p_hint)

    p_report = sub.add_parser("report", help="render a digest file")
    p_report.add_argument("digest")
    p_report.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _parse_lib_flag(value: str) -> tuple[str, str]:
    tag, sep, path = value.partition(":")
    if not sep or not tag or not path:
        raise ValueError(f"--lib wants TAG:PATH, got {value!r}")
    return tag, path


def cmd_extract(args: argparse.Namespace) -> int:
    pairs = [_parse_lib_flag(v) for v in args.lib]
    corpus = ingest([p for _, p in pairs], [t for t, _ in pairs], patch_len=args.patch_len)
    save(corpus, args.out)
    for tag in sorted(corpus.libraries):
        print(f"{tag}: {len(corpus.libraries[tag])} lemmas")
    print(f"corpus written to {args.out} ({corpus.lemma_count()} lemmas)")
    if args.features:
        names = sorted(corpus.features)
        write_feature_records(args.features, names, corpus.library_tags(),
                              corpus.features, corpus.table)
        print(f"feature database written to {args.features}")
    return EXIT_OK


def render_report(doc: dict) -> str:
    cfg = doc["config"]
    clusters = doc["clusters"]
    lines = [
        f"proofmine digest  algorithm={cfg['algorithm']}  granularity={cfg['granularity']}  "
        f"n={doc['clusters_per_run']}  runs={cfg['runs']}  "
        f"freq-threshold={cfg['frequency_threshold']}  seed={cfg['master_seed']}",
        f"objects clustered: {doc['objects']}; consensus clusters: {len(clusters)}",
    ]
    libraries = doc.get("libraries", {})
    for title, key in (("Homogeneous clusters", "homogeneous"),
                       ("Heterogeneous clusters", "heterogeneous")):
        group = [c for c in clusters if c["homogeneity"] == key]
        lines.append("")
        lines.append(f"{title} ({len(group)}):")
        if not group:
            lines.append("  none")
        for i, cluster in enumerate(group, start=1):
            lines.append(f"  [{i}] frequency={cluster['frequency']:.3f} "
                         f"size={len(cluster['members'])}")
            for name in cluster["members"]:
                proximity = cluster["member_proximity"][name]
                tag = libraries.get(name, "?")
                lines.append(f"      {name} ({tag}) proximity={proximity:.3f}")
    return "\n".join(lines)


def cmd_cluster(args: argparse.Namespace) -> int:
    corpus = load(args.corpus)
    cfg = _digest_config(args)
    db = corpus.feature_database()
    clusters = run_digest(db, cfg)
    n = choose_n(GranularityConfig(cfg.granularity, len(db.names)))
    doc = digest_to_dict(clusters, cfg, objects=len(db.names), clusters_per_run=n,
                         libraries=db.libraries)
    write_digest(args.out, doc)
    print(render_report(doc))
    return EXIT_OK


def cmd_hint(args: argparse.Namespace) -> int:
    corpus = load(args.corpus)
    query_path = Path(args.query)
    record = parse_partial(query_path.read_text(encoding="utf-8"), filename=str(query_path))
    cfg = _digest_config(args)
    db = database_with_query(corpus, record)
    clusters = run_digest(db, cfg)
    chosen = select_reliable(clusters, QUERY_NAME)
    if chosen is None:
        print(f"no reliable cluster found for {record.name}")
        return EXIT_OK
    print(f"hint for {record.name}: cluster of {len(chosen.members) - 1} similar proofs "
          f"(frequency {chosen.frequency:.3f})")
    for name in chosen.members:
        if name == QUERY_NAME:
            continue
        tag = db.libraries.get(name, "?")
        proximity = chosen.member_proximity[name]
        print(f"  {name} ({tag}) proximity={proximity:.3f}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    doc = read_digest(args.digest)
    if args.format == "json":
        import json
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(render_report(doc))
    return EXIT_OK


_COMMANDS = {
    "extract": cmd_extract,
    "cluster": cmd_cluster,
    "hint": cmd_hint,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, TermError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TooFewLemmas as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except (OSError, CorruptFile, VersionMismatch) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
