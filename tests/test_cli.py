import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from proofmine.cli import main
from proofmine.corpus import CORPUS_FORMAT, load
from proofmine.digest import DigestConfig

from conftest import FIXTURES, GOLDENS, HINT, HINT_LIBS, mutated, mutated_inputs

SRC = Path(__file__).resolve().parents[1] / "src"

FIXTURE_LIBS = [f"--lib={p.stem}:{p}" for p in sorted(FIXTURES.glob("*.v"))]


def extract_args(out, libs=None):
    libs = libs if libs is not None else HINT_LIBS
    args = ["extract"]
    for tag, path in libs:
        args += ["--lib", f"{tag}:{path}"]
    return args + ["--out", str(out)]


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "hint.corpus"
    assert main(extract_args(out)) == 0
    return out


def test_extract_writes_corpus_and_counts(tmp_path, capsys):
    out = tmp_path / "c.corpus"
    code = main(extract_args(out, [("ssrbool", FIXTURES / "ssr_bool.v")]))
    captured = capsys.readouterr().out
    assert code == 0
    assert out.exists()
    assert "ssrbool: 6 lemmas" in captured
    corpus = load(out)
    assert set(corpus.libraries.values()) == {"ssrbool"}


def test_extract_two_lib_flags(tmp_path):
    out = tmp_path / "c.corpus"
    code = main(extract_args(out, [("ssrbool", FIXTURES / "ssr_bool.v"),
                                   ("seq", FIXTURES / "ssr_seq.v")]))
    assert code == 0
    assert set(load(out).libraries.values()) == {"ssrbool", "seq"}


def test_extract_missing_file_exits_3(tmp_path):
    code = main(["extract", "--lib", f"x:{tmp_path}/nope.v", "--out", str(tmp_path / "c")])
    assert code == 3


def test_extract_parse_error_exits_2_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.v"
    bad.write_text("Lemma broken : x = y.\nProof. by [].\n")
    code = main(["extract", "--lib", f"t:{bad}", "--out", str(tmp_path / "c")])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.v:1" in err


def test_comment_never_closed_exits_2(corpus_file, tmp_path, capsys):
    library = tmp_path / "open.v"
    library.write_text("Lemma l : x = x.\nProof. by []. Qed.\n(* open comment\n"
                       "Lemma m : y = y.\nProof. by []. Qed.\n")
    out = tmp_path / "c"
    assert main(["extract", "--lib", f"l:{library}", "--out", str(out)]) == 2
    assert f"{library}:3: comment never closed" in capsys.readouterr().err
    assert not out.exists()
    query = tmp_path / "query.v"
    query.write_text("Lemma q : x = x.\nProof. (* open\nby [].\n")
    assert main(["hint", "--corpus", str(corpus_file), "--query", str(query), "--runs", "2"]) == 2
    assert f"{query}:2: comment never closed" in capsys.readouterr().err


def test_string_never_closed_exits_2(corpus_file, tmp_path, capsys):
    library = tmp_path / "open.v"
    library.write_text('Lemma l : x = x.\nProof. by []. Qed.\nNotation s := "open string.\n'
                       "Lemma m : y = y.\nProof. by []. Qed.\n")
    out = tmp_path / "c"
    assert main(["extract", "--lib", f"l:{library}", "--out", str(out)]) == 2
    assert f"{library}:3: string never closed" in capsys.readouterr().err
    assert not out.exists()
    query = tmp_path / "query.v"
    query.write_text('Lemma q : x = x.\nProof. rewrite "open.\nby [].\n')
    assert main(["hint", "--corpus", str(corpus_file), "--query", str(query), "--runs", "2"]) == 2
    assert f"{query}:2: string never closed" in capsys.readouterr().err


def test_extract_duplicate_exits_2(tmp_path):
    code = main(["extract",
                 "--lib", f"a:{FIXTURES / 'ssr_bool.v'}",
                 "--lib", f"b:{FIXTURES / 'ssr_bool.v'}",
                 "--out", str(tmp_path / "c")])
    assert code == 2


def test_extract_feature_dump(tmp_path):
    out = tmp_path / "c.corpus"
    features = tmp_path / "features.jsonl"
    code = main(extract_args(out, [("ssrbool", FIXTURES / "ssr_bool.v")]) +
                ["--features", str(features)])
    assert code == 0
    lines = [json.loads(l) for l in features.read_text().splitlines() if l.strip()]
    assert len(lines) == 6


def test_cluster_is_byte_identical_under_fixed_seed(corpus_file, tmp_path, capsys):
    out1, out2 = tmp_path / "d1.json", tmp_path / "d2.json"
    base = ["cluster", "--corpus", str(corpus_file), "--runs", "1", "--seed", "7"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cluster_report_header_shows_n(corpus_file, tmp_path, capsys):
    out = tmp_path / "d.json"
    code = main(["cluster", "--corpus", str(corpus_file), "--out", str(out),
                 "--granularity", "5", "--runs", "5", "--seed", "1"])
    report = capsys.readouterr().out
    assert code == 0
    # 24 lemmas at granularity 5 -> floor(24 / 5) = 4 clusters per run
    assert "n=4" in report
    assert "Homogeneous clusters" in report and "Heterogeneous clusters" in report


def test_cluster_too_small_corpus_exits_4(tmp_path):
    single = tmp_path / "one.v"
    single.write_text("Lemma only : a = b.\nProof. by []. Qed.\n")
    out = tmp_path / "one.corpus"
    assert main(["extract", "--lib", f"t:{single}", "--out", str(out)]) == 0
    code = main(["cluster", "--corpus", str(out), "--out", str(tmp_path / "d.json")])
    assert code == 4


def test_hint_returns_group_for_matching_query(corpus_file, capsys):
    code = main(["hint", "--corpus", str(corpus_file),
                 "--query", str(HINT / "hint_query.v"),
                 "--granularity", "4", "--seed", "3", "--runs", "50"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("gsum_expand_l", "gsum_expand_r", "gsum_split_lo", "gsum_split_hi"):
        assert name in out
    assert "lseq_pad_a" not in out
    assert "?query" not in out


def test_hint_twin_lemma_proximity_at_least_peers(corpus_file, capsys):
    # the query repeats gsum_expand_l's steps, so its vector coincides with
    # the whole group and nobody can sit closer to the center
    code = main(["hint", "--corpus", str(corpus_file),
                 "--query", str(HINT / "hint_query.v"),
                 "--granularity", "4", "--seed", "1", "--runs", "50"])
    out = capsys.readouterr().out
    assert code == 0
    proximities = {}
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0].startswith("gsum_"):
            proximities[parts[0]] = float(parts[-1].split("=")[1])
    assert proximities["gsum_expand_l"] >= max(proximities.values()) - 1e-12


def test_hint_prefix_query_joins_group_at_default_granularity(corpus_file, capsys):
    code = main(["hint", "--corpus", str(corpus_file),
                 "--query", str(HINT / "hint_query_prefix.v"),
                 "--seed", "3", "--runs", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gsum_expand_l" in out


def test_hint_detached_query_reports_no_cluster(corpus_file, capsys):
    code = main(["hint", "--corpus", str(corpus_file),
                 "--query", str(HINT / "hint_query_detached.v"),
                 "--granularity", "5", "--seed", "1", "--runs", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no reliable cluster" in out


def test_hint_bad_query_exits_2(corpus_file, tmp_path):
    bad = tmp_path / "bad.v"
    bad.write_text("no lemma here at all\n")
    code = main(["hint", "--corpus", str(corpus_file), "--query", str(bad)])
    assert code == 2


def test_hint_does_not_modify_corpus(corpus_file):
    before = corpus_file.read_bytes()
    main(["hint", "--corpus", str(corpus_file), "--query", str(HINT / "hint_query.v"),
          "--granularity", "4", "--seed", "2", "--runs", "20"])
    assert corpus_file.read_bytes() == before


def test_report_text_and_json(corpus_file, tmp_path, capsys):
    digest = tmp_path / "d.json"
    main(["cluster", "--corpus", str(corpus_file), "--out", str(digest),
          "--granularity", "5", "--runs", "5", "--seed", "2"])
    capsys.readouterr()
    assert main(["report", str(digest)]) == 0
    text = capsys.readouterr().out
    assert "proofmine digest" in text
    assert main(["report", str(digest), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "proofmine digest v1"


def test_seed_env_fallback(corpus_file, tmp_path, capsys, monkeypatch):
    out_env = tmp_path / "env.json"
    out_flag = tmp_path / "flag.json"
    monkeypatch.setenv("PROOFMINE_SEED", "99")
    main(["cluster", "--corpus", str(corpus_file), "--out", str(out_env),
          "--runs", "2", "--granularity", "5"])
    monkeypatch.delenv("PROOFMINE_SEED")
    main(["cluster", "--corpus", str(corpus_file), "--out", str(out_flag),
          "--runs", "2", "--granularity", "5", "--seed", "99"])
    assert out_env.read_bytes() == out_flag.read_bytes()


@pytest.mark.parametrize("command", ["cluster", "hint"])
@pytest.mark.parametrize("flags, seed_env, message", [
    (["--runs", "0"], None, "runs must be >= 1"),
    (["--freq-threshold", "2"], None, "frequency threshold must be in (0, 1]"),
    ([], "abc", "PROOFMINE_SEED must be an integer"),
    (["--seed", "-1"], None, "seed must be a non-negative integer, got -1"),
    ([], "-4", "seed must be a non-negative integer, got -4")],
    ids=["runs 0", "freq-threshold 2", "bad PROOFMINE_SEED", "negative seed", "negative PROOFMINE_SEED"])
def test_bad_digest_setting_is_a_usage_error_before_the_corpus_is_read(
        tmp_path, capsys, monkeypatch, command, flags, seed_env, message):
    if seed_env is not None:
        monkeypatch.setenv("PROOFMINE_SEED", seed_env)
    missing = str(tmp_path / "missing.corpus")  # reading it would be exit 3
    args = {"cluster": ["cluster", "--corpus", missing, "--out", str(tmp_path / "d")],
            "hint": ["hint", "--corpus", missing, "--query", str(HINT / "hint_query.v")]}[command]
    assert main(args + flags) == 2
    err = capsys.readouterr().err
    assert "i/o error" not in err and message in err


def test_corrupt_corpus_exits_3(tmp_path):
    bogus = tmp_path / "x.corpus"
    bogus.write_text("{not json")
    assert main(["cluster", "--corpus", str(bogus), "--out", str(tmp_path / "d")]) == 3


def test_long_corpus_format_tag_is_not_echoed_whole(tmp_path, capsys):
    path = tmp_path / "long.corpus"
    path.write_bytes(json.dumps({"format": "x" * 200_000, "checksum": ""}).encode("utf-8") + b"\n{}")
    assert main(["cluster", "--corpus", str(path), "--out", str(tmp_path / "d")]) == 3
    err = capsys.readouterr().err
    assert len(err) < 1000
    assert "(cut)" in err and "run `proofmine extract` on its sources" in err


def test_corpus_repeating_lemma_names_exits_3(tmp_path, capsys):
    # the v5 fixture resealed with three ssrbool records stored twice: a valid checksum
    payload = json.loads((FIXTURES / "ssr_bool_matrix_v5.corpus").read_bytes().partition(b"\n")[2])
    records = payload["libraries"]["ssrbool"]
    records += [r for r in records if r[0] in ("altP", "andbb", "orbb")]
    body = json.dumps(payload).encode("utf-8")
    header = {"format": CORPUS_FORMAT, "checksum": hashlib.sha256(body).hexdigest()}
    path = tmp_path / "repeated.corpus"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    assert main(["cluster", "--corpus", str(path), "--out", str(tmp_path / "d"), "--runs", "3"]) == 3
    assert main(["hint", "--corpus", str(path), "--query", str(HINT / "hint_query.v"), "--runs", "3"]) == 3
    err = capsys.readouterr().err
    assert "repeated: altP, andbb, orbb" in err and not (tmp_path / "d").exists()


def test_extract_subgoal_count_too_large_for_a_float_exits_2(tmp_path, capsys):
    step = json.loads((FIXTURES / "matrix_trace.jsonl").read_text().splitlines()[0])
    step["subgoals_after"] = 10 ** 400
    trace = tmp_path / "huge.jsonl"
    trace.write_text(json.dumps(step) + "\n")
    out = tmp_path / "c"
    assert main(["extract", "--lib", f"m:{trace}", "--out", str(out)]) == 2
    assert f"{trace}:1: subgoals_after is too large" in capsys.readouterr().err
    assert not out.exists()


def test_report_on_bare_digest_exits_2(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text('{"format": "proofmine digest v1"}')
    assert main(["report", str(path)]) == 2
    assert "malformed digest" in capsys.readouterr().err


def test_report_on_unknown_homogeneity_exits_2(tmp_path, capsys):
    cluster = {"members": ["a", "b"], "frequency": 1.0, "member_proximity": {"a": 1.0, "b": 1.0}}
    doc = {"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": 2,
           "clusters_per_run": 1, "libraries": {"a": "u", "b": "u"}, "clusters": [cluster]}
    path = tmp_path / "digest.json"
    path.write_text(json.dumps({**doc, "clusters": [{**cluster, "homogeneity": "homogeneous"}]}))
    assert main(["report", str(path)]) == 0
    path.write_text(json.dumps({**doc, "clusters": [{**cluster, "homogeneity": "mixed"}]}))
    assert main(["report", str(path)]) == 2
    assert "malformed digest" in capsys.readouterr().err


@pytest.mark.parametrize("data", [b"not json", b"\xef\xbb\xbf{}", b'{"format": "\xff"}'],
                         ids=["not json", "leading BOM", "byte 0xff"])
def test_report_on_an_undecodable_digest_names_the_file(tmp_path, capsys, data):
    path = tmp_path / "digest.json"
    path.write_bytes(data)
    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: not a proofmine digest v1 file (")
    assert not captured.out


def test_report_on_boolean_counts_exits_2(tmp_path, capsys):
    doc = {"format": "proofmine digest v1", "config": DigestConfig().to_dict(), "objects": True,
           "clusters_per_run": True, "libraries": {}, "clusters": []}
    path = tmp_path / "digest.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert "malformed digest: bad or missing objects" in captured.err and not captured.out


def test_report_on_config_values_out_of_range_exits_2(tmp_path, capsys):
    config = {**DigestConfig().to_dict(), "algorithm": ["x"], "runs": "many",
              "frequency_threshold": float("nan")}
    doc = {"format": "proofmine digest v1", "config": config, "objects": 2,
           "clusters_per_run": -5, "libraries": {}, "clusters": []}
    path = tmp_path / "digest.json"
    path.write_text(json.dumps(doc))
    for extra in ([], ["--format", "json"]):
        assert main(["report", str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert "malformed digest: bad or missing config" in captured.err and not captured.out


def test_extract_without_lemmas_exits_2(tmp_path, capsys):
    definition, empty = tmp_path / "none.v", tmp_path / "empty.v"
    definition.write_text("Definition one := 1.\n")
    empty.write_text("")
    out = tmp_path / "c"
    assert main(["extract", "--lib", f"t:{definition}", "--lib", f"u:{empty}", "--out", str(out)]) == 2
    assert f"hold no proved lemma: {definition}, {empty}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_extract_nonpositive_patch_len_is_usage_error(tmp_path, capsys, value):
    out = tmp_path / "c.corpus"
    with pytest.raises(SystemExit) as exc:
        main(extract_args(out, [("ssrnat", FIXTURES / "ssr_nat.v")]) + ["--patch-len", value])
    assert exc.value.code == 2
    assert "--patch-len" in capsys.readouterr().err
    assert not out.exists()


def test_extract_reads_a_library_that_starts_with_a_bom(tmp_path, capsys):
    library = tmp_path / "bom.v"
    library.write_bytes(b"\xef\xbb\xbfLemma a1 : x = x.\nProof.\nby [].\nQed.\n\n"
                        b"Lemma a2 : y = y.\nProof.\nby [].\nQed.\n")
    out = tmp_path / "c"
    assert main(["extract", f"--lib=A:{library}", "--out", str(out)]) == 0
    assert "A: 2 lemmas" in capsys.readouterr().out
    assert load(out).names == ["a1", "a2"]


def _trace_record(lemma: str, step: int) -> bytes:
    return json.dumps({"lemma": lemma, "library": "l", "step_index": step, "tactic_line": "by [].",
                       "goal_before": "a = b", "subgoals_after": 0}).encode()


@pytest.mark.parametrize("name, data, line", [
    ("lib.v", b"Lemma a1 : x = x.\nProof. by []. Qed.\nLemma a2 : \xff = y.\nProof. by []. Qed.\n", 3),
    ("bom.v", b"\xef\xbb\xbfLemma a1 : x = x.\nProof. by \xff. Qed.\n", 2),
    ("lib.jsonl", _trace_record("x", 1) + b"\n\n" + _trace_record("x", 2).replace(b"by", b"\xffby"), 3),
    # a trace counts a lone carriage return as a line break, as its reader does
    ("cr.jsonl", _trace_record("x", 1) + b"\r" + _trace_record("y", 1)[:-3] + b"\xe2\x82}", 2),
], ids=["library", "library with a bom", "trace", "trace split at carriage returns"])
def test_extract_on_a_file_that_is_not_utf8_exits_2_at_its_line(tmp_path, capsys, name, data, line):
    library = tmp_path / name
    library.write_bytes(data)
    out = tmp_path / "c"
    assert main(["extract", f"--lib=A:{library}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {library}:{line}: not UTF-8: byte 0x"), err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_hint_on_a_query_that_is_not_utf8_exits_2_at_its_line(corpus_file, tmp_path, capsys):
    query = tmp_path / "query.v"
    query.write_bytes(b"Lemma q : x = x.\nProof.\nrewrite \xff.\n")
    assert main(["hint", "--corpus", str(corpus_file), "--query", str(query), "--runs", "2"]) == 2
    assert capsys.readouterr().err == f"parse error: {query}:3: not UTF-8: byte 0xff (invalid start byte)\n"


def test_a_bom_before_a_trace_and_a_query_changes_no_output(corpus_file, tmp_path, capsys):
    libs = [("ssrbool", FIXTURES / "ssr_bool.v"), ("matrix", FIXTURES / "matrix_trace.jsonl")]
    with_bom = []
    for tag, path in libs:
        copy = tmp_path / path.name
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        with_bom.append((tag, copy))
    counts = []  # the per-library lemma counts; the last line names the output file
    for name, lib_paths in (("plain", libs), ("bom", with_bom)):
        assert main(extract_args(tmp_path / name, lib_paths)) == 0
        counts.append(capsys.readouterr().out.splitlines()[:-1])
    assert counts[0] == counts[1] and "matrix: 2 lemmas" in counts[0]
    assert (tmp_path / "bom").read_bytes() == (tmp_path / "plain").read_bytes()

    query = tmp_path / "query.v"
    query.write_bytes(b"\xef\xbb\xbf" + (HINT / "hint_query.v").read_bytes())
    hints = []
    for path in (HINT / "hint_query.v", query):
        assert main(["hint", "--corpus", str(corpus_file), "--query", str(path),
                     "--granularity", "4", "--seed", "3", "--runs", "50"]) == 0
        hints.append(capsys.readouterr().out)
    assert hints[0] == hints[1] and "gsum_expand_l" in hints[0]


def test_extract_ill_typed_trace_exits_2(tmp_path):
    trace = tmp_path / "lib.jsonl"
    trace.write_text(json.dumps({"lemma": ["x"], "library": "l", "step_index": 1,
                                 "tactic_line": "by [].", "goal_before": "a = b",
                                 "subgoals_after": 0}) + "\n")
    assert main(["extract", "--lib", f"l:{trace}", "--out", str(tmp_path / "c")]) == 2


def test_extract_trace_with_an_overlong_integer_exits_2_at_its_line(tmp_path, capsys):
    trace = tmp_path / "huge.jsonl"
    record = json.dumps({"lemma": "x", "library": "l", "step_index": 1, "tactic_line": "by [].",
                         "goal_before": "a = b", "subgoals_after": 0})
    huge = record.replace('"subgoals_after": 0', '"subgoals_after": ' + "1" * 4400)
    trace.write_text(record + "\n\n" + huge + "\n")
    out = tmp_path / "c"
    assert main(["extract", "--lib", f"l:{trace}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {trace}:3: bad trace record: ")
    assert not out.exists()


def test_extract_trace_with_missing_steps_exits_2(tmp_path, capsys):
    trace = tmp_path / "gap.jsonl"
    trace.write_text("".join(json.dumps({"lemma": "x", "library": "l", "step_index": idx,
                                         "tactic_line": "by [].", "goal_before": "a = b",
                                         "subgoals_after": 0}) + "\n" for idx in (2, 5)))
    out = tmp_path / "c"
    assert main(["extract", "--lib", f"l:{trace}", "--out", str(out)]) == 2
    assert f"{trace}:1: missing step 1 for x" in capsys.readouterr().err
    assert not out.exists()


def test_extract_trace_lemma_named_as_the_query_row_exits_2(tmp_path, capsys):
    # stored, such a lemma would be the row that hint takes for the query
    trace = tmp_path / "query.jsonl"
    trace.write_text("".join(json.dumps({"lemma": name, "library": "l", "step_index": 1,
                                         "tactic_line": "by [].", "goal_before": "a = b",
                                         "subgoals_after": 0}) + "\n"
                             for name in ("a", "b", "?query", "c")))
    out = tmp_path / "c"
    assert main(["extract", "--lib", f"l:{trace}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"parse error: {trace}:3: lemma must be an identifier\n"
    assert not out.exists()


def _outputs_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse ends a usage error this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _outputs_in_a_process_of_its_own(argv: list[str]) -> tuple[int, str, str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "proofmine", *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_successive_main_calls_give_what_separate_processes_give(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths, so both sides print the same text
    monkeypatch.delenv("PROOFMINE_SEED", raising=False)
    query = str(HINT / "hint_query.v")
    commands = [
        extract_args("c.corpus", HINT_LIBS[:3]),
        ["cluster", "--corpus", "c.corpus", "--out", "d.json", "--runs", "3", "--seed", "4"],
        ["report", "d.json", "--format", "json"],
        ["hint", "--corpus", "c.corpus", "--query", query, "--algorithm", "farthest-first",
         "--granularity", "5", "--runs", "4"],
        ["cluster", "--corpus", "c.corpus", "--out", "d.json", "--freq-threshold", "0.3", "--runs", "2"],
        ["report", "d.json"],
        ["hint", "--corpus", "c.corpus", "--query", query, "--runs", "2", "--freq-threshold", "1.0"],
        ["cluster", "--corpus", "c.corpus", "--out", "d.json", "--granularity", "9"],  # usage error
        ["report", "missing.json"],
    ]
    for argv in commands:
        assert _outputs_in_process(argv) == _outputs_in_a_process_of_its_own(argv), argv


def test_extract_feature_dump_matches_golden(tmp_path, capsys):
    dump = tmp_path / "features.jsonl"
    assert main(["extract", *FIXTURE_LIBS, "--out", str(tmp_path / "c"),
                 "--features", str(dump)]) == 0
    assert dump.read_bytes() == (GOLDENS / "extract_features.jsonl").read_bytes()


def test_cluster_report_matches_golden(tmp_path, capsys):
    corpus = tmp_path / "c"
    assert main(["extract", *FIXTURE_LIBS, "--out", str(corpus)]) == 0
    capsys.readouterr()
    assert main(["cluster", "--corpus", str(corpus), "--out", str(tmp_path / "d"),
                 "--runs", "3", "--seed", "7"]) == 0
    assert capsys.readouterr().out == (GOLDENS / "cluster_runs3_seed7.txt").read_text()


@pytest.mark.parametrize("depth, code", [(300, 0), (400, 2), (2000, 2)])
def test_deeply_nested_statement_is_a_parse_error(corpus_file, tmp_path, depth, code):
    statement = "(" * depth + "x" + ")" * depth
    library = tmp_path / "deep.v"
    library.write_text(f"Lemma deep : {statement}.\nProof. by []. Qed.\n")
    assert main(extract_args(tmp_path / "c.corpus", [("deep", library)])) == code
    query = tmp_path / "query.v"
    query.write_text(f"Lemma deep : {statement}.\nProof. by [].\n")
    assert main(["hint", "--corpus", str(corpus_file), "--query", str(query), "--runs", "2"]) == code


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(mutated_inputs())
def test_mutated_inputs_end_in_a_documented_exit_code(corpus_file, fuzz_dir, case):
    path, text = case
    mutant = fuzz_dir / f"mutant{path.suffix}"
    mutant.write_text(text, encoding="utf-8")
    assert main(extract_args(fuzz_dir / "c.corpus", [("fuzz", mutant)])) in (0, 2, 3, 4)
    assert main(["hint", "--corpus", str(corpus_file), "--query", str(mutant), "--runs", "2"]) in (0, 2, 3, 4)


# JSON nested far deeper than the interpreter's recursion limit
_DEEP = "[" * 100_000


@pytest.mark.parametrize("name, text, command, code", [
    ("c.corpus", _DEEP, "cluster", 3),
    ("d.json", _DEEP, "report", 2),
    ("t.jsonl", '{"lemma": ' + _DEEP, "extract", 2),
], ids=["corpus header", "digest", "trace line"])
def test_deeply_nested_json_is_a_documented_error(tmp_path, capsys, name, text, command, code):
    path = tmp_path / name
    path.write_text(text + "\n")
    args = {"cluster": ["cluster", "--corpus", str(path), "--out", str(tmp_path / "d")],
            "report": ["report", str(path)],
            "extract": extract_args(tmp_path / "c", [("t", path)])}[command]
    assert main(args) == code
    assert "Traceback" not in capsys.readouterr().err


_JSON_SNIPPETS = ['"', ",", ":", "[", "]", "{", "}", "[]", "{}", '""', '"x"', "null", "true", "0", "-1",
                  "1e400", "1" * 400, "\n", _DEEP]


@functools.cache
def saved_file_text(kind: str) -> str:
    """The text of a corpus file saved from the hint libraries, or of a digest written from it."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        corpus, digest = Path(tmp) / "c.corpus", Path(tmp) / "d.json"
        assert main(extract_args(corpus)) == 0
        assert main(["cluster", "--corpus", str(corpus), "--out", str(digest), "--runs", "2"]) == 0
        return {"corpus": corpus, "digest": digest}[kind].read_text(encoding="utf-8")


def mutated_saved_files():
    """(kind, mutated text) of a saved corpus or digest file; the files are written on first draw."""
    return st.sampled_from(("corpus", "digest")).flatmap(
        lambda kind: st.tuples(st.just(kind), mutated(saved_file_text(kind), _JSON_SNIPPETS)))


@settings(max_examples=200, deadline=None)
@example(case=("corpus", _DEEP), reseal=False)
@example(case=("corpus", "\n" + _DEEP), reseal=True)
@example(case=("digest", _DEEP), reseal=False)
@given(case=mutated_saved_files(), reseal=st.booleans())
def test_mutated_corpus_and_digest_end_in_a_documented_exit_code(fuzz_dir, case, reseal):
    kind, text = case
    if reseal and kind == "corpus":  # a checksum that matches the mutated payload, so it gets decoded
        payload = text.partition("\n")[2]
        header = {"format": CORPUS_FORMAT, "checksum": hashlib.sha256(payload.encode("utf-8")).hexdigest()}
        text = json.dumps(header) + "\n" + payload
    mutant = fuzz_dir / "mutant"
    mutant.write_text(text, encoding="utf-8")
    for args in (["cluster", "--corpus", str(mutant), "--out", str(fuzz_dir / "d.json"), "--runs", "2"],
                 ["hint", "--corpus", str(mutant), "--query", str(HINT / "hint_query.v"), "--runs", "2"],
                 ["report", str(mutant)]):
        assert main(args) in (0, 2, 3, 4)
