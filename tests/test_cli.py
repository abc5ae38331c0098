import json

import pytest

from proofmine.cli import main
from proofmine.corpus import load

from conftest import FIXTURES, HINT, HINT_LIBS


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
    assert set(corpus.libraries) == {"ssrbool"}


def test_extract_two_lib_flags(tmp_path):
    out = tmp_path / "c.corpus"
    code = main(extract_args(out, [("ssrbool", FIXTURES / "ssr_bool.v"),
                                   ("seq", FIXTURES / "ssr_seq.v")]))
    assert code == 0
    assert set(load(out).libraries) == {"ssrbool", "seq"}


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


def test_corrupt_corpus_exits_3(tmp_path):
    bogus = tmp_path / "x.corpus"
    bogus.write_text("{not json")
    assert main(["cluster", "--corpus", str(bogus), "--out", str(tmp_path / "d")]) == 3


def test_report_on_bare_digest_exits_2(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text('{"format": "proofmine digest v1"}')
    assert main(["report", str(path)]) == 2
    assert "malformed digest" in capsys.readouterr().err


def test_extract_ill_typed_trace_exits_2(tmp_path):
    trace = tmp_path / "lib.jsonl"
    trace.write_text(json.dumps({"lemma": ["x"], "library": "l", "step_index": 1,
                                 "tactic_line": "by [].", "goal_before": "a = b",
                                 "subgoals_after": 0}) + "\n")
    assert main(["extract", "--lib", f"l:{trace}", "--out", str(tmp_path / "c")]) == 2
