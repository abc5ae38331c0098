"""Input rewrites that must leave every output unchanged, checked through the CLI.

Each case runs `extract`, `cluster` and `hint` on a set of libraries, then
again after one rewrite of the input files, and compares the corpus bytes,
the feature dump, the digest bytes and the hint stdout.  The libraries are
fixture files or generated ones.  Renaming a lemma is not such a rewrite:
rows are ordered by name and seeds pick row indices, so a rename is expected
to change a digest.
"""

import contextlib
import io
import json
import random
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from proofmine.cli import main

from conftest import GOLDEN_SOURCES, HINT, HINT_LIBS, random_library_source, random_trace_source

LEMMA_START = re.compile(r"^(?=(?:Lemma|Theorem|Corollary|Fact)\b)", re.MULTILINE)
PREAMBLE = "(* a (* nested *) comment *)\nRequire Import ssreflect.\n\n"
FIXTURE_LIBS = [(path.stem, path) for path in GOLDEN_SOURCES.values()] + HINT_LIBS
QUERIES = [HINT / "hint_query.v", HINT / "hint_query_prefix.v", HINT / "hint_query_detached.v"]
BOM = "\ufeff"
WHITESPACE_RUN = re.compile(r"\s+")
STATEMENT_END = re.compile(r"\.(?=\s|$)")
PROOF_END = re.compile(r"\b(?:Qed|Defined|Admitted)\.")
INTRO_PATTERN = re.compile(r"=>([^;.]*)")  # an intro pattern, up to the end of its tactic
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


@st.composite
def libraries(draw) -> list[tuple[str, list[str]]]:
    """(tag, file texts) per library, from the fixtures or generated."""
    if draw(st.booleans()):
        chosen = draw(st.lists(st.sampled_from(FIXTURE_LIBS), min_size=2, max_size=4,
                               unique_by=lambda lib: lib[0]))
        return [(tag, [path.read_text(encoding="utf-8")]) for tag, path in chosen]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return [(f"gen{i}", [random_library_source(rng, int(rng.integers(3, 16)), f"gen{i}")])
            for i in range(draw(st.integers(2, 4)))]


@st.composite
def cases(draw) -> tuple[list[tuple[str, list[str]]], Path, list[str]]:
    """Libraries, a hint query and the digest flags for one run of the pipeline."""
    flags = ["--algorithm", draw(st.sampled_from(["kmeans", "farthest-first"])),
             "--granularity", str(draw(st.integers(1, 5))),
             "--runs", str(draw(st.sampled_from([2, 5]))),
             "--freq-threshold", str(draw(st.sampled_from([0.3, 0.6, 1.0]))),
             "--seed", str(draw(st.integers(0, 50)))]
    return draw(libraries()), draw(st.sampled_from(QUERIES)), flags


@st.composite
def cases_with_traces(draw) -> tuple[list[tuple[str, list[str]]], Path, list[str]]:
    """A case whose libraries include one or two generated trace libraries."""
    libs, query, flags = draw(cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    traces = [(f"tr{i}", [random_trace_source(rng, int(rng.integers(2, 12)), f"tr{i}", f"tr{i}")])
              for i in range(draw(st.integers(1, 2)))]
    return libs + traces, query, flags


def _quiet_main(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def outputs(libs: list[tuple[str, list[str]]], query: Path, flags: list[str], *,
            rewrite_query=lambda text: text) -> tuple[bytes, bytes, bytes, str]:
    """Corpus bytes, feature dump, digest bytes and hint stdout for these libraries and the query
    text, rewritten."""
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        query_copy = work / "query.v"
        query_copy.write_text(rewrite_query(query.read_text(encoding="utf-8")), encoding="utf-8")
        lib_flags = []
        for i, (tag, texts) in enumerate(libs):
            for j, text in enumerate(texts):
                path = work / f"{i}_{j}.v"
                path.write_text(text, encoding="utf-8")
                lib_flags.append(f"--lib={tag}:{path}")
        corpus, features, digest = work / "corpus", work / "features.jsonl", work / "digest.json"
        _quiet_main(["extract", *lib_flags, "--out", str(corpus), "--features", str(features)])
        _quiet_main(["cluster", "--corpus", str(corpus), "--out", str(digest), *flags])
        hint = _quiet_main(["hint", "--corpus", str(corpus), "--query", str(query_copy), *flags])
        return corpus.read_bytes(), features.read_bytes(), digest.read_bytes(), hint


def doubled_whitespace(text: str) -> str:
    """The text with every whitespace run written twice: inside statements, goals and tactic
    lines, and between sentences and trace records."""
    return WHITESPACE_RUN.sub(lambda run: run.group() * 2, text)


def split_in_two(text: str, at: int) -> list[str]:
    """The text cut at the start of one of its lemmas, other than the first."""
    starts = [m.start() for m in LEMMA_START.finditer(text)][1:]
    cut = starts[at % len(starts)]
    return [text[:cut], text[cut:]]


def split_by_lemma(text: str, seed: int) -> list[str]:
    """The records of a trace in two files, each lemma's records whole and in order in one of them."""
    lines = text.splitlines(keepends=True)
    lemmas = [json.loads(line)["lemma"] for line in lines]
    names = list(dict.fromkeys(lemmas))
    moved = set(random.Random(seed).sample(names, 1 + seed % (len(names) - 1)))
    return ["".join(line for line, lemma in zip(lines, lemmas) if lemma not in moved),
            "".join(line for line, lemma in zip(lines, lemmas) if lemma in moved)]


def introduced_names(line: str):
    """(position of `=>`, name) for each name an intro pattern in the line binds: views,
    wildcards and rewrite arrows bind none."""
    for match in INTRO_PATTERN.finditer(line):
        for piece in re.split(r"[\s|\[\]\(\)\{\}]+", match.group(1)):
            if IDENT.fullmatch(piece):
                yield match.start(), piece


def renamed(text: str, name: str) -> str:
    """The text with every use of the identifier `name` written as `name` + "fresh"."""
    return re.sub(rf"(?<![\w'.]){re.escape(name)}(?![\w'])", name + "fresh", text)


def intro_renamed(text: str, which: int) -> str:
    """The text with one name that one proof binds with `=>` renamed to a fresh name, from
    that `=>` to the end of the proof.  A vernacular proof ends at its Qed, Defined or
    Admitted; a trace proof is its lemma's tactic lines in file order.  A text in which no
    proof binds a name comes back unchanged."""
    if text.lstrip().startswith("{"):
        records = [json.loads(line) for line in text.splitlines()]
        spots = [(i, at, name) for i, record in enumerate(records)
                 for at, name in introduced_names(record["tactic_line"])]
        if not spots:
            return text
        first, at, name = spots[which % len(spots)]
        for i, record in enumerate(records[first:], start=first):
            if record["lemma"] == records[first]["lemma"]:
                line = record["tactic_line"]
                start = at if i == first else 0
                record["tactic_line"] = line[:start] + renamed(line[start:], name)
        return "".join(json.dumps(record) + "\n" for record in records)
    starts = [m.start() for m in LEMMA_START.finditer(text)]
    spots = []
    for start, stop in zip(starts, starts[1:] + [len(text)]):
        body = STATEMENT_END.search(text, start, stop).end()
        end = PROOF_END.search(text, body, stop)
        end = end.end() if end else stop
        spots += [(body + at, end, name) for at, name in introduced_names(text[body:end])]
    if not spots:
        return text
    at, end, name = spots[which % len(spots)]
    return text[:at] + renamed(text[at:end], name) + text[end:]


def lemmas_reordered(text: str, seed: int) -> str:
    """The text with its lemmas in a shuffled order.

    A vernacular lemma moves with everything up to the next lemma; what comes
    before the first lemma stays first.  A trace lemma moves with all its
    records, in their order.
    """
    rng = random.Random(seed)
    if text.lstrip().startswith("{"):
        by_lemma: dict[str, list[str]] = {}
        for line in text.splitlines(keepends=True):
            by_lemma.setdefault(json.loads(line)["lemma"], []).append(line)
        groups = list(by_lemma.values())
        rng.shuffle(groups)
        return "".join(line for group in groups for line in group)
    starts = [m.start() for m in LEMMA_START.finditer(text)]
    chunks = [text[a:b] for a, b in zip(starts, starts[1:] + [len(text)])]
    rng.shuffle(chunks)
    return text[:starts[0]] + "".join(chunk if chunk.endswith("\n") else chunk + "\n" for chunk in chunks)


@settings(max_examples=40, deadline=None)
@given(cases())
def test_reversing_the_lib_order_changes_no_output(case):
    libs, query, flags = case
    assert outputs(libs[::-1], query, flags) == outputs(libs, query, flags)


@settings(max_examples=40, deadline=None)
@given(cases(), st.integers(0, 1000), st.integers(0, 1000))
def test_splitting_a_file_in_two_under_its_tag_changes_no_output(case, which, at):
    libs, query, flags = case
    tag, (text,) = libs[which % len(libs)]
    assert len(LEMMA_START.findall(text)) >= 2
    split = [(t, split_in_two(text, at) if t == tag else texts) for t, texts in libs]
    assert outputs(split, query, flags) == outputs(libs, query, flags)


@settings(max_examples=40, deadline=None)
@given(cases())
def test_comment_require_and_blank_line_before_every_lemma_change_no_output(case):
    libs, query, flags = case
    padded = [(tag, [LEMMA_START.sub(PREAMBLE, text) for text in texts]) for tag, texts in libs]
    for (_, (text,)), (_, (new,)) in zip(libs, padded):
        assert new.count(PREAMBLE) == len(LEMMA_START.findall(text)) > 0
    assert outputs(padded, query, flags) == outputs(libs, query, flags)


@settings(max_examples=30, deadline=None)
@given(cases_with_traces(), st.integers(0, 1000), st.integers(0, 1000))
def test_splitting_a_trace_by_lemma_under_its_tag_changes_no_output(case, which, seed):
    libs, query, flags = case
    traces = [lib for lib in libs if lib[0].startswith("tr")]
    tag, (text,) = traces[which % len(traces)]
    parts = split_by_lemma(text, seed)
    assert all(parts)
    split = [(t, parts if t == tag else texts) for t, texts in libs]
    assert outputs(split, query, flags) == outputs(libs, query, flags)


@settings(max_examples=30, deadline=None)
@given(cases_with_traces())
def test_a_bom_before_every_library_file_and_the_query_changes_no_output(case):
    libs, query, flags = case
    with_bom = [(tag, [BOM + text for text in texts]) for tag, texts in libs]
    assert outputs(with_bom, query, flags, rewrite_query=lambda text: BOM + text) == outputs(libs, query, flags)


@settings(max_examples=30, deadline=None)
@given(cases_with_traces())
def test_doubling_every_whitespace_run_changes_no_output(case):
    libs, query, flags = case
    doubled = [(tag, [doubled_whitespace(text) for text in texts]) for tag, texts in libs]
    for (_, texts), (_, new) in zip(libs, doubled):
        assert new != texts
    assert outputs(doubled, query, flags, rewrite_query=doubled_whitespace) == outputs(libs, query, flags)


@settings(max_examples=40, deadline=None)
@given(cases_with_traces(), st.integers(0, 2**16))
def test_reordering_the_lemmas_within_each_file_changes_no_output(case, seed):
    # the parser's and the encoder's per-file memos fill in the order lemmas come
    libs, query, flags = case
    reordered = [(tag, [lemmas_reordered(text, seed + i) for text in texts])
                 for i, (tag, texts) in enumerate(libs)]
    assert outputs(reordered, query, flags) == outputs(libs, query, flags)


@settings(max_examples=40, deadline=None)
@given(cases_with_traces(), st.integers(0, 2**16))
def test_renaming_a_name_one_proof_introduces_changes_no_output(case, which):
    # the parser's per-file proof memos see new keys with the same meaning
    libs, query, flags = case
    texts = [text for _, texts in libs for text in texts]
    renamed_libs = [(tag, [intro_renamed(text, which + i) for text in texts])
                    for i, (tag, texts) in enumerate(libs)]
    changed = [new for (_, old), (_, new) in zip(libs, renamed_libs) if new != old]
    assert changed, "no proof binds a name"
    assert all("fresh" not in text for text in texts)
    assert outputs(renamed_libs, query, flags) == outputs(libs, query, flags)
