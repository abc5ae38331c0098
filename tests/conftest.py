import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from proofmine import Corpus, clustering, ingest
from proofmine.terms import _OP_ASSOC, _OP_LEVEL, _PREFIX, BINDERS, OPERATOR_LEVELS, TermTree

# every run tries the same examples, so a failure reproduces without a saved database
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = FIXTURES / "goldens"
HINT = FIXTURES / "hint"

GOLDEN_SOURCES = {
    "ssr_bool": FIXTURES / "ssr_bool.v",
    "ssr_fintype": FIXTURES / "ssr_fintype.v",
    "ssr_nat": FIXTURES / "ssr_nat.v",
    "ssr_seq": FIXTURES / "ssr_seq.v",
    "matrix_nilpotent": FIXTURES / "matrix_nilpotent.v",
    "coqeal_inv": FIXTURES / "coqeal_inv.v",
    "nash_binary": FIXTURES / "nash_binary.v",
    "nash_general": FIXTURES / "nash_general.v",
    "jvm_fact": FIXTURES / "jvm_fact.v",
    "jvm_expt": FIXTURES / "jvm_expt.v",
}

HINT_LIBS = [
    ("bigop", HINT / "hint_bigop.v"),
    ("lists", HINT / "hint_lists.v"),
    ("games", HINT / "hint_games.v"),
    ("vm", HINT / "hint_vm.v"),
]


def row_indices(points, rows) -> list[int]:
    """The index of the first point equal to each row: a run's centers as point indices."""
    return [int(np.flatnonzero((points == row).all(axis=1))[0]) for row in rows]


def em_with_responsibilities(points, n: int, seed: int):
    """One EM run and its final responsibilities, rebuilt from the last log-probabilities
    the run computed, as em_gaussian turns them into responsibilities."""
    seen, log_gaussian_prob = [], clustering._log_gaussian_prob

    def spy(*args):
        seen.append(log_gaussian_prob(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "_log_gaussian_prob", spy)
        result = clustering.em_gaussian(clustering.PointSet(points), n, seed)
    log_prob = seen[-1]
    return result, np.exp(log_prob - clustering._logsumexp(log_prob)[:, None])


def iter_nodes(tree):
    """Every node of a term tree in preorder, a shared subtree once per reference."""
    yield tree
    for child in tree.children:
        yield from iter_nodes(child)


def tactic_names(records) -> set[str]:
    """The tactic names of every step of records, as `build_encoding_table` takes them."""
    return {app.name for record in records for step in record.steps for app in step.tactics}


# ---------------------------------------------------------------------------
# term printing, for parse/print round trips

_APP_LEVEL = len(OPERATOR_LEVELS)
_ATOM_LEVEL = _APP_LEVEL + 1


def _node_level(node: TermTree) -> int:
    if node.symbol in BINDERS and len(node.children) == 1:
        return -1
    if node.symbol == "," and node.children:
        return _ATOM_LEVEL
    if node.symbol == ":" and len(node.children) == 2:
        return _ATOM_LEVEL
    if node.symbol in _PREFIX and len(node.children) == 1:
        return _APP_LEVEL
    if node.symbol in _OP_LEVEL and len(node.children) == 2:
        return _OP_LEVEL[node.symbol]
    if node.children:
        return _APP_LEVEL
    return _ATOM_LEVEL


def _app_operand(node: TermTree) -> str:
    rendered = format_term(node)
    return rendered if _node_level(node) >= _ATOM_LEVEL else f"({rendered})"


def format_term(node: TermTree) -> str:
    """Render a tree so that parse(format(t)) == t; binder names print as '_'."""
    sym = node.symbol
    if sym in BINDERS and len(node.children) == 1:
        body = format_term(node.children[0])
        return f"fun _ => {body}" if sym == "fun" else f"{sym} _, {body}"
    if sym == "," and node.children:
        return "(" + ", ".join(format_term(c) for c in node.children) + ")"
    if sym == ":" and len(node.children) == 2:
        return f"({format_term(node.children[0])} : {format_term(node.children[1])})"
    if sym in _PREFIX and len(node.children) == 1:
        child = node.children[0]
        inner = format_term(child)
        if _node_level(child) < _APP_LEVEL:
            inner = f"({inner})"
        return f"{sym} {inner}"
    if sym in _OP_LEVEL and len(node.children) == 2:
        lvl = _OP_LEVEL[sym]
        assoc = _OP_ASSOC[sym]
        left, right = node.children
        rendered_l = format_term(left)
        rendered_r = format_term(right)
        if _node_level(left) < lvl or (_node_level(left) == lvl and assoc == "right"):
            rendered_l = f"({rendered_l})"
        if _node_level(right) < lvl or (_node_level(right) == lvl and assoc == "left"):
            rendered_r = f"({rendered_r})"
        return f"{rendered_l} {sym} {rendered_r}"
    if node.children:
        if sym == "@":
            return " ".join(_app_operand(c) for c in node.children)
        return " ".join([sym] + [_app_operand(c) for c in node.children])
    return sym


def load_golden(name: str) -> dict:
    return json.loads((GOLDENS / f"{name}.json").read_text())


def compare_with_golden(records, golden):
    """Match parsed records against per-lemma step/tactic/argument labels."""
    by_name = {r.name: r for r in records}
    expected_names = [entry["name"] for entry in golden["lemmas"]]
    assert sorted(by_name) == sorted(expected_names)
    for entry in golden["lemmas"]:
        record = by_name[entry["name"]]
        assert len(record.steps) == len(entry["steps"]), entry["name"]
        for index, (step, want) in enumerate(zip(record.steps, entry["steps"]), start=1):
            got_tactics = [t.name for t in step.tactics]
            want_tactics = [t["name"] for t in want["tactics"]]
            assert got_tactics == want_tactics, (entry["name"], index)
            for tac, wtac in zip(step.tactics, want["tactics"]):
                got_args = [[a.text, a.kind.value] for a in tac.arguments]
                assert got_args == wtac["args"], (entry["name"], index, tac.name)
            if "subgoals_after" in want:
                assert step.subgoals_after == want["subgoals_after"], (entry["name"], index)


@pytest.fixture(scope="session")
def hint_corpus() -> Corpus:
    return ingest([p for _, p in HINT_LIBS], [t for t, _ in HINT_LIBS])


_STATEMENT_TEMPLATES = [
    "wrapq (stage{k} x) = wrapq x",
    "forall (a b : nat), plus{k} a b = plus{k} b a",
    "okq p -> okq (step{k} p)",
    "runq (load{k} u) = normq u",
    "idemq gadget{k}",
    "forall s, flat{k} s ++ tail{k} s = flat{k} s",
]

_PROOF_TEMPLATES = [
    "Proof. by case. Qed.",
    "Proof. by move=> a b; rewrite rew{k} comm{k}. Qed.",
    "Proof. elim: s => //= x s IH. by rewrite IH base{k}. Qed.",
    "Proof. intros. unfold gadget{k}. trivial. Qed.",
    "Proof. apply helper{k}. exists (probe x). by []. Qed.",
    "Proof. move => H; split; rewrite H use{k}. Qed.",
    "Proof. by rewrite !norm{k} /flat{k}. Qed.",
]


def random_library_source(rng, count: int, prefix: str) -> str:
    """Synthesizes a parseable library with `count` lemmas and varied vocabulary."""
    chunks = []
    for i in range(count):
        k = int(rng.integers(0, 7))
        statement = _STATEMENT_TEMPLATES[int(rng.integers(len(_STATEMENT_TEMPLATES)))]
        proof = _PROOF_TEMPLATES[int(rng.integers(len(_PROOF_TEMPLATES)))]
        chunks.append(
            f"Lemma {prefix}_{i:03d} : {statement.format(k=k)}.\n{proof.format(k=k)}\n")
    return "\n".join(chunks)


_TRACE_TACTICS = [
    "by case.", "move=> a b.", "rewrite rew{k} comm{k}.", "elim: s => //= x s IH.",
    "apply helper{k}.", "exists (probe x).", "split; trivial.",
]


def random_trace_source(rng, count: int, prefix: str, library: str) -> str:
    """Synthesizes a trace file with `count` lemmas of 1-4 steps over the statement templates."""
    lines = []
    for i in range(count):
        k = int(rng.integers(0, 7))
        for step in range(1, int(rng.integers(1, 5)) + 1):
            goal = _STATEMENT_TEMPLATES[int(rng.integers(len(_STATEMENT_TEMPLATES)))]
            tactic = _TRACE_TACTICS[int(rng.integers(len(_TRACE_TACTICS)))]
            lines.append(json.dumps({
                "lemma": f"{prefix}_{i:03d}", "library": library, "step_index": step,
                "tactic_line": tactic.format(k=k), "goal_before": goal.format(k=k),
                "subgoals_after": int(rng.integers(0, 3))}))
    return "\n".join(lines) + "\n"


def random_corpus(rng, tmp_path, *, max_lemmas=12, libraries=2, tag_prefix="lib") -> Corpus:
    paths, tags = [], []
    for lib in range(libraries):
        count = int(rng.integers(2, max_lemmas + 1))
        source = random_library_source(rng, count, f"{tag_prefix}{lib}")
        path = tmp_path / f"{tag_prefix}{lib}_{rng.integers(1 << 30)}.v"
        path.write_text(source)
        paths.append(path)
        tags.append(f"{tag_prefix}{lib}")
    return ingest(paths, tags)


@pytest.fixture(scope="session")
def paper_corpus() -> Corpus:
    paths = [GOLDEN_SOURCES[k] for k in ("ssr_bool", "ssr_fintype", "ssr_nat", "ssr_seq")]
    tags = ["ssrbool", "fintype", "ssrnat", "seq"]
    return ingest(paths, tags)


# every input file the parsers read, grouped as libraries, the trace and the hint queries
PARSER_INPUT_GROUPS = (
    sorted(FIXTURES.glob("*.v")) + [p for _, p in HINT_LIBS],
    [FIXTURES / "matrix_trace.jsonl"],
    sorted(HINT.glob("hint_query*.v")),
)
PARSER_INPUTS = [path for group in PARSER_INPUT_GROUPS for path in group]

_SNIPPETS = [
    ".", ". ", "\n", " ", "Qed.", "Defined.", "Proof.", "Lemma dup : x = x.", "Theorem", ":", ";",
    "=>", "(", ")", "[", "]", "{", "}", "(*", "*)", '"', ",", "->", "forall", "by", "elim", "0",
    "-1", "true", "null", '"step_index": 0', "\\", "\u00e9",
]


@st.composite
def mutated(draw, source: str, snippets: list[str] = _SNIPPETS) -> str:
    """source after one to four deletions, insertions, replacements or duplications of a slice."""
    text = source
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 40)))
        op = draw(st.sampled_from(("delete", "insert", "replace", "duplicate")))
        if op == "delete":
            text = text[:i] + text[j:]
        elif op == "insert":
            text = text[:i] + draw(st.sampled_from(snippets)) + text[i:]
        elif op == "replace":
            text = text[:i] + draw(st.sampled_from(snippets)) + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def mutated_inputs():
    """(path, mutated text) for a fixture input file; each group is drawn equally often."""
    paths = st.one_of(*map(st.sampled_from, PARSER_INPUT_GROUPS))
    return paths.flatmap(lambda path: st.tuples(st.just(path), mutated(path.read_text(encoding="utf-8"))))
