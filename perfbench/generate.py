"""Seeded input generators for the benchmark workloads.

Every generator takes the benchmark seed and returns plain source text; the
program under test only ever sees the files written from it.  The generators
use the standard library's `random.Random`, seeded with a string, so the same
seed gives byte-identical inputs on any platform and numpy version.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

QUERY_NAME = "query_goal"

# ---------------------------------------------------------------------------
# duplicate-heavy templates
#
# A frozen copy of the template corpus the test suite uses for random
# libraries.  It is copied rather than imported so that editing a test cannot
# change the workload.  Seven values of k over six statements and seven proofs
# encode to only about 76 distinct feature rows, however many lemmas are drawn.

_DUP_STATEMENTS = [
    "wrapq (stage{k} x) = wrapq x",
    "forall (a b : nat), plus{k} a b = plus{k} b a",
    "okq p -> okq (step{k} p)",
    "runq (load{k} u) = normq u",
    "idemq gadget{k}",
    "forall s, flat{k} s ++ tail{k} s = flat{k} s",
]

_DUP_PROOFS = [
    ["by case"],
    ["by move=> a b; rewrite rew{k} comm{k}"],
    ["elim: s => //= x s IH", "by rewrite IH base{k}"],
    ["intros", "unfold gadget{k}", "trivial"],
    ["apply helper{k}", "exists (probe x)", "by []"],
    ["move => H; split; rewrite H use{k}"],
    ["by rewrite !norm{k} /flat{k}"],
]


def _dup_lemma(rng: random.Random) -> tuple[str, list[str]]:
    k = rng.randrange(7)
    statement = rng.choice(_DUP_STATEMENTS).format(k=k)
    steps = [s.format(k=k) for s in rng.choice(_DUP_PROOFS)]
    return statement, steps


# ---------------------------------------------------------------------------
# compositional lemmas: random statement trees and random tactic sequences

_FUNCTIONS = [f"{stem}{i}" for stem in ("f", "g", "mapq", "foldq", "sizeq", "revq", "catq", "nthq")
              for i in range(6)]
_PREDICATES = [f"{stem}{i}" for stem in ("okq", "sortedq", "uniqq", "primeq", "evenq")
               for i in range(4)]
_CONSTANTS = ["0", "1", "2", "nil", "true", "false", "e0", "idq"]
_BINARY_OPS = ["+", "*", "-", "++", "::", "^"]
_RELATIONS = ["=", "==", "<=", "<", "!="]
_CONNECTIVES = ["->", "/\\", "\\/", "&&", "||"]
_TYPES = ["nat", "seq nat", "bool", "int", "mx"]
_LEMMAS = [f"{stem}{i}" for stem in ("addnC", "mulnA", "catA", "revK", "sizeq_cat", "foldqE",
                                     "mapq_comp", "nthq_default", "leq_trans", "eqP")
           for i in range(8)]
_UNARY_TACTICS = ["split", "simpl", "trivial", "tauto", "contradiction", "auto", "intros"]


def _term(rng: random.Random, depth: int, bound: list[str]) -> str:
    """A random expression over the benchmark's symbol vocabulary."""
    if depth <= 0 or rng.random() < 0.2:
        if bound and rng.random() < 0.6:
            return rng.choice(bound)
        return rng.choice(_CONSTANTS)
    kind = rng.random()
    if kind < 0.45:
        arity = rng.randint(1, 3)
        args = " ".join(_atom(rng, depth - 1, bound) for _ in range(arity))
        return f"{rng.choice(_FUNCTIONS)} {args}"
    return f"{_term(rng, depth - 1, bound)} {rng.choice(_BINARY_OPS)} {_atom(rng, depth - 1, bound)}"


def _atom(rng: random.Random, depth: int, bound: list[str]) -> str:
    text = _term(rng, depth, bound)
    return text if " " not in text else f"({text})"


def _proposition(rng: random.Random, depth: int, bound: list[str]) -> str:
    kind = rng.random()
    if depth > 1 and kind < 0.3:
        left = _proposition(rng, depth - 1, bound)
        right = _proposition(rng, depth - 1, bound)
        return f"({left}) {rng.choice(_CONNECTIVES)} {right}"
    if kind < 0.45:
        return f"{rng.choice(_PREDICATES)} {_atom(rng, depth, bound)}"
    return f"{_term(rng, depth, bound)} {rng.choice(_RELATIONS)} {_term(rng, depth, bound)}"


def _statement(rng: random.Random, depth: int) -> tuple[str, list[str]]:
    """A closed statement, sometimes under a forall binder, and its bound names."""
    names = rng.sample(["x", "y", "z", "s", "t", "n", "m", "p"], rng.randint(1, 3))
    body = _proposition(rng, depth, names)
    if rng.random() < 0.7:
        binders = " ".join(f"({v} : {rng.choice(_TYPES)})" for v in names)
        return f"forall {binders}, {body}", names
    return body, names


def _tactic(rng: random.Random, hyps: list[str], ihs: list[str], names: list[str]) -> str:
    """One tactic application; introduces hypothesis names into hyps and ihs."""
    pick = rng.randrange(15)
    if pick == 0:
        new = [f"H{len(hyps) + i}" for i in range(rng.randint(1, 3))]
        hyps.extend(new)
        return "move=> " + " ".join(new)
    if pick == 1:
        ih = f"IH{len(ihs)}"
        ihs.append(ih)
        return f"elim: {rng.choice(names)} => [|{rng.choice(names)} {ih}]"
    if pick == 2:
        ih = f"IH{len(ihs)}"
        ihs.append(ih)
        return f"induction {rng.choice(names)} as [|k {ih}]"
    if pick == 3:
        return f"case: {rng.choice(hyps or names)}"
    if pick in (4, 5):
        pool = _LEMMAS + hyps + ihs
        args = " ".join(rng.choice(["", "-", "!"]) + rng.choice(pool)
                        for _ in range(rng.randint(1, 4)))
        return f"rewrite {args}"
    if pick == 6:
        return f"apply {rng.choice(_LEMMAS + hyps)}"
    if pick == 7:
        return f"exact {rng.choice(hyps + ihs + _LEMMAS)}"
    if pick == 8:
        return f"exists ({rng.choice(_FUNCTIONS)} {rng.choice(names)})"
    if pick == 9:
        new = f"H{len(hyps)}"
        hyps.append(new)
        return f"intro {new}"
    if pick == 10:
        return f"unfold {rng.choice(_FUNCTIONS)}"
    if pick == 11:
        return f"destruct {rng.choice(hyps or names)}"
    if pick == 12:
        return f"by rewrite {rng.choice(_LEMMAS)}"
    return rng.choice(_UNARY_TACTICS)


def _tactic_line(rng: random.Random, hyps: list[str], ihs: list[str], names: list[str]) -> str:
    first = _tactic(rng, hyps, ihs, names)
    if rng.random() < 0.2:
        return f"{first}; {_tactic(rng, hyps, ihs, names)}"
    return first


def _compositional_lemma(rng: random.Random, steps: tuple[int, int],
                         depth: int) -> tuple[str, list[str]]:
    statement, names = _statement(rng, depth)
    hyps: list[str] = []
    ihs: list[str] = []
    count = rng.randint(*steps)
    return statement, [_tactic_line(rng, hyps, ihs, names) for _ in range(count)]


# ---------------------------------------------------------------------------
# file writers


def vernacular(lemmas: list[tuple[str, str, list[str]]], *, closed: bool = True) -> str:
    """`.v` source for (name, statement, steps) triples."""
    chunks = []
    for name, statement, steps in lemmas:
        body = "\n".join(f"{step}." for step in steps)
        closer = "\nQed." if closed else ""
        chunks.append(f"Lemma {name} : {statement}.\nProof.\n{body}{closer}\n")
    return "\n".join(chunks)


def trace_jsonl(rng: random.Random, library: str,
                lemmas: list[tuple[str, str, list[str]]], depth: int) -> str:
    """Trace JSON Lines ("proofmine trace v1"): one record per step with goal and fan-out."""
    lines = []
    for name, statement, steps in lemmas:
        goal = statement
        for index, step in enumerate(steps, start=1):
            lines.append(json.dumps({
                "lemma": name,
                "library": library,
                "step_index": index,
                "tactic_line": f"{step}.",
                "goal_before": goal,
                "subgoals_after": rng.randint(0, 3),
            }, sort_keys=True))
            goal = _proposition(rng, depth, ["x", "y", "s"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    """Corpus shape and CLI settings of one workload; why it exists is in BENCHMARK.json."""

    name: str
    templates: bool  # duplicate-heavy templates, else compositional lemmas
    libraries: int
    lemmas_per_library: int
    algorithm: str
    runs: int
    steps: tuple[int, int] = (1, 8)
    depth: int = 3
    trace_libraries: int = 0  # the last libraries are written as trace JSONL

    @property
    def lemmas(self) -> int:
        return self.libraries * self.lemmas_per_library

    def lemma(self, rng: random.Random) -> tuple[str, list[str]]:
        if self.templates:
            return _dup_lemma(rng)
        return _compositional_lemma(rng, self.steps, self.depth)


WORKLOADS = {
    w.name: w for w in (
        # m = 1040 gives n = 148 clusters per run, well above the ~76 distinct rows
        Workload("dup-kmeans", templates=True, libraries=4, lemmas_per_library=260,
                 algorithm="kmeans", runs=1),
        # m = 240 keeps each command near 1 s, so one run holds about ten samples of each
        Workload("long-proofs-ff", templates=False, libraries=8, lemmas_per_library=30,
                 algorithm="farthest-first", runs=20, steps=(20, 40), depth=3,
                 trace_libraries=4),
        # Not listed in BENCHMARK.json: EM iteration counts depend on the input, so
        # its timings spread across seeds by more than the bounds allow.
        Workload("distinct-em", templates=False, libraries=4, lemmas_per_library=150,
                 algorithm="em", runs=2, depth=2),
    )
}


@dataclass
class Inputs:
    """Files written for one workload and the facts the checks compare against."""

    libraries: list[tuple[str, Path]]  # (tag, path) in --lib order
    query: Path  # an unfinished proof of QUERY_NAME
    tags: dict[str, str]  # lemma name -> library tag


def generate(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's libraries and one partial-proof query under out_dir."""
    rng = random.Random(f"{workload.name}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    libraries: list[tuple[str, Path]] = []
    tags: dict[str, str] = {}
    for lib in range(workload.libraries):
        tag = f"lib{lib}"
        lemmas = []
        for i in range(workload.lemmas_per_library):
            statement, steps = workload.lemma(rng)
            lemmas.append((f"{tag}_{i:04d}", statement, steps))
            tags[f"{tag}_{i:04d}"] = tag
        if lib >= workload.libraries - workload.trace_libraries:
            path = out_dir / f"{tag}.jsonl"
            path.write_text(trace_jsonl(rng, tag, lemmas, workload.depth), encoding="utf-8")
        else:
            path = out_dir / f"{tag}.v"
            path.write_text(vernacular(lemmas), encoding="utf-8")
        libraries.append((tag, path))

    statement, steps = workload.lemma(rng)
    keep = min(len(steps), rng.randint(1, 5))
    query = out_dir / "query.v"
    query.write_text(vernacular([(QUERY_NAME, statement, steps[:keep])], closed=False),
                     encoding="utf-8")
    return Inputs(libraries=libraries, query=query, tags=tags)
