"""Numeric feature extraction: five proof steps become one 40-slot vector.

Per-step slots: (1) tactic-name codes folded into one decimal, (2) tactic
count, (3) argument-kind codes folded likewise, (4) argument relation code,
(5-7) the top three goal symbols, (8) subgoal fan-out (-1 when unknown).
Code 0 always means "absent/unknown".  Encoding has two halves:
`lemma_patches` keeps what the slots need and no vocabulary does, and the
coding step maps it to numbers once the corpus vocabulary is known.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .script import ArgumentKind, LemmaRecord, ProofStep

PATCH_LEN = 5
SLOTS_PER_STEP = 8

# fixed codes for argument kinds; 0 doubles as the padding value
KIND_CODES: dict[ArgumentKind, int] = {
    ArgumentKind.WILDCARD: 0,
    ArgumentKind.HYPOTHESIS: 1,
    ArgumentKind.INDUCTIVE_HYPOTHESIS: 2,
    ArgumentKind.EXTERNAL_LEMMA: 3,
    ArgumentKind.NUMERIC_CONSTANT: 4,
    ArgumentKind.TERM_EXPR: 5,
    ArgumentKind.INTRO_PATTERN: 6,
}

_RELATED_KINDS = (ArgumentKind.HYPOTHESIS, ArgumentKind.EXTERNAL_LEMMA)
_MAX_FOLDED_ARGS = 6


class SettingTooLarge(ValueError):
    """A size setting (`patch_len`, `runs`) too large for the array it sizes.

    reason is the failed allocation's own message.
    """

    def __init__(self, setting: str, value: int, exc: MemoryError | OverflowError):
        self.setting, self.value, self.reason = setting, value, str(exc) or type(exc).__name__
        super().__init__(f"{self.reason}: {setting} {value} is too large")


@dataclass(frozen=True)
class EncodingTable:
    """Corpus-wide vocabulary codes, assigned lexicographically from 1."""

    tactic_codes: dict[str, int]
    symbol_codes: dict[str, int]

    def tactic_code(self, name: str) -> int:
        return self.tactic_codes.get(name, 0)

    def symbol_code(self, symbol: str) -> int:
        return self.symbol_codes.get(symbol, 0)

    def version_hash(self) -> str:
        """Digest of both vocabularies and the fixed argument-kind codes."""
        blob = json.dumps({"tactic_codes": self.tactic_codes, "symbol_codes": self.symbol_codes,
                           "kind_codes": {k.value: v for k, v in KIND_CODES.items()}},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class FeatureDatabase:
    """Fixed-order view of a corpus used by the clustering layer."""

    names: list[str]
    libraries: dict[str, str]
    matrix: np.ndarray  # scaled rows, aligned with names


def build_encoding_table(tactics: set[str], symbols: set[str]) -> EncodingTable:
    """Code the tactic names and the goal symbols, each in lexicographic order from 1.

    tactics are the names of every step of the corpus, not only of its
    patches; symbols is the set that `parse_library` and `parse_trace` filled
    while parsing: the symbol of every node of the statements and goals.
    A loaded corpus passes the two vocabularies it stores.
    """
    return EncodingTable(
        tactic_codes={name: i for i, name in enumerate(sorted(tactics), start=1)},
        symbol_codes={sym: i for i, sym in enumerate(sorted(symbols), start=1)},
    )


def _decimal_fold(codes: list[int]) -> float:
    return float(sum(code * 10.0 ** (-pos) for pos, code in enumerate(codes)))


def _relation_code(kinds: list[ArgumentKind]) -> float:
    if any(k is ArgumentKind.INDUCTIVE_HYPOTHESIS for k in kinds):
        return 4.0
    related = [k for k in kinds if k in _RELATED_KINDS]
    if not related:
        return 0.0
    if all(k is ArgumentKind.HYPOTHESIS for k in related):
        return 1.0
    if all(k is ArgumentKind.EXTERNAL_LEMMA for k in related):
        return 2.0
    return 3.0


# The two patch types are named tuples, not frozen dataclasses: extract builds one per
# encoded step and lemma, and a named tuple costs about half as much to build.
class StepSlots(NamedTuple):
    """One step reduced to what its eight slots need before the vocabulary is known."""

    tactics: tuple[str, ...]  # slots 1 and 2: the tactic names, in order
    kinds: float  # slot 3: the folded argument-kind codes
    relation: float  # slot 4
    goal: tuple[str, str | None, str | None] | None  # slots 5-7: the goal's top three symbols
    subgoals: float  # slot 8


class LemmaPatch(NamedTuple):
    """A lemma reduced to the encoder's inputs: its first patch_len steps, and no term tree."""

    name: str
    library: str
    steps: tuple[StepSlots, ...]


def _step_slots(step: ProofStep, memo: dict) -> StepSlots:
    """One step's slots.  memo maps the id of each step.tactics already seen to the slots of a step
    with those tactics and no goal or subgoal count: slots 1-4 depend on nothing else.  A step
    without either, as a vernacular step after the first is, gets that very tuple."""
    slots = memo.get(id(step.tactics))
    if slots is None:
        kinds = [arg.kind for app in step.tactics for arg in app.arguments]
        slots = memo[id(step.tactics)] = StepSlots(
            tuple(app.name for app in step.tactics),
            _decimal_fold([KIND_CODES[k] for k in kinds[:_MAX_FOLDED_ARGS]]),
            _relation_code(kinds), None, -1.0)
    if step.goal_before is None and step.subgoals_after is None:
        return slots
    return StepSlots(slots.tactics, slots.kinds, slots.relation,
                     step.goal_before.top_symbols() if step.goal_before is not None else None,
                     float(step.subgoals_after) if step.subgoals_after is not None else -1.0)


def lemma_patches(lemmas: list[LemmaRecord], patch_len: int = PATCH_LEN) -> list[LemmaPatch]:
    """The first half of the encoder, which needs no vocabulary: each lemma's first patch_len steps.

    Slots 1-4 are reduced once per tactic tuple object, keyed on its id:
    lemmas keeps every tuple alive for the call, so no id is reused.  Equal
    tuples that are different objects are reduced once each, to the same
    values, so the result does not depend on what the parser shares.  The
    goal-less steps of one tactic tuple share one slots tuple: a tuple per
    step would add live objects, and with them garbage collections.
    """
    memo: dict = {}
    return [LemmaPatch(lemma.name, lemma.library,
                       tuple([_step_slots(step, memo) for step in lemma.steps[:patch_len]]))
            for lemma in lemmas]


def _code_step(step: StepSlots, table: EncodingTable) -> tuple[float, ...]:
    """Eight slot values for one reduced step; unknown names map to code 0."""
    if step.goal is not None:
        root, first, second = step.goal
        s5 = float(table.symbol_code(root))
        s6 = float(table.symbol_code(first)) if first else 0.0
        s7 = float(table.symbol_code(second)) if second else 0.0
    else:
        s5 = s6 = s7 = 0.0
    return (
        _decimal_fold([table.tactic_code(name) for name in step.tactics]),
        float(len(step.tactics)),
        step.kinds,
        step.relation,
        s5,
        s6,
        s7,
        step.subgoals,
    )


def extract_features(patch: LemmaPatch, table: EncodingTable,
                     patch_len: int = PATCH_LEN) -> tuple[float, ...]:
    """The second half of the encoder: a patch from `lemma_patches` coded against table,
    eight slots for each of its first patch_len steps, zero-padded.  The patch has at
    least one step, as the parsers guarantee."""
    steps = patch.steps[:patch_len]
    blocks: list[float] = []
    for step in steps:
        blocks.extend(_code_step(step, table))
    try:
        blocks.extend([0.0] * (SLOTS_PER_STEP * (patch_len - len(steps))))
    except (MemoryError, OverflowError) as exc:
        raise SettingTooLarge("patch_len", patch_len, exc) from exc
    return tuple(blocks)


def min_max_scale(matrix: np.ndarray) -> np.ndarray:
    """Columnwise scale to [0, 1]; zero-range columns collapse to 0."""
    matrix = np.asarray(matrix, dtype=np.float64)
    mins = matrix.min(axis=0)
    spread = matrix.max(axis=0) - mins
    out = np.zeros_like(matrix)
    nonzero = spread > 0
    out[:, nonzero] = (matrix[:, nonzero] - mins[nonzero]) / spread[nonzero]
    return out


def write_feature_records(path: str | Path, names: list[str], libraries: dict[str, str],
                          raw: np.ndarray, scaled: np.ndarray, table: EncodingTable) -> int:
    """Dump one JSON record per lemma ("proofmine features v1", JSON Lines).

    Row i of raw and scaled belongs to names[i].
    """
    version = table.version_hash()
    with Path(path).open("w", encoding="utf-8") as handle:
        for name, raw_row, scaled_row in zip(names, raw.tolist(), scaled.tolist()):
            record = {
                "name": name,
                "library": libraries[name],
                "raw": raw_row,
                "scaled": scaled_row,
                "table_version": version,
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(names)
