"""Numeric feature extraction: five proof steps become one 40-slot vector.

Per-step slots: (1) tactic-name codes folded into one decimal, (2) tactic
count, (3) argument-kind codes folded likewise, (4) argument relation code,
(5-7) the top three goal symbols, (8) subgoal fan-out (-1 when unknown).
Code 0 always means "absent/unknown".
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

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


class NoProofBody(ValueError):
    pass


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


def build_encoding_table(records: list[LemmaRecord], symbols: set[str]) -> EncodingTable:
    """Code the tactic names of records and the goal symbols, each in lexicographic order from 1.

    symbols is the set that `parse_library` and `parse_trace` filled while
    parsing records: the symbol of every node of their statements and goals.
    """
    tactics = {app.name for record in records for step in record.steps for app in step.tactics}
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


def encode_step(step: ProofStep, table: EncodingTable) -> tuple[float, ...]:
    """Eight slot values for one parsed step; unknown names map to code 0."""
    tactic_codes = [table.tactic_code(app.name) for app in step.tactics]
    kinds = [arg.kind for app in step.tactics for arg in app.arguments]
    if step.goal_before is not None:
        root, first, second = step.goal_before.top_symbols()
        s5 = float(table.symbol_code(root))
        s6 = float(table.symbol_code(first)) if first else 0.0
        s7 = float(table.symbol_code(second)) if second else 0.0
    else:
        s5 = s6 = s7 = 0.0
    subgoals = float(step.subgoals_after) if step.subgoals_after is not None else -1.0
    return (
        _decimal_fold(tactic_codes),
        float(len(step.tactics)),
        _decimal_fold([KIND_CODES[k] for k in kinds[:_MAX_FOLDED_ARGS]]),
        _relation_code(kinds),
        s5,
        s6,
        s7,
        subgoals,
    )


def extract_features(lemma: LemmaRecord, table: EncodingTable, patch_len: int = PATCH_LEN) -> tuple[float, ...]:
    """Concatenated step blocks for the first patch_len steps, zero-padded."""
    if not lemma.steps:
        raise NoProofBody(f"lemma {lemma.name} has no proof steps")
    blocks: list[float] = []
    for step in lemma.steps[:patch_len]:
        blocks.extend(encode_step(step, table))
    missing = patch_len - min(len(lemma.steps), patch_len)
    blocks.extend([0.0] * (SLOTS_PER_STEP * missing))
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
