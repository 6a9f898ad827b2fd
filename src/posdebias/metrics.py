"""Overlap metrics and per-position breakdowns.

All overlap metrics share one tokenizer: lowercase, ASCII punctuation
stripped, whitespace split. Keeping the tokenizer here and importing it
everywhere guarantees that splitting, alignment, and evaluation agree on
what a token is.

ROUGE-L has a token-level core, ``rouge_l_tokens``; ``rouge_l`` on strings
tokenizes both sides and calls it, and ``rouge_l_scores`` scores one text
against many (grounding scores a response against every utterance of a
document tokenized once per sample). All of them count the LCS with
``lcs_lengths``, bit-parallel (Allison & Dix 1986; Hyyrö 2004,
"Bit-parallel LCS-length computation revisited"): the pattern's bit masks
are built once, then one Python-int step per token of each text instead of
one dynamic-programming cell per token pair.
"""
from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

#: Weight of recall relative to precision in the ROUGE-L F-score.
ROUGE_BETA = 1.2


def tokenize(text: str) -> list[str]:
    """Lowercase, strip ASCII punctuation, split on whitespace."""
    return text.translate(_PUNCT_TABLE).lower().split()


def contains_phrase(tokens: list[str], phrase: list[str]) -> bool:
    """Whole-token contiguous containment; 'no' never matches inside 'nothing'."""
    if not phrase or len(phrase) > len(tokens):
        return False
    return any(
        tokens[i : i + len(phrase)] == phrase
        for i in range(len(tokens) - len(phrase) + 1)
    )


def lcs_lengths(pattern: Sequence[str], texts: Iterable[Sequence[str]]) -> list[int]:
    """Length of the longest common subsequence of ``pattern`` with each of
    ``texts``, O(len(text)) integer operations on len(pattern)-bit integers
    per text.

    Bit j of ``masks[y]`` is set where ``pattern[j] == y``; they are built
    once for all texts. After a prefix of a text, the zero bits among the
    low j + 1 bits of ``v`` count the LCS of that prefix and
    ``pattern[:j + 1]``; each token of the text updates every column at once
    (Hyyrö 2004).
    """
    masks: dict[str, int] = {}
    for j, y in enumerate(pattern):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(pattern)) - 1
    lengths = []
    for text in texts:
        v = full
        for x in text:
            u = v & masks.get(x, 0)
            v = ((v + u) | (v - u)) & full
        lengths.append(len(pattern) - v.bit_count())
    return lengths


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of ``a`` and ``b``."""
    return lcs_lengths(b, (a,))[0]


def _f_score(lcs: int, n_cand: int, n_ref: int) -> float:
    """P = LCS/|candidate|, R = LCS/|reference|, beta = ``ROUGE_BETA``,
    F = (1 + beta^2) * P * R / (R + beta^2 * P); 0 without a common token."""
    if lcs == 0:
        return 0.0
    precision = lcs / n_cand
    recall = lcs / n_ref
    beta2 = ROUGE_BETA * ROUGE_BETA
    return ((1 + beta2) * precision * recall) / (recall + beta2 * precision)


def rouge_l_tokens(cand_tokens: Sequence[str], ref_tokens: Sequence[str]) -> float:
    """ROUGE-L F-score between a tokenized candidate and reference.

    An empty candidate scores 0; an empty reference is an error because the
    score would be undefined.
    """
    if not ref_tokens:
        raise ValueError("rouge_l: empty reference")
    if not cand_tokens:
        return 0.0
    return _f_score(lcs_length(cand_tokens, ref_tokens), len(cand_tokens), len(ref_tokens))


def rouge_l_scores(cand_tokens: Sequence[str], refs: Sequence[Sequence[str]]) -> list[float]:
    """``rouge_l_tokens`` of one tokenized candidate against each of
    ``refs`` in one ``lcs_lengths`` call (LCS is symmetric, so the candidate
    is the pattern). An empty reference scores 0 here."""
    n = len(cand_tokens)
    return [
        _f_score(lcs, n, len(ref)) if ref else 0.0
        for lcs, ref in zip(lcs_lengths(cand_tokens, refs), refs)
    ]


def rouge_l(candidate: str, reference: str) -> float:
    """``rouge_l_tokens`` on the tokens of two strings."""
    return rouge_l_tokens(tokenize(candidate), tokenize(reference))


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_2(candidate: str, reference: str) -> float:
    """Sentence BLEU truncated at bigrams.

    Geometric mean of unigram and bigram modified precision with a brevity
    penalty; the bigram term is add-one smoothed so that short candidates do
    not zero out the score.
    """
    ref_tokens = tokenize(reference)
    if not ref_tokens:
        raise ValueError("bleu_2: empty reference")
    cand_tokens = tokenize(candidate)
    if not cand_tokens:
        return 0.0
    cand_uni = _ngrams(cand_tokens, 1)
    ref_uni = _ngrams(ref_tokens, 1)
    matched_uni = sum(min(c, ref_uni[g]) for g, c in cand_uni.items())
    p1 = matched_uni / len(cand_tokens)
    if p1 == 0.0:
        return 0.0
    cand_bi = _ngrams(cand_tokens, 2)
    ref_bi = _ngrams(ref_tokens, 2)
    matched_bi = sum(min(c, ref_bi[g]) for g, c in cand_bi.items())
    total_bi = max(len(cand_tokens) - 1, 0)
    p2 = (matched_bi + 1) / (total_bi + 1)
    if len(cand_tokens) > len(ref_tokens):
        brevity = 1.0
    else:
        brevity = math.exp(1 - len(ref_tokens) / len(cand_tokens))
    return brevity * math.sqrt(p1 * p2)


#: Evaluation metrics ``toy_model.evaluate`` accepts.
METRICS = ("accuracy", "rouge_l", "bleu_2")


@dataclass(frozen=True)
class PositionRow:
    """Mean score and support for one relative position (None = unknown)."""

    position: int | None
    mean_score: float
    count: int


def per_position_table(
    positions: Sequence[int | None], scores: Sequence[float]
) -> list[PositionRow]:
    """Group per-sample scores by relative position.

    Rows are sorted by position ascending with the unknown-position row, if
    any, last. The count-weighted mean of the rows equals the overall mean.
    """
    if len(positions) != len(scores):
        raise ValueError(
            f"per_position_table: length mismatch ({len(positions)} vs {len(scores)})"
        )
    grouped: dict[int | None, list[float]] = {}
    for pos, score in zip(positions, scores):
        grouped.setdefault(pos, []).append(score)
    keyed = sorted(
        (k for k in grouped if k is not None)
    )  # type: list[int]
    rows = [
        PositionRow(k, sum(grouped[k]) / len(grouped[k]), len(grouped[k]))
        for k in keyed
    ]
    if None in grouped:
        values = grouped[None]
        rows.append(PositionRow(None, sum(values) / len(values), len(values)))
    return rows
