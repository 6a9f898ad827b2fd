"""Multi-strategy alignment of unsupervised responses.

Generated candidates are noisy; before they can supervise anything they are
filtered by task-appropriate gates:

* non-compliant: no instruction keyword appears as a whole token,
* dull: the response matches a known boilerplate pattern,
* incoherent: the least likely generated token falls below a probability
  threshold,
* unreliable: overlap with the reference target falls below a threshold.

Question generation keeps flexible responses and rejects on form
(non-compliant / dull / incoherent); answer-style tasks reject only on
unreliability against the target. The incoherent and unreliable gates are
one predicate, ``gate_statistic`` below the task's threshold, which is what
calibration counts; calibration over one candidate threshold fixes it. NLI
has no gate here: its candidates are not pruned.

The align pass computes each candidate's statistic and the bits of its
threshold-free reasons (``form_reasons``) once; ``align_responses`` is the
one rule that turns them into verdicts, at the calibrated threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

from .backends import GenerationResult
from .corpus import Task
from .metrics import contains_phrase, rouge_l_tokens, tokenize

#: Boilerplate question patterns rejected as dull; user-replaceable.
DEFAULT_DULL_PATTERNS: tuple[str, ...] = (
    "what is the title of the passage", "what is the passage about",
    "what is the article about", "what is this passage mainly about",
)

#: Question words the question-generation compliance gate looks for.
DEFAULT_INSTRUCTION_KEYWORDS: tuple[str, ...] = ("what", "who", "when", "where", "why", "how", "which")

#: Candidate thresholds considered during calibration.
DEFAULT_CANDIDATE_THRESHOLDS: tuple[float, ...] = (0.1, 0.15, 0.2)

#: Fraction of candidates calibration aims to keep.
DEFAULT_TARGET_KEEP_FRACTION = 0.2


class RejectionReason(str, Enum):
    NON_COMPLIANT = "non_compliant"
    DULL = "dull"
    INCOHERENT = "incoherent"
    UNRELIABLE = "unreliable"


@dataclass(frozen=True)
class AlignmentConfig:
    """Word lists for the alignment gates and the calibration of their
    threshold; a single candidate threshold fixes it."""

    instruction_keywords: tuple[str, ...] = DEFAULT_INSTRUCTION_KEYWORDS
    dull_patterns: tuple[str, ...] = DEFAULT_DULL_PATTERNS
    candidate_thresholds: tuple[float, ...] = DEFAULT_CANDIDATE_THRESHOLDS
    target_keep_fraction: float = DEFAULT_TARGET_KEEP_FRACTION

    def __post_init__(self) -> None:
        if not 0.0 < self.target_keep_fraction < 1.0:
            raise ValueError(
                f"AlignmentConfig: target_keep_fraction must be in (0, 1), got {self.target_keep_fraction}"
            )
        if not self.candidate_thresholds:
            raise ValueError("AlignmentConfig: candidate_thresholds must be non-empty")
        for value in self.candidate_thresholds:
            if not 0.0 < value < 1.0:
                raise ValueError(
                    f"AlignmentConfig: candidate threshold {value} outside (0, 1)"
                )

    @cached_property
    def phrase_tokens(self) -> tuple[tuple[list[str], ...], tuple[list[str], ...]]:
        """The instruction keywords and the dull patterns, tokenized once per config."""
        return tuple(map(tokenize, self.instruction_keywords)), tuple(map(tokenize, self.dull_patterns))


@dataclass(frozen=True, eq=False)
class Verdict:
    """A candidate's verdict: kept iff no gate rejected it. ``VERDICTS``
    holds the one instance of each reason set."""

    rejection_reasons: frozenset[RejectionReason]
    kept: bool


#: Each reason's bit in the reason bits ``form_reasons`` returns.
_BIT = {reason: 1 << i for i, reason in enumerate(RejectionReason)}

#: The verdict of each reason set, indexed by its bits.
VERDICTS = tuple(
    Verdict(frozenset(reason for reason, bit in _BIT.items() if bits & bit), not bits) for bits in range(1 << len(_BIT))
)

def align_responses(
    task: Task,
    stats: Sequence[float],
    reasons: Sequence[int],
    config: AlignmentConfig,
    threshold: float | None,
) -> list[Verdict]:
    """The verdict of every candidate, from its ``gate_statistic`` (``stats``)
    and the bits of its ``form_reasons`` (``reasons``), in order.

    A candidate is rejected for its form reasons, and as incoherent (question
    generation) or unreliable (other tasks) when its statistic is below
    ``threshold``; one equal to it passes. No candidate (and ``threshold``
    ``None``) has no verdict. ``config`` is not read here; perfbench's
    tracer reads the keep target from this call.
    """
    if task == Task.NLI:
        raise ValueError("align_responses: nli candidates are not pruned")
    if not stats:
        return []
    below = _BIT[RejectionReason.INCOHERENT if task == Task.CQG else RejectionReason.UNRELIABLE]
    return [
        VERDICTS[bits | below] if stat < threshold else VERDICTS[bits]
        for stat, bits in zip(stats, reasons, strict=True)
    ]


def form_reasons(task: Task, candidate: GenerationResult, config: AlignmentConfig) -> int:
    """The bits of the reasons no threshold decides, on case-folded whole
    tokens: a question is non-compliant without an instruction keyword and
    dull with a boilerplate pattern; other tasks have none."""
    if task != Task.CQG:
        return 0
    if not config.instruction_keywords:
        raise ValueError("form_reasons: empty keyword list")
    tokens, (keywords, patterns) = tokenize(candidate.text), config.phrase_tokens
    non_compliant = not any(contains_phrase(tokens, keyword) for keyword in keywords)
    dull = any(contains_phrase(tokens, pattern) for pattern in patterns)
    return non_compliant * _BIT[RejectionReason.NON_COMPLIANT] | dull * _BIT[RejectionReason.DULL]


def gate_statistic(task: Task, target_tokens: Sequence[str], candidate: GenerationResult) -> float:
    """The per-candidate quantity the task's calibrated gate thresholds.

    Answer-style tasks threshold ROUGE-L against the sample's target, given
    as ``target_tokens`` so a sample's candidates share one tokenization;
    question generation thresholds the minimum token probability.
    """
    if task == Task.NLI:
        raise ValueError("gate_statistic: nli has no thresholded gate")
    if task == Task.CQG:
        return candidate.min_token_prob()
    return rouge_l_tokens(tokenize(candidate.text), target_tokens)


def calibrate_threshold(
    scores: list[float],
    candidate_thresholds: tuple[float, ...] = DEFAULT_CANDIDATE_THRESHOLDS,
    target_keep_fraction: float = DEFAULT_TARGET_KEEP_FRACTION,
) -> float:
    """Pick the candidate threshold whose keep fraction lands nearest the target.

    A candidate with statistic >= threshold is kept. Ties on distance resolve
    to the smaller threshold.
    """
    if not scores:
        raise ValueError("calibrate_threshold: empty score list")
    if not candidate_thresholds:
        raise ValueError("calibrate_threshold: no candidate thresholds")
    best_threshold: float | None = None
    best_distance = math.inf
    for threshold in sorted(candidate_thresholds):
        kept = sum(1 for s in scores if s >= threshold)
        distance = abs(kept / len(scores) - target_keep_fraction)
        if distance < best_distance:
            best_threshold = threshold
            best_distance = distance
    assert best_threshold is not None
    return best_threshold

