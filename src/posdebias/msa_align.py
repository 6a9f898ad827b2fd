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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .backends import GenerationResult
from .corpus import Sample, Task
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


@dataclass(frozen=True)
class AlignedResponse:
    """One candidate with its verdict; kept iff no gate rejected it."""

    sample_id: str
    text: str
    token_logprobs: tuple[float, ...]
    kept: bool
    rejection_reasons: frozenset[RejectionReason] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.kept != (not self.rejection_reasons):
            raise ValueError("AlignedResponse: kept flag inconsistent with reasons")


def align_responses(
    task: Task,
    sample: Sample,
    candidates: list[GenerationResult],
    config: AlignmentConfig,
    threshold: float,
    stats: Sequence[float],
) -> list[AlignedResponse]:
    """Apply the task's gate combination to every candidate.

    Question generation rejects on non-compliant, dull, or incoherent;
    answer-style tasks (CQA, SUM, KGC) reject only on unreliable. A
    candidate whose ``gate_statistic`` (``stats``, one per candidate) is
    below ``threshold`` is incoherent (CQG) or unreliable (otherwise); one
    equal to it is kept. Every candidate receives a verdict, kept or not.
    """
    if task == Task.NLI:
        raise ValueError("align_responses: nli candidates are not pruned")
    if not candidates:
        raise ValueError("align_responses: no candidates")
    below = frozenset({threshold_reason(task)})
    out: list[AlignedResponse] = []
    for cand, stat in zip(candidates, stats, strict=True):
        reasons = form_reasons(task, cand, config)
        if stat < threshold:
            reasons |= below
        out.append(
            AlignedResponse(
                sample_id=sample.id,
                text=cand.text,
                token_logprobs=cand.token_logprobs,
                kept=not reasons,
                rejection_reasons=reasons,
            )
        )
    return out


def threshold_reason(task: Task) -> RejectionReason:
    """The reason a candidate whose ``gate_statistic`` is below the threshold
    is rejected for: incoherent (question generation) or unreliable."""
    return RejectionReason.INCOHERENT if task == Task.CQG else RejectionReason.UNRELIABLE


def form_reasons(task: Task, candidate: GenerationResult, config: AlignmentConfig) -> frozenset[RejectionReason]:
    """The reasons no threshold decides, on case-folded whole tokens: a
    question is non-compliant without an instruction keyword and dull with a
    boilerplate pattern; other tasks have none."""
    if task != Task.CQG:
        return frozenset()
    if not config.instruction_keywords:
        raise ValueError("form_reasons: empty keyword list")
    tokens = tokenize(candidate.text)
    reasons = set()
    if not any(contains_phrase(tokens, tokenize(kw)) for kw in config.instruction_keywords):
        reasons.add(RejectionReason.NON_COMPLIANT)
    if any(contains_phrase(tokens, tokenize(pattern)) for pattern in config.dull_patterns):
        reasons.add(RejectionReason.DULL)
    return frozenset(reasons)


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

