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
unreliability against the target. NLI has no gate here: its candidates
are not pruned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .backends import GenerationResult
from .corpus import Sample, Task
from .lowbias_infer import DEFAULTS
from .metrics import contains_phrase, rouge_l, tokenize

#: Boilerplate question patterns rejected as dull; user-replaceable.
DEFAULT_DULL_PATTERNS: tuple[str, ...] = tuple(DEFAULTS["dull_patterns"])

#: Whole-token trigger words for the lexical splitter's default list.
DEFAULT_LEXICAL_TRIGGERS: tuple[str, ...] = tuple(DEFAULTS["lexical_triggers"])

#: Per-task instruction keywords used by the compliance gate.
DEFAULT_INSTRUCTION_KEYWORDS: dict[str, tuple[str, ...]] = {
    k: tuple(v) for k, v in DEFAULTS["instruction_keywords"].items()
}

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
    """Thresholds and word lists for the alignment gates."""

    instruction_keywords: tuple[str, ...] = ()
    dull_patterns: tuple[str, ...] = DEFAULT_DULL_PATTERNS
    incoherence_threshold: float = 0.15
    unreliable_threshold: float = 0.15
    candidate_thresholds: tuple[float, ...] = DEFAULT_CANDIDATE_THRESHOLDS
    target_keep_fraction: float = DEFAULT_TARGET_KEEP_FRACTION

    def __post_init__(self) -> None:
        for name in ("incoherence_threshold", "unreliable_threshold", "target_keep_fraction"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"AlignmentConfig: {name} must be in (0, 1), got {value}")
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


def identify_noncompliant(response: GenerationResult, keywords: tuple[str, ...]) -> bool:
    """True iff no instruction keyword occurs as a whole token (case folded)."""
    if not keywords:
        raise ValueError("identify_noncompliant: empty keyword list")
    tokens = tokenize(response.text)
    return not any(contains_phrase(tokens, tokenize(kw)) for kw in keywords)


def identify_dull(response: GenerationResult, patterns: tuple[str, ...]) -> bool:
    """True iff the response matches any boilerplate pattern after normalization."""
    tokens = tokenize(response.text)
    return any(contains_phrase(tokens, tokenize(pattern)) for pattern in patterns)


def identify_incoherent(response: GenerationResult, threshold: float) -> bool:
    """True iff the minimum per-token probability is strictly below threshold.

    The comparison runs in log space, so a token sitting exactly at the
    threshold is coherent. Responses with no tokens cannot dip below any
    threshold and pass.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"identify_incoherent: threshold {threshold} outside (0, 1)")
    if not response.token_logprobs:
        return False
    bound = math.log(threshold)
    return min(response.token_logprobs) < bound


def identify_unreliable(response: str, target: str, threshold: float) -> bool:
    """True iff ROUGE-L(response, target) is strictly below threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"identify_unreliable: threshold {threshold} outside (0, 1)")
    return rouge_l(response, target) < threshold


def align_responses(
    task: Task,
    sample: Sample,
    candidates: list[GenerationResult],
    config: AlignmentConfig,
) -> list[AlignedResponse]:
    """Apply the task's gate combination to every candidate.

    Question generation rejects on non-compliant, dull, or incoherent;
    answer-style tasks (CQA, SUM, KGC) reject only on unreliable. Every
    candidate receives a verdict, kept or not.
    """
    if task == Task.NLI:
        raise ValueError("align_responses: nli candidates are not pruned")
    if not candidates:
        raise ValueError("align_responses: no candidates")
    out: list[AlignedResponse] = []
    for cand in candidates:
        reasons: set[RejectionReason] = set()
        if task == Task.CQG:
            if config.instruction_keywords and identify_noncompliant(
                cand, config.instruction_keywords
            ):
                reasons.add(RejectionReason.NON_COMPLIANT)
            if identify_dull(cand, config.dull_patterns):
                reasons.add(RejectionReason.DULL)
            if identify_incoherent(cand, config.incoherence_threshold):
                reasons.add(RejectionReason.INCOHERENT)
        else:
            if identify_unreliable(cand.text, sample.target, config.unreliable_threshold):
                reasons.add(RejectionReason.UNRELIABLE)
        out.append(
            AlignedResponse(
                sample_id=sample.id,
                text=cand.text,
                token_logprobs=cand.token_logprobs,
                kept=not reasons,
                rejection_reasons=frozenset(reasons),
            )
        )
    return out


def gate_statistic(task: Task, sample: Sample, candidate: GenerationResult) -> float:
    """The per-candidate quantity the task's calibrated gate thresholds.

    Answer-style tasks threshold target overlap; question generation
    thresholds the minimum token probability.
    """
    if task == Task.NLI:
        raise ValueError("gate_statistic: nli has no thresholded gate")
    if task == Task.CQG:
        return candidate.min_token_prob()
    return rouge_l(candidate.text, sample.target)


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

