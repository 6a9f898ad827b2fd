"""Bias-aware corpus partitioning.

Three notions of a position-biased sample are supported, one per task
family (``BIAS_BY_TASK``):

* relative position: the target grounds at utterance offset 0 or 1 from the
  utterance the previous answer grounds at (``cqa``, ``cqg``),
* lead: the target grounds at the very first utterance (``sum``, ``kgc``),
* lexical: the hypothesis contains a trigger word as a whole token (``nli``).

Grounding means locating the document utterance that maximizes ROUGE-L
against a response; ties resolve to the smallest index.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

from .corpus import Corpus, Document, Sample, Task, make_document, render_input, write_jsonl
from .metrics import (
    contains_phrase,
    rouge_l,  # not called here; perfbench's harness self-test reads ``bias_split.rouge_l``
    rouge_l_scores,
    tokenize,
)

#: Relative positions treated as biased unless the caller overrides them.
DEFAULT_BIASED_POSITIONS = frozenset({0, 1})

#: Whole-token trigger words for the lexical splitter's default list.
DEFAULT_LEXICAL_TRIGGERS: tuple[str, ...] = ("no", "not", "never", "nothing", "nobody", "none")


class BiasKind(str, Enum):
    RELATIVE_POSITION = "relative_position"
    LEAD = "lead"
    LEXICAL = "lexical"


#: The bias kind each task family is split by.
BIAS_BY_TASK = {
    Task.CQA: BiasKind.RELATIVE_POSITION,
    Task.CQG: BiasKind.RELATIVE_POSITION,
    Task.SUM: BiasKind.LEAD,
    Task.KGC: BiasKind.LEAD,
    Task.NLI: BiasKind.LEXICAL,
}


@dataclass(frozen=True)
class GroundingResult:
    """Best-matching utterance index and the ROUGE-L score of every utterance."""

    utterance_index: int
    score: float
    scores: tuple[float, ...]


@dataclass(frozen=True)
class BiasEvidence:
    """Why a sample landed in its partition side.

    Only the fields belonging to ``kind`` are populated; ``detail`` records
    degenerate cases (for example a missing anchor turn) that force a sample
    into the non-biased side.
    """

    kind: BiasKind
    biased: bool
    relative_position: int | None = None
    lead_score: float | None = None
    matched_triggers: tuple[str, ...] = ()
    detail: str | None = None


@dataclass(frozen=True)
class BiasPartition:
    """Disjoint biased/non-biased split of a corpus with per-sample evidence."""

    biased: Corpus
    non_biased: Corpus
    evidence: dict[str, BiasEvidence]


def ground_response(
    response_tokens: Sequence[str], utterance_tokens: Sequence[Sequence[str]]
) -> GroundingResult:
    """Find the utterance maximizing ROUGE-L(response, utterance), both given
    as tokens, so a document tokenized once serves every grounding against it;
    the response's LCS bit masks are built once for all utterances.

    Ties break toward the smallest index. Utterances with no tokens score 0
    rather than erroring, so one odd utterance cannot poison a document.
    """
    if not response_tokens:
        raise ValueError("ground_response: empty response")
    if not utterance_tokens:
        raise ValueError("ground_response: empty document")
    scores = tuple(rouge_l_scores(response_tokens, utterance_tokens))
    best = scores.index(max(scores))
    return GroundingResult(best, scores[best], scores)


def _utterance_tokens(document: Document) -> list[list[str]]:
    """The tokens of each utterance, in document order."""
    return [tokenize(text) for text in document.utterances]


def relative_position(sample: Sample) -> int:
    """Grounded index of the target minus grounded index of the last answer.

    Requires a document and at least one prior answered turn (the anchor).
    Both groundings share one tokenization of the document.
    """
    if sample.document is None or len(sample.document) == 0:
        raise ValueError(f"relative_position: sample {sample.id!r} has no document")
    anchor = sample.last_answered_turn()
    if anchor is None:
        raise ValueError(f"relative_position: sample {sample.id!r} has no anchor turn")
    utterances = _utterance_tokens(sample.document)
    target_ground = ground_response(tokenize(sample.target), utterances)
    anchor_ground = ground_response(tokenize(anchor.answer or ""), utterances)
    return target_ground.utterance_index - anchor_ground.utterance_index


def _partition(
    corpus: Corpus, flags: list[tuple[Sample, BiasEvidence]]
) -> BiasPartition:
    biased = tuple(s for s, ev in flags if ev.biased)
    non_biased = tuple(s for s, ev in flags if not ev.biased)
    return BiasPartition(
        biased=Corpus(biased, corpus.task),
        non_biased=Corpus(non_biased, corpus.task),
        evidence={s.id: ev for s, ev in flags},
    )


def split_by_relative_position(
    corpus: Corpus, biased_positions: frozenset[int] | set[int] = DEFAULT_BIASED_POSITIONS
) -> BiasPartition:
    """Partition a dialogue corpus by the relative position of each target.

    Samples whose relative position cannot be computed (no anchor turn, no
    document) are routed to the non-biased side with the reason recorded in
    the evidence.
    """
    if BIAS_BY_TASK[corpus.task] != BiasKind.RELATIVE_POSITION:
        raise ValueError(
            f"split_by_relative_position: task {corpus.task.value!r} has no "
            "dialogue structure; expected one of "
            + ", ".join(t.value for t, kind in BIAS_BY_TASK.items() if kind == BiasKind.RELATIVE_POSITION)
        )
    if not biased_positions:
        raise ValueError("split_by_relative_position: empty biased position set")
    flags: list[tuple[Sample, BiasEvidence]] = []
    for sample in corpus:
        try:
            rel = relative_position(sample)
        except ValueError as exc:
            flags.append(
                (
                    sample,
                    BiasEvidence(
                        BiasKind.RELATIVE_POSITION, biased=False, detail=str(exc)
                    ),
                )
            )
            continue
        flags.append(
            (
                sample,
                BiasEvidence(
                    BiasKind.RELATIVE_POSITION,
                    biased=rel in biased_positions,
                    relative_position=rel,
                ),
            )
        )
    return _partition(corpus, flags)


def split_by_lead_bias(corpus: Corpus) -> BiasPartition:
    """Partition by whether the target grounds at the leading utterance;
    the evidence keeps the target's ROUGE-L against that utterance."""
    if BIAS_BY_TASK[corpus.task] != BiasKind.LEAD:
        raise ValueError(
            f"split_by_lead_bias: task {corpus.task.value!r} not lead-groundable"
        )
    flags: list[tuple[Sample, BiasEvidence]] = []
    for sample in corpus:
        if sample.document is None or len(sample.document) == 0:
            flags.append(
                (sample, BiasEvidence(BiasKind.LEAD, biased=False, detail="no document"))
            )
            continue
        grounded = ground_response(tokenize(sample.target), _utterance_tokens(sample.document))
        evidence = BiasEvidence(BiasKind.LEAD, biased=grounded.utterance_index == 0, lead_score=grounded.scores[0])
        flags.append((sample, evidence))
    return _partition(corpus, flags)


def split_by_lexical_bias(corpus: Corpus, triggers: list[str] | tuple[str, ...]) -> BiasPartition:
    """Partition NLI samples by whole-token trigger occurrence in the hypothesis."""
    if BIAS_BY_TASK[corpus.task] != BiasKind.LEXICAL:
        raise ValueError("split_by_lexical_bias: corpus task must be nli")
    if not triggers:
        raise ValueError("split_by_lexical_bias: empty trigger list")
    trigger_tokens = [(t, tokenize(t)) for t in triggers]
    if any(not toks for _, toks in trigger_tokens):
        raise ValueError("split_by_lexical_bias: trigger tokenizes to nothing")
    flags: list[tuple[Sample, BiasEvidence]] = []
    for sample in corpus:
        hyp_tokens = tokenize(sample.nli_hypothesis or "")
        matched = tuple(
            trig
            for trig, toks in trigger_tokens
            if contains_phrase(hyp_tokens, toks)
        )
        flags.append(
            (
                sample,
                BiasEvidence(
                    BiasKind.LEXICAL, biased=bool(matched), matched_triggers=matched
                ),
            )
        )
    return _partition(corpus, flags)


def split_corpus(
    corpus: Corpus,
    positions: frozenset[int] | set[int] = DEFAULT_BIASED_POSITIONS,
    triggers: Sequence[str] = DEFAULT_LEXICAL_TRIGGERS,
) -> BiasPartition:
    """Partition a corpus by the bias kind its task is split by: ``positions``
    serve the relative-position split, ``triggers`` the lexical one."""
    kind = BIAS_BY_TASK[corpus.task]
    if kind == BiasKind.RELATIVE_POSITION:
        return split_by_relative_position(corpus, positions)
    if kind == BiasKind.LEAD:
        return split_by_lead_bias(corpus)
    return split_by_lexical_bias(corpus, triggers)


def perturb_positions(sample: Sample, seed: int) -> Sample:
    """Return a copy with document utterances uniformly permuted under seed.

    The target is untouched; the rendered input is refreshed to reflect the
    new utterance order. Single-utterance documents come back unchanged.
    """
    if sample.task == Task.NLI:
        raise ValueError("perturb_positions: nli samples have no utterance order")
    if sample.document is None:
        raise ValueError(f"perturb_positions: sample {sample.id!r} has no document")
    if len(sample.document) <= 1:
        return sample
    texts = sample.document.texts()
    rng = random.Random(seed)
    rng.shuffle(texts)
    document = make_document(texts)
    rendered = render_input(sample.task, document, sample.history)
    return replace(sample, document=document, input_text=rendered)


def evidence_record(sample_id: str, ev: BiasEvidence) -> dict:
    """The evidence JSONL record of one sample: id, kind, side and the kind's fields."""
    record = {"id": sample_id, "kind": ev.kind.value, "biased": ev.biased}
    if ev.relative_position is not None:
        record["relative_position"] = ev.relative_position
    if ev.lead_score is not None:
        record["lead_score"] = ev.lead_score
    if ev.matched_triggers:
        record["matched_triggers"] = list(ev.matched_triggers)
    if ev.detail:
        record["detail"] = ev.detail
    return record


def write_evidence(partition: BiasPartition, path: str | Path) -> Path:
    """Dump per-sample evidence as JSONL, one record per sample id."""
    return write_jsonl(
        (evidence_record(sid, partition.evidence[sid]) for sid in sorted(partition.evidence)),
        path,
    )
