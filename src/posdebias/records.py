"""JSONL and JSON record formats shared by ``posdebias run`` and the CLI verbs.

One encoder and one decoder per artifact kind: low-bias candidates,
aligned verdicts, per-epoch training summaries, and eval entries (the
JSON form of a ``report.SystemEval``). Writers emit records in the order
given; the JSONL readers (``corpus.read_jsonl``) name the file and line
of the first bad record.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .backends import GenerationResult, _result_from_body
from .corpus import _shown, encode_json, json_field, json_list, parse_json, read_jsonl, read_text, write_blocks, write_jsonl
from .metrics import PositionRow
from .msa_align import RejectionReason
from .report import SystemEval

if TYPE_CHECKING:
    from .toy_model import EpochSummary


def candidate_line(sample_id: str, index: int, result: GenerationResult) -> str:
    """One candidates JSONL line: ``json.dumps`` (``ensure_ascii=False``) of
    ``sample_id``, ``candidate_index``, the ``body`` fields and
    ``backend_id``, with the logprobs as the result's cached text."""
    return (
        f'{{"sample_id": {encode_json(sample_id)}, "candidate_index": {index:d}, '
        f'"text": {encode_json(result.text)}, "tokens": {encode_json(result.tokens)}, '
        f'"token_logprobs": {result.logprobs_json}, "backend_id": {encode_json(result.backend_id)}}}'
    )


def _candidate_from_record(record: object) -> tuple[str, int | None, GenerationResult]:
    json_field(record, "text", str)  # required here; a response body may leave it out
    result = _result_from_body(record, json_field(record, "backend_id", str, "unknown"))
    return json_field(record, "sample_id", str), json_field(record, "candidate_index", int, None), result


def load_candidates(path: str | Path) -> dict[str, list[GenerationResult]]:
    """Candidates by sample id, in order of first appearance in the file.

    Within a sample, candidates sort by ``candidate_index`` (line number
    when absent).
    """
    grouped: dict[str, list[tuple[int, GenerationResult]]] = {}
    for line_no, (sample_id, index, result) in read_jsonl(path, _candidate_from_record):
        grouped.setdefault(sample_id, []).append((line_no if index is None else index, result))
    return {
        sid: [result for _, result in sorted(pairs, key=lambda p: p[0])]
        for sid, pairs in grouped.items()
    }


def verdict_head(sample_id: str, text: str, logprobs_json: str) -> str:
    """The part of an aligned JSONL line that no threshold decides, up to the
    space before ``"kept"``. With ``verdict_tail`` it is ``json.dumps``
    (``ensure_ascii=False``) of the verdict, its reasons sorted by name."""
    return f'{{"sample_id": {encode_json(sample_id)}, "text": {encode_json(text)}, "token_logprobs": {logprobs_json}, '


def verdict_tail(reasons: frozenset[RejectionReason]) -> str:
    """The rest of an aligned JSONL line: ``kept`` (no reason) and the reasons."""
    return f'"kept": {"false" if reasons else "true"}, "rejection_reasons": {encode_json(sorted(r.value for r in reasons))}}}'


def _aligned_from_record(record: object) -> tuple[str, list[str]]:
    """The sample id, and the text in a list when the verdict kept it. Every
    field is checked, ``token_logprobs`` too, though training reads none."""
    sample_id, text = json_field(record, "sample_id", str), json_field(record, "text", str)
    json_list(record, "token_logprobs", (int, float))
    kept = json_field(record, "kept", bool)
    reasons = [_reason(value, i) for i, value in enumerate(json_list(record, "rejection_reasons", str, []))]
    if kept == bool(reasons):
        raise ValueError("field 'kept' disagrees with 'rejection_reasons'")
    return sample_id, [text] if kept else []


def _reason(value: str, i: int) -> RejectionReason:
    try:
        return RejectionReason(value)
    except ValueError:
        raise ValueError(f"field 'rejection_reasons[{i}]' is not a rejection reason: {_shown(value)}") from None


def load_aligned(path: str | Path) -> dict[str, list[str]]:
    """The kept texts by sample id, for every sample with a verdict, in file
    order: what training reads."""
    grouped: dict[str, list[str]] = {}
    for _, (sample_id, kept) in read_jsonl(path, _aligned_from_record):
        grouped.setdefault(sample_id, []).extend(kept)
    return grouped


def write_epochs(summaries: Iterable[EpochSummary], path: str | Path) -> Path:
    """Epochs JSONL: one line per epoch with its mean loss terms, mean and
    max gradient norm and clip fraction (the ``EpochSummary`` fields)."""
    return write_jsonl((dataclasses.asdict(e) for e in summaries), path)


def write_eval(ev: SystemEval, path: str | Path, **extra) -> Path:
    """Eval JSON: ``system``, ``metric``, ``splits`` and ``by_position``,
    plus any ``extra`` keys (the pipeline adds its sweep point)."""
    entry = {
        "system": ev.system,
        "metric": ev.metric,
        "splits": {k: {"score": score, "count": count} for k, (score, count) in ev.splits.items()},
        "by_position": [
            {"position": row.position, "score": row.mean_score, "count": row.count}
            for row in ev.by_position
        ],
        **extra,
    }
    return write_blocks([json.dumps(entry, indent=2, sort_keys=True)], path)


def _score_and_count(record: object, where: str) -> tuple[float, int]:
    return json_field(record, "score", (int, float), where=where), json_field(record, "count", int, where=where)


def load_eval(path: str | Path) -> SystemEval:
    """Inverse of ``write_eval``; missing optional keys default to empty.
    Raises ``ValueError`` naming the file and the first bad field (``parse_json``)."""
    return parse_json(read_text(path), path, _eval_from_entry)


def _eval_from_entry(entry: object) -> SystemEval:
    splits, rows = json_field(entry, "splits", dict, {}), json_field(entry, "by_position", list, [])
    return SystemEval(
        system=json_field(entry, "system", str),
        metric=json_field(entry, "metric", str, "score"),
        splits={k: _score_and_count(v, f"splits.{k}.") for k, v in splits.items()},
        by_position=tuple(
            PositionRow(
                json_field(r, "position", (int, type(None)), where=f"by_position[{i}]."),
                *_score_and_count(r, f"by_position[{i}]."),
            )
            for i, r in enumerate(rows)
        ),
    )
