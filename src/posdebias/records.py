"""JSONL and JSON record formats shared by ``posdebias run`` and the CLI verbs.

One encoder and one decoder per artifact kind: low-bias candidates,
aligned verdicts, per-step training traces, per-epoch training summaries,
and eval entries (the JSON form of a ``report.SystemEval``). Writers emit
records in the order given; readers name the file and line of the first
bad record.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .backends import GenerationResult
from .corpus import write_jsonl
from .metrics import PositionRow
from .msa_align import AlignedResponse, RejectionReason
from .report import SystemEval
from .toy_model import EpochSummary, TraceEntry


def _read_jsonl(path: str | Path, decode) -> Iterator[tuple[int, object]]:
    """``(line number, decode(record))`` for every non-blank line."""
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                yield line_no, decode(json.loads(line))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from exc


def write_candidates(candidates: Mapping[str, Sequence[GenerationResult]], path: str | Path) -> Path:
    """Candidates JSONL: one line per candidate, grouped by sample."""
    return write_jsonl(
        (
            {
                "sample_id": sample_id,
                "candidate_index": k,
                "text": result.text,
                "tokens": list(result.tokens),
                "token_logprobs": list(result.token_logprobs),
                "backend_id": result.backend_id,
            }
            for sample_id, results in candidates.items()
            for k, result in enumerate(results)
        ),
        path,
    )


def _candidate_from_record(record: dict) -> tuple[str, int | None, GenerationResult]:
    result = GenerationResult(
        text=record["text"],
        tokens=tuple(record["tokens"]),
        token_logprobs=tuple(record["token_logprobs"]),
        backend_id=record.get("backend_id", "unknown"),
    )
    return record["sample_id"], record.get("candidate_index"), result


def load_candidates(path: str | Path) -> dict[str, list[GenerationResult]]:
    """Candidates by sample id, in order of first appearance in the file.

    Within a sample, candidates sort by ``candidate_index`` (line number
    when absent).
    """
    grouped: dict[str, list[tuple[int, GenerationResult]]] = {}
    for line_no, (sample_id, index, result) in _read_jsonl(path, _candidate_from_record):
        grouped.setdefault(sample_id, []).append((line_no if index is None else index, result))
    return {
        sid: [result for _, result in sorted(pairs, key=lambda p: p[0])]
        for sid, pairs in grouped.items()
    }


def write_aligned(aligned: Mapping[str, Sequence[AlignedResponse]], path: str | Path) -> Path:
    """Aligned JSONL: one verdict per candidate, reasons sorted by name."""
    return write_jsonl(
        (
            {
                "sample_id": verdict.sample_id,
                "text": verdict.text,
                "token_logprobs": list(verdict.token_logprobs),
                "kept": verdict.kept,
                "rejection_reasons": sorted(r.value for r in verdict.rejection_reasons),
            }
            for verdicts in aligned.values()
            for verdict in verdicts
        ),
        path,
    )


def _aligned_from_record(record: dict) -> AlignedResponse:
    return AlignedResponse(
        sample_id=record["sample_id"],
        text=record["text"],
        token_logprobs=tuple(record["token_logprobs"]),
        kept=record["kept"],
        rejection_reasons=frozenset(
            RejectionReason(r) for r in record.get("rejection_reasons", ())
        ),
    )


def load_aligned(path: str | Path) -> dict[str, list[AlignedResponse]]:
    """Verdicts by sample id, in file order."""
    grouped: dict[str, list[AlignedResponse]] = {}
    for _, verdict in _read_jsonl(path, _aligned_from_record):
        grouped.setdefault(verdict.sample_id, []).append(verdict)
    return grouped


def write_trace(trace: Iterable[TraceEntry], path: str | Path) -> Path:
    """Trace JSONL: one line per gradient step with its loss terms."""
    return write_jsonl(
        (
            {
                "step": t.step,
                "epoch": t.epoch,
                "sample_id": t.sample_id,
                "l_target": t.l_target,
                "l_align": t.l_align,
                "combined": t.combined,
            }
            for t in trace
        ),
        path,
    )


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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entry, indent=2, sort_keys=True), encoding="utf-8")
    return path


def load_eval(path: str | Path) -> SystemEval:
    """Inverse of ``write_eval``; missing optional keys default to empty.

    Raises ``KeyError``, ``TypeError`` or ``ValueError`` on a malformed file.
    """
    entry = json.loads(Path(path).read_text(encoding="utf-8"))
    return SystemEval(
        system=entry["system"],
        metric=entry.get("metric", "score"),
        splits={k: (v["score"], v["count"]) for k, v in entry.get("splits", {}).items()},
        by_position=tuple(
            PositionRow(r["position"], r["score"], r["count"])
            for r in entry.get("by_position", ())
        ),
    )
