"""Data mode per sample range: outputs do not depend on how the corpus is cut.

Split, infer and align run on contiguous sample ranges, in forked workers
when there is more than one. Every output byte must be the one-range run's,
the calibrated threshold must be the one picked on the statistics of all
ranges together, and a failure must land in the stage it belongs to, naming
the first failing sample in corpus order.
"""
from __future__ import annotations

import functools
import json
import multiprocessing
import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posdebias import pipeline
from posdebias.backends import GenerationResult, RecordingBackend, StubBackend, StubMode
from posdebias.corpus import Task, load_corpus
from posdebias.lowbias_infer import build_prompt, default_prompt_spec
from posdebias.metrics import tokenize
from posdebias.msa_align import DEFAULT_CANDIDATE_THRESHOLDS, DEFAULT_TARGET_KEEP_FRACTION, calibrate_threshold, gate_statistic
from posdebias.pipeline import PipelineError, infer_shards, parse_config, run_pipeline
from posdebias.records import load_candidates
from test_data_mode_bytes import dialogue_records


def lead_records(seed: int, n: int) -> list[dict]:
    """``n`` sum documents of 2-5 utterances whose target echoes one of them."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(30)] + ["café", "日本", "end."]
    records = []
    for d in range(n):
        utterances = [" ".join(rng.choice(words) for _ in range(rng.randint(2, 8))) for _ in range(rng.randint(2, 5))]
        target = [w for w in rng.choice(utterances).split() if rng.random() < 0.7] + [rng.choice(words)]
        records.append({"id": f"doc-{d:03d}", "task": "sum", "document": utterances, "target": " ".join(target)})
    return records


RECORDS = {"cqa": dialogue_records, "sum": lead_records}


def write_corpus(path: Path, records: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def run_on(shards: int, raw: dict) -> dict:
    """``run_pipeline`` on ``shards`` usable CPUs, so on as many sample ranges."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(shards)))
        return run_pipeline(parse_config(raw))


def run(corpus: Path, task: str, out_dir: Path, shards: int, thresholds=None) -> dict[str, bytes]:
    """Run data mode on ``shards`` ranges; every output file's bytes by path."""
    raw = {"out_dir": str(out_dir), "corpus": str(corpus), "task": task, "backend": "markov", "n_per_prompt": 2}
    if thresholds is not None:
        raw["align"] = {"candidate_thresholds": thresholds}
    run_on(shards, raw)
    assert multiprocessing.active_children() == []
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}


def all_stats(task: str, corpus: Path, candidates: Path) -> list[float]:
    """Every candidate's gate statistic, in sample order, computed here."""
    results = load_candidates(candidates)
    return [
        gate_statistic(Task(task), tokenize(sample.target), result)
        for sample in load_corpus(corpus, Task(task))
        for result in results.get(sample.id, ())
    ]


@settings(max_examples=8, deadline=None)
@given(
    task=st.sampled_from(sorted(RECORDS)),
    seed=st.integers(0, 2**16),
    n=st.integers(1, 9),
    thresholds=st.sampled_from([[0.1], [0.3], None]),
)
def test_outputs_do_not_depend_on_the_shard_count(task, seed, n, thresholds):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus = write_corpus(tmp / "corpus.jsonl", RECORDS[task](seed, n))
        want = run(corpus, task, tmp / "one", 1, thresholds)
        for shards in (2, 3):
            assert run(corpus, task, tmp / f"s{shards}", shards, thresholds) == want
        calibration = json.loads(want["align/seed0/calibration.json"])
        stats = all_stats(task, corpus, tmp / "one" / "infer" / "seed0" / "candidates.jsonl")
        assert len(stats) == 2 * n
        assert calibration["threshold"] == calibrate_threshold(
            stats, tuple(thresholds or DEFAULT_CANDIDATE_THRESHOLDS), DEFAULT_TARGET_KEEP_FRACTION
        )


@settings(max_examples=6, deadline=None)
@given(task=st.sampled_from(sorted(RECORDS)), seed=st.integers(0, 2**16), n=st.integers(2, 9), cut=st.floats(0, 1))
def test_a_corpus_files_are_its_halves_files_side_by_side(task, seed, n, cut):
    # With the threshold fixed, each sample's lines depend on that sample only.
    records = RECORDS[task](seed, n)
    k = 1 + int(cut * (n - 2))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        whole = run(write_corpus(tmp / "whole.jsonl", records), task, tmp / "whole", 2, [0.2])
        halves = [
            run(write_corpus(tmp / f"half{i}.jsonl", part), task, tmp / f"half{i}", 1, [0.2])
            for i, part in enumerate((records[:k], records[k:]))
        ]
    for name in ("split/biased.jsonl", "split/non_biased.jsonl", "infer/seed0/candidates.jsonl", "align/seed0/aligned.jsonl"):
        assert whole.get(name, b"") == b"".join(half.get(name, b"") for half in halves)
    evidence = [line for half in halves for line in half["split/evidence.jsonl"].splitlines(keepends=True)]
    assert whole["split/evidence.jsonl"] == b"".join(sorted(evidence, key=lambda line: json.loads(line)["id"]))


@pytest.fixture
def dialogues(tmp_path) -> Path:
    return write_corpus(tmp_path / "corpus.jsonl", dialogue_records(5, 10))


def manifest_stages(out_dir: Path) -> list[tuple[str, str]]:
    return [(s["stage"], s["status"]) for s in json.loads((out_dir / "manifest.json").read_text())["stages"]]


@pytest.mark.parametrize("missing, first", [({7}, 7), ({2, 7}, 2), ({8, 6}, 6)], ids=["second-range", "both-ranges", "twice-in-second"])
def test_a_backend_error_fails_infer_with_the_first_failing_prompt_of_the_corpus(tmp_path, dialogues, missing, first):
    spec = default_prompt_spec(Task.CQA)
    prompts = [build_prompt(s, spec)[0] for s in load_corpus(dialogues, Task.CQA)]
    table = tmp_path / "table.json"
    table.write_text(json.dumps({p: "a b" for i, p in enumerate(prompts) if i not in missing}), encoding="utf-8")
    out_dir = tmp_path / "out"
    raw = {"out_dir": str(out_dir), "corpus": str(dialogues), "task": "cqa", "backend": f"table:{table}"}
    with pytest.raises(PipelineError, match=f"^stage 'infer' failed: prompt {first}: stub table has no entry") as info:
        run_on(2, raw)
    assert info.value.__cause__.prompt_index == first
    assert multiprocessing.active_children() == []
    assert manifest_stages(out_dir) == [("split", "ok"), ("infer", "failed")]


def test_a_gate_statistic_error_fails_align_not_infer(tmp_path, dialogues, monkeypatch):
    def gate_statistic(task, target_tokens, candidate):
        raise ValueError("injected gate failure")

    monkeypatch.setattr(pipeline, "gate_statistic", gate_statistic)  # forked workers inherit the patch
    out_dir = tmp_path / "out"
    raw = {"out_dir": str(out_dir), "corpus": str(dialogues), "task": "cqa"}
    with pytest.raises(PipelineError, match="^stage 'align' failed: injected gate failure$"):
        run_on(2, raw)
    assert multiprocessing.active_children() == []
    assert manifest_stages(out_dir) == [("split", "ok"), ("infer", "ok"), ("align", "failed")]
    assert (out_dir / "infer" / "seed0" / "candidates.jsonl").read_text().count("\n") == 10 * 3


def test_an_exception_that_cannot_be_pickled_keeps_its_stage_and_message(tmp_path, dialogues, monkeypatch):
    class TwoPartError(Exception):
        def __init__(self, left, right):
            super().__init__(f"{left}/{right}")

    def gate_statistic(task, target_tokens, candidate):
        raise TwoPartError("gate", "broken")

    monkeypatch.setattr(pipeline, "gate_statistic", gate_statistic)
    raw = {"out_dir": str(tmp_path / "out"), "corpus": str(dialogues), "task": "cqa"}
    with pytest.raises(PipelineError, match="^stage 'align' failed: gate/broken$"):
        run_on(2, raw)
    assert multiprocessing.active_children() == []


def test_a_recording_backend_stays_on_one_range(tmp_path, dialogues):
    corpus = load_corpus(dialogues, Task.CQA)
    recording = tmp_path / "traffic.jsonl"
    shards = infer_shards(corpus, RecordingBackend(StubBackend(StubMode.MARKOV), recording), 1, 0, 8, shards=2)
    assert len(shards) == 1
    spec = default_prompt_spec(Task.CQA)
    # A str line break is not a JSONL one: some dialogue words hold U+2028.
    prompts = [json.loads(line)["request"]["prompt"] for line in recording.read_text(encoding="utf-8").split("\n") if line]
    assert prompts == [build_prompt(s, spec)[0] for s in corpus]


class EchoBackend:
    """A caller's own backend: ``complete`` and ``backend_id``, nothing more."""

    backend_id = "own"

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        return GenerationResult("a b", ("a", "b"), (-0.5, -0.5), self.backend_id)


@pytest.mark.parametrize("backend, ranges", [(EchoBackend(), 1), (StubBackend(StubMode.MARKOV), 2)], ids=["own", "stub"])
def test_only_a_backend_that_sets_forks_safely_is_forked(dialogues, backend, ranges):
    shards = infer_shards(load_corpus(dialogues, Task.CQA), backend, 1, 0, 8, shards=2)
    assert len(shards) == ranges
    assert all(shard.results is None for shard in shards) == (ranges > 1)
    assert multiprocessing.active_children() == []


def test_a_wrapped_per_sample_function_sees_every_call(tmp_path, dialogues, monkeypatch):
    # A tracer wraps what it times; a forked worker's calls would never reach it.
    calls = []

    @functools.wraps(gate_statistic)
    def traced(task, target_tokens, candidate):
        calls.append(candidate.text)
        return gate_statistic(task, target_tokens, candidate)

    monkeypatch.setattr(pipeline, "gate_statistic", traced)
    out_dir = tmp_path / "out"
    run_on(2, {"out_dir": str(out_dir), "corpus": str(dialogues), "task": "cqa"})
    verdicts = (out_dir / "align" / "seed0" / "aligned.jsonl").read_text(encoding="utf-8").split("\n")[:-1]
    assert calls == [json.loads(line)["text"] for line in verdicts]
    assert len(calls) == 10 * 3
