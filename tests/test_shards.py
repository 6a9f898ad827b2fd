"""Data mode per sample range: outputs do not depend on how the corpus is cut.

Split, infer and align run on contiguous sample ranges, in forked workers
when there is more than one; in data mode each worker decodes its own lines
of the corpus file. Every output byte must be the one-range run's, the
calibrated threshold must be the one picked on the statistics of all ranges
together, and a failure must land in the stage it belongs to, naming the
first failing sample, or the first bad line, in corpus order.
"""
from __future__ import annotations

import dataclasses
import errno
import functools
import json
import multiprocessing
import os
import pickle
import random
import tempfile
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from posdebias import corpus as corpus_mod
from posdebias import pipeline
from posdebias.backends import BackendError, GenerationResult, StubBackend, StubMode
from posdebias.cli import main
from posdebias.corpus import Corpus, CorpusError, Task, load_corpus, read_text
from posdebias.lowbias_infer import build_prompt, default_prompt_spec
from posdebias.metrics import tokenize
from posdebias.msa_align import DEFAULT_CANDIDATE_THRESHOLDS, DEFAULT_TARGET_KEEP_FRACTION, AlignmentConfig, calibrate_threshold, gate_statistic
from posdebias.pipeline import PipelineConfig, PipelineError, corpus_pass, parse_config, run_pipeline
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
    """``run_pipeline`` with ``RANGE_LINES`` set to cut the corpus file into
    ``shards`` line ranges (fewer when it has too few lines)."""
    lines = Path(raw["corpus"]).read_bytes().count(b"\n")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "RANGE_LINES", max(1, -(-lines // shards)))
        return run_pipeline(parse_config(raw))


def run(corpus: Path, task: str, out_dir: Path, shards: int, thresholds=None, backend: str = "markov") -> dict[str, bytes]:
    """Run data mode on ``shards`` ranges; every output file's bytes by path."""
    raw = {"out_dir": str(out_dir), "corpus": str(corpus), "task": task, "backend": backend, "n_per_prompt": 2}
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
        with pytest.MonkeyPatch.context() as patch:  # a backend of the caller's own: its ranges run in-process
            patch.setattr(StubBackend, "forks_safely", False)
            for shards in (1, 2, 3):
                assert run(corpus, task, tmp / f"own{shards}", shards, thresholds) == want
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


@pytest.mark.parametrize("ranges", [2, 3])
@pytest.mark.parametrize("missing, first", [({7}, 7), ({2, 7}, 2), ({8, 6}, 6)], ids=["second-range", "both-ranges", "twice-in-second"])
def test_a_backend_error_fails_infer_with_the_first_failing_prompt_of_the_corpus(tmp_path, dialogues, missing, first, ranges):
    spec = default_prompt_spec(Task.CQA)
    prompts = [build_prompt(s, spec)[0] for s in load_corpus(dialogues, Task.CQA)]
    table = tmp_path / "table.json"
    table.write_text(json.dumps({p: "a b" for i, p in enumerate(prompts) if i not in missing}), encoding="utf-8")
    out_dir = tmp_path / "out"
    raw = {"out_dir": str(out_dir), "corpus": str(dialogues), "task": "cqa", "backend": f"table:{table}"}
    with pytest.raises(PipelineError, match=f"^stage 'infer' failed: prompt {first}: stub table has no entry") as info:
        run_on(ranges, raw)
    assert info.value.__cause__.prompt_index == first
    assert multiprocessing.active_children() == []
    assert manifest_stages(out_dir) == [("split", "ok"), ("infer", "failed")]


#: One bad line of each kind, as the corpus line it replaces would be
#: written, for ``test_the_first_bad_line_fails_split_whatever_the_ranges``.
BAD_LINES = {
    "malformed-json": lambda record, first: b'{"id": "cut short", ',
    "invalid-sample": lambda record, first: json.dumps({**record, "target": "  "}).encode(),
    "duplicate-id": lambda record, first: json.dumps({**record, "id": first["id"]}).encode(),
    "bad-utf8": lambda record, first: json.dumps(record).encode().replace(b"dlg-", b"dlg-\xff"),
    # Deeper than the interpreter's recursion limit, which RFC 8259 section 9 lets a parser set.
    "too-deep": lambda record, first: b'{"document": ' + b"[" * 5000 + b"]" * 5000 + b"}",
}


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from([*BAD_LINES, "blank-only"]), n=st.integers(5, 9), where=st.floats(0, 1), seed=st.integers(0, 2**16))
def test_the_first_bad_line_fails_split_whatever_the_ranges(kind, n, where, seed):
    # The bad line replaces any line but the first, so a duplicate's first use sits in an earlier range.
    records = dialogue_records(seed, n)
    lines = [json.dumps(r).encode() for r in records]
    if kind == "blank-only":
        lines = [b" \t" if i % 2 else b"" for i in range(n)]
    else:
        bad = 1 + int(where * (n - 2))
        lines[bad] = BAD_LINES[kind](records[bad], records[0])
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        corpus.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(CorpusError) as info:
            load_corpus(corpus, Task.CQA)
        want = f"stage 'split' failed: {info.value}"
        manifests = set()
        for ranges in (1, 2, 3):
            out_dir = Path(tmp) / f"r{ranges}"
            raw = {"out_dir": str(out_dir), "corpus": str(corpus), "task": "cqa", "backend": "markov"}
            with pytest.raises(PipelineError) as failed:
                run_on(ranges, raw)
            assert str(failed.value) == want
            assert multiprocessing.active_children() == []
            assert [p.name for p in out_dir.rglob("*")] == ["manifest.json"]
            manifests.add((out_dir / "manifest.json").read_bytes())
    (manifest,) = manifests
    assert json.loads(manifest)["stages"] == [{"stage": "split", "status": "failed", "error": str(info.value), "artifacts": []}]


def test_a_range_stops_at_its_own_first_bad_line(tmp_path):
    text = "".join(json.dumps(r) + "\n" for r in dialogue_records(3, 6)).replace('"dlg-0004"', '"dlg-0004",', 1)
    job = pipeline._Job(Task.CQA, source=(tmp_path / "c.jsonl", text), split=(frozenset({0}), ()))
    first, second = corpus_mod.line_ranges(text, [(0, 3), (3, 6)])
    assert (first[2:], second[2:]) == ((1, 0), (4, 3))
    shard = pipeline._shard(job, second)
    assert list(shard.ids.items()) == [("dlg-0003", 4)]
    assert shard.error[0] == "corpus" and str(shard.error[1]).startswith(f"{tmp_path / 'c.jsonl'}: line 5: malformed JSON")
    assert (shard.biased, shard.non_biased, shard.evidence, shard.n_biased) == ("", "", "", 0)
    assert pipeline._shard(job, first).error is None


def test_a_forked_data_run_decodes_no_line_in_the_parent_and_writes_the_same_bytes(tmp_path, monkeypatch):
    corpus = write_corpus(tmp_path / "corpus.jsonl", dialogue_records(11, 24))
    decoded = tmp_path / "decoded-by"
    decode = corpus_mod._sample_from_record

    def recorded(record, task):  # forked workers inherit the patch, and append to the same file
        with decoded.open("a") as handle:
            handle.write(f"{os.getpid()}\n")
        return decode(record, task)

    monkeypatch.setattr(corpus_mod, "_sample_from_record", recorded)
    outputs = {}
    for ranges in (1, 2, 3, 8):
        decoded.unlink(missing_ok=True)
        outputs[ranges] = run(corpus, "cqa", tmp_path / f"r{ranges}", ranges)
        pids = decoded.read_text().split()
        assert len(pids) == 24
        assert (str(os.getpid()) in pids) == (ranges == 1)
    assert "manifest.json" in outputs[1]
    for ranges in (2, 3, 8):
        assert outputs[ranges] == outputs[1], ranges


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


@pytest.mark.parametrize("forks", [True, False], ids=["forked", "in-process"])
def test_an_exception_that_cannot_be_pickled_keeps_its_stage_and_message(tmp_path, dialogues, monkeypatch, forks):
    class TwoPartError(Exception):
        def __init__(self, left, right):
            super().__init__(f"{left}/{right}")

    def gate_statistic(task, target_tokens, candidate):
        raise TwoPartError("gate", "broken")

    monkeypatch.setattr(pipeline, "gate_statistic", gate_statistic)
    monkeypatch.setattr(StubBackend, "forks_safely", forks)
    raw = {"out_dir": str(tmp_path / "out"), "corpus": str(dialogues), "task": "cqa"}
    with pytest.raises(PipelineError, match="^stage 'align' failed: gate/broken$") as info:
        run_on(2, raw)
    assert multiprocessing.active_children() == []
    # Only a forked range's exception crosses a pipe; an in-process one is kept as raised.
    assert type(info.value.__cause__) is (RuntimeError if forks else TwoPartError)


def infer_options(n_per_prompt: int, seed: int, max_tokens: int) -> dict:
    """The ``generate`` keywords of a ``corpus_pass`` that infers, one request at a time."""
    return {"n_per_prompt": n_per_prompt, "seed": seed, "max_tokens": max_tokens, "max_in_flight": 1}


def test_a_recorded_pass_forks_and_records_in_prompt_order(tmp_path, dialogues, monkeypatch):
    corpus = load_corpus(dialogues, Task.CQA)
    spec = default_prompt_spec(Task.CQA)
    monkeypatch.setattr(pipeline, "RANGE_LINES", 5)  # two ranges of the ten lines
    shards, _ = corpus_pass(dialogues, Task.CQA, infer=(StubBackend(StubMode.MARKOV), spec, infer_options(1, 0, 8)), record=True)
    assert len(shards) == 2
    assert multiprocessing.active_children() == []
    # A str line break is not a JSONL one: some dialogue words hold U+2028.
    prompts = [json.loads(line)["request"]["prompt"] for line in "".join(shard.take("record") for shard in shards).split("\n") if line]
    assert prompts == [build_prompt(s, spec)[0] for s in corpus]


def record_oracle(corpus: Corpus, backend, n_per_prompt: int, seed: int, max_tokens: int) -> list[str]:
    """The record lines of ``corpus``, one per candidate in prompt order, as
    ``json.dumps`` writes each exchange, from ``backend`` called directly."""
    spec = default_prompt_spec(corpus.task)
    lines = []
    for sample in corpus:
        for prompt in build_prompt(sample, spec):
            for k in range(n_per_prompt):
                result = backend.complete(prompt, max_tokens=max_tokens, seed=seed + k)
                request = {"prompt": prompt, "max_tokens": max_tokens, "seed": seed + k, "logprobs": True}
                response = {"text": result.text, "tokens": list(result.tokens), "token_logprobs": list(result.token_logprobs)}
                lines.append(json.dumps({"request": request, "response": response}, ensure_ascii=False) + "\n")
    return lines


@settings(max_examples=8, deadline=None)
@given(task=st.sampled_from(["cqa", "cqg", "sum"]), seed=st.integers(0, 2**16), n=st.integers(1, 7), n_per_prompt=st.integers(1, 3))
def test_record_bytes_do_not_depend_on_requests_in_flight_or_ranges(task, seed, n, n_per_prompt):
    # cqg prompts each sample five times (the diverse strategy).
    records = [{**r, "task": "cqg"} for r in dialogue_records(seed, n)] if task == "cqg" else RECORDS[task](seed, n)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        corpus_file = write_corpus(Path(tmp) / "corpus.jsonl", records)
        corpus = load_corpus(corpus_file, Task(task))
        want = "".join(record_oracle(corpus, StubBackend(StubMode.MARKOV), n_per_prompt, seed, 6)).encode("utf-8")
        for max_in_flight, shards in ((1, 1), (2, 1), (4, 1), (1, 2), (1, 3), (4, 3)):
            recording = Path(tmp) / f"record-{max_in_flight}-{shards}.jsonl"
            patch.setattr(pipeline, "RANGE_LINES", -(-n // shards))
            result = CliRunner().invoke(main, [
                "infer", "--corpus", str(corpus_file), "--task", task, "--backend", "markov", "--out", str(Path(tmp) / "candidates.jsonl"),
                "--n-per-prompt", str(n_per_prompt), "--seed", str(seed), "--max-tokens", "6", "--max-in-flight", str(max_in_flight),
                "--record", str(recording),
            ], catch_exceptions=False)
            assert result.exit_code == 0, result.output
            assert recording.read_bytes() == want, (max_in_flight, shards)
    assert multiprocessing.active_children() == []


class FailingMarkov:
    """The markov stub, but a ``BackendError`` for the second candidate
    (seed 1) of the prompts in ``failing``: their first is drawn, and not
    recorded. Without ``forks_safely`` it is a caller's own backend."""

    backend_id = "stub-markov"

    def __init__(self, failing: set[str], forks_safely: bool = True) -> None:
        self.failing, self.markov, self.forks_safely = failing, StubBackend(StubMode.MARKOV), forks_safely
        self.called: list[str] = []  # the prompts of the calls made in this process

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        self.called.append(prompt)
        if prompt in self.failing and seed == 1:
            raise BackendError("scripted failure")
        return self.markov.complete(prompt, max_tokens=max_tokens, seed=seed)


@pytest.mark.parametrize("forks", [True, False], ids=["forked", "in-process"])
@pytest.mark.parametrize("max_in_flight", [1, 3])
@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("failing, first", [({0}, 0), ({4}, 4), ({6, 2}, 2), ({9}, 9)])
def test_a_failing_prompt_leaves_the_record_lines_of_the_prompts_before_it(tmp_path, dialogues, monkeypatch, failing, first, shards, max_in_flight, forks):
    corpus = load_corpus(dialogues, Task.CQA)
    prompts = [build_prompt(s, default_prompt_spec(Task.CQA))[0] for s in corpus]
    recording = tmp_path / "traffic.jsonl"
    recording.write_text("an older recording\n", encoding="utf-8")
    backend = FailingMarkov({prompts[i] for i in failing}, forks)
    monkeypatch.setattr("posdebias.cli.resolve_backend", lambda spec: backend)
    monkeypatch.setattr(pipeline, "RANGE_LINES", -(-10 // shards))
    result = CliRunner().invoke(main, [
        "infer", "--corpus", str(dialogues), "--task", "cqa", "--out", str(tmp_path / "candidates.jsonl"),
        "--n-per-prompt", "2", "--max-tokens", "8", "--max-in-flight", str(max_in_flight), "--record", str(recording),
    ])
    assert (result.exit_code, result.output) == (1, f"Error: prompt {first}: scripted failure\n")
    want = record_oracle(corpus, StubBackend(StubMode.MARKOV), 2, 0, 8)[: 2 * first]
    assert recording.read_bytes() == "".join(want).encode("utf-8")
    assert multiprocessing.active_children() == []
    if not forks:  # no call from a range after the failing prompt's, which ends before line ``end``
        end = min(10 * k // shards for k in range(1, shards + 1) if first < 10 * k // shards)
        assert max(map(prompts.index, backend.called)) < end


def test_an_in_process_pass_calls_no_range_after_its_first_failing_prompt(tmp_path, dialogues, monkeypatch):
    prompts = [build_prompt(s, default_prompt_spec(Task.CQA))[0] for s in load_corpus(dialogues, Task.CQA)]
    whole = run(dialogues, "cqa", tmp_path / "whole", 1)
    backend = FailingMarkov({prompts[1]}, forks_safely=False)
    monkeypatch.setattr(pipeline, "resolve_backend", lambda spec: backend)
    out_dir = tmp_path / "out"
    raw = {"out_dir": str(out_dir), "corpus": str(dialogues), "task": "cqa", "n_per_prompt": 2}
    with pytest.raises(PipelineError, match="^stage 'infer' failed: prompt 1: scripted failure$"):
        run_on(3, raw)  # ranges of lines 1-3, 4-6 and 7-10
    assert set(backend.called) == set(prompts[:2])
    assert manifest_stages(out_dir) == [("split", "ok"), ("infer", "failed")]
    for name in ("biased.jsonl", "non_biased.jsonl", "evidence.jsonl"):
        assert (out_dir / "split" / name).read_bytes() == whole[f"split/{name}"]


def test_a_url_run_writes_the_same_bytes_at_one_and_three_ranges(tmp_path, dialogues, local_server):
    server, url = local_server
    one, three = (run(dialogues, "cqa", tmp_path / f"r{ranges}", ranges, backend=f"url:{url}") for ranges in (1, 3))
    assert "manifest.json" in one and three == one
    assert len(server.requests) == 2 * 10 * 2


class EchoBackend:
    """A caller's own backend: ``complete`` and ``backend_id``, nothing more."""

    backend_id = "own"

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        return GenerationResult("a b", ("a", "b"), (-0.5, -0.5), self.backend_id)


@pytest.mark.parametrize("backend, forks", [(EchoBackend(), False), (StubBackend(StubMode.MARKOV), True)], ids=["own", "stub"])
def test_only_a_backend_that_sets_forks_safely_is_forked(dialogues, monkeypatch, backend, forks):
    monkeypatch.setattr(pipeline, "RANGE_LINES", 5)  # two ranges of the ten lines
    forked, fork_map = [], pipeline._fork_map
    monkeypatch.setattr(pipeline, "_fork_map", lambda *args: (forked.append(args), fork_map(*args))[1])
    shards, _ = corpus_pass(dialogues, Task.CQA, infer=(backend, default_prompt_spec(Task.CQA), infer_options(1, 0, 8)))
    assert len(shards) == 2
    assert bool(forked) == forks
    assert all(shard.results is None for shard in shards)
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


# -- part files: a forked range hands its text blocks over on disk ----------


@pytest.fixture
def temp_dir(tmp_path, monkeypatch) -> Path:
    """``tempfile``'s directory, where a forked pass makes its part files."""
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    return temp


@pytest.fixture
def dropped(monkeypatch) -> list[Path]:
    """The part files ``_drop_part`` is called on, in order."""
    paths = []
    drop = pipeline._drop_part
    monkeypatch.setattr(pipeline, "_drop_part", lambda path: (paths.append(Path(path)), drop(path)))
    return paths


def test_a_forked_range_sends_under_a_tenth_of_its_output_bytes(tmp_path, temp_dir, monkeypatch):
    # The pass of a data-mode run: the pipe carries the evidence, ids, gate
    # statistics and reasons; every other block goes through the part file.
    corpus = write_corpus(tmp_path / "corpus.jsonl", dialogue_records(7, 90))
    monkeypatch.setattr(pipeline, "RANGE_LINES", 30)  # three ranges
    options = {"n_per_prompt": PipelineConfig.n_per_prompt, "seed": 0, "max_tokens": PipelineConfig.max_tokens, "max_in_flight": 1}
    job = pipeline._Job(
        Task.CQA, source=(corpus, read_text(corpus)), split=(PipelineConfig.biased_positions, PipelineConfig.triggers),
        infer=(StubBackend(StubMode.MARKOV), default_prompt_spec(Task.CQA), options), align=AlignmentConfig(),
    )
    shards = pipeline._run_shards(job)
    assert len(shards) == 3
    assert multiprocessing.active_children() == []
    for shard in shards:
        sent = len(pickle.dumps(dataclasses.replace(shard, drop=None)))  # ``drop`` is the parent's own
        output = len(shard.evidence.encode("utf-8")) + sum(size for _, size in shard.spans.values())
        assert sent < output / 10, (sent, output)
    # A part file goes as its last block is read, while its shard lives on.
    for name in ("biased", "non_biased", "candidates"):
        assert all(shard.take(name) for shard in shards)
    assert all(Path(shard.part).exists() for shard in shards)
    assert all(shard.take("heads") for shard in shards)
    assert list(temp_dir.iterdir()) == []


def test_a_pass_whose_workers_break_leaves_no_part_directory(tmp_path, temp_dir, dialogues, monkeypatch):
    def fork_map(fn, state, items, workers):
        raise BrokenProcessPool("a worker died")

    monkeypatch.setattr(pipeline, "_fork_map", fork_map)
    with pytest.raises(PipelineError, match="^stage 'split' failed: a worker died$"):
        run_on(3, {"out_dir": str(tmp_path / "out"), "corpus": str(dialogues), "task": "cqa"})
    assert list(temp_dir.iterdir()) == []


@pytest.mark.parametrize("forks", [True, False], ids=["forked", "in-process"])
@pytest.mark.parametrize("case", ["ok", "bad-line", "missing-prompt", "gate-error", "part-write"])
def test_a_forked_run_leaves_no_part_file_and_no_worker(tmp_path, temp_dir, dropped, monkeypatch, case, forks):
    monkeypatch.setattr(StubBackend, "forks_safely", forks)  # the markov and table: stubs, or as a caller's own
    records = dialogue_records(5, 9)
    lines = [json.dumps(r) for r in records]
    raw = {"out_dir": str(tmp_path / "out"), "corpus": str(tmp_path / "corpus.jsonl"), "task": "cqa"}
    failure = None
    if case == "bad-line":  # in range 2 of 3
        lines[4] = '{"id": "cut short", '
        failure = f"^stage 'split' failed: {tmp_path / 'corpus.jsonl'}: line 5: malformed JSON"
    elif case == "missing-prompt":
        spec = default_prompt_spec(Task.CQA)
        prompts = [build_prompt(s, spec)[0] for s in load_corpus(write_corpus(tmp_path / "corpus.jsonl", records), Task.CQA)]
        (tmp_path / "table.json").write_text(json.dumps({p: "a b" for p in prompts[:7]}), encoding="utf-8")
        raw["backend"] = f"table:{tmp_path / 'table.json'}"
        failure = "^stage 'infer' failed: prompt 7: stub table has no entry"
    elif case == "gate-error":
        def gate_statistic(task, target_tokens, candidate):
            raise ValueError("injected gate failure")

        monkeypatch.setattr(pipeline, "gate_statistic", gate_statistic)
        failure = "^stage 'align' failed: injected gate failure$"
    elif case == "part-write":
        spill = pipeline._spill

        def full(shard, path):  # the part file is there, but not whole
            spill(shard, path)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pipeline, "_spill", full)
        failure = r"^stage 'split' failed: \[Errno 28\] No space left on device$"
    (tmp_path / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if failure is None:
        run_on(3, raw)
    else:
        with pytest.raises(PipelineError, match=failure):
            run_on(3, raw)
    assert multiprocessing.active_children() == []
    assert list(temp_dir.iterdir()) == []
    (directory,) = {path.parent for path in dropped}
    assert directory.parent == temp_dir and len(dropped) == 3


VERBS = {
    "split": lambda corpus, out: ["split", "--corpus", corpus, "--task", "cqa", "--out-dir", out],
    "infer": lambda corpus, out: ["infer", "--corpus", corpus, "--task", "cqa", "--out", f"{out}/candidates.jsonl"],
    "infer-record": lambda corpus, out: [
        "infer", "--corpus", corpus, "--task", "cqa", "--out", f"{out}/candidates.jsonl", "--record", f"{out}/traffic.jsonl",
    ],
    "infer-icl": lambda corpus, out: [
        "infer", "--corpus", corpus, "--task", "cqa", "--strategy", "icl", "--out", f"{out}/candidates.jsonl",
    ],
    "align": lambda corpus, out: [
        "align", "--candidates", str(Path(corpus).parent / "candidates.jsonl"), "--task", "cqa", "--corpus", corpus,
        "--out", f"{out}/aligned.jsonl",
    ],
    # Without a corpus, the ranges are of the samples built from the candidates' ids.
    "align-cqg": lambda corpus, out: [
        "align", "--candidates", str(Path(corpus).parent / "candidates.jsonl"), "--task", "cqg", "--out", f"{out}/aligned.jsonl",
    ],
}


@pytest.mark.parametrize("verb", VERBS)
def test_a_forking_verb_writes_the_same_bytes_at_one_and_three_ranges(tmp_path, temp_dir, dropped, monkeypatch, verb):
    corpus = write_corpus(tmp_path / "corpus.jsonl", dialogue_records(9, 12))
    runner = CliRunner()
    runner.invoke(main, VERBS["infer"](str(corpus), str(tmp_path)), catch_exceptions=False)  # what align reads
    decoded = tmp_path / "decoded-by"
    decode = corpus_mod._sample_from_record

    def recorded(record, task):  # forked workers inherit the patch, and append to the same file
        with decoded.open("a") as handle:
            handle.write(f"{os.getpid()}\n")
        return decode(record, task)

    monkeypatch.setattr(corpus_mod, "_sample_from_record", recorded)
    # The corpus lines the pass decodes, and those ICL's exemplars take in the parent.
    lines, exemplar_lines = (0 if verb == "align-cqg" else 12), (12 if verb == "infer-icl" else 0)
    seen = []
    for ranges in (1, 3):
        out = tmp_path / f"r{ranges}"
        monkeypatch.setattr(pipeline, "RANGE_LINES", 12 // ranges)
        decoded.unlink(missing_ok=True)
        dropped.clear()
        result = runner.invoke(main, VERBS[verb](str(corpus), str(out)), catch_exceptions=False)
        assert result.exit_code == 0, result.output
        assert multiprocessing.active_children() == []
        assert list(temp_dir.iterdir()) == []
        assert len(dropped) == ranges  # one part file per range, forked or not
        pids = decoded.read_text().split() if decoded.exists() else []
        in_parent = pids.count(str(os.getpid()))
        assert (in_parent, len(pids) - in_parent) == ((exemplar_lines + lines, 0) if ranges == 1 else (exemplar_lines, lines))
        seen.append((result.output.replace(str(out), "OUT"), {p.name: p.read_bytes() for p in out.iterdir()}))
    assert seen[0] == seen[1]
    if verb.startswith("infer"):
        assert seen[0][0] == "infer: 36 candidates -> OUT/candidates.jsonl\n"
