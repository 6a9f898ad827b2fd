"""Rejection gates, task-specific gate combinations and threshold
calibration; the gates run through ``align_corpus``, the pipeline's align
pass on one in-process range, which calibrates the threshold (one candidate
threshold fixes it) and decides the verdicts (``align_responses``)."""
from __future__ import annotations

import math
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posdebias import msa_align, pipeline
from posdebias.backends import GenerationResult
from posdebias.corpus import Sample, Task
from posdebias.metrics import tokenize
from posdebias.msa_align import (
    DEFAULT_CANDIDATE_THRESHOLDS,
    DEFAULT_DULL_PATTERNS,
    DEFAULT_INSTRUCTION_KEYWORDS,
    DEFAULT_TARGET_KEEP_FRACTION,
    VERDICTS,
    AlignmentConfig,
    RejectionReason,
    align_responses,
    calibrate_threshold,
    form_reasons,
    gate_statistic,
)
from posdebias.pipeline import parse_config

from conftest import dialogue_sample


def align_in_process(task: Task, samples, candidates, config: AlignmentConfig) -> list[pipeline.Shard]:
    """The gate statistics and verdict heads of ``candidates`` in ``samples``
    order, from ``_shard`` on one in-process range."""
    shards = [pipeline._shard(pipeline._Job(task, tuple(samples), candidates=candidates, align=config), (0, len(samples)))]
    pipeline._raise_for(shards, "align")
    return shards


def align_corpus(task: Task, samples, candidates, config: AlignmentConfig):
    """Verdicts for every candidate, keyed by sample id in ``samples`` order,
    and the calibrated threshold (``None``, with no verdict, when there is
    no candidate), from ``align_in_process``."""
    (shard,) = align_in_process(task, samples, candidates, config)
    if not shard.stats:
        return {}, None
    threshold = calibrate_threshold(shard.stats, config.candidate_thresholds, config.target_keep_fraction)
    verdicts = iter(align_responses(task, shard.stats, shard.reasons, config, threshold))
    return {s.id: list(islice(verdicts, len(candidates[s.id]))) for s in samples if candidates.get(s.id)}, threshold


def result(text: str, logprobs: tuple[float, ...] | None = None) -> GenerationResult:
    tokens = tuple(text.split())
    if logprobs is None:
        logprobs = (math.log(0.5),) * len(tokens)
    return GenerationResult(text, tokens, logprobs, "test")


def gate_sample(task: Task) -> Sample:
    return dialogue_sample(
        "s", ["the cat sat down"], "pq", "the cat sat down", "q", "the cat sat down", task=task
    )


def align_fixed(task: Task, sample: Sample, cands: list[GenerationResult], threshold: float):
    """``align_corpus`` verdicts for one sample with the threshold fixed at ``threshold``."""
    aligned, chosen = align_corpus(
        task, [sample], {sample.id: cands}, AlignmentConfig(candidate_thresholds=(threshold,))
    )
    assert chosen == threshold
    return aligned[sample.id]


def reasons(task: Task, cand: GenerationResult, threshold: float) -> frozenset[RejectionReason]:
    """Rejection reasons of one candidate with the gate threshold fixed at ``threshold``."""
    return align_fixed(task, gate_sample(task), [cand], threshold)[0].rejection_reasons


def form(text: str, keywords=DEFAULT_INSTRUCTION_KEYWORDS, patterns=DEFAULT_DULL_PATTERNS) -> frozenset[RejectionReason]:
    """``form_reasons`` of one question-generation candidate, decoded."""
    config = AlignmentConfig(instruction_keywords=keywords, dull_patterns=patterns)
    return VERDICTS[form_reasons(Task.CQG, result(text), config)].rejection_reasons


class TestNonCompliant:
    def test_keyword_present_is_compliant(self):
        assert RejectionReason.NON_COMPLIANT not in form("What is the capital?", ("what",))

    def test_keyword_absent_is_noncompliant(self):
        assert RejectionReason.NON_COMPLIANT in form("Who won the game?", ("what",))

    def test_whole_token_matching(self):
        # "what" inside "whatever" must not count as compliance
        assert RejectionReason.NON_COMPLIANT in form("whatever happened", ("what",))

    def test_any_keyword_suffices(self):
        keywords = ("what", "who")
        assert RejectionReason.NON_COMPLIANT not in form("Who won?", keywords)

    def test_empty_keywords_rejected(self):
        with pytest.raises(ValueError, match="empty keyword"):
            form("x", ())

    def test_default_keywords_cover_question_words(self):
        for word in ("what", "who", "when", "where", "why", "how"):
            assert word in DEFAULT_INSTRUCTION_KEYWORDS


class TestDull:
    def test_boilerplate_pattern_matches(self):
        assert RejectionReason.DULL in form(
            "What is the title of the passage?", patterns=("what is the title of the passage",)
        )

    def test_pattern_matches_inside_longer_response(self):
        assert RejectionReason.DULL in form(
            "so, what is the title of the passage then", patterns=("what is the title of the passage",)
        )

    def test_non_boilerplate_passes(self):
        assert RejectionReason.DULL not in form("Why did the treaty collapse?", patterns=DEFAULT_DULL_PATTERNS)

    def test_normalization(self):
        assert RejectionReason.DULL in form(
            "WHAT IS THE TITLE OF THE PASSAGE?!", patterns=("what is the title of the passage",)
        )


class TestIncoherent:
    """The question-generation gate: minimum token probability below the
    threshold."""

    def test_all_above_threshold(self):
        # frozen example: [ln 0.5, ln 0.4] at threshold 0.1 -> coherent
        cand = result("what b", (math.log(0.5), math.log(0.4)))
        assert reasons(Task.CQG, cand, 0.1) == frozenset()

    def test_one_below_threshold(self):
        # frozen example: [ln 0.5, ln 0.05] at threshold 0.1 -> incoherent
        cand = result("what b", (math.log(0.5), math.log(0.05)))
        assert reasons(Task.CQG, cand, 0.1) == {RejectionReason.INCOHERENT}

    def test_exact_boundary_is_coherent(self):
        # A statistic equal to the threshold is kept, as calibration counts it.
        cand = result("what", (math.log(0.1),))
        threshold = gate_statistic(Task.CQG, tokenize(gate_sample(Task.CQG).target), cand)
        assert reasons(Task.CQG, cand, threshold) == frozenset()

    def test_empty_response_is_coherent(self):
        empty = GenerationResult("", (), (), "t")
        assert RejectionReason.INCOHERENT not in reasons(Task.CQG, empty, 0.1)

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="outside"):
            AlignmentConfig(candidate_thresholds=(0.0,))
        with pytest.raises(ValueError, match="outside"):
            AlignmentConfig(candidate_thresholds=(1.0,))


class TestUnreliable:
    """The answer-task gate: ROUGE-L to the target below the threshold."""

    def test_high_overlap_is_reliable(self):
        # frozen: ROUGE-L 0.8356... >= 0.15 -> not unreliable
        assert reasons(Task.CQA, result("the cat sat"), 0.15) == frozenset()

    def test_no_overlap_is_unreliable(self):
        cand = result("zebra counts")
        assert reasons(Task.CQA, cand, 0.15) == {RejectionReason.UNRELIABLE}

    def test_exact_boundary_is_reliable(self):
        cand = result("the cat")
        threshold = gate_statistic(Task.CQA, tokenize(gate_sample(Task.CQA).target), cand)
        assert reasons(Task.CQA, cand, threshold) == frozenset()

    def test_threshold_validation(self):
        # A fixed threshold out of (0, 1) fails when the config is parsed.
        with pytest.raises(ValueError, match=r"config: .*candidate threshold 0\.0 outside"):
            parse_config({"out_dir": "x", "synth": {}, "align": {"candidate_thresholds": [0.0]}})


@settings(max_examples=80, deadline=None)
@given(
    texts=st.lists(
        st.lists(st.sampled_from(["what", "the", "cat", "sat", "down", "zebra"]), min_size=1, max_size=5),
        min_size=1,
        max_size=6,
    ),
    probs=st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6),
    thresholds=st.lists(st.sampled_from(DEFAULT_CANDIDATE_THRESHOLDS + (0.3, 0.5)), min_size=1, max_size=4),
    task=st.sampled_from([Task.CQA, Task.CQG, Task.SUM]),
)
def test_gate_keeps_exactly_what_calibration_counts(texts, probs, thresholds, task):
    # Compliant, non-dull question text so only the thresholded gate can reject.
    cands = [
        result(" ".join(["what", *words]), tuple(math.log(p) for p in probs[: len(words) + 1]))
        for words in texts
    ]
    # Two samples, so each sample's verdicts must meet its own statistics.
    samples = [gate_sample(task), dialogue_sample("t", ["a zebra sat"], "pq", "a", "q", "a zebra sat", task=task)]
    candidates = {"s": cands[::2], "t": cands[1::2]}
    config = AlignmentConfig(candidate_thresholds=tuple(thresholds))
    aligned, threshold = align_corpus(task, samples, candidates, config)
    stats = [gate_statistic(task, tokenize(sample.target), cand) for sample in samples for cand in candidates[sample.id]]
    assert threshold == calibrate_threshold(stats, config.candidate_thresholds, config.target_keep_fraction)
    if len(set(thresholds)) == 1:
        assert threshold == thresholds[0]
    kept = [v.kept for sample in samples for v in aligned.get(sample.id, [])]
    assert kept == [stat >= threshold for stat in stats]


def test_gate_statistic_runs_once_per_candidate(monkeypatch):
    calls = []

    def counted(task, target_tokens, cand):
        calls.append(cand)
        return gate_statistic(task, target_tokens, cand)

    monkeypatch.setattr(msa_align, "gate_statistic", counted)
    monkeypatch.setattr(pipeline, "gate_statistic", counted)
    samples = [gate_sample(Task.CQA), dialogue_sample("t", ["a b"], "pq", "a b", "q", "a b")]
    candidates = {"s": [result("the cat"), result("zebra")], "t": [result("a"), result("a b"), result("c")]}
    aligned, _ = align_corpus(Task.CQA, samples, candidates, AlignmentConfig())
    assert sum(len(v) for v in aligned.values()) == len(calls) == 5


def test_align_corpus_tokenizes_each_target_once(monkeypatch):
    # Targets go through the pipeline's tokenize, once per sample with
    # candidates; candidate texts through the gate's, once per candidate.
    targets, texts = [], []
    monkeypatch.setattr(pipeline, "tokenize", lambda text: targets.append(text) or tokenize(text))
    monkeypatch.setattr(msa_align, "tokenize", lambda text: texts.append(text) or tokenize(text))
    samples = [gate_sample(Task.CQA), dialogue_sample("t", ["a b"], "pq", "a b", "q", "a b c"), dialogue_sample("u", ["d"], "pq", "d", "q", "d")]
    candidates = {"s": [result("the cat"), result("zebra")], "t": [result("a"), result("a b"), result("c")]}
    align_corpus(Task.CQA, samples, candidates, AlignmentConfig())
    assert targets == [samples[0].target, "a b c"]
    assert texts == ["the cat", "zebra", "a", "a b", "c"]


def write_verdicts_of(tmp_path, task: Task, samples, candidates) -> list[bool]:
    """``write_verdicts`` on ``align_in_process``; which candidates it kept."""
    shards = align_in_process(task, samples, candidates, AlignmentConfig())
    return [v.kept for v in pipeline.write_verdicts(task, shards, AlignmentConfig(), tmp_path / "aligned.jsonl")[1]]


def test_keep_fraction_miss_is_reported_on_stderr(tmp_path, capsys):
    samples = [dialogue_sample("t", ["a b"], "pq", "a b", "q", "a b")]
    # Every candidate threshold keeps "a b" and "a" alone: 40% against 20%.
    write_verdicts_of(tmp_path, Task.CQA, samples, {"t": [result(t) for t in ("a b", "a", "c", "c d", "x")]})
    assert capsys.readouterr() == (
        "",
        "align: 40.0% of 5 gate statistics at or above threshold 0.1 against a 20.0% calibration target; "
        "40.0% of candidates kept\n",
    )
    # 1 of 5 meets the target exactly: nothing is printed.
    write_verdicts_of(tmp_path, Task.CQA, samples, {"t": [result(t) for t in ("a b", "c", "c d", "x", "y")]})
    assert capsys.readouterr() == ("", "")


def test_the_stderr_line_names_the_share_kept_apart_from_the_share_that_passes(tmp_path, capsys):
    # Every question passes the probability gate; the form gates reject two.
    samples = [dialogue_sample("t", ["a b"], "pq", "a b", "q", "a b", task=Task.CQG)]
    kept = write_verdicts_of(tmp_path, Task.CQG, samples, {"t": [result(t) for t in ("what now", "tell me", "who", "a story")]})
    assert kept == [True, False, True, False]
    assert capsys.readouterr().err == (
        "align: 100.0% of 4 gate statistics at or above threshold 0.1 against a 20.0% calibration target; "
        "50.0% of candidates kept\n"
    )


class TestAlignResponses:
    def _sample(self, task: Task = Task.CQA) -> Sample:
        return dialogue_sample(
            "s", ["u0 alpha beta", "u1 gamma delta"], "pq", "u0 alpha beta", "q",
            "u1 gamma delta", task=task,
        )

    def _config(self) -> AlignmentConfig:
        return AlignmentConfig(candidate_thresholds=(0.15,))

    def test_cqa_rejects_only_unreliable(self):
        sample = self._sample(Task.CQA)
        verdicts = align_fixed(
            Task.CQA, sample, [result("u1 gamma delta"), result("nothing related here")], 0.15
        )
        assert verdicts[0].kept
        assert verdicts[1].rejection_reasons == frozenset({RejectionReason.UNRELIABLE})

    def test_cqg_candidate_failing_only_unreliable_is_kept(self):
        # Zero overlap with the target, but compliant, novel, and confident:
        # the unreliable gate is not consulted for question generation.
        sample = self._sample(Task.CQG)
        verdicts = align_fixed(Task.CQG, sample, [result("why would anyone leave")], 0.15)
        assert verdicts[0].kept

    def test_cqg_gate_combination(self):
        sample = self._sample(Task.CQG)
        candidates = [
            result("tell me a story"),  # no question keyword
            result("what is the title of the passage"),  # dull
            result("what happened", (math.log(0.5), math.log(0.01))),  # incoherent
            result("what happened next"),  # clean
        ]
        verdicts = align_fixed(Task.CQG, sample, candidates, 0.15)
        assert verdicts[0].rejection_reasons == frozenset({RejectionReason.NON_COMPLIANT})
        assert verdicts[1].rejection_reasons == frozenset({RejectionReason.DULL})
        assert verdicts[2].rejection_reasons == frozenset({RejectionReason.INCOHERENT})
        assert verdicts[3].kept

    def test_cqg_multiple_reasons_accumulate(self):
        sample = self._sample(Task.CQG)
        bad = result("just some rambling", (math.log(0.5), math.log(0.01), math.log(0.5)))
        verdicts = align_fixed(Task.CQG, sample, [bad], 0.15)
        assert verdicts[0].rejection_reasons == frozenset(
            {RejectionReason.NON_COMPLIANT, RejectionReason.INCOHERENT}
        )

    def test_cqg_default_config_checks_compliance(self):
        sample = self._sample(Task.CQG)
        config = AlignmentConfig()
        assert config.instruction_keywords == DEFAULT_INSTRUCTION_KEYWORDS
        aligned, _ = align_corpus(
            Task.CQG, [sample], {sample.id: [result("no keyword here"), result("which one")]}, config
        )
        verdicts = aligned[sample.id]
        assert verdicts[0].rejection_reasons == frozenset({RejectionReason.NON_COMPLIANT})
        assert verdicts[1].kept

    def test_sum_and_kgc_use_unreliable_gate(self):
        for task in (Task.SUM, Task.KGC):
            sample = self._sample(task)
            verdicts = align_fixed(task, sample, [result("wildly different text")], 0.15)
            assert verdicts[0].rejection_reasons == frozenset({RejectionReason.UNRELIABLE})

    def test_nli_rejected(self):
        with pytest.raises(ValueError, match="nli candidates are not pruned"):
            align_responses(Task.NLI, [0.0], b"\0", self._config(), 0.15)

    def test_no_candidate_has_no_verdict(self, capsys):
        assert align_responses(Task.CQA, [], b"", self._config(), None) == []
        assert capsys.readouterr() == ("", "")

    def test_one_shared_verdict_per_reason_set(self):
        sets = {v.rejection_reasons for v in VERDICTS}
        assert len(VERDICTS) == len(sets) == 2 ** len(RejectionReason)
        assert [v for v in VERDICTS if v.kept] == [VERDICTS[0]] and not VERDICTS[0].rejection_reasons
        stats, bits = [0.1, 0.2, 0.05, 0.3], bytes([0, 1, 2, 3])
        verdicts = align_responses(Task.CQG, stats, bits, self._config(), 0.15)
        # ``Verdict`` compares by identity: these are the shared instances.
        assert verdicts == [VERDICTS[4], VERDICTS[1], VERDICTS[6], VERDICTS[3]]


def test_form_reasons_tokenizes_the_candidate_once(monkeypatch):
    # The keywords and patterns are tokenized once per config, not once per candidate.
    texts = []
    monkeypatch.setattr(msa_align, "tokenize", lambda text: texts.append(text) or tokenize(text))
    config = AlignmentConfig()
    for text in ("what is the passage about", "tell me more", "who won"):
        form_reasons(Task.CQG, result(text), config)
    assert texts == ["what is the passage about", *DEFAULT_INSTRUCTION_KEYWORDS, *DEFAULT_DULL_PATTERNS, "tell me more", "who won"]


class TestGateStatistic:
    def test_cqg_uses_min_token_prob(self):
        cand = result("what now", (math.log(0.5), math.log(0.3)))
        sample = dialogue_sample("s", ["u"], "pq", "u", "q", "u", task=Task.CQG)
        assert gate_statistic(Task.CQG, tokenize(sample.target), cand) == pytest.approx(0.3)

    def test_answer_tasks_use_target_overlap(self):
        sample = dialogue_sample("s", ["the cat sat down"], "pq", "the cat sat down", "q", "the cat sat down")
        cand = result("the cat sat")
        assert gate_statistic(Task.CQA, tokenize(sample.target), cand) == pytest.approx(0.8356164383561644)

    def test_nli_rejected(self):
        sample = dialogue_sample("s", ["u"], "pq", "u", "q", "u")
        with pytest.raises(ValueError, match="no thresholded gate"):
            gate_statistic(Task.NLI, tokenize(sample.target), result("x"))


class TestCalibrateThreshold:
    def test_picks_nearest_keep_fraction(self):
        # 30% of scores sit in [0.15, 0.2), 20% at >= 0.2: keep fractions are
        # 0.5 / 0.5 / 0.2 for thresholds 0.1 / 0.15 / 0.2 -> choose 0.2.
        scores = [0.05] * 5 + [0.17] * 3 + [0.25] * 2
        assert calibrate_threshold(scores) == 0.2

    def test_tie_resolves_to_smaller_threshold(self):
        # All scores >= 0.2: every threshold keeps 100% -> tie -> 0.1.
        assert calibrate_threshold([0.3, 0.4, 0.9]) == 0.1

    def test_unsorted_candidates_handled(self):
        scores = [0.05] * 8 + [0.5] * 2
        assert calibrate_threshold(scores, candidate_thresholds=(0.2, 0.1, 0.15)) == 0.1

    def test_custom_target(self):
        scores = [0.12] * 5 + [0.18] * 5
        # threshold 0.1 keeps 1.0, 0.15 keeps 0.5, 0.2 keeps 0.0
        assert calibrate_threshold(scores, target_keep_fraction=0.45) == 0.15

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError, match="empty score list"):
            calibrate_threshold([])

    def test_defaults(self):
        assert DEFAULT_CANDIDATE_THRESHOLDS == (0.1, 0.15, 0.2)
        assert DEFAULT_TARGET_KEEP_FRACTION == 0.2


class TestAlignmentConfig:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError, match="target_keep_fraction"):
            AlignmentConfig(target_keep_fraction=0.0)
        with pytest.raises(ValueError, match="target_keep_fraction"):
            AlignmentConfig(target_keep_fraction=1.0)

    def test_candidate_threshold_bounds(self):
        with pytest.raises(ValueError, match="non-empty"):
            AlignmentConfig(candidate_thresholds=())
        with pytest.raises(ValueError, match="outside"):
            AlignmentConfig(candidate_thresholds=(0.1, 1.5))
