"""Rejection gates, task-specific gate combinations and threshold
calibration."""
from __future__ import annotations

import math

import pytest

from posdebias.backends import GenerationResult
from posdebias.corpus import Sample, Task
from posdebias.msa_align import (
    DEFAULT_CANDIDATE_THRESHOLDS,
    DEFAULT_DULL_PATTERNS,
    DEFAULT_INSTRUCTION_KEYWORDS,
    DEFAULT_TARGET_KEEP_FRACTION,
    AlignedResponse,
    AlignmentConfig,
    RejectionReason,
    align_responses,
    calibrate_threshold,
    gate_statistic,
    identify_dull,
    identify_incoherent,
    identify_noncompliant,
    identify_unreliable,
)

from conftest import dialogue_sample


def result(text: str, logprobs: tuple[float, ...] | None = None) -> GenerationResult:
    tokens = tuple(text.split())
    if logprobs is None:
        logprobs = (math.log(0.5),) * len(tokens)
    return GenerationResult(text, tokens, logprobs, "test")


class TestNonCompliant:
    def test_keyword_present_is_compliant(self):
        assert identify_noncompliant(result("What is the capital?"), ("what",)) is False

    def test_keyword_absent_is_noncompliant(self):
        assert identify_noncompliant(result("Who won the game?"), ("what",)) is True

    def test_whole_token_matching(self):
        # "what" inside "whatever" must not count as compliance
        assert identify_noncompliant(result("whatever happened"), ("what",)) is True

    def test_any_keyword_suffices(self):
        keywords = ("what", "who")
        assert identify_noncompliant(result("Who won?"), keywords) is False

    def test_empty_keywords_rejected(self):
        with pytest.raises(ValueError, match="empty keyword"):
            identify_noncompliant(result("x"), ())

    def test_default_keywords_cover_question_words(self):
        for word in ("what", "who", "when", "where", "why", "how"):
            assert word in DEFAULT_INSTRUCTION_KEYWORDS["cqg"]


class TestDull:
    def test_boilerplate_pattern_matches(self):
        assert identify_dull(
            result("What is the title of the passage?"),
            ("what is the title of the passage",),
        ) is True

    def test_pattern_matches_inside_longer_response(self):
        assert identify_dull(
            result("so, what is the title of the passage then"),
            ("what is the title of the passage",),
        ) is True

    def test_non_boilerplate_passes(self):
        assert identify_dull(
            result("Why did the treaty collapse?"), DEFAULT_DULL_PATTERNS
        ) is False

    def test_normalization(self):
        assert identify_dull(
            result("WHAT IS THE TITLE OF THE PASSAGE?!"),
            ("what is the title of the passage",),
        ) is True


class TestIncoherent:
    def test_all_above_threshold(self):
        # frozen example: [ln 0.5, ln 0.4] at threshold 0.1 -> coherent
        assert identify_incoherent(
            result("a b", (math.log(0.5), math.log(0.4))), 0.1
        ) is False

    def test_one_below_threshold(self):
        # frozen example: [ln 0.5, ln 0.05] at threshold 0.1 -> incoherent
        assert identify_incoherent(
            result("a b", (math.log(0.5), math.log(0.05))), 0.1
        ) is True

    def test_exact_boundary_is_coherent(self):
        # Comparison happens in log space: ln(0.1) < ln(0.1) is false.
        assert identify_incoherent(result("a", (math.log(0.1),)), 0.1) is False

    def test_empty_response_is_coherent(self):
        assert identify_incoherent(GenerationResult("", (), (), "t"), 0.1) is False

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="outside"):
            identify_incoherent(result("a"), 0.0)
        with pytest.raises(ValueError, match="outside"):
            identify_incoherent(result("a"), 1.0)


class TestUnreliable:
    def test_high_overlap_is_reliable(self):
        # frozen: ROUGE-L 0.8356... >= 0.15 -> not unreliable
        assert identify_unreliable("the cat sat", "the cat sat down", 0.15) is False

    def test_no_overlap_is_unreliable(self):
        assert identify_unreliable("zebra counts", "the cat sat down", 0.15) is True

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="outside"):
            identify_unreliable("a", "a", 0.0)


class TestAlignResponses:
    def _sample(self, task: Task = Task.CQA) -> Sample:
        return dialogue_sample(
            "s", ["u0 alpha beta", "u1 gamma delta"], "pq", "u0 alpha beta", "q",
            "u1 gamma delta", task=task,
        )

    def _config(self) -> AlignmentConfig:
        return AlignmentConfig(
            instruction_keywords=DEFAULT_INSTRUCTION_KEYWORDS["cqg"],
        )

    def test_cqa_rejects_only_unreliable(self):
        sample = self._sample(Task.CQA)
        verdicts = align_responses(
            Task.CQA,
            sample,
            [result("u1 gamma delta"), result("nothing related here")],
            self._config(),
        )
        assert verdicts[0].kept
        assert verdicts[1].rejection_reasons == frozenset({RejectionReason.UNRELIABLE})

    def test_cqg_candidate_failing_only_unreliable_is_kept(self):
        # Zero overlap with the target, but compliant, novel, and confident:
        # the unreliable gate is not consulted for question generation.
        sample = self._sample(Task.CQG)
        verdicts = align_responses(
            Task.CQG, sample, [result("why would anyone leave")], self._config()
        )
        assert verdicts[0].kept

    def test_cqg_gate_combination(self):
        sample = self._sample(Task.CQG)
        candidates = [
            result("tell me a story"),  # no question keyword
            result("what is the title of the passage"),  # dull
            result("what happened", (math.log(0.5), math.log(0.01))),  # incoherent
            result("what happened next"),  # clean
        ]
        verdicts = align_responses(Task.CQG, sample, candidates, self._config())
        assert verdicts[0].rejection_reasons == frozenset({RejectionReason.NON_COMPLIANT})
        assert verdicts[1].rejection_reasons == frozenset({RejectionReason.DULL})
        assert verdicts[2].rejection_reasons == frozenset({RejectionReason.INCOHERENT})
        assert verdicts[3].kept

    def test_cqg_multiple_reasons_accumulate(self):
        sample = self._sample(Task.CQG)
        bad = result("just some rambling", (math.log(0.5), math.log(0.01), math.log(0.5)))
        verdicts = align_responses(Task.CQG, sample, [bad], self._config())
        assert verdicts[0].rejection_reasons == frozenset(
            {RejectionReason.NON_COMPLIANT, RejectionReason.INCOHERENT}
        )

    def test_cqg_without_keywords_skips_compliance(self):
        sample = self._sample(Task.CQG)
        config = AlignmentConfig()  # no instruction keywords configured
        verdicts = align_responses(Task.CQG, sample, [result("no keyword here")], config)
        assert verdicts[0].kept

    def test_sum_and_kgc_use_unreliable_gate(self):
        for task in (Task.SUM, Task.KGC):
            sample = self._sample(task)
            verdicts = align_responses(
                task, sample, [result("wildly different text")], self._config()
            )
            assert verdicts[0].rejection_reasons == frozenset({RejectionReason.UNRELIABLE})

    def test_nli_rejected(self):
        sample = self._sample(Task.CQA)
        with pytest.raises(ValueError, match="nli candidates are not pruned"):
            align_responses(Task.NLI, sample, [result("x")], self._config())

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="no candidates"):
            align_responses(Task.CQA, self._sample(), [], self._config())

    def test_kept_flag_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            AlignedResponse("s", "t", (), kept=True, rejection_reasons=frozenset({RejectionReason.DULL}))


class TestGateStatistic:
    def test_cqg_uses_min_token_prob(self):
        cand = result("what now", (math.log(0.5), math.log(0.3)))
        sample = dialogue_sample("s", ["u"], "pq", "u", "q", "u", task=Task.CQG)
        assert gate_statistic(Task.CQG, sample, cand) == pytest.approx(0.3)

    def test_answer_tasks_use_target_overlap(self):
        sample = dialogue_sample("s", ["the cat sat down"], "pq", "the cat sat down", "q", "the cat sat down")
        cand = result("the cat sat")
        assert gate_statistic(Task.CQA, sample, cand) == pytest.approx(0.8356164383561644)

    def test_nli_rejected(self):
        sample = dialogue_sample("s", ["u"], "pq", "u", "q", "u")
        with pytest.raises(ValueError, match="no thresholded gate"):
            gate_statistic(Task.NLI, sample, result("x"))


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
        with pytest.raises(ValueError, match="incoherence_threshold"):
            AlignmentConfig(incoherence_threshold=0.0)
        with pytest.raises(ValueError, match="unreliable_threshold"):
            AlignmentConfig(unreliable_threshold=1.0)

    def test_candidate_threshold_bounds(self):
        with pytest.raises(ValueError, match="non-empty"):
            AlignmentConfig(candidate_thresholds=())
        with pytest.raises(ValueError, match="outside"):
            AlignmentConfig(candidate_thresholds=(0.1, 1.5))
