"""Overlap metrics against independent oracles, plus significance testing.

Expected values marked "frozen" were computed with the reference
implementations in oracles.py before being hard-coded here.
"""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posdebias.metrics import (
    PositionRow,
    bleu_2,
    lcs_length,
    lcs_lengths,
    per_position_table,
    rouge_l,
    rouge_l_scores,
    rouge_l_tokens,
    tokenize,
)

from oracles import bleu_2_oracle, lcs_recursive, rouge_l_oracle

_TOKENS = st.sampled_from(["a", "b", "c", "d", "e", "f"])


class TestTokenize:
    def test_lowercase_punctuation_whitespace(self):
        assert tokenize("The CAT, sat!") == ["the", "cat", "sat"]

    def test_punctuation_deleted_not_split(self):
        # "don't" collapses to "dont"; punctuation never creates a boundary.
        assert tokenize("don't stop") == ["dont", "stop"]

    def test_empty_and_punctuation_only(self):
        assert tokenize("") == []
        assert tokenize("?!...") == []


class TestLcs:
    def test_known_value(self):
        # frozen: recursive oracle gives 4 for this classic pair
        assert lcs_length(tuple("abcbdab"), tuple("bdcaba")) == 4

    def test_empty(self):
        assert lcs_length((), ("a",)) == 0
        assert lcs_length(("a",), ()) == 0

    def test_matches_recursive_oracle_random(self):
        rng = random.Random(7)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(300):
            a = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
            b = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
            assert lcs_length(a, b) == lcs_recursive(a, b)

    @settings(max_examples=300, deadline=None)
    @given(a=st.lists(_TOKENS, max_size=80), b=st.lists(_TOKENS, max_size=80))
    def test_matches_oracle_symmetric_and_bounded(self, a, b):
        # Up to 80 tokens, so the bit vectors pass one machine word.
        got = lcs_length(a, b)
        assert got == lcs_recursive(tuple(a), tuple(b))
        assert got == lcs_length(b, a)
        assert got <= min(len(a), len(b))
        assert (got == 0) == (not set(a) & set(b))


class TestRougeL:
    def test_prefix_example(self):
        # frozen: LCS 3, P 1.0, R 0.75, beta 1.2 -> 0.8356164383561644
        assert rouge_l("the cat sat", "the cat sat down") == pytest.approx(
            0.8356164383561644, abs=1e-15
        )

    def test_identical(self):
        assert rouge_l("a b c", "a b c") == 1.0

    def test_disjoint(self):
        assert rouge_l("a b", "x y") == 0.0

    def test_subsequence(self):
        # frozen: P = R = 2/3 so F = 2/3 regardless of beta
        assert rouge_l("a x c", "a b c") == pytest.approx(2 / 3, abs=1e-15)

    def test_empty_candidate_scores_zero(self):
        assert rouge_l("", "a b") == 0.0
        assert rouge_l("!!!", "a b") == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty reference"):
            rouge_l("a b", "")

    def test_tokenizer_is_shared(self):
        assert rouge_l("The CAT sat.", "the cat sat") == 1.0

    def test_matches_oracle_random(self):
        rng = random.Random(11)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(300):
            cand = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 10)))
            ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 10)))
            assert rouge_l(cand, ref) == rouge_l_oracle(
                tuple(cand.split()), tuple(ref.split())
            )

    @settings(max_examples=300, deadline=None)
    @given(
        cand=st.text(alphabet="abcAB .,!", max_size=30),
        ref=st.text(alphabet="abcAB .,!", max_size=30).filter(tokenize),
    )
    def test_string_form_is_the_token_core_in_unit_range(self, cand, ref):
        score = rouge_l(cand, ref)
        assert 0.0 <= score <= 1.0
        assert score == rouge_l_tokens(tokenize(cand), tokenize(ref))


class TestOnePatternManyReferences:
    """``rouge_l_scores`` and ``lcs_lengths`` build the pattern's masks once
    and must score every reference exactly as the one-reference calls do."""

    @settings(max_examples=300, deadline=None)
    @given(
        cand=st.lists(_TOKENS, max_size=90),
        refs=st.lists(st.lists(_TOKENS, max_size=90), max_size=6),
    )
    @example(cand=["a"] * 70, refs=[["a", "b"] * 40, [], ["a"]])
    @example(cand=[], refs=[["a"], []])
    def test_equals_the_per_pair_calls(self, cand, refs):
        # Empty references score 0, as grounding scores an empty utterance.
        assert rouge_l_scores(cand, refs) == [rouge_l_tokens(cand, ref) if ref else 0.0 for ref in refs]
        assert lcs_lengths(cand, refs) == [lcs_length(ref, cand) for ref in refs]

    def test_lengths_match_the_recursive_oracle_past_64_tokens(self):
        rng = random.Random(5)
        vocab = ["a", "b", "c"]
        pattern = tuple(rng.choice(vocab) for _ in range(75))
        texts = [tuple(rng.choice(vocab) for _ in range(rng.randint(0, 70))) for _ in range(8)]
        assert lcs_lengths(pattern, texts) == [lcs_recursive(pattern, text) for text in texts]


class TestBleu2:
    def test_identical(self):
        assert bleu_2("the cat sat", "the cat sat") == 1.0

    def test_shorter_candidate_brevity(self):
        # frozen: p1 = 1, p2 = (2+1)/(2+1), brevity exp(1 - 4/3)
        assert bleu_2("the cat sat", "the cat sat down") == pytest.approx(
            0.7165313105737893, abs=1e-15
        )

    def test_one_token_differs(self):
        # frozen: p1 = 2/3, p2 = (1+1)/(2+1), brevity 1 -> sqrt(4/9) = 2/3
        assert bleu_2("a b c", "a b d") == pytest.approx(2 / 3, abs=1e-15)

    def test_right_tokens_wrong_order(self):
        # frozen: p1 = 1, no bigram matches -> p2 = 1/3, score sqrt(1/3)
        assert bleu_2("cat the sat", "the cat sat") == pytest.approx(
            0.5773502691896257, abs=1e-15
        )

    def test_no_unigram_overlap(self):
        assert bleu_2("x y", "a b") == 0.0

    def test_empty_candidate(self):
        assert bleu_2("", "a b") == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty reference"):
            bleu_2("a b", "")

    def test_matches_oracle_random(self):
        rng = random.Random(13)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(300):
            cand = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 10)))
            ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 10)))
            assert bleu_2(cand, ref) == pytest.approx(
                bleu_2_oracle(tuple(cand.split()), tuple(ref.split())), abs=1e-12
            )


class TestPerPositionTable:
    def test_grouping_and_order(self):
        rows = per_position_table([1, 0, 1, None, -2], [1.0, 0.0, 0.0, 0.5, 1.0])
        assert rows == [
            PositionRow(-2, 1.0, 1),
            PositionRow(0, 0.0, 1),
            PositionRow(1, 0.5, 2),
            PositionRow(None, 0.5, 1),
        ]

    def test_weighted_mean_matches_overall(self):
        rng = random.Random(3)
        positions = [rng.choice([None, -1, 0, 1, 2]) for _ in range(50)]
        scores = [rng.random() for _ in range(50)]
        rows = per_position_table(positions, scores)
        pooled = sum(r.mean_score * r.count for r in rows) / sum(r.count for r in rows)
        assert pooled == pytest.approx(sum(scores) / len(scores), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            per_position_table([0], [1.0, 2.0])


def test_nll_examples_are_consistent_with_math():
    # Shared arithmetic reference for the loss tests: ln 2 and ln 2 + ln 4.
    assert -math.log(0.5) == pytest.approx(0.6931471805599453, abs=1e-16)
    assert -(math.log(0.5) + math.log(0.25)) == pytest.approx(2.0794415416798357, abs=1e-15)
