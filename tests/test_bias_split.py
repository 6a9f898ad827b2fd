"""Grounding, relative position, the three splitters, and perturbation."""
from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posdebias import bias_split
from posdebias.bias_split import (
    BIAS_BY_TASK,
    DEFAULT_BIASED_POSITIONS,
    BiasKind,
    ground_response,
    perturb_positions,
    relative_position,
    split_by_lead_bias,
    split_by_lexical_bias,
    split_by_relative_position,
    split_corpus,
    write_evidence,
)
from posdebias.corpus import Corpus, DialogueTurn, Sample, Task, make_document

from posdebias.metrics import rouge_l, rouge_l_scores, tokenize

from conftest import dialogue_sample, nli_sample
from oracles import ground_oracle, rouge_l_oracle


def ground(response: str, utterances: list[str]):
    return ground_response(tokenize(response), [tokenize(u) for u in utterances])


_WORDS = st.sampled_from(["red", "blue", "green", "gold"])


class TestGroundResponse:
    def test_best_overlap_wins(self):
        # frozen: oracle grounds "delta eps" at index 1
        assert ground("delta eps", ["alpha beta gamma", "delta eps zeta"]).utterance_index == 1

    def test_tie_breaks_to_smallest_index(self):
        assert ground("same words", ["same words", "same words"]).utterance_index == 0

    def test_no_overlap_defaults_to_first(self):
        result = ground("zzz", ["aaa", "bbb"])
        assert result.utterance_index == 0
        assert result.score == 0.0

    def test_empty_utterance_does_not_poison(self):
        assert ground("real content", ["...", "real content"]).utterance_index == 1

    def test_empty_response_rejected(self):
        with pytest.raises(ValueError, match="empty response"):
            ground("  ", ["a"])

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError, match="empty document"):
            ground("a", [])

    def test_matches_brute_force_oracle(self):
        import random

        rng = random.Random(17)
        vocab = ["red", "blue", "green", "gold", "grey"]
        for _ in range(100):
            utterances = [
                " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 5)))
                for _ in range(rng.randint(1, 4))
            ]
            response = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 5)))
            got = ground(response, utterances).utterance_index
            want = ground_oracle(
                tuple(response.split()), [tuple(u.split()) for u in utterances]
            )
            assert got == want

    @settings(max_examples=200, deadline=None)
    @given(
        response=st.lists(_WORDS, min_size=1, max_size=6),
        utterances=st.lists(st.lists(_WORDS, max_size=6), min_size=1, max_size=5),
    )
    def test_token_grounding_agrees_with_oracle(self, response, utterances):
        # A four-word vocabulary makes ties common; empty utterances score 0.
        result = ground_response(response, utterances)
        assert result.utterance_index == ground_oracle(tuple(response), [tuple(u) for u in utterances])
        assert result.scores == tuple(rouge_l_oracle(tuple(response), tuple(u)) if u else 0.0 for u in utterances)


class TestRelativePosition:
    UTTS = ["u0 only zero", "u1 only one", "u2 only two", "u3 only three", "u4 only four", "u5 only five"]

    def _sample(self, prev_idx: int, tgt_idx: int) -> Sample:
        return dialogue_sample(
            "s", self.UTTS, "pq", self.UTTS[prev_idx], "q", self.UTTS[tgt_idx]
        )

    def test_backward_three(self):
        # anchor at U4, target at U1 -> -3
        assert relative_position(self._sample(4, 1)) == -3

    def test_forward_one(self):
        # anchor at U4, target at U5 -> +1
        assert relative_position(self._sample(4, 5)) == 1

    def test_same_utterance_zero(self):
        assert relative_position(self._sample(2, 2)) == 0

    def test_no_document(self):
        sample = Sample(
            id="x", task=Task.CQA, target="t", history=(DialogueTurn(0, "q", "a"),)
        )
        with pytest.raises(ValueError, match="no document"):
            relative_position(sample)

    def test_no_anchor(self):
        sample = Sample(
            id="x",
            task=Task.CQA,
            target="u0 only zero",
            document=make_document(self.UTTS),
            history=(DialogueTurn(0, "q", None),),
        )
        with pytest.raises(ValueError, match="no anchor"):
            relative_position(sample)


class TestSplitByRelativePosition:
    def test_recovers_planted_partition(self, planted_relpos_corpus):
        corpus, biased_ids, expected_rel = planted_relpos_corpus
        partition = split_by_relative_position(corpus)
        assert {s.id for s in partition.biased} == biased_ids
        assert {s.id for s in partition.non_biased} == set(expected_rel) - biased_ids
        for sid, rel in expected_rel.items():
            assert partition.evidence[sid].relative_position == rel
            assert partition.evidence[sid].kind == BiasKind.RELATIVE_POSITION

    def test_custom_biased_set(self, planted_relpos_corpus):
        corpus, _, expected_rel = planted_relpos_corpus
        partition = split_by_relative_position(corpus, biased_positions={-2})
        assert {s.id for s in partition.biased} == {
            sid for sid, rel in expected_rel.items() if rel == -2
        }

    def test_unanchored_sample_routed_non_biased(self):
        anchored = dialogue_sample("ok", ["u0 a", "u1 b"], "pq", "u0 a", "q", "u1 b")
        unanchored = Sample(
            id="orphan",
            task=Task.CQA,
            target="u1 b",
            document=make_document(["u0 a", "u1 b"]),
            history=(DialogueTurn(0, "q", None),),
        )
        corpus = Corpus((anchored, unanchored), Task.CQA)
        partition = split_by_relative_position(corpus)
        assert {s.id for s in partition.non_biased} == {"orphan"}
        assert "anchor" in partition.evidence["orphan"].detail

    def test_rejects_non_dialogue_task(self):
        corpus = Corpus(
            (Sample(id="x", task=Task.SUM, target="t", document=make_document(["u"])),),
            Task.SUM,
        )
        with pytest.raises(ValueError, match="dialogue"):
            split_by_relative_position(corpus)

    def test_rejects_empty_position_set(self, planted_relpos_corpus):
        corpus, _, _ = planted_relpos_corpus
        with pytest.raises(ValueError, match="empty biased position set"):
            split_by_relative_position(corpus, biased_positions=set())

    def test_tokenizes_each_utterance_once_per_sample(self, planted_relpos_corpus, monkeypatch):
        # The target and anchor groundings share one tokenization of the document.
        corpus, _, _ = planted_relpos_corpus
        texts = Counter()
        monkeypatch.setattr(bias_split, "tokenize", lambda text: texts.update([text]) or tokenize(text))
        split_by_relative_position(corpus)
        want = Counter()
        for sample in corpus:
            want.update(sample.document.texts() + [sample.target, sample.last_answered_turn().answer])
        assert texts == want

    def test_default_positions_are_zero_and_one(self):
        assert DEFAULT_BIASED_POSITIONS == frozenset({0, 1})


class TestSplitByLeadBias:
    def _sum_sample(self, sid: str, target: str) -> Sample:
        utterances = ["lead first words", "middle other stuff", "tail extra parts"]
        return Sample(
            id=sid, task=Task.SUM, target=target, document=make_document(utterances)
        )

    def test_planted_lead_fixture(self):
        # 10 samples, 4 with lead-grounded targets -> biased size exactly 4.
        samples = []
        for i in range(4):
            samples.append(self._sum_sample(f"lead{i}", "lead first words"))
        for i in range(6):
            samples.append(self._sum_sample(f"body{i}", "middle other stuff"))
        partition = split_by_lead_bias(Corpus(tuple(samples), Task.SUM))
        assert len(partition.biased) == 4
        assert {s.id for s in partition.biased} == {f"lead{i}" for i in range(4)}
        for i in range(4):
            assert partition.evidence[f"lead{i}"].lead_score > 0

    def test_grounds_once_per_utterance(self, monkeypatch):
        # The lead score comes from the grounding pass, not a second ROUGE-L
        # against utterance 0.
        samples = [self._sum_sample(f"s{i}", t) for i, t in enumerate(["lead unrelated thing", "tail extra"])]
        calls = []
        monkeypatch.setattr(bias_split, "rouge_l_scores", lambda *args: calls.append(args) or rouge_l_scores(*args))
        partition = split_by_lead_bias(Corpus(tuple(samples), Task.SUM))
        # One ROUGE-L pass per sample, over its three utterances.
        assert [len(refs) for _, refs in calls] == [3, 3]
        assert [s.id for s in partition.biased] == ["s0"]
        for sample in samples:
            lead = sample.document.utterances[0]
            assert partition.evidence[sample.id].lead_score == rouge_l(sample.target, lead)

    def test_rejects_dialogue_task(self):
        corpus = Corpus(
            (dialogue_sample("a", ["u"], "p?", "u", "q?", "u"),), Task.CQA
        )
        with pytest.raises(ValueError, match="lead"):
            split_by_lead_bias(corpus)


class TestSplitByLexicalBias:
    def test_whole_token_matching(self):
        corpus = Corpus(
            (
                nli_sample("hit", "p", "there is no cake", "contradiction"),
                nli_sample("miss", "p", "nothing matches here", "entailment"),
                nli_sample("plain", "p", "the cake exists", "entailment"),
            ),
            Task.NLI,
        )
        partition = split_by_lexical_bias(corpus, ["no"])
        assert {s.id for s in partition.biased} == {"hit"}
        assert partition.evidence["hit"].matched_triggers == ("no",)
        # "no" inside "nothing" must not fire
        assert partition.evidence["miss"].matched_triggers == ()

    def test_multi_word_trigger(self):
        corpus = Corpus(
            (
                nli_sample("a", "p", "it was not at all close", "contradiction"),
                nli_sample("b", "p", "not quite at all times", "neutral"),
            ),
            Task.NLI,
        )
        partition = split_by_lexical_bias(corpus, ["not at all"])
        assert {s.id for s in partition.biased} == {"a"}

    def test_case_and_punctuation_insensitive(self):
        corpus = Corpus(
            (nli_sample("a", "p", "No, thanks.", "contradiction"),), Task.NLI
        )
        partition = split_by_lexical_bias(corpus, ["no"])
        assert len(partition.biased) == 1

    def test_empty_trigger_list_rejected(self):
        corpus = Corpus((nli_sample("a", "p", "h", "entailment"),), Task.NLI)
        with pytest.raises(ValueError, match="empty trigger"):
            split_by_lexical_bias(corpus, [])

    def test_rejects_non_nli(self):
        corpus = Corpus(
            (dialogue_sample("a", ["u"], "p?", "u", "q?", "u"),), Task.CQA
        )
        with pytest.raises(ValueError, match="nli"):
            split_by_lexical_bias(corpus, ["no"])


def test_split_corpus_runs_the_tasks_own_splitter(planted_relpos_corpus):
    dialogue, _, _ = planted_relpos_corpus

    def retasked(task):
        return Corpus(tuple(replace(s, task=task) for s in dialogue), task)

    nli = Corpus(
        tuple(nli_sample(f"n{i}", "p", h, "neutral") for i, h in enumerate(["there is no cake", "nothing here", "never"])),
        Task.NLI,
    )
    positions, triggers = frozenset({-2, 0}), ("no", "never")
    cases = {
        Task.CQA: (dialogue, lambda c: split_by_relative_position(c, positions)),
        Task.CQG: (retasked(Task.CQG), lambda c: split_by_relative_position(c, positions)),
        Task.SUM: (retasked(Task.SUM), split_by_lead_bias),
        Task.KGC: (retasked(Task.KGC), split_by_lead_bias),
        Task.NLI: (nli, lambda c: split_by_lexical_bias(c, triggers)),
    }
    assert set(BIAS_BY_TASK) == set(cases) == set(Task)
    for task, (corpus, split) in cases.items():
        want = split(corpus)
        assert 0 < len(want.biased) < len(corpus), task
        assert split_corpus(corpus, positions, triggers) == want, task


class TestPerturbPositions:
    def test_permutation_uniform_over_seeds(self):
        # frozen: exact uniform expectation 1/6 per permutation of 3 utterances
        sample = Sample(
            id="x",
            task=Task.SUM,
            target="t",
            document=make_document(["a", "b", "c"]),
        )
        counts: Counter = Counter()
        for seed in range(10_000):
            permuted = perturb_positions(sample, seed)
            counts[tuple(permuted.document.texts())] += 1
        assert set(counts) == set(itertools.permutations(["a", "b", "c"]))
        for permutation in counts:
            assert abs(counts[permutation] / 10_000 - 1 / 6) <= 0.02

    def test_target_and_history_untouched(self):
        sample = dialogue_sample("x", ["u0 a", "u1 b", "u2 c"], "pq", "u0 a", "q", "u1 b")
        permuted = perturb_positions(sample, seed=3)
        assert permuted.target == sample.target
        assert permuted.history == sample.history
        assert sorted(permuted.document.texts()) == sorted(sample.document.texts())

    def test_input_text_rerendered(self):
        sample = dialogue_sample("x", ["u0 a", "u1 b", "u2 c"], "pq", "u0 a", "q", "u1 b")
        for seed in range(20):
            permuted = perturb_positions(sample, seed)
            if permuted.document.texts() != sample.document.texts():
                assert permuted.input_text != sample.input_text
                assert permuted.input_text.startswith(
                    "document: " + " | ".join(permuted.document.texts())
                )
                break
        else:
            pytest.fail("no permutation differed over 20 seeds")

    def test_deterministic_per_seed(self):
        sample = Sample(
            id="x", task=Task.SUM, target="t", document=make_document(["a", "b", "c", "d"])
        )
        assert perturb_positions(sample, 5) == perturb_positions(sample, 5)

    def test_single_utterance_unchanged(self):
        sample = Sample(id="x", task=Task.SUM, target="t", document=make_document(["a"]))
        assert perturb_positions(sample, 1) is sample

    def test_nli_rejected(self):
        with pytest.raises(ValueError, match="nli"):
            perturb_positions(nli_sample("a", "p", "h", "entailment"), 0)


class TestWriteEvidence:
    def test_jsonl_round_trip(self, tmp_path, planted_relpos_corpus):
        corpus, biased_ids, expected_rel = planted_relpos_corpus
        partition = split_by_relative_position(corpus)
        path = write_evidence(partition, tmp_path / "evidence.jsonl")
        records = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line
        ]
        assert [r["id"] for r in records] == sorted(expected_rel)
        for record in records:
            assert record["kind"] == "relative_position"
            assert record["biased"] == (record["id"] in biased_ids)
            assert record["relative_position"] == expected_rel[record["id"]]


_WORDS = st.sampled_from(["alpha", "beta", "gamma", "no", "not"])
_PHRASES = st.lists(_WORDS, min_size=1, max_size=4).map(" ".join)


@st.composite
def _corpora(draw, task: Task) -> Corpus:
    """Small corpora of ``task``, dialogue ones with and without an anchor turn."""
    samples = []
    for i in range(draw(st.integers(0, 8))):
        sid, target = f"s{i}", draw(_PHRASES)
        if task == Task.NLI:
            samples.append(nli_sample(sid, draw(_PHRASES), draw(_PHRASES), "neutral"))
            continue
        utterances = draw(st.lists(_PHRASES, min_size=1, max_size=4))
        if task == Task.CQA and draw(st.booleans()):
            samples.append(dialogue_sample(sid, utterances, "pq", draw(_PHRASES), "q", target))
        else:
            history = (DialogueTurn(0, "q", None),) if task == Task.CQA else ()
            samples.append(Sample(sid, task, target, make_document(utterances), history))
    return Corpus(tuple(samples), task)


_SPLITTERS = {
    "relative_position": (Task.CQA, split_by_relative_position),
    "lead": (Task.SUM, split_by_lead_bias),
    "lexical": (Task.NLI, lambda corpus: split_by_lexical_bias(corpus, ("no", "not"))),
}


@pytest.mark.parametrize("kind", list(_SPLITTERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_partition_is_disjoint_complete_and_evidenced_once(kind, data):
    task, split = _SPLITTERS[kind]
    corpus = data.draw(_corpora(task))
    partition = split(corpus)
    biased = [s.id for s in partition.biased]
    non_biased = [s.id for s in partition.non_biased]
    assert not set(biased) & set(non_biased)
    assert sorted(biased + non_biased) == sorted(s.id for s in corpus)
    assert sorted(partition.evidence) == sorted(s.id for s in corpus)
    assert all(partition.evidence[sid].biased == (sid in biased) for sid in partition.evidence)
