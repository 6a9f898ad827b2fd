"""Tests for the toy model: synthetic corpus, training, gradients, evaluation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_sgd_step, finite_diff_check, greedy_decode_one, sequence_features, sequence_loss_and_grad
from posdebias import toy_model
from posdebias.bias_split import (
    BiasEvidence,
    BiasKind,
    BiasPartition,
    relative_position,
    split_by_relative_position,
)
from posdebias.corpus import Corpus, Task
from posdebias.lowbias_infer import build_prompt, default_prompt_spec
from posdebias.objective import LossConfig
from posdebias.toy_model import (
    BOS,
    EOS,
    SynthSpec,
    ToyModel,
    TrainingDivergedError,
    TrainJob,
    build_lowbias_table,
    build_vocabulary,
    context_features,
    evaluate,
    generate_response,
    load_model,
    save_model,
    synth_corpus,
    train,
    train_lockstep,
)


def small_spec(**overrides) -> SynthSpec:
    base = dict(n_utterances=6, n_train=20, n_eval=10, biased_fraction=0.95, vocab_size=12, seed=7)
    base.update(overrides)
    return SynthSpec(**base)


def always_gold_model(vocab_size: int = 12) -> ToyModel:
    """Weights that deterministically decode every sample's reference answer.

    The scaffold is ``ans t<i> is c<j>``: BOS forces "ans", the question-match
    block picks the topic, topic forces "is", the question-match block picks
    the content, content forces EOS.
    """
    model = ToyModel.initialize(vocab_size)
    v = len(model.vocabulary)
    w = model.weights
    w[2 * v + model.token_id(BOS), model.token_id("ans")] = 100.0
    for tok in model.vocabulary:
        w[v + model.token_id(tok), model.token_id(tok)] = 50.0
    for i in range(vocab_size):
        w[2 * v + model.token_id("ans"), model.token_id(f"t{i}")] = 10.0
        w[2 * v + model.token_id("is"), model.token_id(f"c{i}")] = 10.0
        w[2 * v + model.token_id(f"t{i}"), model.token_id("is")] = 60.0
        w[2 * v + model.token_id(f"c{i}"), model.token_id(EOS)] = 60.0
    return model


def random_model(vocab_size: int = 12, seed: int = 5, scale: float = 0.1) -> ToyModel:
    vocabulary = build_vocabulary(vocab_size)
    v = len(vocabulary)
    rng = np.random.default_rng(seed)
    return ToyModel(vocabulary, rng.normal(scale=scale, size=(3 * v + 1, v)))


TARGET_ONLY = LossConfig(alpha=0.0)


def train_run(model, corpus, aligned=None, config=TARGET_ONLY, seed=0, *, epochs, learning_rate, clip_norm):
    """``train_lockstep`` on one job: its ``TrainingRun``, with every step."""
    (run,) = train_lockstep(
        [TrainJob(model, corpus, aligned, config=config, seed=seed)],
        epochs=epochs, learning_rate=learning_rate, clip_norm=clip_norm,
    )
    return run


def packed_block(model: ToyModel, sample, sequences, config=TARGET_ONLY):
    """One sample's token lists packed as training packs them, and the (3,)
    losses the training step computes at the model's weights (plus the spare
    zero row that padded columns point at)."""
    batch = toy_model._pack(lambda: [(0, model, config, sample, sequences)], model.n_features + 1)
    weights = np.vstack([model.weights, np.zeros((1, len(model.vocabulary)))])
    return batch, toy_model._lockstep_step(weights, batch, [0])[2][0]


def target_nll(model: ToyModel, sample, tokens: list[str]) -> float:
    """Target loss of ``tokens`` as a training step computes it."""
    return float(packed_block(model, sample, [tokens])[1][0])


def step_logprobs(model: ToyModel, sample, tokens: list[str]) -> list[float]:
    """Per-token logprobs on the training-loss path, as prefix-loss differences."""
    losses = [target_nll(model, sample, tokens[:i]) for i in range(len(tokens) + 1)]
    return [before - after for before, after in zip(losses, losses[1:])]


class TestSynthSpec:
    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError, match="sizes"):
            SynthSpec(n_train=0)
        with pytest.raises(ValueError, match="sizes"):
            SynthSpec(n_eval=0)

    def test_rejects_fraction_outside_unit_interval(self):
        with pytest.raises(ValueError, match="biased_fraction"):
            SynthSpec(biased_fraction=1.5)
        with pytest.raises(ValueError, match="biased_fraction"):
            SynthSpec(biased_fraction=-0.1)

    def test_rejects_vocab_smaller_than_document(self):
        with pytest.raises(ValueError, match="vocab_size"):
            SynthSpec(n_utterances=6, vocab_size=5)


class TestVocabulary:
    def test_layout(self):
        vocab = build_vocabulary(4)
        assert vocab[:5] == (BOS, EOS, "ans", "is", "about")
        assert vocab[5:9] == ("t0", "t1", "t2", "t3")
        assert vocab[9:] == ("c0", "c1", "c2", "c3")
        assert len(vocab) == 2 * 4 + 5


class TestSynthCorpus:
    def test_shapes_ids_and_splits(self):
        train_c, eval_b, eval_n = synth_corpus(small_spec())
        assert len(train_c) == 20 and len(eval_b) == 10 and len(eval_n) == 10
        ids = [s.id for s in train_c]
        assert ids[0] == "train-00000" and ids[-1] == "train-00019"
        assert all(s.split == "train" and s.task == Task.CQA for s in train_c)
        assert all(s.split == "eval_biased" for s in eval_b)
        assert all(s.split == "eval_nonbiased" for s in eval_n)
        sample = ids and next(iter(train_c))
        assert sample.document is not None and len(sample.document) == 6
        assert sample.input_text.startswith("document: ")

    def test_fully_biased_spec_grounds_in_window(self):
        # Cross-checked with the grounding-based splitter, not generator labels.
        train_c, _, _ = synth_corpus(small_spec(biased_fraction=1.0, n_train=40))
        assert all(relative_position(s) in (0, 1) for s in train_c)

    def test_eval_splits_are_pure(self):
        _, eval_b, eval_n = synth_corpus(small_spec(n_eval=40))
        assert all(relative_position(s) in (0, 1) for s in eval_b)
        assert all(relative_position(s) not in (0, 1) for s in eval_n)

    def test_same_spec_reproduces_identical_corpora(self):
        a = synth_corpus(small_spec())
        b = synth_corpus(small_spec())
        for corpus_a, corpus_b in zip(a, b):
            for sa, sb in zip(corpus_a, corpus_b):
                assert (sa.id, sa.target, sa.input_text) == (sb.id, sb.target, sb.input_text)

    def test_different_seed_changes_content(self):
        a, _, _ = synth_corpus(small_spec(seed=1))
        b, _, _ = synth_corpus(small_spec(seed=2))
        assert [s.target for s in a] != [s.target for s in b]

    def test_realized_biased_rate_tracks_request(self):
        spec = SynthSpec(n_utterances=6, n_train=200, n_eval=1, biased_fraction=0.9, vocab_size=16, seed=11)
        train_c, _, _ = synth_corpus(spec)
        partition = split_by_relative_position(train_c)
        rate = len(partition.biased) / len(train_c)
        assert rate == pytest.approx(0.905)
        assert 0.85 <= rate <= 0.95

    def test_too_few_utterances_rejected(self):
        with pytest.raises(ValueError, match="n_utterances"):
            synth_corpus(small_spec(n_utterances=2, vocab_size=12))


class TestLowBiasTable:
    def test_scaffolded_entries_ground_in_document(self):
        train_c, _, _ = synth_corpus(small_spec())
        table = build_lowbias_table(train_c, garbage_rate=0.0, n_candidates=3, seed=1)
        assert len(table) == len(train_c)
        spec = default_prompt_spec(Task.CQA)
        for sample in train_c:
            prompt = build_prompt(sample, spec)[0]
            entries = table[prompt]
            assert len(entries) == 3
            doc_lines = sample.document.texts()
            for entry in entries:
                tok = entry["text"].split()
                assert tok[0] == "ans" and tok[2] == "is"
                assert f"{tok[1]} {tok[3]}" in doc_lines
                assert entry["token_logprobs"] == [math.log(0.5)] * 4

    def test_garbage_entries_avoid_answer_tokens(self):
        train_c, _, _ = synth_corpus(small_spec())
        table = build_lowbias_table(train_c, garbage_rate=1.0, n_candidates=2, seed=1)
        spec = default_prompt_spec(Task.CQA)
        for sample in train_c:
            for entry in table[build_prompt(sample, spec)[0]]:
                assert not set(entry["text"].split()) & set(sample.target.split())

    def test_deterministic_per_seed(self):
        train_c, _, _ = synth_corpus(small_spec())
        assert build_lowbias_table(train_c, seed=9) == build_lowbias_table(train_c, seed=9)
        assert build_lowbias_table(train_c, seed=9) != build_lowbias_table(train_c, seed=10)

    def test_rate_bounds(self):
        train_c, _, _ = synth_corpus(small_spec())
        with pytest.raises(ValueError, match="garbage_rate"):
            build_lowbias_table(train_c, garbage_rate=1.2)


class TestScoring:
    """Token scoring on the path training takes: ``_pack`` and
    ``_lockstep_step``."""

    def test_uniform_initialization_scores_every_token_equally(self):
        model = ToyModel.initialize(12)
        v = len(model.vocabulary)
        train_c, _, _ = synth_corpus(small_spec())
        sample = next(iter(train_c))
        logprobs = step_logprobs(model, sample, sample.target.split() + [EOS])
        assert len(logprobs) == 5
        assert logprobs == pytest.approx([-math.log(v)] * 5, abs=1e-12)

    def test_distribution_sums_to_one_at_each_step(self):
        model = random_model()
        train_c, _, _ = synth_corpus(small_spec())
        sample = next(iter(train_c))
        tokens = sample.target.split() + [EOS]
        for i in range(len(tokens)):
            prefix = tokens[:i]
            before = target_nll(model, sample, prefix)
            total = sum(
                math.exp(before - target_nll(model, sample, prefix + [tok]))
                for tok in model.vocabulary
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_one_logprob_per_token(self):
        model = random_model()
        train_c, _, _ = synth_corpus(small_spec())
        sample = next(iter(train_c))
        base = context_features(model, sample)
        empty, _ = packed_block(model, sample, [[]])
        assert empty.masks.shape == (1, 0, 3) and empty.phi.shape[1] == 0
        assert target_nll(model, sample, []) == 0.0
        tokens = "ans t0 is c1".split()
        batch, _ = packed_block(model, sample, [tokens])
        assert batch.masks.shape[1] == batch.phi.shape[1] == 4
        assert batch.masks[0, :, 0].tolist() == [1.0] * 4
        # Each step's term equals the dense reference's loss of that one row.
        phi, ids = sequence_features(model, base, tokens)
        expected = [-sequence_loss_and_grad(model.weights, phi[i : i + 1], ids[i : i + 1])[0] for i in range(4)]
        assert step_logprobs(model, sample, tokens) == pytest.approx(expected, abs=1e-12)

    def test_out_of_vocabulary_token_rejected(self):
        model = ToyModel.initialize(12)
        train_c, _, _ = synth_corpus(small_spec())
        with pytest.raises(ValueError, match="out-of-vocabulary"):
            target_nll(model, next(iter(train_c)), ["zebra"])

    def test_weight_shape_and_finiteness_validated(self):
        vocab = build_vocabulary(4)
        with pytest.raises(ValueError, match="shape"):
            ToyModel(vocab, np.zeros((3, 3)))
        v = len(vocab)
        bad = np.zeros((3 * v + 1, v))
        bad[0, 0] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            ToyModel(vocab, bad)


class TestGeneration:
    def test_greedy_decode_is_deterministic(self):
        model = random_model(seed=13, scale=0.5)
        train_c, _, _ = synth_corpus(small_spec())
        sample = next(iter(train_c))
        assert generate_response(model, sample) == generate_response(model, sample)

    def test_max_len_caps_output(self):
        # A zero-weight model never prefers the end token, so decoding hits the cap.
        model = ToyModel.initialize(12)
        train_c, _, _ = synth_corpus(small_spec())
        sample = next(iter(train_c))
        assert len(generate_response(model, sample, max_len=5).split()) == 5

    def test_gold_model_reproduces_targets(self):
        model = always_gold_model()
        _, eval_b, eval_n = synth_corpus(small_spec(n_eval=30, seed=3))
        for corpus in (eval_b, eval_n):
            for sample in corpus:
                assert generate_response(model, sample) == sample.target


class TestBatchedDecode:
    """The batched greedy decoder against the per-sample reference decoder."""

    @settings(max_examples=80, deadline=None)
    @given(
        corpus_seed=st.integers(0, 1000),
        weight_seed=st.integers(0, 2**32 - 1),
        levels=st.integers(0, 4),
        eos_boost=st.integers(0, 8),
        window_scale=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
        max_len=st.integers(0, 10),
    )
    def test_matches_the_per_sample_reference(self, corpus_seed, weight_seed, levels, eos_boost, window_scale, max_len):
        # Weights are multiples of 1/8, so every logit is exact in whatever
        # order its terms are added (the batch's (N, F) @ (F, V) product and
        # the reference's (F,) @ (F, V) one need not add them alike), and ties
        # are common: ``levels`` 0 is the zero-weight model, where every logit
        # ties. ``eos_boost`` makes the end token win after some previous
        # tokens, so rows leave the batch at different steps.
        vocabulary = build_vocabulary(12)
        v = len(vocabulary)
        rng = np.random.default_rng(weight_seed)
        weights = rng.integers(-levels, levels + 1, size=(3 * v + 1, v)) / 8
        weights[2 * v : 3 * v, vocabulary.index(EOS)] += eos_boost * rng.integers(0, 2, size=v) / 8
        model = ToyModel(vocabulary, weights, window_scale=window_scale)
        _, eval_b, eval_n = synth_corpus(small_spec(n_eval=15, seed=corpus_seed))
        samples = eval_b.samples + eval_n.samples
        expected = [greedy_decode_one(model, context_features(model, s), max_len) for s in samples]
        assert toy_model._greedy_decode(model, samples, max_len) == expected
        assert generate_response(model, samples[0], max_len) == expected[0]

    def test_matches_the_per_sample_reference_on_float_weights(self):
        _, eval_b, eval_n = synth_corpus(small_spec(n_eval=40, seed=11))
        samples = eval_b.samples + eval_n.samples
        for seed in range(5):
            model = random_model(seed=seed, scale=2.0)
            expected = [greedy_decode_one(model, context_features(model, s)) for s in samples]
            assert toy_model._greedy_decode(model, samples) == expected

    def test_no_samples_decode_to_no_responses(self):
        assert toy_model._greedy_decode(always_gold_model(), ()) == []


class TestTraining:
    def test_zero_learning_rate_keeps_parameters(self):
        train_c, _, _ = synth_corpus(small_spec())
        model = ToyModel.initialize(12)
        trained, summaries = train(model, train_c, config=TARGET_ONLY, epochs=1, learning_rate=0.0, clip_norm=1.0)
        assert np.array_equal(trained.weights, model.weights)
        assert [s.epoch for s in summaries] == [0]

    def test_train_returns_the_model_and_epoch_summaries_of_its_one_job(self):
        train_c, _, _ = synth_corpus(small_spec())
        aligned = {s.id: [f"ans t{i % 12} is c{i % 7}"] for i, s in enumerate(train_c) if i % 3}
        model, config = random_model(seed=2), LossConfig(alpha=0.3)
        trained, summaries = train(
            model, train_c, aligned, config=config, epochs=3, learning_rate=0.2, clip_norm=0.5, seed=9
        )
        run = train_run(model, train_c, aligned, config, seed=9, epochs=3, learning_rate=0.2, clip_norm=0.5)
        assert np.array_equal(trained.weights, run.model.weights)
        assert summaries == run.epoch_summaries()
        assert [s.epoch for s in summaries] == [0, 1, 2]

    def test_trainer_settings_have_no_defaults(self):
        train_c, _, _ = synth_corpus(small_spec())
        model = ToyModel.initialize(12)
        with pytest.raises(TypeError):
            train_lockstep([TrainJob(model, train_c, config=TARGET_ONLY)])
        with pytest.raises(TypeError):
            train(model, train_c, config=TARGET_ONLY)
        with pytest.raises(TypeError):
            TrainJob(model, train_c)
        with pytest.raises(TypeError):
            train_lockstep([TrainJob(model, train_c, config=TARGET_ONLY)], 1, 0.1, 1.0)

    def test_alpha_zero_trains_on_target_alone(self):
        train_c, _, _ = synth_corpus(small_spec())
        run = train_run(ToyModel.initialize(12), train_c, epochs=1, learning_rate=0.1, clip_norm=1.0)
        assert len(run.losses) == len(train_c)
        assert np.isnan(run.losses[:, 1]).all()
        assert np.array_equal(run.losses[:, 2], run.losses[:, 0])

    def test_loss_decreases_over_fifty_epochs(self):
        train_c, _, _ = synth_corpus(small_spec(n_eval=1))
        run = train_run(ToyModel.initialize(12), train_c, epochs=50, learning_rate=0.1, clip_norm=1.0)
        n = len(train_c)
        assert len(run.losses) == 50 * n
        first_epoch = sum(run.losses[:n, 2].tolist()) / n
        last_epoch = sum(run.losses[-n:, 2].tolist()) / n
        assert last_epoch < first_epoch
        # Frozen run fixture: start at the uniform-model loss, land near 0.4.
        assert run.losses[0, 2] == pytest.approx(5 * math.log(29), rel=1e-12)
        assert first_epoch == pytest.approx(15.784291880040332, rel=1e-9)
        assert last_epoch == pytest.approx(0.39735406412276936, rel=1e-9)

    def test_identical_runs_yield_identical_parameters(self):
        train_c, _, _ = synth_corpus(small_spec())
        model = ToyModel.initialize(12)
        a, _ = train(model, train_c, config=TARGET_ONLY, epochs=3, learning_rate=0.1, clip_norm=1.0, seed=4)
        b, _ = train(model, train_c, config=TARGET_ONLY, epochs=3, learning_rate=0.1, clip_norm=1.0, seed=4)
        assert np.array_equal(a.weights, b.weights)
        c, _ = train(model, train_c, config=TARGET_ONLY, epochs=3, learning_rate=0.1, clip_norm=1.0, seed=5)
        assert not np.array_equal(a.weights, c.weights)

    def test_positive_alpha_blends_alignment_term(self):
        train_c, _, _ = synth_corpus(small_spec())
        aligned = {}
        for sample in train_c:
            doc_line = sample.document.utterances[2]
            topic_tok, content_tok = doc_line.split()
            aligned[sample.id] = [f"ans {topic_tok} is {content_tok}"]
        run = train_run(
            ToyModel.initialize(12), train_c, aligned, LossConfig(alpha=0.2), epochs=1, learning_rate=0.1, clip_norm=1.0
        )
        l_target, l_align, combined = run.losses.T
        assert not np.isnan(l_align).any()
        assert combined == pytest.approx(0.8 * l_target + 0.2 * l_align, rel=1e-12)

    def test_samples_without_kept_responses_fall_back_to_target(self):
        train_c, _, _ = synth_corpus(small_spec())
        some_id = next(iter(train_c)).id
        aligned = {some_id: []}  # its one candidate was rejected
        run = train_run(
            ToyModel.initialize(12), train_c, aligned, LossConfig(alpha=0.2), epochs=1, learning_rate=0.1, clip_norm=1.0
        )
        assert np.isnan(run.losses[:, 1]).all()

    def test_divergence_error_names_the_step(self):
        train_c, _, _ = synth_corpus(small_spec())
        vocab = build_vocabulary(12)
        v = len(vocab)
        model = ToyModel(vocab, np.full((3 * v + 1, v), 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="step 0"):
                train(model, train_c, config=TARGET_ONLY, epochs=1, learning_rate=0.1, clip_norm=1.0)

    def test_hyperparameter_validation(self):
        train_c, _, _ = synth_corpus(small_spec())
        model = ToyModel.initialize(12)

        def settings(**bad):
            return {"config": TARGET_ONLY, "epochs": 1, "learning_rate": 0.1, "clip_norm": 1.0, **bad}

        with pytest.raises(ValueError, match="learning_rate"):
            train(model, train_c, **settings(learning_rate=-0.1))
        with pytest.raises(ValueError, match="epochs"):
            train(model, train_c, **settings(epochs=-1))
        with pytest.raises(ValueError, match="clip_norm"):
            train(model, train_c, **settings(clip_norm=0.0))
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="learning_rate must be finite"):
                train(model, train_c, **settings(learning_rate=bad))
            with pytest.raises(ValueError, match="clip_norm must be finite"):
                train(model, train_c, **settings(clip_norm=bad))


class TestStackedStep:
    """One training step against the dense per-sequence reference step."""

    @settings(max_examples=60, deadline=None)
    @given(
        corpus_seed=st.integers(0, 1000),
        sample_index=st.integers(0, 4),
        alpha=st.floats(0.0, 1.0),
        responses=st.lists(
            st.lists(st.sampled_from(build_vocabulary(12)[1:]), min_size=1, max_size=6),
            max_size=3,
        ),
        weight_seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.01, 2.0),
        learning_rate=st.floats(0.1, 1.0),
        clip_norm=st.floats(0.5, 50.0),
    )
    def test_matches_dense_reference(
        self, corpus_seed, sample_index, alpha, responses, weight_seed, scale, learning_rate, clip_norm
    ):
        train_c, _, _ = synth_corpus(small_spec(n_train=5, n_eval=1, seed=corpus_seed))
        sample = tuple(train_c)[sample_index]
        model = random_model(seed=weight_seed, scale=scale)
        aligned = {sample.id: [" ".join(tokens) for tokens in responses]}
        run = train_run(
            model, Corpus((sample,), Task.CQA), aligned, LossConfig(alpha=alpha), epochs=1,
            learning_rate=learning_rate, clip_norm=clip_norm,
        )

        base = context_features(model, sample)
        target_seq = sequence_features(model, base, sample.target.split() + [EOS])
        align_seqs = [
            sequence_features(model, base, tokens + [EOS]) for tokens in responses
        ] if alpha > 0 else []
        ref_target, ref_align, ref_weights = dense_sgd_step(
            model.weights, target_seq, align_seqs, alpha, learning_rate, clip_norm
        )
        (l_target, l_align, combined), = run.losses
        assert l_target == pytest.approx(ref_target, rel=1e-12, abs=0)
        if align_seqs:
            assert l_align == pytest.approx(ref_align, rel=1e-12, abs=0)
        else:
            assert math.isnan(l_align)
            assert combined == l_target
        update = run.model.weights - model.weights
        ref_update = ref_weights - model.weights
        assert np.abs(update - ref_update).max() <= 1e-12 * np.abs(ref_update).max()
        inactive = ~np.concatenate([target_seq[0], *(phi for phi, _ in align_seqs)]).any(axis=0)
        assert np.array_equal(run.model.weights[inactive], model.weights[inactive])


class TestLockstep:
    """Jobs trained together against the dense reference and training alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.floats(0.0, 1.0),
                st.lists(
                    st.lists(st.sampled_from(build_vocabulary(12)[1:]), min_size=1, max_size=6),
                    max_size=3,
                ),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=6,
        ),
        corpus_seed=st.integers(0, 1000),
        learning_rate=st.floats(0.1, 1.0),
        clip_norm=st.floats(0.5, 50.0),
    )
    def test_one_step_matches_dense_reference_for_every_job(self, jobs, corpus_seed, learning_rate, clip_norm):
        # Jobs mix target-only and aligned samples of different lengths, so
        # every job's block is padded differently.
        samples = tuple(synth_corpus(small_spec(n_train=5, n_eval=1, seed=corpus_seed))[0])
        train_jobs, references = [], []
        for sample_index, alpha, responses, weight_seed in jobs:
            sample = samples[sample_index]
            model = random_model(seed=weight_seed, scale=0.5)
            aligned = {sample.id: [" ".join(tokens) for tokens in responses]}
            train_jobs.append(TrainJob(model, Corpus((sample,), Task.CQA), aligned, config=LossConfig(alpha=alpha)))
            base = context_features(model, sample)
            target_seq = sequence_features(model, base, sample.target.split() + [EOS])
            align_seqs = [sequence_features(model, base, tokens + [EOS]) for tokens in responses] if alpha > 0 else []
            references.append(
                (alpha, dense_sgd_step(model.weights, target_seq, align_seqs, alpha, learning_rate, clip_norm))
            )
        runs = train_lockstep(train_jobs, epochs=1, learning_rate=learning_rate, clip_norm=clip_norm)
        for job, run, (alpha, (ref_target, ref_align, ref_weights)) in zip(train_jobs, runs, references):
            (l_target, l_align, combined), = run.losses
            assert l_target == pytest.approx(ref_target, rel=1e-12, abs=0)
            if ref_align is None:
                assert math.isnan(l_align)
                assert combined == pytest.approx(l_target, rel=1e-12, abs=0)
            else:
                assert l_align == pytest.approx(ref_align, rel=1e-12, abs=0)
                expected = (1 - alpha) * ref_target + alpha * ref_align
                assert combined == pytest.approx(expected, rel=1e-12, abs=1e-12)
            update = run.model.weights - job.model.weights
            ref_update = ref_weights - job.model.weights
            assert np.abs(update - ref_update).max() <= 1e-12 * np.abs(ref_update).max()

    def test_jobs_trained_together_match_each_trained_alone(self):
        corpora = [synth_corpus(small_spec(seed=seed))[0] for seed in (7, 8)]
        aligned = {
            s.id: [f"ans t{i % 12} is c{i % 7}"]
            for corpus in corpora
            for i, s in enumerate(corpus)
            if i % 3
        }
        jobs = [
            TrainJob(ToyModel.initialize(12, seed=0), corpora[0], None, config=TARGET_ONLY, seed=0),
            TrainJob(ToyModel.initialize(12, seed=1), corpora[1], aligned, config=LossConfig(alpha=0.2), seed=1),
            TrainJob(random_model(seed=3), corpora[0], aligned, config=LossConfig(alpha=0.5), seed=2),
        ]
        runs = train_lockstep(jobs, epochs=3, learning_rate=0.3, clip_norm=1.0)
        for job, run in zip(jobs, runs):
            (alone,) = train_lockstep([job], epochs=3, learning_rate=0.3, clip_norm=1.0)
            assert np.abs(run.model.weights - alone.model.weights).max() <= 1e-12
            assert run.sample_ids == alone.sample_ids
            assert np.array_equal(run.order, alone.order)

    def test_first_diverged_job_in_order_raises_its_own_error(self):
        train_c, _, _ = synth_corpus(small_spec())
        vocab = build_vocabulary(12)
        v = len(vocab)
        huge = ToyModel(vocab, np.full((3 * v + 1, v), 1e308))
        jobs = [TrainJob(m, train_c, config=TARGET_ONLY, seed=seed) for seed, m in enumerate((ToyModel.initialize(12), huge, huge))]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="step 0") as together:
                train_lockstep(jobs, epochs=1, learning_rate=0.1, clip_norm=1.0)
            with pytest.raises(TrainingDivergedError) as alone:
                train(huge, train_c, config=TARGET_ONLY, epochs=1, learning_rate=0.1, clip_norm=1.0, seed=1)
        assert str(together.value) == str(alone.value)

    def test_jobs_with_empty_corpora_make_no_steps(self):
        model = random_model()
        jobs = [TrainJob(model, Corpus((), Task.CQA), config=TARGET_ONLY, seed=seed) for seed in (0, 1)]
        runs = train_lockstep(jobs, epochs=2, learning_rate=0.1, clip_norm=1.0)
        assert [len(run.order) for run in runs] == [0, 0]
        assert all(np.array_equal(run.model.weights, model.weights) for run in runs)

    def test_jobs_need_corpora_of_one_size(self):
        train_c, _, _ = synth_corpus(small_spec())
        short = Corpus(train_c.samples[:5], Task.CQA)
        model = ToyModel.initialize(12)
        with pytest.raises(ValueError, match="one size"):
            jobs = [TrainJob(model, corpus, config=TARGET_ONLY) for corpus in (train_c, short)]
            train_lockstep(jobs, epochs=1, learning_rate=0.1, clip_norm=1.0)


class TestFiniteDifference:
    @pytest.mark.parametrize("alpha", [0.0, 0.2, 1.0])
    def test_analytic_gradient_matches_central_difference(self, alpha):
        model = random_model()
        train_c, _, _ = synth_corpus(small_spec())
        sample = next(iter(train_c))
        aligned = [f"ans t3 is c5 {EOS}", f"ans t1 is c2 {EOS}"] if alpha > 0 else ()
        err = finite_diff_check(
            model, sample, sample.target + " " + EOS,
            config=LossConfig(alpha=alpha), aligned_responses=aligned,
            n_probes=100, seed=2,
        )
        assert err < 1e-4

    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    def test_dense_gradient_is_exactly_zero_off_the_active_rows(self, alpha):
        model = random_model()
        train_c, _, _ = synth_corpus(small_spec())
        sample = next(iter(train_c))
        base = context_features(model, sample)
        target = sample.target.split() + [EOS]
        aligned = [["ans", "t3", "is", "c5", EOS], ["ans", "t1", "is", "c2", EOS]] if alpha > 0 else []
        batch, _ = packed_block(model, sample, [target, *aligned], LossConfig(alpha=alpha))
        active = batch.rows[0][batch.rows[0] < model.n_features]  # without the spare row
        _, grad = sequence_loss_and_grad(model.weights, *sequence_features(model, base, target))
        for tokens in aligned:
            grad = grad + sequence_loss_and_grad(model.weights, *sequence_features(model, base, tokens))[1]
        inactive = np.setdiff1d(np.arange(model.n_features), active)
        assert np.all(grad[inactive] == 0.0)
        assert np.all(np.abs(grad[active]).sum(axis=1) > 0.0)

    def test_one_probe_finds_an_error_on_any_active_entry(self, monkeypatch):
        model = random_model()
        train_c, _, _ = synth_corpus(small_spec())
        sample = next(iter(train_c))
        exact = toy_model._stacked_loss_and_grad

        def off_by_a_hundredth(*args):
            losses, grad = exact(*args)
            return losses, grad + 1e-2

        monkeypatch.setattr(toy_model, "_stacked_loss_and_grad", off_by_a_hundredth)
        for seed in range(10):
            err = finite_diff_check(model, sample, sample.target + " " + EOS, n_probes=1, seed=seed)
            assert err > 1e-3

    def test_saturated_model_has_vanishing_gradient(self):
        model = always_gold_model()
        _, eval_b, _ = synth_corpus(small_spec(n_eval=30, seed=3))
        sample = next(iter(eval_b))
        response = sample.target + " " + EOS
        assert target_nll(model, sample, response.split()) < 1e-3
        assert finite_diff_check(model, sample, response, n_probes=50, seed=1) < 1e-8

    def test_error_grows_with_coarse_epsilon(self):
        model = random_model()
        train_c, _, _ = synth_corpus(small_spec())
        sample = next(iter(train_c))
        response = sample.target + " " + EOS
        fine = finite_diff_check(model, sample, response, epsilon=1e-5, n_probes=100, seed=2)
        coarse = finite_diff_check(model, sample, response, epsilon=0.5, n_probes=100, seed=2)
        assert coarse > 100 * fine
        assert coarse > 0.01

    def test_epsilon_must_be_positive(self):
        model = random_model()
        train_c, _, _ = synth_corpus(small_spec())
        sample = next(iter(train_c))
        with pytest.raises(ValueError, match="epsilon"):
            finite_diff_check(model, sample, sample.target, epsilon=0.0)


class TestEvaluate:
    def test_gold_model_scores_one_on_both_splits(self):
        model = always_gold_model()
        _, eval_b, eval_n = synth_corpus(small_spec(n_eval=30, seed=3))
        pooled = Corpus(tuple(eval_b) + tuple(eval_n), Task.CQA)
        partition = split_by_relative_position(pooled)
        result = evaluate(model, partition, "accuracy", "gold")
        assert (result.system, result.metric) == ("gold", "accuracy")
        assert result.splits == {"biased": (1.0, 30), "non_biased": (1.0, 30)}
        assert result.by_position
        rouge = evaluate(model, partition, "rouge_l", "gold")
        assert rouge.splits == {"biased": (1.0, 30), "non_biased": (1.0, 30)}

    def test_empty_split_reports_absent_score(self):
        model = always_gold_model()
        _, eval_b, _ = synth_corpus(small_spec(n_eval=5, seed=3))
        partition = split_by_relative_position(eval_b)
        assert len(partition.non_biased) == 0
        result = evaluate(model, partition, "accuracy", "gold")
        assert "non_biased" not in result.splits
        assert result.splits["biased"] == (1.0, 5)

    def test_two_empty_sides_give_no_scores_and_no_rows(self):
        empty = Corpus((), Task.CQA)
        result = evaluate(always_gold_model(), BiasPartition(empty, empty, {}), "accuracy", "gold")
        assert (result.splits, result.by_position) == ({}, ())

    def test_position_rows_cover_observed_positions(self):
        model = ToyModel.initialize(12)
        _, eval_b, eval_n = synth_corpus(small_spec(n_eval=20, seed=3))
        pooled = Corpus(tuple(eval_b) + tuple(eval_n), Task.CQA)
        partition = split_by_relative_position(pooled)
        result = evaluate(model, partition, "accuracy", "m")
        positions = {row.position for row in result.by_position}
        assert {0, 1} <= positions
        assert sum(row.count for row in result.by_position) == 40

    def test_positions_come_from_partition_evidence(self):
        # The evidence is the only source: a sample is not grounded again,
        # and one whose evidence has no position lands in the unknown row.
        model = always_gold_model()
        _, eval_b, _ = synth_corpus(small_spec(n_eval=4, seed=3))
        evidence = {
            s.id: BiasEvidence(BiasKind.RELATIVE_POSITION, True, relative_position=None if i else 7)
            for i, s in enumerate(eval_b)
        }
        result = evaluate(model, BiasPartition(eval_b, Corpus((), Task.CQA), evidence), "accuracy", "m")
        assert [(row.position, row.count) for row in result.by_position] == [(7, 1), (None, 3)]

    def test_unknown_metric_rejected(self):
        model = ToyModel.initialize(12)
        _, eval_b, _ = synth_corpus(small_spec(n_eval=5, seed=3))
        partition = split_by_relative_position(eval_b)
        with pytest.raises(ValueError, match="metric"):
            evaluate(model, partition, "chrf", "m")


class TestSerialization:
    def test_round_trip_preserves_model(self, tmp_path):
        model = random_model(seed=21, scale=0.3)
        path = save_model(model, tmp_path / "model.json")
        loaded = load_model(path)
        assert loaded.vocabulary == model.vocabulary
        assert loaded.window_scale == model.window_scale
        assert np.array_equal(loaded.weights, model.weights)
        train_c, _, _ = synth_corpus(small_spec())
        sample = next(iter(train_c))
        assert generate_response(loaded, sample) == generate_response(model, sample)

    def test_context_features_shape_and_bias_entry(self):
        model = ToyModel.initialize(12)
        train_c, _, _ = synth_corpus(small_spec())
        feats = context_features(model, next(iter(train_c)))
        v = len(model.vocabulary)
        assert feats.shape == (3 * v + 1,)
        assert feats[3 * v] == 1.0
        assert feats.max() == model.window_scale
