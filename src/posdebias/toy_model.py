"""A tiny trainable model plus a synthetic position-biased corpus.

The model is a single linear layer over bag-of-context features and the
previous token's identity, followed by a softmax over the vocabulary.
Gradients are derived by hand; training is plain gradient descent with norm
clipping. Small as it is, the model has exactly the capacity needed to
exhibit a position shortcut and to shed it under alignment training.

The synthetic task: a document of ``t<i> c<j>`` topic/content utterances, a
previous exchange whose answer points at an anchor utterance, and a current
question naming one topic. The reference answer restates that topic and its
content (``ans t<i> is c<j>``). A biased sample places the answer at offset
0 or 1 from the anchor, so a model can score well on biased data by copying
from the anchor window instead of following the question.

The window features are scaled up relative to the question-match features,
making the position route faster to learn, which is what makes plain
fine-tuning on biased data prefer it at realistic training horizons.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .bias_split import BiasPartition, relative_position
from .corpus import (
    Corpus,
    DialogueTurn,
    Sample,
    Task,
    make_document,
    render_input,
)
from .lowbias_infer import build_prompt, default_prompt_spec
from .metrics import PositionRow, bleu_2, per_position_table, rouge_l, tokenize
from .msa_align import AlignedResponse
from .objective import LossConfig, combined_loss, loss_term_weights

BOS = "<bos>"
EOS = "<eos>"
_SPECIALS = (BOS, EOS, "ans", "is", "about")

#: How much more salient anchor-window tokens are than question-match tokens.
DEFAULT_WINDOW_SCALE = 2.0


class TrainingDivergedError(RuntimeError):
    """Raised when the loss stops being finite; names the offending step."""


@dataclass(frozen=True)
class SynthSpec:
    """Shape of the synthetic corpus."""

    n_utterances: int = 6
    n_train: int = 500
    n_eval: int = 500
    biased_fraction: float = 0.95
    vocab_size: int = 24
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_train < 1 or self.n_eval < 1:
            raise ValueError("SynthSpec: corpus sizes must be >= 1")
        if not 0.0 <= self.biased_fraction <= 1.0:
            raise ValueError(
                f"SynthSpec: biased_fraction must be in [0, 1], got {self.biased_fraction}"
            )
        if self.vocab_size < self.n_utterances:
            raise ValueError(
                "SynthSpec: vocab_size must be >= n_utterances so utterances are distinct"
            )


def build_vocabulary(vocab_size: int) -> tuple[str, ...]:
    """Model vocabulary: special tokens, then topic and content tokens."""
    topics = tuple(f"t{i}" for i in range(vocab_size))
    contents = tuple(f"c{i}" for i in range(vocab_size))
    return _SPECIALS + topics + contents


def _make_sample(rng: random.Random, spec: SynthSpec, sample_id: str, biased: bool, split: str) -> Sample:
    n = spec.n_utterances
    topics = rng.sample(range(spec.vocab_size), n)
    contents = rng.sample(range(spec.vocab_size), n)
    texts = [f"t{topics[i]} c{contents[i]}" for i in range(n)]
    # Anchor below the last utterance so both biased offsets are realizable.
    anchor = rng.randrange(n - 1)
    if biased:
        answer_pos = anchor + rng.choice((0, 1))
    else:
        candidates = [p for p in range(n) if p - anchor not in (0, 1)]
        answer_pos = rng.choice(candidates)
    document = make_document(texts)
    history = (
        DialogueTurn(0, f"about t{topics[anchor]}", f"ans t{topics[anchor]} is c{contents[anchor]}"),
        DialogueTurn(1, f"about t{topics[answer_pos]}", None),
    )
    target = f"ans t{topics[answer_pos]} is c{contents[answer_pos]}"
    return Sample(
        id=sample_id,
        task=Task.CQA,
        target=target,
        document=document,
        history=history,
        input_text=render_input(Task.CQA, document, history),
        split=split,
    )


def synth_corpus(spec: SynthSpec) -> tuple[Corpus, Corpus, Corpus]:
    """Generate (train, eval_biased, eval_nonbiased) corpora.

    Train samples are biased with probability ``biased_fraction``; the eval
    corpora are pure. Identical specs produce identical corpora.
    """
    if spec.n_utterances < 3:
        raise ValueError("synth_corpus: n_utterances must be >= 3")
    rng = random.Random(spec.seed)
    train = tuple(
        _make_sample(rng, spec, f"train-{i:05d}", rng.random() < spec.biased_fraction, "train")
        for i in range(spec.n_train)
    )
    eval_biased = tuple(
        _make_sample(rng, spec, f"evalb-{i:05d}", True, "eval_biased")
        for i in range(spec.n_eval)
    )
    eval_nonbiased = tuple(
        _make_sample(rng, spec, f"evaln-{i:05d}", False, "eval_nonbiased")
        for i in range(spec.n_eval)
    )
    return (
        Corpus(train, Task.CQA),
        Corpus(eval_biased, Task.CQA),
        Corpus(eval_nonbiased, Task.CQA),
    )


def build_lowbias_table(
    corpus: Corpus,
    garbage_rate: float = 0.25,
    n_candidates: int = 3,
    seed: int = 0,
) -> dict[str, list[dict]]:
    """Stub-backend lookup table of low-bias responses for a synthetic corpus.

    Each sample's prompt maps to ``n_candidates`` entries. Most are
    well-formed answers grounded at a uniformly random utterance position
    (the low-bias signal); a ``garbage_rate`` fraction are scaffold-free
    noise that the unreliable gate should prune.
    """
    if not 0.0 <= garbage_rate <= 1.0:
        raise ValueError(f"build_lowbias_table: garbage_rate {garbage_rate} outside [0, 1]")
    rng = random.Random(seed)
    spec = default_prompt_spec(Task.CQA)
    table: dict[str, list[dict]] = {}
    for sample in corpus:
        assert sample.document is not None
        doc_texts = sample.document.texts()
        target_tokens = set(sample.target.split())
        noise_pool = [
            tok for text in doc_texts for tok in text.split() if tok not in target_tokens
        ]
        entries = []
        for _ in range(n_candidates):
            if noise_pool and rng.random() < garbage_rate:
                text = " ".join(rng.choice(noise_pool) for _ in range(4))
            else:
                pos = rng.randrange(len(doc_texts))
                topic_tok, content_tok = doc_texts[pos].split()
                text = f"ans {topic_tok} is {content_tok}"
            entries.append({"text": text, "token_logprobs": [math.log(0.5)] * 4})
        prompt = build_prompt(sample, spec)[0]
        table[prompt] = entries
    return table


@dataclass(eq=False)
class ToyModel:
    """Linear softmax next-token model.

    Features per step, in blocks of vocabulary size V:
    [0, V)    tokens in the anchor window (offsets 0 and 1), scaled,
    [V, 2V)   tokens in the utterance matching the current question,
    [2V, 3V)  previous-token one-hot,
    3V        constant bias.
    """

    vocabulary: tuple[str, ...]
    weights: np.ndarray
    seed: int = 0
    window_scale: float = DEFAULT_WINDOW_SCALE
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        v = len(self.vocabulary)
        expected = (3 * v + 1, v)
        if self.weights.shape != expected:
            raise ValueError(
                f"ToyModel: weights shape {self.weights.shape} != expected {expected}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("ToyModel: non-finite weights")
        self._index = {tok: i for i, tok in enumerate(self.vocabulary)}

    @property
    def n_features(self) -> int:
        return 3 * len(self.vocabulary) + 1

    @classmethod
    def initialize(
        cls, vocab_size: int, seed: int = 0, window_scale: float = DEFAULT_WINDOW_SCALE
    ) -> "ToyModel":
        """Zero-weight model: every next-token distribution is uniform."""
        vocabulary = build_vocabulary(vocab_size)
        v = len(vocabulary)
        weights = np.zeros((3 * v + 1, v), dtype=np.float64)
        return cls(vocabulary, weights, seed=seed, window_scale=window_scale)

    def token_id(self, token: str) -> int:
        if token not in self._index:
            raise ValueError(f"out-of-vocabulary token {token!r}")
        return self._index[token]


def _overlap_index(document, tokens: set[str]) -> int | None:
    """Index of the utterance sharing the most tokens; ties to the smallest."""
    best_index: int | None = None
    best_overlap = 0
    for utt in document.utterances:
        overlap = len(set(utt.text.split()) & tokens)
        if overlap > best_overlap:
            best_index = utt.index
            best_overlap = overlap
    return best_index


def context_features(model: ToyModel, sample: Sample) -> np.ndarray:
    """Step-independent feature vector (previous-token block left zero)."""
    if sample.document is None:
        raise ValueError(f"context_features: sample {sample.id!r} has no document")
    v = len(model.vocabulary)
    feats = np.zeros(model.n_features, dtype=np.float64)
    feats[3 * v] = 1.0
    anchor_turn = sample.last_answered_turn()
    if anchor_turn is not None and anchor_turn.answer:
        anchor = _overlap_index(sample.document, set(anchor_turn.answer.split()))
        if anchor is not None:
            for pos in (anchor, anchor + 1):
                if pos < len(sample.document):
                    for tok in sample.document.utterances[pos].text.split():
                        if tok in model._index:
                            feats[model._index[tok]] = model.window_scale
    question = sample.current_question()
    if question:
        matched = _overlap_index(sample.document, set(question.split()))
        if matched is not None:
            for tok in sample.document.utterances[matched].text.split():
                if tok in model._index:
                    feats[v + model._index[tok]] = 1.0
    return feats


def _sequence_features(
    model: ToyModel, base: np.ndarray, tokens: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step feature matrix and target-id vector for a token sequence."""
    v = len(model.vocabulary)
    phi = np.tile(base, (len(tokens), 1))
    prev = BOS
    targets = np.empty(len(tokens), dtype=np.int64)
    for step, token in enumerate(tokens):
        phi[step, 2 * v + model.token_id(prev)] = 1.0
        targets[step] = model.token_id(token)
        prev = token
    return phi, targets


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def generate_response(model: ToyModel, sample: Sample, max_len: int = 8) -> str:
    """Greedy decode until the end token or ``max_len`` tokens."""
    v = len(model.vocabulary)
    base = context_features(model, sample)
    eos_id = model.token_id(EOS)
    prev_id = model.token_id(BOS)
    out: list[str] = []
    for _ in range(max_len):
        feats = base.copy()
        feats[2 * v + prev_id] = 1.0
        logits = feats @ model.weights
        next_id = int(np.argmax(logits))
        if next_id == eos_id:
            break
        out.append(model.vocabulary[next_id])
        prev_id = next_id
    return " ".join(out)


@dataclass(frozen=True)
class TraceEntry:
    """One gradient step's loss record."""

    step: int
    epoch: int
    sample_id: str
    l_target: float
    l_align: float | None
    combined: float


@dataclass(frozen=True)
class _StackedSequences:
    """One sample's target and kept aligned sequences as a single row block.

    ``phi`` holds only the ``active`` feature columns (those non-zero on some
    row), so a step reads and updates just ``weights[active]``. The first
    ``n_target`` rows are the target sequence, weighted ``w_target``; the
    rest are the ``k`` aligned sequences, each row weighted ``w_align / k``.
    """

    phi: np.ndarray
    active: np.ndarray
    targets: np.ndarray
    rows: np.ndarray
    row_weight: np.ndarray
    n_target: int
    k: int


def _stack_sequences(
    model: ToyModel,
    base: np.ndarray,
    target_tokens: Sequence[str],
    align_tokens: Sequence[Sequence[str]],
    config: LossConfig,
) -> _StackedSequences:
    """Stack a target token list and aligned token lists into one block."""
    k = len(align_tokens)
    w_target, w_align = loss_term_weights(config, align_present=k > 0)
    blocks = [_sequence_features(model, base, tokens) for tokens in (target_tokens, *align_tokens)]
    phi = np.concatenate([block_phi for block_phi, _ in blocks])
    targets = np.concatenate([block_ids for _, block_ids in blocks])
    row_weight = np.full((len(targets), 1), w_align / k if k else 0.0)
    row_weight[: len(target_tokens)] = w_target
    active = np.flatnonzero(phi.any(axis=0))
    return _StackedSequences(
        phi[:, active], active, targets, np.arange(len(targets)), row_weight, len(target_tokens), k
    )


def _stacked_loss_and_grad(
    weights: np.ndarray, seqs: _StackedSequences
) -> tuple[float, float | None, np.ndarray]:
    """Target NLL, mean aligned NLL (``None`` when ``k == 0``) and the gradient
    of their weighted sum with respect to ``weights[seqs.active]``."""
    logp = _log_softmax(seqs.phi @ weights.take(seqs.active, axis=0))
    picked = logp[seqs.rows, seqs.targets]
    l_target = -float(picked[: seqs.n_target].sum())
    l_align = -float(picked[seqs.n_target :].sum()) / seqs.k if seqs.k else None
    delta = np.exp(logp)
    delta[seqs.rows, seqs.targets] -= 1.0
    delta *= seqs.row_weight
    return l_target, l_align, seqs.phi.T @ delta


def _encode_training_sequences(
    model: ToyModel,
    corpus: Corpus,
    aligned: Mapping[str, Sequence[AlignedResponse]] | None,
    config: LossConfig,
) -> dict[str, _StackedSequences]:
    encoded: dict[str, _StackedSequences] = {}
    for sample in corpus:
        responses = (aligned or {}).get(sample.id, ()) if config.alpha > 0.0 else ()
        kept = [response.text.split() + [EOS] for response in responses if response.kept]
        encoded[sample.id] = _stack_sequences(
            model, context_features(model, sample), sample.target.split() + [EOS], kept, config
        )
    return encoded


def train(
    model: ToyModel,
    corpus: Corpus,
    aligned: Mapping[str, Sequence[AlignedResponse]] | None = None,
    config: LossConfig = LossConfig(alpha=0.0),
    epochs: int = 10,
    learning_rate: float = 0.1,
    seed: int = 0,
    clip_norm: float = 1.0,
) -> tuple[ToyModel, list[TraceEntry]]:
    """Gradient descent on the combined loss.

    One update per sample per epoch, in an order reshuffled each epoch under
    ``seed``; each update's gradient is clipped to ``clip_norm`` (Frobenius).
    Samples without kept aligned responses train on the target loss alone.
    """
    if learning_rate < 0:
        raise ValueError(f"train: negative learning_rate {learning_rate}")
    if epochs < 0:
        raise ValueError(f"train: negative epochs {epochs}")
    if clip_norm <= 0:
        raise ValueError(f"train: clip_norm must be positive, got {clip_norm}")
    encoded = _encode_training_sequences(model, corpus, aligned, config)
    weights = model.weights.copy()
    rng = random.Random(seed)
    order = [s.id for s in corpus]
    trace: list[TraceEntry] = []
    step = 0
    for epoch in range(epochs):
        rng.shuffle(order)
        for sample_id in order:
            seqs = encoded[sample_id]
            l_target, l_align, grad = _stacked_loss_and_grad(weights, seqs)
            if not math.isfinite(l_target) or (l_align is not None and not math.isfinite(l_align)):
                raise TrainingDivergedError(
                    f"non-finite loss at step {step} (sample {sample_id!r})"
                )
            breakdown = combined_loss(l_target, l_align, config)
            norm = float(np.linalg.norm(grad))
            if norm > clip_norm:
                grad = grad * (clip_norm / norm)
            weights[seqs.active] -= learning_rate * grad
            trace.append(
                TraceEntry(step, epoch, sample_id, breakdown.l_target, breakdown.l_align, breakdown.combined)
            )
            step += 1
    return replace(model, weights=weights), trace


#: Evaluation metrics ``evaluate`` accepts.
METRICS = ("accuracy", "rouge_l", "bleu_2")


def _score_prediction(metric: str, prediction: str, target: str) -> float:
    if metric == "accuracy":
        return 1.0 if tokenize(prediction) == tokenize(target) else 0.0
    if metric == "rouge_l":
        return rouge_l(prediction, target)
    if metric == "bleu_2":
        return bleu_2(prediction, target)
    raise ValueError(f"unknown metric {metric!r}")


def finite_diff_check(
    model: ToyModel,
    sample: Sample,
    response: str,
    epsilon: float = 1e-5,
    config: LossConfig | None = None,
    aligned_responses: Sequence[str] = (),
    n_probes: int = 100,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The probed loss is the combined objective of ``response`` (target term)
    and ``aligned_responses`` (alignment term) under ``config``. Probes are
    drawn uniformly over the entries of the active feature rows, the only
    rows the loss depends on; the gradient of every other row is zero.
    """
    if epsilon <= 0:
        raise ValueError(f"finite_diff_check: epsilon must be positive, got {epsilon}")
    config = config or LossConfig(alpha=0.0)
    seqs = _stack_sequences(
        model,
        context_features(model, sample),
        response.split(),
        [text.split() for text in aligned_responses],
        config,
    )

    def loss_of(weights: np.ndarray) -> float:
        l_target, l_align, _ = _stacked_loss_and_grad(weights, seqs)
        return combined_loss(l_target, l_align, config).combined

    analytic = np.zeros_like(model.weights)
    analytic[seqs.active] = _stacked_loss_and_grad(model.weights, seqs)[2]

    rng = np.random.default_rng(seed)
    n_cols = model.weights.shape[1]
    flat_count = len(seqs.active) * n_cols
    probes = rng.choice(flat_count, size=min(n_probes, flat_count), replace=False)
    worst = 0.0
    for flat_index in probes:
        active_index, col = divmod(int(flat_index), n_cols)
        row = seqs.active[active_index]
        plus = model.weights.copy()
        plus[row, col] += epsilon
        minus = model.weights.copy()
        minus[row, col] -= epsilon
        numeric = (loss_of(plus) - loss_of(minus)) / (2 * epsilon)
        ana = float(analytic[row, col])
        rel = abs(numeric - ana) / max(1.0, abs(numeric), abs(ana))
        worst = max(worst, rel)
    return worst


@dataclass(frozen=True)
class SplitScore:
    """Aggregate score over one partition side; ``None`` when empty."""

    score: float | None
    count: int


@dataclass(frozen=True)
class EvalReport:
    metric: str
    biased: SplitScore
    non_biased: SplitScore
    by_relative_position: tuple[PositionRow, ...]


def evaluate(
    model: ToyModel,
    partition: BiasPartition,
    metric: str = "accuracy",
    max_len: int = 8,
) -> EvalReport:
    """Score greedy decodes on both partition sides.

    Relative positions come from the partition evidence when present and are
    recomputed from the sample otherwise; samples without either are pooled
    in the unknown-position row.
    """
    all_scores: list[float] = []
    all_positions: list[int | None] = []
    split_scores: dict[str, SplitScore] = {}
    for name, corpus in (("biased", partition.biased), ("non_biased", partition.non_biased)):
        scores: list[float] = []
        for sample in corpus:
            prediction = generate_response(model, sample, max_len=max_len)
            score = _score_prediction(metric, prediction, sample.target)
            scores.append(score)
            evidence = partition.evidence.get(sample.id)
            if evidence is not None and evidence.relative_position is not None:
                position: int | None = evidence.relative_position
            else:
                try:
                    position = relative_position(sample)
                except ValueError:
                    position = None
            all_positions.append(position)
        all_scores.extend(scores)
        if scores:
            split_scores[name] = SplitScore(sum(scores) / len(scores), len(scores))
        else:
            split_scores[name] = SplitScore(None, 0)
    rows = tuple(per_position_table(all_positions, all_scores)) if all_scores else ()
    return EvalReport(metric, split_scores["biased"], split_scores["non_biased"], rows)


def save_model(model: ToyModel, path: str | Path) -> Path:
    """Write the model as JSON: vocabulary, seed, window scale, weight rows."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "vocabulary": list(model.vocabulary),
        "seed": model.seed,
        "window_scale": model.window_scale,
        "weights": model.weights.tolist(),
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def load_model(path: str | Path) -> ToyModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return ToyModel(
        vocabulary=tuple(payload["vocabulary"]),
        weights=np.asarray(payload["weights"], dtype=np.float64),
        seed=payload.get("seed", 0),
        window_scale=payload.get("window_scale", DEFAULT_WINDOW_SCALE),
    )
