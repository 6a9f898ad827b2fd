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

from .bias_split import BiasPartition
from .corpus import (
    Corpus,
    DialogueTurn,
    Sample,
    Task,
    make_document,
    render_input,
)
from .lowbias_infer import build_prompt, default_prompt_spec
from .metrics import bleu_2, per_position_table, rouge_l, tokenize
from .msa_align import AlignedResponse
from .objective import LossConfig, combined_loss, loss_term_weights
from .report import SystemEval

BOS = "<bos>"
EOS = "<eos>"
_SPECIALS = (BOS, EOS, "ans", "is", "about")

#: How much more salient anchor-window tokens are than question-match tokens.
DEFAULT_WINDOW_SCALE = 2.0


class TrainingDivergedError(RuntimeError):
    """Raised when the loss stops being finite; names the offending step and
    sample. ``job`` is the diverged job's index among those trained in
    lockstep."""

    def __init__(self, message: str, job: int = 0) -> None:
        super().__init__(message)
        self.job = job


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
        if self.n_utterances < 3:
            raise ValueError(f"SynthSpec: n_utterances must be >= 3, got {self.n_utterances}")
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
    def initialize(cls, vocab_size: int, seed: int = 0) -> "ToyModel":
        """Zero-weight model: every next-token distribution is uniform."""
        vocabulary = build_vocabulary(vocab_size)
        v = len(vocabulary)
        weights = np.zeros((3 * v + 1, v), dtype=np.float64)
        return cls(vocabulary, weights, seed=seed)

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
class EpochSummary:
    """One epoch of one job: mean loss terms over its steps (``l_align`` over
    the steps that had one, ``None`` when none did), the mean and max gradient
    norm before clipping, and the fraction of steps whose gradient was clipped."""

    epoch: int
    l_target: float
    l_align: float | None
    combined: float
    grad_norm_mean: float
    grad_norm_max: float
    clip_fraction: float


@dataclass(frozen=True)
class _StackedSequences:
    """One sample's target and kept aligned sequences as a single row block.

    The block lives on its ``active`` feature columns (those non-zero on some
    row). Every row holds the context features ``base`` on those columns plus
    a one-hot previous-token feature at column ``prev[row]``. The first
    ``n_target`` rows are the target sequence. A row's three ``masks``
    weights add its negative log-probability into the target loss, the mean
    aligned loss and the combined loss: ``(1, 0, w_target)`` on target rows,
    ``(0, 1/k, w_align/k)`` on the rows of the ``k`` aligned sequences.
    """

    active: np.ndarray
    base: np.ndarray
    prev: np.ndarray
    targets: np.ndarray
    masks: np.ndarray
    n_target: int

    @property
    def phi(self) -> np.ndarray:
        """Row features on the active columns."""
        phi = np.tile(self.base, (len(self.targets), 1))
        phi[np.arange(len(self.targets)), self.prev] = 1.0
        return phi

    def as_batch(self, vocab_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``phi``, flat target indices and ``masks`` of a batch of this one
        block, as ``_stacked_loss_and_grad`` takes them."""
        flat_targets = np.arange(len(self.targets)) * vocab_size + self.targets
        return self.phi[None], flat_targets[None], self.masks[None]


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
    prev_offset, bos = 2 * len(model.vocabulary), model.token_id(BOS)
    prev_cols: list[int] = []
    targets: list[int] = []
    masks: list[tuple[float, float, float]] = []
    sequences = [(target_tokens, (1.0, 0.0, w_target))]
    sequences += [(tokens, (0.0, 1.0 / k, w_align / k)) for tokens in align_tokens]
    for tokens, mask in sequences:
        prev = bos
        for token in tokens:
            prev_cols.append(prev_offset + prev)
            prev = model.token_id(token)
            targets.append(prev)
        masks += [mask] * len(tokens)
    base_cols = np.flatnonzero(base).tolist()
    active = sorted({*base_cols, *prev_cols})
    column = {col: i for i, col in enumerate(active)}
    return _StackedSequences(
        np.array(active, dtype=np.intp),
        base[active],
        np.array([column[col] for col in prev_cols], dtype=np.intp),
        np.array(targets, dtype=np.intp),
        np.array(masks, dtype=np.float64).reshape(-1, 3),
        len(target_tokens),
    )


def _stacked_loss_and_grad(
    weights: np.ndarray, phi: np.ndarray, targets: np.ndarray, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Loss terms of J blocks and the gradient of their combined losses.

    ``weights`` (J, A, V) holds each block's weight rows at its active
    columns, ``phi`` (J, R, A) its row features, ``targets`` (J, R) the index
    of each row's target in the flattened (J, R, V) logits and ``masks``
    (J, R, 3) its row weights. Returns the (J, 3) target, mean aligned and
    combined losses, and the (J, A, V) gradient of the combined losses.
    """
    shifted = phi @ weights
    shifted -= shifted.max(axis=2, keepdims=True)
    delta = np.exp(shifted)
    total = delta.sum(axis=2)
    logp = shifted.take(targets) - np.log(total)
    losses = -(logp[:, None, :] @ masks)[:, 0]
    # delta = (softmax - one-hot target) times each row's combined-loss weight.
    delta *= (masks[:, :, 2] / total)[:, :, None]
    delta.reshape(-1)[targets] -= masks[:, :, 2]
    return losses, phi.transpose(0, 2, 1) @ delta


@dataclass(frozen=True)
class TrainJob:
    """One model to train: start weights, corpus, aligned responses (read
    when ``config.alpha > 0``) and the seed of its epoch shuffles."""

    model: ToyModel
    corpus: Corpus
    aligned: Mapping[str, Sequence[AlignedResponse]] | None = None
    config: LossConfig = LossConfig(alpha=0.0)
    seed: int = 0


@dataclass(frozen=True, eq=False)
class TrainingRun:
    """A trained job and its steps. ``order`` holds the index into
    ``sample_ids`` (the corpus order) of the sample each step trained on,
    ``losses`` the step's target, mean aligned (NaN when the sample had no
    kept aligned response) and combined losses, ``grad_norms`` its gradient
    norm before clipping."""

    model: ToyModel
    sample_ids: tuple[str, ...]
    order: np.ndarray
    losses: np.ndarray
    grad_norms: np.ndarray
    clip_norm: float

    def epoch_summaries(self) -> list[EpochSummary]:
        """One summary per epoch of the steps."""
        n = len(self.sample_ids)
        summaries = []
        for epoch in range(len(self.order) // n if n else 0):
            losses = self.losses[epoch * n : (epoch + 1) * n]
            norms = self.grad_norms[epoch * n : (epoch + 1) * n]
            aligned = losses[~np.isnan(losses[:, 1]), 1]
            summaries.append(
                EpochSummary(
                    epoch,
                    float(losses[:, 0].mean()),
                    float(aligned.mean()) if len(aligned) else None,
                    float(losses[:, 2].mean()),
                    float(norms.mean()),
                    float(norms.max()),
                    float((norms > self.clip_norm).mean()),
                )
            )
        return summaries


@dataclass(frozen=True)
class _LockstepBatch:
    """Every job's blocks padded to R rows and A active columns, one entry per
    (job, sample) at index ``job * N + sample``.

    ``rows`` are flat weight-row indices into the jobs' stacked weights (a
    padded column points at its job's spare all-zero row), ``base`` the
    context features on them; ``onehot`` and ``targets`` are each row's flat
    index into a (J, R, A) feature and a (J, R, V) logit array. Padded rows
    have all-zero ``masks``, so they add nothing to a loss or gradient.
    """

    rows: np.ndarray
    base: np.ndarray
    onehot: np.ndarray
    targets: np.ndarray
    masks: np.ndarray
    aligned: np.ndarray


def _job_sequences(job: TrainJob, sample: Sample) -> list[list[str]]:
    """A sample's target token list, then those of its kept aligned responses."""
    responses = (job.aligned or {}).get(sample.id, ()) if job.config.alpha > 0.0 else ()
    return [sample.target.split() + [EOS]] + [r.text.split() + [EOS] for r in responses if r.kept]


def _pack_jobs(jobs: Sequence[TrainJob], n_rows: int) -> _LockstepBatch:
    """Encode every job's samples into one padded batch, one sample at a time.

    A first pass sizes the batch: a block has a row per token and an active
    column per non-zero context feature and per distinct previous token (the
    context features leave the previous-token block zero). It keeps only
    each sample's non-zero context features, so no job's blocks are ever
    held beside the batch.
    """
    contexts, r, a = [], 0, 0
    for job in jobs:
        for sample in job.corpus:
            base = context_features(job.model, sample)
            cols = np.flatnonzero(base)
            contexts.append((cols, base[cols]))
            sequences = _job_sequences(job, sample)
            prevs = {BOS}.union(*(tokens[:-1] for tokens in sequences))
            r = max(r, sum(map(len, sequences)))
            a = max(a, len(cols) + len(prevs))
    n_samples, (n_features, v) = len(jobs[0].corpus), jobs[0].model.weights.shape
    job_of = np.repeat(np.arange(len(jobs)), n_samples)[:, None]
    row_starts = job_of * r + np.arange(r)
    batch = _LockstepBatch(
        rows=np.repeat(job_of * n_rows + n_rows - 1, a, axis=1),
        base=np.zeros((len(job_of), a)),
        onehot=row_starts * a,
        targets=row_starts * v,
        masks=np.zeros((len(job_of), r, 3)),
        aligned=np.zeros(len(job_of), dtype=bool),
    )
    samples = ((j, job, sample) for j, job in enumerate(jobs) for sample in job.corpus)
    for s, ((j, job, sample), (cols, values)) in enumerate(zip(samples, contexts)):
        base = np.zeros(n_features)
        base[cols] = values
        sequences = _job_sequences(job, sample)
        b = _stack_sequences(job.model, base, sequences[0], sequences[1:], job.config)
        n_active, n_block_rows = len(b.active), len(b.targets)
        batch.rows[s, :n_active] = j * n_rows + b.active
        batch.base[s, :n_active] = b.base
        batch.onehot[s, :n_block_rows] += b.prev
        batch.targets[s, :n_block_rows] += b.targets
        batch.masks[s, :n_block_rows] = b.masks
        batch.aligned[s] = len(sequences) > 1
    return batch


def train_lockstep(
    jobs: Sequence[TrainJob],
    epochs: int = 10,
    learning_rate: float = 0.1,
    clip_norm: float = 1.0,
) -> list[TrainingRun]:
    """Gradient descent on the combined loss for several jobs at once.

    Each job makes one update per sample per epoch, in an order reshuffled
    each epoch under its own seed; each update's gradient is clipped to
    ``clip_norm`` (Frobenius). Samples without kept aligned responses train
    on the target loss alone. One batched step advances every job, so the
    jobs must have corpora of one size; a job's updates are the ones it
    would make trained alone, up to float summation order. At the first
    step where any job's loss is not finite, the ``TrainingDivergedError``
    of the first such job in ``jobs`` order is raised.
    """
    if learning_rate < 0:
        raise ValueError(f"train: negative learning_rate {learning_rate}")
    if epochs < 0:
        raise ValueError(f"train: negative epochs {epochs}")
    if clip_norm <= 0:
        raise ValueError(f"train: clip_norm must be positive, got {clip_norm}")
    if not jobs:
        return []
    if len({len(job.corpus) for job in jobs}) > 1 or len({job.model.weights.shape for job in jobs}) > 1:
        raise ValueError("train_lockstep: jobs need corpora of one size and models of one shape")
    n_jobs, n_samples = len(jobs), len(jobs[0].corpus)
    n_features, v = jobs[0].model.weights.shape
    n_rows = n_features + 1  # each job's weights plus its spare all-zero row
    batch = _pack_jobs(jobs, n_rows)
    weights = np.zeros((n_jobs * n_rows, v))
    for j, job in enumerate(jobs):
        weights[j * n_rows : j * n_rows + n_features] = job.model.weights

    orders = [list(range(n_samples)) for _ in jobs]
    rngs = [random.Random(job.seed) for job in jobs]
    order = np.empty((epochs * n_samples, n_jobs), dtype=np.intp)
    losses = np.empty((len(order), n_jobs, 3))
    grad_norms = np.empty((len(order), n_jobs))
    phi = np.empty((n_jobs, batch.onehot.shape[1], batch.base.shape[1]))
    phi_flat = phi.reshape(-1)
    for epoch in range(epochs):
        start = epoch * n_samples
        epoch_order = order[start : start + n_samples]
        for j, rng in enumerate(rngs):
            rng.shuffle(orders[j])
            epoch_order[:, j] = orders[j]
        for step, entry in enumerate(epoch_order + np.arange(n_jobs) * n_samples, start=start):
            rows = batch.rows[entry]
            active_weights = weights[rows]
            phi[...] = batch.base[entry][:, None, :]
            phi_flat[batch.onehot[entry]] = 1.0
            step_losses, grad = _stacked_loss_and_grad(active_weights, phi, batch.targets[entry], batch.masks[entry])
            if not np.isfinite(step_losses).all():
                j = int(np.argmin(np.isfinite(step_losses).all(axis=1)))
                sample_id = jobs[j].corpus.samples[order[step, j]].id
                raise TrainingDivergedError(f"non-finite loss at step {step} (sample {sample_id!r})", job=j)
            norm = np.sqrt(np.einsum("jav,jav->j", grad, grad))
            grad *= (learning_rate * (clip_norm / np.maximum(norm, clip_norm)))[:, None, None]
            active_weights -= grad
            weights[rows] = active_weights
            losses[step] = step_losses
            grad_norms[step] = norm
    losses[~batch.aligned[order + np.arange(n_jobs) * n_samples], 1] = np.nan
    return [
        TrainingRun(
            replace(job.model, weights=weights[j * n_rows : j * n_rows + n_features].copy()),
            tuple(s.id for s in job.corpus),
            order[:, j],
            losses[:, j],
            grad_norms[:, j],
            clip_norm,
        )
        for j, job in enumerate(jobs)
    ]


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
    """``train_lockstep`` with one job; returns the model and one trace entry
    per step."""
    (run,) = train_lockstep([TrainJob(model, corpus, aligned, config, seed)], epochs, learning_rate, clip_norm)
    trace = []
    for step, (index, (l_target, l_align, _)) in enumerate(zip(run.order.tolist(), run.losses.tolist())):
        breakdown = combined_loss(l_target, None if math.isnan(l_align) else l_align, config)
        trace.append(
            TraceEntry(
                step, step // len(corpus), run.sample_ids[index],
                breakdown.l_target, breakdown.l_align, breakdown.combined,
            )
        )
    return run.model, trace


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

    batch = seqs.as_batch(model.weights.shape[1])

    def loss_and_grad(weights: np.ndarray) -> tuple[float, np.ndarray]:
        losses, grad = _stacked_loss_and_grad(weights[seqs.active][None], *batch)
        return float(losses[0, 2]), grad[0]

    analytic = np.zeros_like(model.weights)
    analytic[seqs.active] = loss_and_grad(model.weights)[1]

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
        numeric = (loss_and_grad(plus)[0] - loss_and_grad(minus)[0]) / (2 * epsilon)
        ana = float(analytic[row, col])
        rel = abs(numeric - ana) / max(1.0, abs(numeric), abs(ana))
        worst = max(worst, rel)
    return worst


def evaluate(model: ToyModel, partition: BiasPartition, metric: str, system: str) -> SystemEval:
    """Score greedy decodes on both partition sides; an empty side is left out.

    Each sample's relative position is read from its partition evidence;
    samples whose evidence has none are pooled in the unknown-position row.
    """
    all_scores: list[float] = []
    all_positions: list[int | None] = []
    splits: dict[str, tuple[float, int]] = {}
    for name, corpus in (("biased", partition.biased), ("non_biased", partition.non_biased)):
        scores = [_score_prediction(metric, generate_response(model, s), s.target) for s in corpus]
        if scores:
            splits[name] = (sum(scores) / len(scores), len(scores))
        all_scores.extend(scores)
        all_positions.extend(partition.evidence[s.id].relative_position for s in corpus)
    rows = tuple(per_position_table(all_positions, all_scores)) if all_scores else ()
    return SystemEval(system, metric, splits, rows)


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
