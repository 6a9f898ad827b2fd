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
from dataclasses import KW_ONLY, dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .bias_split import BiasPartition
from .corpus import (
    Corpus,
    DialogueTurn,
    Sample,
    SynthSpec,
    Task,
    json_field,
    json_list,
    json_value,
    make_document,
    parse_json,
    read_text,
    render_input,
    write_blocks,
)
from .lowbias_infer import build_prompt, default_prompt_spec
from .metrics import bleu_2, per_position_table, rouge_l, tokenize
from .objective import LossConfig, loss_term_weights
from .report import SystemEval

BOS = "<bos>"
EOS = "<eos>"
_SPECIALS = (BOS, EOS, "ans", "is", "about")

#: How much more salient anchor-window tokens are than question-match tokens.
DEFAULT_WINDOW_SCALE = 2.0


class TrainingDivergedError(RuntimeError):
    """Raised when the loss stops being finite; names the offending step and
    sample."""


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
        doc_texts = sample.document.utterances
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
    for index, text in enumerate(document.utterances):
        overlap = len(set(text.split()) & tokens)
        if overlap > best_overlap:
            best_index = index
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
                    for tok in sample.document.utterances[pos].split():
                        if tok in model._index:
                            feats[model._index[tok]] = model.window_scale
    question = sample.current_question()
    if question:
        matched = _overlap_index(sample.document, set(question.split()))
        if matched is not None:
            for tok in sample.document.utterances[matched].split():
                if tok in model._index:
                    feats[v + model._index[tok]] = 1.0
    return feats


def _greedy_decode(model: ToyModel, samples: Sequence[Sample], max_len: int = 8) -> list[str]:
    """Greedy decodes of ``samples`` as one batch, until the end token or
    ``max_len`` tokens. Each step sets the previous-token column of every row
    still decoding, takes one (live, F) @ (F, V) product and an argmax per
    row, and drops the rows that emitted the end token."""
    v = len(model.vocabulary)
    eos_id = model.token_id(EOS)
    feats = np.empty((len(samples), model.n_features))
    for row, sample in enumerate(samples):
        feats[row] = context_features(model, sample)
    live = np.arange(len(samples))
    prev = np.full(len(samples), model.token_id(BOS))
    out: list[list[str]] = [[] for _ in samples]
    for _ in range(max_len):
        if not len(live):
            break
        rows = np.arange(len(live))
        feats[rows, 2 * v + prev] = 1.0
        next_ids = (feats @ model.weights).argmax(axis=1)
        feats[rows, 2 * v + prev] = 0.0
        going = next_ids != eos_id
        live, prev, feats = live[going], next_ids[going], feats[going]
        for row, token_id in zip(live.tolist(), prev.tolist()):
            out[row].append(model.vocabulary[token_id])
    return [" ".join(tokens) for tokens in out]


def generate_response(model: ToyModel, sample: Sample, max_len: int = 8) -> str:
    """Greedy decode of one sample until the end token or ``max_len``
    tokens: ``_greedy_decode`` on a one-row batch."""
    return _greedy_decode(model, [sample], max_len)[0]


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
    """One model to train: start weights, corpus, the kept aligned texts of
    each sample id (read when ``config.alpha > 0``) and the seed of its epoch
    shuffles."""

    model: ToyModel
    corpus: Corpus
    aligned: Mapping[str, Sequence[str]] | None = None
    _: KW_ONLY
    config: LossConfig
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
    index into the (J, R, A) step features ``phi`` and a (J, R, V) logit
    array. Padded rows have all-zero ``masks``: they add to no loss or gradient.
    """

    rows: np.ndarray
    base: np.ndarray
    onehot: np.ndarray
    targets: np.ndarray
    masks: np.ndarray
    aligned: np.ndarray
    phi: np.ndarray


def _job_blocks(jobs: Sequence[TrainJob]):
    """Each job's samples in batch order, as ``_pack`` reads them: job index,
    model, loss config, sample and token lists (target, then kept aligned)."""
    for j, job in enumerate(jobs):
        for sample in job.corpus:
            texts = (job.aligned or {}).get(sample.id, ()) if job.config.alpha > 0.0 else ()
            sequences = [sample.target.split() + [EOS]] + [text.split() + [EOS] for text in texts]
            yield j, job.model, job.config, sample, sequences


def _pack(blocks: Callable[[], Iterable[tuple]], n_rows: int) -> _LockstepBatch:
    """Encode blocks into one padded batch, one sample at a time.

    ``blocks()`` yields each block as ``_job_blocks`` does; it is read twice.
    The first pass sizes the batch, keeping only each sample's job and
    non-zero context features; the second writes each block into it. A block
    has a row per token, and an active column per non-zero context feature
    and per distinct previous token (the context features leave the
    previous-token block zero). A row's ``masks`` weigh it into the target,
    mean aligned and combined losses: ``(1, 0, w_target)`` on target rows,
    ``(0, 1/k, w_align/k)`` on the rows of ``k`` aligned sequences.
    """
    contexts, r, a, v = [], 0, 0, 0
    for j, model, _, sample, sequences in blocks():
        v = model.weights.shape[1]
        base = context_features(model, sample)
        cols = np.flatnonzero(base).tolist()
        contexts.append((j, cols, base[cols]))
        prevs = {BOS}.union(*(tokens[:-1] for tokens in sequences))
        r = max(r, sum(map(len, sequences)))
        a = max(a, len(cols) + len(prevs))
    job_of = np.array([j for j, _, _ in contexts], dtype=np.intp)[:, None]
    row_starts = job_of * r + np.arange(r)
    batch = _LockstepBatch(
        rows=np.repeat(job_of * n_rows + n_rows - 1, a, axis=1),
        base=np.zeros((len(job_of), a)),
        onehot=row_starts * a,
        targets=row_starts * v,
        masks=np.zeros((len(job_of), r, 3)),
        aligned=np.zeros(len(job_of), dtype=bool),
        phi=np.empty((contexts[-1][0] + 1 if contexts else 0, r, a)),  # one block per job
    )
    for s, ((_, model, config, _, sequences), (j, cols, values)) in enumerate(zip(blocks(), contexts)):
        k, bos = len(sequences) - 1, model.token_id(BOS)
        w_target, w_align = loss_term_weights(config, align_present=k > 0)
        prev_cols, targets, row = [], [], 0
        for i, tokens in enumerate(sequences):
            prev = bos
            for token in tokens:
                prev_cols.append(2 * v + prev)
                prev = model.token_id(token)
                targets.append(prev)
            batch.masks[s, row : row + len(tokens)] = (0.0, 1.0 / k, w_align / k) if i else (1.0, 0.0, w_target)
            row += len(tokens)
        active = sorted({*cols, *prev_cols})
        column = {col: i for i, col in enumerate(active)}
        batch.rows[s, : len(active)] = [j * n_rows + col for col in active]
        batch.base[s, [column[col] for col in cols]] = values
        batch.onehot[s, :row] += np.array([column[col] for col in prev_cols], dtype=np.intp)
        batch.targets[s, :row] += np.array(targets, dtype=np.intp)
        batch.aligned[s] = k > 0
    return batch


def _lockstep_step(weights: np.ndarray, batch: _LockstepBatch, entry) -> tuple[np.ndarray, ...]:
    """The training step at the stacked ``weights`` for the blocks ``entry``,
    one per job: gathers their weight rows, fills ``batch.phi`` with their
    context plus previous-token features, and returns the rows, the gathered
    weights and ``_stacked_loss_and_grad``'s (J, 3) losses and (J, A, V)
    gradient."""
    rows = batch.rows[entry]
    active_weights = weights[rows]
    batch.phi[...] = batch.base[entry][:, None, :]
    batch.phi.reshape(-1)[batch.onehot[entry]] = 1.0
    losses, grad = _stacked_loss_and_grad(active_weights, batch.phi, batch.targets[entry], batch.masks[entry])
    return rows, active_weights, losses, grad


def train_lockstep(
    jobs: Sequence[TrainJob], *, epochs: int, learning_rate: float, clip_norm: float
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
    if not 0 <= learning_rate < math.inf:
        raise ValueError(f"train: learning_rate must be finite and >= 0, got {learning_rate}")
    if epochs < 0:
        raise ValueError(f"train: negative epochs {epochs}")
    if not 0 < clip_norm < math.inf:
        raise ValueError(f"train: clip_norm must be finite and positive, got {clip_norm}")
    if not jobs:
        return []
    if len({len(job.corpus) for job in jobs}) > 1 or len({job.model.weights.shape for job in jobs}) > 1:
        raise ValueError("train_lockstep: jobs need corpora of one size and models of one shape")
    n_jobs, n_samples = len(jobs), len(jobs[0].corpus)
    n_features, v = jobs[0].model.weights.shape
    n_rows = n_features + 1  # each job's weights plus its spare all-zero row
    batch = _pack(lambda: _job_blocks(jobs), n_rows)
    weights = np.zeros((n_jobs * n_rows, v))
    for j, job in enumerate(jobs):
        weights[j * n_rows : j * n_rows + n_features] = job.model.weights

    orders = [list(range(n_samples)) for _ in jobs]
    rngs = [random.Random(job.seed) for job in jobs]
    order = np.empty((epochs * n_samples, n_jobs), dtype=np.intp)
    losses = np.empty((len(order), n_jobs, 3))
    grad_norms = np.empty((len(order), n_jobs))
    for epoch in range(epochs):
        start = epoch * n_samples
        epoch_order = order[start : start + n_samples]
        for j, rng in enumerate(rngs):
            rng.shuffle(orders[j])
            epoch_order[:, j] = orders[j]
        for step, entry in enumerate(epoch_order + np.arange(n_jobs) * n_samples, start=start):
            rows, active_weights, step_losses, grad = _lockstep_step(weights, batch, entry)
            if not np.isfinite(step_losses).all():
                j = int(np.argmin(np.isfinite(step_losses).all(axis=1)))
                sample_id = jobs[j].corpus.samples[order[step, j]].id
                raise TrainingDivergedError(f"non-finite loss at step {step} (sample {sample_id!r})")
            norm = np.sqrt(np.einsum("jav,jav->j", grad, grad))
            grad *= (learning_rate * (clip_norm / np.maximum(norm, clip_norm)))[:, None, None]
            weights[rows] = active_weights - grad
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
    aligned: Mapping[str, Sequence[str]] | None = None,
    *,
    config: LossConfig,
    epochs: int,
    learning_rate: float,
    clip_norm: float,
    seed: int = 0,
) -> tuple[ToyModel, list[EpochSummary]]:
    """``train_lockstep`` with one job; returns the model and its epoch
    summaries, what the train stage writes for a job."""
    (run,) = train_lockstep(
        [TrainJob(model, corpus, aligned, config=config, seed=seed)],
        epochs=epochs, learning_rate=learning_rate, clip_norm=clip_norm,
    )
    return run.model, run.epoch_summaries()


def _score_prediction(metric: str, prediction: str, target: str) -> float:
    if metric == "accuracy":
        return 1.0 if tokenize(prediction) == tokenize(target) else 0.0
    if metric == "rouge_l":
        return rouge_l(prediction, target)
    if metric == "bleu_2":
        return bleu_2(prediction, target)
    raise ValueError(f"unknown metric {metric!r}")


def evaluate(model: ToyModel, partition: BiasPartition, metric: str, system: str) -> SystemEval:
    """Score greedy decodes on both partition sides, each decoded as one
    batch; an empty side is left out.

    Each sample's relative position is read from its partition evidence;
    samples whose evidence has none are pooled in the unknown-position row.
    """
    all_scores: list[float] = []
    all_positions: list[int | None] = []
    splits: dict[str, tuple[float, int]] = {}
    for name, corpus in (("biased", partition.biased), ("non_biased", partition.non_biased)):
        predictions = _greedy_decode(model, corpus.samples)
        scores = [_score_prediction(metric, p, s.target) for p, s in zip(predictions, corpus)]
        if scores:
            splits[name] = (sum(scores) / len(scores), len(scores))
        all_scores.extend(scores)
        all_positions.extend(partition.evidence[s.id].relative_position for s in corpus)
    rows = tuple(per_position_table(all_positions, all_scores)) if all_scores else ()
    return SystemEval(system, metric, splits, rows)


def save_model(model: ToyModel, path: str | Path) -> Path:
    """Write the model as JSON: vocabulary, seed, window scale, weight rows."""
    payload = {
        "vocabulary": list(model.vocabulary),
        "seed": model.seed,
        "window_scale": model.window_scale,
        "weights": model.weights.tolist(),
    }
    return write_blocks([json.dumps(payload)], path)


def load_model(path: str | Path) -> ToyModel:
    """Inverse of ``save_model``; a bad field fails naming the file (``parse_json``)."""
    return parse_json(read_text(path), path, _model_from_payload)


def _model_from_payload(payload: object) -> ToyModel:
    vocabulary, rows = json_list(payload, "vocabulary", str), json_field(payload, "weights", list)
    for row in rows:
        for value in row if isinstance(row, list) else (row,):
            json_value(value, (int, float), "weights", item=True)
    try:
        weights = np.asarray(rows, dtype=np.float64)
    except ValueError:  # ragged rows
        raise ValueError("field 'weights' must be a matrix of numbers") from None
    seed = json_field(payload, "seed", int, 0)
    window_scale = json_field(payload, "window_scale", (int, float), DEFAULT_WINDOW_SCALE)
    return ToyModel(tuple(vocabulary), weights, seed, window_scale)
