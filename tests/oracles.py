"""Independent reference implementations used to cross-check the library.

Deliberately written with different algorithms than the package (memoized
recursion instead of iterative DP, Counter-based n-gram clipping, brute
force search, central differences) so agreement is meaningful.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from functools import lru_cache

import numpy as np

from posdebias.objective import LossConfig
from posdebias.toy_model import _lockstep_step, _pack


def lcs_recursive(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Longest common subsequence length by memoized recursion."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def rouge_l_oracle(cand: tuple[str, ...], ref: tuple[str, ...], beta: float = 1.2) -> float:
    """LCS-based F-score, recall-weighted by beta."""
    if not ref:
        raise ValueError("empty reference")
    if not cand:
        return 0.0
    lcs = lcs_recursive(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return ((1 + beta * beta) * precision * recall) / (recall + beta * beta * precision)


def _ngrams(tokens: tuple[str, ...], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_2_oracle(cand: tuple[str, ...], ref: tuple[str, ...]) -> float:
    """Bigram BLEU with clipped counts, add-one smoothing on the bigram
    precision only, and the standard brevity penalty."""
    if not cand:
        return 0.0
    uni_cand, uni_ref = _ngrams(cand, 1), _ngrams(ref, 1)
    matched_uni = sum(min(count, uni_ref[gram]) for gram, count in uni_cand.items())
    p1 = matched_uni / max(1, len(cand))
    if p1 == 0.0:
        return 0.0
    bi_cand, bi_ref = _ngrams(cand, 2), _ngrams(ref, 2)
    matched_bi = sum(min(count, bi_ref[gram]) for gram, count in bi_cand.items())
    total_bi = max(0, len(cand) - 1)
    p2 = (matched_bi + 1) / (total_bi + 1)
    brevity = 1.0 if len(cand) > len(ref) else math.exp(1 - len(ref) / max(1, len(cand)))
    return brevity * math.sqrt(p1 * p2)


def ground_oracle(response_tokens: tuple[str, ...], utterance_tokens: list[tuple[str, ...]]) -> int:
    """Brute-force best-overlap utterance index, smallest index on ties."""
    best_index, best_score = 0, -1.0
    for index, utt in enumerate(utterance_tokens):
        score = rouge_l_oracle(response_tokens, utt) if utt else 0.0
        if score > best_score:
            best_index, best_score = index, score
    return best_index


def markov_complete(prompt: str, max_tokens: int, seed: int) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """Tokens and logprobs of the markov stub, recomputed from scratch on
    every call as the stub first did: the prompt's SHA-256 and sorted
    vocabulary per call, ``choice`` per token, ``-uniform(0.05, 1.5)`` per
    logprob, at most 8 tokens."""
    key = int.from_bytes(hashlib.sha256(prompt.encode("utf-8")).digest()[:8], "big")
    rng = random.Random(key ^ (seed & 0xFFFFFFFF))
    vocab = sorted(set(prompt.split())) or ["the"]
    length = max(1, min(max_tokens, 8))
    tokens = tuple(rng.choice(vocab) for _ in range(length))
    logprobs = tuple(-rng.uniform(0.05, 1.5) for _ in tokens)
    return tokens, logprobs


def sequence_features(model, base: np.ndarray, tokens) -> tuple[np.ndarray, np.ndarray]:
    """Dense per-step features of one token sequence (the context features
    ``base`` plus a previous-token one-hot) and its target ids."""
    v = len(model.vocabulary)
    phi = np.tile(base, (len(tokens), 1))
    targets = np.empty(len(tokens), dtype=np.int64)
    prev = "<bos>"
    for step, token in enumerate(tokens):
        phi[step, 2 * v + model.token_id(prev)] = 1.0
        targets[step] = model.token_id(token)
        prev = token
    return phi, targets


def sequence_loss_and_grad(
    weights: np.ndarray, phi: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """NLL of one token sequence and its dense gradient over every weight."""
    logits = phi @ weights
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(len(targets))
    delta = np.exp(logp)
    delta[rows, targets] -= 1.0
    return -float(logp[rows, targets].sum()), phi.T @ delta


def dense_sgd_step(
    weights: np.ndarray,
    target_seq: tuple[np.ndarray, np.ndarray],
    align_seqs: list[tuple[np.ndarray, np.ndarray]],
    alpha: float,
    learning_rate: float,
    clip_norm: float,
) -> tuple[float, float | None, np.ndarray]:
    """One clipped SGD step on the combined loss, one sequence at a time.

    Each (features, target ids) sequence gets its own dense gradient; the
    aligned ones are averaged and mixed with the target's as
    ``(1 - alpha) * target + alpha * mean(aligned)``. Returns the target
    loss, the mean aligned loss (``None`` without aligned sequences) and the
    updated weights.
    """
    l_target, grad = sequence_loss_and_grad(weights, *target_seq)
    l_align = None
    if align_seqs:
        pairs = [sequence_loss_and_grad(weights, phi, ids) for phi, ids in align_seqs]
        l_align = sum(loss for loss, _ in pairs) / len(pairs)
        grad = (1.0 - alpha) * grad + alpha * (sum(g for _, g in pairs) / len(pairs))
    norm = float(np.linalg.norm(grad))
    if norm > clip_norm:
        grad = grad * (clip_norm / norm)
    return l_target, l_align, weights - learning_rate * grad


def finite_diff_check(
    model,
    sample,
    response: str,
    epsilon: float = 1e-5,
    config: LossConfig = LossConfig(alpha=0.0),
    aligned_responses=(),
    n_probes: int = 100,
    seed: int = 0,
) -> float:
    """Max relative error between the training step's analytic gradient and
    central differences of its loss.

    The probed loss is the combined objective of ``response`` (target term)
    and ``aligned_responses`` (alignment term) under ``config``, as the
    training step computes it on a one-block batch. Probes are drawn
    uniformly over the entries of the active feature rows, the only rows the
    loss depends on; the gradient of every other row is zero.
    """
    if epsilon <= 0:
        raise ValueError(f"finite_diff_check: epsilon must be positive, got {epsilon}")
    n_features, n_cols = model.weights.shape
    sequences = [response.split(), *(text.split() for text in aligned_responses)]
    batch = _pack(lambda: [(0, model, config, sample, sequences)], n_features + 1)
    active = batch.rows[0][batch.rows[0] < n_features]
    weights = np.vstack([model.weights, np.zeros((1, n_cols))])  # plus the spare row

    def combined(weights: np.ndarray) -> float:
        return float(_lockstep_step(weights, batch, [0])[2][0, 2])

    analytic = _lockstep_step(weights, batch, [0])[3][0]  # the active rows, then padding
    rng = np.random.default_rng(seed)
    flat_count = len(active) * n_cols
    probes = rng.choice(flat_count, size=min(n_probes, flat_count), replace=False)
    worst = 0.0
    for flat_index in probes:
        active_index, col = divmod(int(flat_index), n_cols)
        bump = np.zeros_like(weights)
        bump[active[active_index], col] = epsilon
        numeric = (combined(weights + bump) - combined(weights - bump)) / (2 * epsilon)
        ana = float(analytic[active_index, col])
        rel = abs(numeric - ana) / max(1.0, abs(numeric), abs(ana))
        worst = max(worst, rel)
    return worst


def greedy_decode_one(model, base: np.ndarray, max_len: int = 8) -> str:
    """Greedy decode of one sample from its context features ``base``, one
    (F,) @ (F, V) product per step, until ``<eos>`` or ``max_len`` tokens."""
    return greedy_decode_gap(model, base, max_len)[0]


def greedy_decode_gap(model, base: np.ndarray, max_len: int = 8) -> tuple[str, float]:
    """``greedy_decode_one``'s decode, and the smallest gap between the two
    largest logits over its steps: how far the decode sits from a tie."""
    v = len(model.vocabulary)
    eos_id = model.token_id("<eos>")
    prev_id = model.token_id("<bos>")
    out: list[str] = []
    gap = math.inf
    for _ in range(max_len):
        feats = base.copy()
        feats[2 * v + prev_id] = 1.0
        logits = feats @ model.weights
        runner_up, top = np.partition(logits, -2)[-2:]
        gap = min(gap, float(top - runner_up))
        next_id = int(np.argmax(logits))
        if next_id == eos_id:
            break
        out.append(model.vocabulary[next_id])
        prev_id = next_id
    return " ".join(out), gap


def candidates_jsonl(candidates) -> str:
    """The text of a candidates file by ``json.dumps`` (``ensure_ascii=False``):
    one line per ``GenerationResult`` of each sample id, grouped by sample,
    ``candidate_index`` its place in the sample's list."""
    return "".join(
        json.dumps(
            {
                "sample_id": sample_id,
                "candidate_index": index,
                "text": result.text,
                "tokens": list(result.tokens),
                "token_logprobs": list(result.token_logprobs),
                "backend_id": result.backend_id,
            },
            ensure_ascii=False,
        )
        + "\n"
        for sample_id, results in candidates.items()
        for index, result in enumerate(results)
    )


def verdict_record(sample_id: str, text: str, token_logprobs, reasons) -> dict:
    """One aligned line's record: kept iff no rejection reason, the reasons
    by name, sorted."""
    return {
        "sample_id": sample_id,
        "text": text,
        "token_logprobs": list(token_logprobs),
        "kept": not reasons,
        "rejection_reasons": sorted(reason.value for reason in reasons),
    }


def aligned_jsonl(candidates, verdicts) -> str:
    """The text of an aligned file by ``json.dumps`` (``ensure_ascii=False``):
    one ``verdict_record`` line per candidate of each sample id in
    ``verdicts``, with the verdict in the same place of ``verdicts``."""
    return "".join(
        json.dumps(verdict_record(sid, c.text, c.token_logprobs, v.rejection_reasons), ensure_ascii=False) + "\n"
        for sid, sample_verdicts in verdicts.items()
        for c, v in zip(candidates[sid], sample_verdicts, strict=True)
    )
