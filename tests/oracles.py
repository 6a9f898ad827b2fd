"""Independent reference implementations used to cross-check the library.

Deliberately written with different algorithms than the package (memoized
recursion instead of iterative DP, Counter-based n-gram clipping, brute
force search) so agreement is meaningful.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

import numpy as np


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
