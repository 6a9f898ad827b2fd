"""End-to-end acceptance gate.

Each test checks one release criterion and prints a single PASS/FAIL line
with the measured numbers (run with ``-s`` or ``-rA`` to see the lines for
passing tests). The toy-experiment tests share one full-scale pipeline run.
"""
from __future__ import annotations

import dataclasses
import json
import random
import time
from statistics import mean

import numpy as np
import pytest

from posdebias.bias_split import (
    split_by_lead_bias,
    split_by_lexical_bias,
    split_by_relative_position,
)
from posdebias.corpus import Corpus, Sample, Task, make_document
from posdebias.metrics import ROUGE_BETA, rouge_l, rouge_l_scores
from posdebias.msa_align import calibrate_threshold
from posdebias.objective import LossConfig, combined_loss
from posdebias.pipeline import parse_config, pool_evals, run_pipeline
from posdebias.toy_model import (
    BOS,
    EOS,
    SynthSpec,
    ToyModel,
    _greedy_decode,
    build_vocabulary,
    context_features,
    evaluate,
    load_model,
    synth_corpus,
)

from conftest import dialogue_sample, nli_sample
from oracles import finite_diff_check, greedy_decode_gap, greedy_decode_one


def _verdict(name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# -- metric oracle -----------------------------------------------------------


def _lcs_full_table(a: list[str], b: list[str]) -> int:
    """Brute-force LCS via the full O(n*m) table, kept independent of the
    single-row implementation under test."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


def _brute_rouge_l(cand_tokens: list[str], ref_tokens: list[str]) -> float:
    lcs = _lcs_full_table(cand_tokens, ref_tokens)
    if not cand_tokens or lcs == 0:
        return 0.0
    precision = lcs / len(cand_tokens)
    recall = lcs / len(ref_tokens)
    return ((1 + ROUGE_BETA * ROUGE_BETA) * precision * recall) / (recall + ROUGE_BETA * ROUGE_BETA * precision)


def test_rouge_l_matches_brute_force_lcs_oracle():
    rng = random.Random(101)
    vocab = ["va", "vb", "vc", "vd", "ve"]
    mismatches = 0
    start = time.perf_counter()
    for _ in range(1000):
        cand = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 10)))
        ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 10)))
        if rouge_l(cand, ref) != _brute_rouge_l(cand.split(), ref.split()):
            mismatches += 1
    # Grounding's path: one candidate against ten references in one call.
    for _ in range(100):
        cand = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
        refs = [[rng.choice(vocab) for _ in range(rng.randint(1, 10))] for _ in range(10)]
        got = rouge_l_scores(cand, refs)
        mismatches += sum(g != _brute_rouge_l(cand, ref) for g, ref in zip(got, refs))
    elapsed = time.perf_counter() - start
    _verdict(
        "rouge-l-lcs-oracle",
        mismatches == 0 and elapsed < 5.0,
        f"1000 pairs, then 100 candidates x 10 references at once, {mismatches} mismatches, {elapsed:.2f}s < 5s",
    )


# -- loss algebra ------------------------------------------------------------


def test_combined_loss_endpoints_interior_and_convex_bound():
    rng = random.Random(303)
    endpoint_bad = interior_bad = bound_bad = 0
    for _ in range(1000):
        l_target = rng.uniform(0.0, 20.0)
        l_align = rng.uniform(0.0, 20.0)
        alpha = rng.random()
        if combined_loss(l_target, l_align, LossConfig(alpha=0.0)).combined != l_target:
            endpoint_bad += 1
        if combined_loss(l_target, l_align, LossConfig(alpha=1.0)).combined != l_align:
            endpoint_bad += 1
        mixed = combined_loss(l_target, l_align, LossConfig(alpha=alpha)).combined
        if abs(mixed - ((1 - alpha) * l_target + alpha * l_align)) > 1e-12:
            interior_bad += 1
        if not min(l_target, l_align) <= mixed <= max(l_target, l_align):
            bound_bad += 1
    _verdict(
        "loss-algebra",
        endpoint_bad == 0 and interior_bad == 0 and bound_bad == 0,
        f"1000 triples: {endpoint_bad} endpoint, {interior_bad} interior (>1e-12), "
        f"{bound_bad} convex-bound violations",
    )


# -- gradient correctness ----------------------------------------------------


def test_analytic_gradients_match_finite_differences():
    vocabulary = build_vocabulary(12)
    v = len(vocabulary)
    model = ToyModel(
        vocabulary, np.random.default_rng(5).normal(scale=0.1, size=(3 * v + 1, v))
    )
    train_c, _, _ = synth_corpus(
        SynthSpec(
            n_utterances=6, n_train=20, n_eval=10,
            biased_fraction=0.95, vocab_size=12, seed=7,
        )
    )
    sample = next(iter(train_c))
    aligned = (f"ans t3 is c5 {EOS}", f"ans t1 is c2 {EOS}")
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.0, 0.1, 0.2, 0.5, 1.0):
        err = finite_diff_check(
            model,
            sample,
            f"{sample.target} {EOS}",
            config=LossConfig(alpha=alpha),
            aligned_responses=aligned,
            n_probes=100,
            seed=2,
        )
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _verdict(
        "gradient-check",
        worst < 1e-4 and elapsed < 30.0,
        f"max rel err {worst:.3e} < 1e-4 over 5 alphas x 100 probes, {elapsed:.1f}s < 30s",
    )


# -- threshold calibration ---------------------------------------------------


def test_calibration_picks_threshold_nearest_target_keep_fraction():
    rng = random.Random(505)
    thresholds = (0.1, 0.15, 0.2)
    wrong = 0
    for pool_idx in range(100):
        winner = thresholds[pool_idx % 3]
        # Plant band counts so exactly 8/40 stats sit at or above the winner
        # and the other two thresholds land far from the 0.2 keep target.
        scores = []
        if winner == 0.1:
            scores += [rng.uniform(0.10, 0.1499) for _ in range(8)]
            scores += [rng.uniform(0.0, 0.0999) for _ in range(32)]
        elif winner == 0.15:
            scores += [rng.uniform(0.15, 0.1999) for _ in range(8)]
            scores += [rng.uniform(0.10, 0.1499) for _ in range(12)]
            scores += [rng.uniform(0.0, 0.0999) for _ in range(20)]
        else:
            scores += [rng.uniform(0.20, 1.0) for _ in range(8)]
            scores += [rng.uniform(0.15, 0.1999) for _ in range(10)]
            scores += [rng.uniform(0.10, 0.1499) for _ in range(10)]
            scores += [rng.uniform(0.0, 0.0999) for _ in range(12)]
        rng.shuffle(scores)
        keep = {t: sum(1 for s in scores if s >= t) / len(scores) for t in thresholds}
        assert min(abs(keep[t] - 0.2) for t in thresholds) == abs(keep[winner] - 0.2)
        if calibrate_threshold(scores, thresholds, 0.2) != winner:
            wrong += 1
    _verdict(
        "threshold-calibration",
        wrong == 0,
        f"100 planted pools over {{0.1, 0.15, 0.2}}, {wrong} wrong selections",
    )


# -- splitter correctness ----------------------------------------------------


def test_splitters_recover_planted_subsets():
    # Relative position: disjoint-token utterances make grounding unambiguous.
    utterances = [
        "alpha alpha one", "bravo bravo two", "carol carol three",
        "delta delta four", "echo echo five",
    ]
    layout = [
        ("r0", 1, 1), ("r1", 2, 3), ("r2", 3, 1),
        ("r3", 0, 4), ("r4", 4, 0), ("r5", 2, 2),
    ]
    rel_samples = tuple(
        dialogue_sample(sid, utterances, "prev q", utterances[prev], "cur q", utterances[tgt])
        for sid, prev, tgt in layout
    )
    rel_planted = {sid for sid, prev, tgt in layout if tgt - prev in (0, 1)}
    rel_part = split_by_relative_position(Corpus(rel_samples, Task.CQA))
    rel_ok = {s.id for s in rel_part.biased} == rel_planted and {
        s.id for s in rel_part.non_biased
    } == {sid for sid, _, _ in layout} - rel_planted

    # Lead: biased iff the target grounds at utterance 0.
    def sum_sample(sid: str, target: str) -> Sample:
        doc = make_document(["lead first words", "middle other stuff", "tail extra parts"])
        return Sample(id=sid, task=Task.SUM, target=target, document=doc)

    lead_samples = tuple(
        [sum_sample(f"lead{i}", "lead first words") for i in range(3)]
        + [sum_sample(f"body{i}", "middle other stuff") for i in range(4)]
        + [sum_sample("tail0", "tail extra parts")]
    )
    lead_part = split_by_lead_bias(Corpus(lead_samples, Task.SUM))
    lead_ok = {s.id for s in lead_part.biased} == {"lead0", "lead1", "lead2"}

    # Lexical: whole-token triggers; "nothing" must not match "not".
    hypotheses = [
        ("x0", "the cat is not here"), ("x1", "nobody ever came"),
        ("x2", "it never rains"), ("y0", "the cat sits there"),
        ("y1", "people arrived today"), ("y2", "nothing matched here"),
    ]
    lex_samples = tuple(
        nli_sample(sid, "premise words", hyp, "neutral") for sid, hyp in hypotheses
    )
    lex_part = split_by_lexical_bias(
        Corpus(lex_samples, Task.NLI), ("not", "never", "nobody")
    )
    lex_ok = {s.id for s in lex_part.biased} == {"x0", "x1", "x2"}

    _verdict(
        "planted-splits",
        rel_ok and lead_ok and lex_ok,
        f"relative-position {'ok' if rel_ok else 'WRONG'}, "
        f"lead {'ok' if lead_ok else 'WRONG'}, lexical {'ok' if lex_ok else 'WRONG'}",
    )


# -- toy-scale experiment ----------------------------------------------------

EXPERIMENT_SYNTH = {
    "n_utterances": 6, "n_train": 500, "n_eval": 500,
    "biased_fraction": 0.95, "vocab_size": 24, "seed": 0,
}

EXPERIMENT_RAW = {
    "task": "cqa",
    "synth": EXPERIMENT_SYNTH,
    "seeds": [0, 1, 2, 3, 4],
    "systems": ["ft", "zoe"],
    "alphas": [0.2],
    "epochs": 28,
    "learning_rate": 0.1,
}

# Pooled split accuracies observed when the ft baseline was first run as the
# oracle at the settings above; pinned so later changes cannot silently move
# the experiment.
PINNED_SCORES = {
    "ft": {"biased": 0.9692, "non_biased": 0.008},
    "zoe": {"biased": 0.9508, "non_biased": 0.1704},
}


@pytest.fixture(scope="module")
def toy_experiment(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("acceptance") / "run"
    raw = dict(EXPERIMENT_RAW, out_dir=str(out_dir))
    start = time.perf_counter()
    manifest = run_pipeline(parse_config(raw))
    wall = time.perf_counter() - start
    return out_dir, manifest, wall


@pytest.fixture(scope="module")
def trained_models(toy_experiment):
    """``(label, seed, model, partition)`` for every trained model of the
    toy experiment, with its seed's eval pool split by relative position."""
    out_dir, _, _ = toy_experiment
    base = SynthSpec(**EXPERIMENT_SYNTH)
    found = []
    for seed in EXPERIMENT_RAW["seeds"]:
        _, eval_b, eval_n = synth_corpus(dataclasses.replace(base, seed=base.seed + seed))
        partition = split_by_relative_position(Corpus(tuple(eval_b) + tuple(eval_n), Task.CQA))
        for label in EXPERIMENT_RAW["systems"]:
            found.append((label, seed, load_model(out_dir / "runs" / label / f"seed{seed}" / "model.json"), partition))
    return found


def _split_scores(out_dir, label: str) -> dict[str, float]:
    entry = json.loads((out_dir / "eval" / f"{label}.json").read_text())
    return {k: v["score"] for k, v in entry["splits"].items()}


def test_toy_debiasing_beats_fine_tuning_off_bias(toy_experiment):
    out_dir, manifest, wall = toy_experiment
    assert all(stage["status"] == "ok" for stage in manifest["stages"])
    ft = _split_scores(out_dir, "ft")
    zoe = _split_scores(out_dir, "zoe")
    gap = (zoe["non_biased"] - ft["non_biased"]) * 100
    deficit = (ft["biased"] - zoe["biased"]) * 100
    pinned_ok = all(
        _split_scores(out_dir, label)[split] == pytest.approx(want, abs=1e-9)
        for label, splits in PINNED_SCORES.items()
        for split, want in splits.items()
    )
    _verdict(
        "toy-debias-vs-finetune",
        gap >= 2.0 and deficit <= 3.0 and wall < 300.0 and pinned_ok,
        f"non-biased gap {gap:+.2f}pts >= 2, biased deficit {deficit:+.2f}pts <= 3, "
        f"{wall:.0f}s < 300s, pinned scores {'held' if pinned_ok else 'MOVED'}",
    )


def test_position_curve_shapes(toy_experiment, trained_models):
    out_dir, _, _ = toy_experiment
    ft_entry = json.loads((out_dir / "eval" / "ft.json").read_text())
    curve = {
        row["position"]: row["score"]
        for row in ft_entry["by_position"]
        if row["position"] is not None
    }
    off_peak = [score for pos, score in curve.items() if pos not in (0, 1)]
    peak_ok = all(curve[p] > max(off_peak) for p in (0, 1))

    spreads: dict[str, list[float]] = {"ft": [], "zoe": []}
    for label, _, model, partition in trained_models:
        result = evaluate(model, partition, "accuracy", label)
        scores = [row.mean_score for row in result.by_position if row.position is not None]
        spreads[label].append(max(scores) - min(scores))
    ft_spread, zoe_spread = mean(spreads["ft"]), mean(spreads["zoe"])
    _verdict(
        "position-curve-shape",
        peak_ok and zoe_spread < ft_spread,
        f"ft curve peaks at {{0,1}}: {peak_ok}; mean spread zoe {zoe_spread:.3f} "
        f"< ft {ft_spread:.3f} over 5 seeds",
    )


def test_batched_decode_matches_the_per_sample_reference(trained_models):
    total = matched = 0
    for _, _, model, partition in trained_models:
        for side in (partition.biased, partition.non_biased):  # as ``evaluate`` batches them
            want = [greedy_decode_one(model, context_features(model, s)) for s in side]
            got = _greedy_decode(model, side.samples)
            total += len(want)
            matched += sum(g == w for g, w in zip(got, want, strict=True))
    _verdict(
        "batched-decode",
        matched == total == 10 * 2 * EXPERIMENT_SYNTH["n_eval"],
        f"{matched} of {total} batched decodes of the 10 trained models match the per-sample reference",
    )


#: How far every greedy-decode step of a pinned score must sit from a tie
#: between its two largest logits. Summation-order changes have moved the
#: trained weights by about 1e-14, far inside this margin.
TIE_MARGIN = 1e-6


def _smallest_decode_gap(model, partition) -> float:
    """The smallest top-2 logit gap over every decode step of the pool."""
    samples = partition.biased.samples + partition.non_biased.samples
    return min(greedy_decode_gap(model, context_features(model, s))[1] for s in samples)


def test_pinned_decodes_sit_clear_of_a_tie(trained_models):
    gaps = {(label, seed): _smallest_decode_gap(model, partition) for label, seed, model, partition in trained_models}
    (label, seed), smallest = min(gaps.items(), key=lambda item: item[1])
    _verdict(
        "decode-tie-margin",
        smallest > TIE_MARGIN,
        f"smallest top-2 logit gap {smallest:.2e} > {TIE_MARGIN:g} ({label} seed {seed}) over 10 models x 1000 samples",
    )


def test_a_tie_at_one_decode_step_fails_the_margin(trained_models):
    _, _, model, partition = trained_models[0]
    sample = partition.biased.samples[0]
    v = len(model.vocabulary)
    bos_row = 2 * v + model.token_id(BOS)
    features = context_features(model, sample)
    features[bos_row] = 1.0
    logits = features @ model.weights
    runner_up, top = np.argsort(logits)[-2:]
    weights = model.weights.copy()
    # The first step of this sample now scores the runner-up as high as the top token.
    weights[bos_row, runner_up] += logits[top] - logits[runner_up]
    tied = dataclasses.replace(model, weights=weights)
    assert _smallest_decode_gap(model, partition) > TIE_MARGIN
    assert greedy_decode_gap(tied, context_features(tied, sample))[1] <= TIE_MARGIN
    assert _smallest_decode_gap(tied, partition) <= TIE_MARGIN


def test_pinned_scores_survive_a_relative_weight_perturbation(trained_models):
    # A seeded relative change of up to 1e-12 to every weight: more than any
    # change of summation order has moved a trained weight (1.07e-14).
    moved = []
    for perturbation_seed in range(3):
        rng = np.random.default_rng(perturbation_seed)
        evals: dict[str, list] = {label: [] for label in EXPERIMENT_RAW["systems"]}
        for label, seed, model, partition in trained_models:
            noise = rng.uniform(-1e-12, 1e-12, size=model.weights.shape)
            perturbed = dataclasses.replace(model, weights=model.weights * (1.0 + noise))
            got = evaluate(perturbed, partition, "accuracy", label)
            if got != evaluate(model, partition, "accuracy", label):
                moved.append((perturbation_seed, label, seed))
            evals[label].append(got)
        for label, splits in PINNED_SCORES.items():
            pooled = pool_evals(label, "accuracy", evals[label]).splits
            moved += [(perturbation_seed, label, split) for split, want in splits.items() if abs(pooled[split][0] - want) > 1e-9]
    _verdict(
        "pins-under-perturbation",
        not moved,
        f"3 seeded relative perturbations of 1e-12 on 10 models; moved: {moved or 'none'}",
    )


# -- pipeline determinism ----------------------------------------------------


def test_pipeline_reruns_are_byte_identical(tmp_path):
    raw = {
        "task": "cqa",
        "synth": {
            "n_utterances": 5, "n_train": 40, "n_eval": 30,
            "biased_fraction": 0.9, "vocab_size": 12, "seed": 3,
        },
        "seeds": [0, 1],
        "systems": ["ft", "zoe"],
        "alphas": [0.2],
        "epochs": 3,
        "learning_rate": 0.1,
    }
    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        run_pipeline(parse_config(dict(raw, out_dir=str(out_dir))))
        outputs.append(
            {
                csv: (out_dir / "report" / csv).read_bytes()
                for csv in ("report.csv", "report_by_relpos.csv")
            }
        )
    identical = outputs[0] == outputs[1]
    sizes = {csv: len(body) for csv, body in outputs[0].items()}
    _verdict(
        "pipeline-determinism",
        identical and all(size > 0 for size in sizes.values()),
        f"two runs, CSVs byte-identical: {identical} ({sizes})",
    )
