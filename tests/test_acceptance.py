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
from posdebias.metrics import ROUGE_BETA, rouge_l
from posdebias.msa_align import calibrate_threshold
from posdebias.objective import LossConfig, combined_loss
from posdebias.pipeline import parse_config, run_pipeline
from posdebias.toy_model import (
    EOS,
    SynthSpec,
    ToyModel,
    build_vocabulary,
    evaluate,
    finite_diff_check,
    load_model,
    synth_corpus,
)

from conftest import dialogue_sample, nli_sample


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


def test_rouge_l_matches_brute_force_lcs_oracle():
    rng = random.Random(101)
    vocab = ["va", "vb", "vc", "vd", "ve"]
    mismatches = 0
    start = time.perf_counter()
    for _ in range(1000):
        cand = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 10)))
        ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 10)))
        got = rouge_l(cand, ref)
        cand_tokens, ref_tokens = cand.split(), ref.split()
        lcs = _lcs_full_table(cand_tokens, ref_tokens)
        if not cand_tokens or lcs == 0:
            want = 0.0
        else:
            precision = lcs / len(cand_tokens)
            recall = lcs / len(ref_tokens)
            want = ((1 + ROUGE_BETA * ROUGE_BETA) * precision * recall) / (
                recall + ROUGE_BETA * ROUGE_BETA * precision
            )
        if got != want:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "rouge-l-lcs-oracle",
        mismatches == 0 and elapsed < 5.0,
        f"1000 pairs, {mismatches} mismatches, {elapsed:.2f}s < 5s",
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


def test_position_curve_shapes(toy_experiment):
    out_dir, _, _ = toy_experiment
    ft_entry = json.loads((out_dir / "eval" / "ft.json").read_text())
    curve = {
        row["position"]: row["score"]
        for row in ft_entry["by_position"]
        if row["position"] is not None
    }
    off_peak = [score for pos, score in curve.items() if pos not in (0, 1)]
    peak_ok = all(curve[p] > max(off_peak) for p in (0, 1))

    base = SynthSpec(**EXPERIMENT_SYNTH)
    spreads: dict[str, list[float]] = {"ft": [], "zoe": []}
    for seed in EXPERIMENT_RAW["seeds"]:
        spec = dataclasses.replace(base, seed=base.seed + seed)
        _, eval_b, eval_n = synth_corpus(spec)
        partition = split_by_relative_position(
            Corpus(tuple(eval_b) + tuple(eval_n), Task.CQA)
        )
        for label in ("ft", "zoe"):
            model = load_model(out_dir / "runs" / label / f"seed{seed}" / "model.json")
            report = evaluate(model, partition, metric="accuracy")
            scores = [
                row.mean_score
                for row in report.by_relative_position
                if row.position is not None
            ]
            spreads[label].append(max(scores) - min(scores))
    ft_spread, zoe_spread = mean(spreads["ft"]), mean(spreads["zoe"])
    _verdict(
        "position-curve-shape",
        peak_ok and zoe_spread < ft_spread,
        f"ft curve peaks at {{0,1}}: {peak_ok}; mean spread zoe {zoe_spread:.3f} "
        f"< ft {ft_spread:.3f} over 5 seeds",
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
