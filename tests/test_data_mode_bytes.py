"""Pinned bytes of a data-mode run.

A seeded ``cqa`` corpus, generated here, goes through ``split``, ``infer``
(the ``markov`` stub, three candidates per prompt) and ``align``. Every
file those stages write must keep the SHA-256 it had when the digests
were recorded, so a speedup anywhere on the data-mode path (the markov
stream, the JSONL encoding, grounding, the gate statistics) cannot move a
byte unnoticed. The digests are never regenerated to follow the code.
"""
from __future__ import annotations

import hashlib
import json
import random

from posdebias.pipeline import parse_config, run_pipeline

#: Words the generated dialogues draw from: ASCII, accented, CJK and
#: non-BMP tokens, some with punctuation the tokenizer strips.
VOCAB = (
    [f"w{i}" for i in range(40)]
    + ["café", "naïve", "über", "日本", "語", "😀", "x y", "don't", "end.", "(aside)", 'say "hi"', "a\\b"]
)

PINNED_SHA256 = {
    "split/biased.jsonl": "2fdcb299293575ad251495dcc67a69cd6fce884dcd2f4e154e8d0c2514484987",
    "split/non_biased.jsonl": "4e237ae206408108a304d5bc02a2c5138173a81c152145768f1ba16bb0b1d42b",
    "split/evidence.jsonl": "c63512ee85a3f1ddb97810c59171bd3bf1394fcf1d574f962be64e9b6d22c651",
    "infer/seed0/candidates.jsonl": "3be49b96feaa4fac73f3bb973e559f99600b247f44e7dd74fbb4969b279f460e",
    "align/seed0/aligned.jsonl": "717aa425ebb00cf29c27c869ff8fcaafe3fcaea5c77b1fbedd049c93f1df1bbe",
    "align/seed0/calibration.json": "dc6be95f2b68176406e31353a993c796640bdf26f9c648346d3a6441fe7601d2",
}


def dialogue_records(seed: int, n: int) -> list[dict]:
    """``n`` cqa dialogues of 6 utterances. Most utterances are 2-12 words;
    one document in ten has a 65-80 word utterance, so some responses and
    utterances span more than 64 tokens. Answers and targets keep a random
    part of one utterance's words in order, plus a noise word."""
    rng = random.Random(seed)
    records = []
    for d in range(n):
        utterances = [
            [rng.choice(VOCAB) for _ in range(rng.randint(65, 80) if d % 10 == 0 and u == 3 else rng.randint(2, 12))]
            for u in range(6)
        ]

        def echo(words: list[str]) -> str:
            kept = [w for w in words if rng.random() < 0.7] or words[:1]
            kept.insert(rng.randrange(len(kept) + 1), rng.choice(VOCAB))
            return " ".join(kept)

        history = [
            {"turn_index": t, "question": f"q{t} {rng.choice(VOCAB)}?", "answer": echo(rng.choice(utterances))}
            for t in range(rng.randint(1, 2))
        ]
        history.append({"turn_index": len(history), "question": f"what about {rng.choice(VOCAB)}?", "answer": None})
        records.append(
            {
                "id": f"dlg-{d:04d}",
                "task": "cqa",
                "document": [" ".join(u) for u in utterances],
                "history": history,
                "target": echo(rng.choice(utterances)),
            }
        )
    return records


def test_data_mode_outputs_keep_their_pinned_bytes(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in dialogue_records(7, 300)), encoding="utf-8")
    out_dir = tmp_path / "out"
    run_pipeline(parse_config({
        "out_dir": str(out_dir), "corpus": str(corpus), "task": "cqa",
        "backend": "markov", "n_per_prompt": 3,
    }))
    got = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in PINNED_SHA256}
    assert got == PINNED_SHA256
