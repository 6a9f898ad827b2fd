"""The benchmark's workloads: seeded input generators and output checks.

Each workload writes its inputs from the workload seed into a work directory,
says how a fresh child process should run the program on them
(``run_pipeline(parse_config(...))`` or the ``posdebias`` CLI), and checks
one iteration's output directory. The program only ever receives the
generated files or config; what the checks know (planted labels, pinned
scores) stays here.
"""
from __future__ import annotations

import hashlib
import json
import random
import string
from collections import defaultdict
from pathlib import Path

#: Pooled split accuracies of the acceptance toy run, pinned in the test suite.
PINNED_SCORES = {
    "ft": {"biased": 0.9692, "non_biased": 0.008},
    "zoe": {"biased": 0.9508, "non_biased": 0.1704},
}

#: SHA-256 of the acceptance run's report CSVs. They are the same for every
#: order of the training seeds, so one digest serves every workload seed.
REPORT_SHA256 = {
    "report.csv": "755dca3c7140d5b0db7a7923a039eb9a91a524f83394e54e3c360db93adee080",
    "report_by_relpos.csv": "b6f092257448bda6ee77eeee7483090f867ca54b4e55c2680b10016be10b5ed1",
}

#: Weight of recall in ROUGE-L, as the paper's grounding definition uses it.
ROUGE_BETA = 1.2

#: Verdicts re-scored per iteration by the independent ROUGE-L.
VERDICT_SPOT_CHECKS = 300

#: Samples whose CLI candidates are regenerated by calling ``generate`` directly.
DIRECT_SPOT_CHECKS = 40


# -- independent reference metric --------------------------------------------

_PUNCT = str.maketrans("", "", string.punctuation)


def ref_tokens(text: str) -> list[str]:
    return text.translate(_PUNCT).lower().split()


def ref_lcs(a: list[str], b: list[str]) -> int:
    """Full-table LCS length; kept apart from the program's single-row one."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a, start=1):
        for j, y in enumerate(b, start=1):
            table[i][j] = table[i - 1][j - 1] + 1 if x == y else max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


def ref_rouge_l(candidate: str, reference: str) -> float:
    cand, ref = ref_tokens(candidate), ref_tokens(reference)
    lcs = ref_lcs(cand, ref) if cand else 0
    if lcs == 0:
        return 0.0
    precision, recall = lcs / len(cand), lcs / len(ref)
    b2 = ROUGE_BETA * ROUGE_BETA
    return ((1 + b2) * precision * recall) / (recall + b2 * precision)


# -- shared helpers ------------------------------------------------------------


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def write_jsonl(records, path: Path) -> Path:
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return path


def sample_record(sample) -> dict:
    """A corpus line for a synthetic sample, without its planted split label."""
    return {
        "id": sample.id,
        "task": sample.task.value,
        "document": sample.document.texts(),
        "history": [
            {"turn_index": t.turn_index, "question": t.question, "answer": t.answer}
            for t in sample.history
        ],
        "target": sample.target,
    }


def synth_pool(seed: int, n: int) -> list:
    """``n`` synthetic dialogues (half planted biased), shuffled under ``seed``."""
    from posdebias.toy_model import SynthSpec, synth_corpus

    _, biased, non_biased = synth_corpus(SynthSpec(n_train=1, n_eval=n // 2, seed=seed))
    samples = list(biased) + list(non_biased)
    random.Random(seed).shuffle(samples)
    return samples


def check_partition(out_dir: Path, planted: set[str], all_ids: set[str]) -> list[str]:
    """The split stage put exactly the planted ids on the biased side."""
    biased, non_biased = (
        {r["id"] for r in read_jsonl(path)} if path.exists() else set()
        for path in (out_dir / "split" / "biased.jsonl", out_dir / "split" / "non_biased.jsonl")
    )
    if biased == planted and non_biased == all_ids - planted:
        return []
    return [
        f"planted partition not recovered: {len(biased ^ planted)} biased ids differ, "
        f"{len(non_biased ^ (all_ids - planted))} non-biased ids differ"
    ]


def check_verdicts(out_dir: Path, targets: dict[str, str], seed: int, per_sample: int) -> list[str]:
    """One verdict per candidate, and a seeded subset re-scored independently."""
    candidates = read_jsonl(out_dir / "infer" / "seed0" / "candidates.jsonl")
    verdicts = read_jsonl(out_dir / "align" / "seed0" / "aligned.jsonl")
    failures = []
    if len(candidates) != per_sample * len(targets):
        failures.append(f"{len(candidates)} candidates, expected {per_sample * len(targets)}")
    by_candidate: dict[str, list[str]] = defaultdict(list)
    for record in sorted(candidates, key=lambda r: (r["sample_id"], r["candidate_index"])):
        by_candidate[record["sample_id"]].append(record["text"])
    by_verdict: dict[str, list[str]] = defaultdict(list)
    for record in verdicts:
        by_verdict[record["sample_id"]].append(record["text"])
    if by_candidate != by_verdict:
        failures.append("verdicts do not match candidates one to one")
    calibration = json.loads((out_dir / "align" / "seed0" / "calibration.json").read_text())
    threshold = calibration["threshold"]
    wrong = 0
    for record in random.Random(seed).sample(verdicts, min(VERDICT_SPOT_CHECKS, len(verdicts))):
        keep = ref_rouge_l(record["text"], targets[record["sample_id"]]) >= threshold
        reasons = [] if keep else ["unreliable"]
        if record["kept"] != keep or record["rejection_reasons"] != reasons:
            wrong += 1
    if wrong:
        failures.append(f"{wrong} spot-checked verdicts disagree with ROUGE-L >= {threshold}")
    return failures


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- workloads -----------------------------------------------------------------
#
# Input sizes set one data-relpos iteration to 5-8 s on a 2-core machine, so a
# 45-second run takes the median of about six; toy, whose acceptance config is
# pinned, takes 18-26 s an iteration and a run times two. The cost profile of
# each workload does not depend on its size.


class PipelineWorkload:
    """Runs ``run_pipeline(parse_config(raw))`` with the iteration's out_dir."""

    entry = "pipeline"

    def job(self, out_dir: Path) -> dict:
        return {"entry": self.entry, "raw": dict(self.raw, out_dir=str(out_dir))}


class DataModeWorkload:
    """Data mode on a generated corpus whose planted biased ids are known,
    run as ``posdebias run --config FILE --out-dir DIR``."""

    entry = "cli"

    def write_config(self, work: Path) -> None:
        self.config = work / "config.json"
        self.config.write_text(json.dumps(self.raw), encoding="utf-8")

    def job(self, out_dir: Path) -> dict:
        argv = ["run", "--config", str(self.config), "--out-dir", str(out_dir)]
        return {"entry": self.entry, "argv": argv}

    def check(self, out_dir: Path) -> tuple[list[str], dict]:
        failures = check_partition(out_dir, self.planted, set(self.targets))
        failures += check_verdicts(out_dir, self.targets, self.seed, self.raw["n_per_prompt"])
        return failures, {}


class Toy(PipelineWorkload):
    # Acceptance config: training is ~87% of it, so it is where changes to the
    # training step or to running (system, seed) jobs in parallel show.
    name = "toy"
    why = "acceptance toy run (5 seeds x ft/zoe, 500 train, 500+500 eval); training dominates"
    samples = 5 * (500 + 500 + 500)

    def prepare(self, work: Path, seed: int) -> None:
        # The pinned scores fix the corpus, so the seed only orders the
        # training seeds; pooled results must not depend on that order.
        seeds = [0, 1, 2, 3, 4]
        random.Random(seed).shuffle(seeds)
        self.raw = {
            "task": "cqa",
            "synth": {
                "n_utterances": 6, "n_train": 500, "n_eval": 500,
                "biased_fraction": 0.95, "vocab_size": 24, "seed": 0,
            },
            "seeds": seeds,
            "systems": ["ft", "zoe"],
            "alphas": [0.2],
            "epochs": 28,
            "learning_rate": 0.1,
        }

    def check(self, out_dir: Path) -> tuple[list[str], dict]:
        failures = []
        manifest = json.loads((out_dir / "manifest.json").read_text())
        if any(stage["status"] != "ok" for stage in manifest["stages"]):
            failures.append("a pipeline stage did not finish ok")
        for label, splits in PINNED_SCORES.items():
            got = json.loads((out_dir / "eval" / f"{label}.json").read_text())["splits"]
            for split, want in splits.items():
                if abs(got[split]["score"] - want) > 1e-9:
                    failures.append(f"{label} {split} accuracy {got[split]['score']} != pinned {want}")
        for name, digest in REPORT_SHA256.items():
            if sha256(out_dir / "report" / name) != digest:
                failures.append(f"{name} differs from the pinned bytes")
        return failures, {}


class DataRelpos(DataModeWorkload):
    # Many tiny comparisons (2-token utterances): per-call overhead in
    # tokenize, dataclasses and serial generate dominates; split, infer and
    # align each take about a third, and nothing trains.
    # It goes through the CLI, so the cli layer is measured too.
    name = "data-relpos"
    why = "posdebias run, data mode: cqa relative_position split of 10k synth dialogues; many tiny LCS calls, split/infer/align"
    samples = 10000

    def prepare(self, work: Path, seed: int) -> None:
        self.seed = seed
        pool = synth_pool(seed, self.samples)
        corpus = write_jsonl((sample_record(s) for s in pool), work / "corpus.jsonl")
        self.targets = {s.id: s.target for s in pool}
        self.planted = {s.id for s in pool if s.id.startswith("evalb-")}
        self.raw = {
            "task": "cqa", "corpus": str(corpus), "bias": "relative_position",
            "backend": "markov", "n_per_prompt": 3,
        }
        self.write_config(work)


def lead_long_corpus(seed: int, n_docs: int) -> tuple[list[dict], set[str]]:
    """Long ``sum`` documents with a planted source utterance per target.

    Each document has 10 utterances of 20-30 words from a 3,000-word
    vocabulary. The target keeps a random 70% of one utterance's words in
    order plus 3 noise words; that utterance is the lead in 60% of
    documents, whose ids are returned as the planted biased set.
    """
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(3000)]
    records, planted = [], set()
    for d in range(n_docs):
        utterances = [[rng.choice(vocab) for _ in range(rng.randint(20, 30))] for _ in range(10)]
        is_lead = rng.random() < 0.6
        source = utterances[0 if is_lead else rng.randrange(1, 10)]
        kept = sorted(rng.sample(range(len(source)), round(0.7 * len(source))))
        target = [source[i] for i in kept]
        for _ in range(3):
            target.insert(rng.randrange(len(target) + 1), rng.choice(vocab))
        sample_id = f"doc-{d:05d}"
        if is_lead:
            planted.add(sample_id)
        records.append(
            {
                "id": sample_id,
                "task": "sum",
                "document": [" ".join(u) for u in utterances],
                "target": " ".join(target),
            }
        )
    return records, planted


class DataLeadLong(DataModeWorkload):
    # Few long comparisons (20-30 token utterances, as in real dialogue-QA
    # corpora): LCS cells dominate and the split is ~75% of the run, so an
    # LCS kernel change shows here and per-call savings show on data-relpos.
    # Runnable by name but left out of BENCHMARK.json: on a shared 2-core
    # machine its 10-run spread of run_s reached 0.13-0.25, against a 0.25
    # bound.
    name = "data-lead-long"
    why = "data mode, sum lead split of 2k long documents (10 x 20-30 words); LCS cells dominate"
    samples = 2000

    def prepare(self, work: Path, seed: int) -> None:
        self.seed = seed
        records, self.planted = lead_long_corpus(seed, self.samples)
        corpus = write_jsonl(records, work / "corpus.jsonl")
        self.targets = {r["id"]: r["target"] for r in records}
        self.raw = {
            "task": "sum", "corpus": str(corpus), "bias": "lead",
            "backend": "markov", "n_per_prompt": 3,
        }
        self.write_config(work)


class CliInferRecord:
    # The only workload on recorded backend traffic (RecordingBackend
    # appends every exchange; the infer command holds all records in memory
    # before writing them). Runnable by name but left out of BENCHMARK.json:
    # on a shared 2-core machine the median run_s of 10 runs spread 0.23-0.32
    # of itself on this serial path and 0.38-0.42 with --max-in-flight 2,
    # against a 0.25 bound.
    name = "cli-infer-record"
    why = "posdebias infer --record on 4k synth dialogues (serial generate); CLI-held records and recorded backend traffic"
    entry = "cli"
    samples = 4000
    per_sample = 3

    def prepare(self, work: Path, seed: int) -> None:
        self.seed = seed
        pool = synth_pool(seed, self.samples)
        self.corpus = write_jsonl((sample_record(s) for s in pool), work / "corpus.jsonl")
        self.ids = sorted(s.id for s in pool)

    def job(self, out_dir: Path) -> dict:
        argv = [
            "infer", "--corpus", str(self.corpus), "--task", "cqa",
            "--backend", "markov",
            "--record", str(out_dir / "record.jsonl"),
            "--out", str(out_dir / "candidates.jsonl"),
        ]
        return {"entry": self.entry, "argv": argv}

    def check(self, out_dir: Path) -> tuple[list[str], dict]:
        from posdebias.backends import StubBackend, StubMode
        from posdebias.corpus import Task, load_corpus
        from posdebias.lowbias_infer import build_prompt, default_prompt_spec, generate

        failures = []
        candidates = read_jsonl(out_dir / "candidates.jsonl")
        if len(candidates) != self.per_sample * len(self.ids):
            failures.append(f"{len(candidates)} candidates, expected {self.per_sample * len(self.ids)}")
        lines = (out_dir / "record.jsonl").read_text(encoding="utf-8").splitlines()
        bad = 0
        for line in lines:
            try:
                json.loads(line)
            except ValueError:
                bad += 1
        if bad:
            failures.append(f"{bad} recorded lines do not parse")
        if len(lines) != len(candidates):
            failures.append(f"{len(lines)} recorded lines for {len(candidates)} candidates")
        got: dict[str, list] = defaultdict(list)
        for record in sorted(candidates, key=lambda r: (r["sample_id"], r["candidate_index"])):
            got[record["sample_id"]].append(
                (record["text"], record["tokens"], record["token_logprobs"])
            )
        samples = {s.id: s for s in load_corpus(self.corpus, Task.CQA)}
        spec = default_prompt_spec(Task.CQA)
        backend = StubBackend(StubMode.MARKOV)
        for sample_id in random.Random(self.seed).sample(self.ids, DIRECT_SPOT_CHECKS):
            direct = generate(build_prompt(samples[sample_id], spec), backend, n_per_prompt=self.per_sample)
            want = [(r.text, list(r.tokens), list(r.token_logprobs)) for r in direct]
            if got.get(sample_id) != want:
                failures.append(f"candidates of {sample_id} differ from generate called directly")
        return failures, {"backends.record_lines_bad": bad}


WORKLOADS = {w.name: w for w in (Toy, DataRelpos, DataLeadLong, CliInferRecord)}
