"""End-to-end orchestration with a checksummed run manifest.

Two modes share the same stage machinery:

* toy mode (``synth`` configured): generate a synthetic corpus, split the
  eval pool, draw low-bias candidates from the stub backend, align them,
  train the configured systems, evaluate, and report;
* data mode (``corpus`` configured): split a user corpus, draw and align
  candidates, and report partition and alignment statistics; an NLI corpus,
  whose candidates nothing prunes or trains on, is only split and reported.

Every stage appends its artifacts (with SHA-256 checksums) to
``manifest.json`` as soon as it finishes, so a failed run preserves all
artifacts produced before the failure and marks the failing stage.

Stage bodies are plain functions (``bias_split.split_corpus``, ``write_split``,
``infer_corpus``, ``align_corpus``, ``pool_evals``, ``write_report``, and
``toy_model.evaluate``) that the CLI verbs call as well; record formats live in
``posdebias.records``.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import os
from concurrent.futures import FIRST_EXCEPTION, wait
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Mapping, Sequence

from . import report as report_mod
from .backends import Backend, GenerationResult, StubBackend, StubMode, parse_backend_spec, resolve_backend
from .bias_split import (
    BIAS_BY_TASK,
    DEFAULT_BIASED_POSITIONS,
    DEFAULT_LEXICAL_TRIGGERS,
    BiasKind,
    BiasPartition,
    perturb_positions,
    split_corpus,
    write_evidence,
)
from .corpus import Corpus, Sample, Task, load_corpus, relabel, save_corpus
from .lowbias_infer import PromptStrategy, build_prompt, default_prompt_spec, generate
from .metrics import PositionRow
from .msa_align import (
    DEFAULT_DULL_PATTERNS,
    DEFAULT_INSTRUCTION_KEYWORDS,
    AlignedResponse,
    AlignmentConfig,
    align_responses,
    calibrate_threshold,
    gate_statistic,
)
from .objective import LossConfig
from .records import write_aligned, write_candidates, write_epochs, write_eval
from .report import SystemEval
from .toy_model import (
    METRICS,
    SynthSpec,
    ToyModel,
    TrainJob,
    build_lowbias_table,
    evaluate,
    save_model,
    synth_corpus,
    train,  # not called here; perfbench's tracer rebinds ``pipeline.train``
    train_lockstep,
)


class PipelineError(RuntimeError):
    """A stage failed; the manifest records which one."""


#: Keys some runs never read: toy mode's training keys (data mode), the
#: candidate keys (a data-mode nli run, which only splits and reports), the
#: split parameter of each bias kind (a task split by another kind), and in
#: toy mode ``max_tokens`` on the table backend, ``garbage_rate`` off it.
_TOY_ONLY_KEYS = ("seeds", "systems", "alphas", "train_sizes", "epochs", "learning_rate", "clip_norm", "garbage_rate", "metric")
_CANDIDATE_KEYS = ("n_per_prompt", "max_tokens", "backend", "align")
_SPLIT_KEYS = {BiasKind.RELATIVE_POSITION: "biased_positions", BiasKind.LEXICAL: "triggers"}


CONFIG_SCHEMA: dict = {
    "type": "object",
    "description": "Pipeline run configuration; exactly one of 'synth' or 'corpus' must be set; unread keys are rejected.",
    "properties": {
        "out_dir": {"type": "string", "description": "Directory for artifacts and manifest."},
        "task": {
            "type": "string",
            "enum": [t.value for t in Task],
            "default": "cqa",
            "description": "Toy mode takes only 'cqa'.",
        },
        "synth": {
            "type": "object",
            "description": "Synthetic corpus shape (toy mode).",
            "properties": {
                "n_utterances": {"type": "integer", "default": 6},
                "n_train": {"type": "integer", "default": 500},
                "n_eval": {"type": "integer", "default": 500},
                "biased_fraction": {"type": "number", "default": 0.95},
                "vocab_size": {"type": "integer", "default": 24},
                "seed": {"type": "integer", "default": 0},
            },
        },
        "corpus": {"type": "string", "description": "JSONL corpus path (data mode)."},
        "bias": {
            "type": "string",
            "enum": [k.value for k in BiasKind],
            "description": "Optional: the task picks the kind (cqa, cqg: relative_position; sum, kgc: lead; nli: lexical).",
        },
        "biased_positions": {"type": "array", "items": {"type": "integer"}, "minItems": 1, "default": [0, 1]},
        "triggers": {"type": "array", "items": {"type": "string"}, "minItems": 1, "default": list(DEFAULT_LEXICAL_TRIGGERS)},
        "seeds": {"type": "array", "items": {"type": "integer"}, "minItems": 1, "uniqueItems": True, "default": [0]},
        "systems": {
            "type": "array",
            "items": {"type": "string", "enum": ["ft", "zoe", "rp"]},
            "minItems": 1,
            "default": ["ft", "zoe"],
        },
        "alphas": {
            "type": "array",
            "items": {"type": "number", "minimum": 0, "maximum": 1},
            "minItems": 1,
            "default": [0.2],
        },
        "train_sizes": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "description": "Optional training-size sweep; incompatible with a multi-alpha sweep.",
        },
        "epochs": {"type": "integer", "minimum": 0, "default": 28},
        "learning_rate": {"type": "number", "minimum": 0, "default": 0.1},
        "clip_norm": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        "n_per_prompt": {"type": "integer", "minimum": 1, "default": 3},
        "max_tokens": {"type": "integer", "minimum": 1, "default": 16},
        "garbage_rate": {"type": "number", "minimum": 0, "maximum": 1, "default": 0.25},
        "metric": {"type": "string", "enum": list(METRICS), "default": "accuracy"},
        "backend": {
            "type": "string",
            "description": "Backend spec: echo | markov | table | table:FILE | replay:FILE | url:ENDPOINT. "
            "'table' is the lookup table built from the synthetic corpus, toy mode's default; "
            "data mode cannot take it. "
            "POSDEBIAS_BACKEND_URL overrides any configured endpoint.",
            "default": "table",
        },
        "align": {
            "type": "object",
            "description": "AlignmentConfig overrides.",
            "properties": {
                "instruction_keywords": {
                    "type": "array", "items": {"type": "string"}, "minItems": 1,
                    "default": list(DEFAULT_INSTRUCTION_KEYWORDS),
                    "description": "cqg compliance gate: a kept candidate contains one of these words.",
                },
                "dull_patterns": {"type": "array", "items": {"type": "string"}, "default": list(DEFAULT_DULL_PATTERNS)},
                "candidate_thresholds": {
                    "type": "array", "items": {"type": "number"}, "default": [0.1, 0.15, 0.2],
                    "description": "Gate thresholds calibration picks from; one entry fixes the threshold.",
                },
                "target_keep_fraction": {"type": "number", "default": 0.2},
            },
        },
    },
    "required": ["out_dir"],
}

_JSON_TYPES = {"string": str, "integer": int, "number": (int, float), "boolean": bool, "array": list, "object": dict}

_BOUNDS = (("minimum", operator.ge, ">="), ("exclusiveMinimum", operator.gt, ">"), ("maximum", operator.le, "<="))


def _check_schema(name: str, value, schema: dict) -> None:
    """Reject ``value`` unless it has the schema's type, enum member, bounds,
    item count, distinct items where asked and (for objects) only known
    keys; errors name the field."""
    kind = schema["type"]
    if not isinstance(value, _JSON_TYPES[kind]) or (isinstance(value, bool) and kind != "boolean"):
        raise ValueError(f"config: {name or 'config'} must be of type {kind}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise ValueError(f"config: unknown {name} {value!r}; expected one of {schema['enum']}")
    for key, holds, sign in _BOUNDS:
        if key in schema and not holds(value, schema[key]):
            raise ValueError(f"config: {name} must be {sign} {schema[key]}, got {value!r}")
    if kind == "array":
        if len(value) < schema.get("minItems", 0):
            raise ValueError(f"config: {name} must not be empty")
        for i, item in enumerate(value):
            _check_schema(f"{name}[{i}]", item, schema["items"])
        if schema.get("uniqueItems") and len(set(value)) < len(value):
            raise ValueError(f"config: {name} must not repeat an entry, got {value!r}")
    if kind == "object":
        prefix = f"{name}." if name else ""
        unknown = sorted(set(value) - set(schema["properties"]))
        if unknown:
            raise ValueError(f"config: unknown keys {[prefix + key for key in unknown]}")
        for key, item in value.items():
            _check_schema(prefix + key, item, schema["properties"][key])


@dataclass
class PipelineConfig:
    out_dir: str
    task: Task = Task.CQA
    synth: SynthSpec | None = None
    corpus: str | None = None
    biased_positions: frozenset[int] = DEFAULT_BIASED_POSITIONS
    triggers: tuple[str, ...] = DEFAULT_LEXICAL_TRIGGERS
    seeds: tuple[int, ...] = (0,)
    systems: tuple[str, ...] = ("ft", "zoe")
    alphas: tuple[float, ...] = (0.2,)
    train_sizes: tuple[int, ...] | None = None
    epochs: int = 28
    learning_rate: float = 0.1
    clip_norm: float = 1.0
    n_per_prompt: int = 3
    max_tokens: int = 16
    garbage_rate: float = 0.25
    metric: str = "accuracy"
    backend: str = "table"
    align: AlignmentConfig = field(default_factory=AlignmentConfig)


def parse_config(raw: dict) -> PipelineConfig:
    """Validate a raw config dict against ``CONFIG_SCHEMA`` and the modes.

    Every problem, a key the run never reads too, is raised here, naming
    the field, before any stage runs. Keys left out take the
    ``PipelineConfig`` defaults; ``bias`` may only repeat ``BIAS_BY_TASK``.
    """
    _check_schema("", raw, CONFIG_SCHEMA)
    if "out_dir" not in raw:
        raise ValueError("config: 'out_dir' is required")
    if ("synth" in raw) == ("corpus" in raw):
        raise ValueError("config: exactly one of 'synth' or 'corpus' must be set")
    task = Task(raw.get("task", "cqa"))
    kind = BIAS_BY_TASK[task]
    if "synth" in raw and task != Task.CQA:
        raise ValueError(f"config: task must be 'cqa' in toy mode (synth), got {task.value!r}")
    if raw.get("bias", kind.value) != kind.value:
        raise ValueError(f"config: bias must be {kind.value!r} for task {task.value!r}, got {raw['bias']!r}")
    unread = [key for other, key in _SPLIT_KEYS.items() if other != kind]
    if "corpus" in raw:
        unread += _TOY_ONLY_KEYS + (_CANDIDATE_KEYS if task == Task.NLI else ())
        run = f"data-mode {task.value} run"
    else:
        backend = raw.get("backend", "table")
        # Table candidates have no length, and garbage_rate only shapes the table.
        unread.append("max_tokens" if backend == "table" else "garbage_rate")
        run = f"toy {task.value} run on backend {backend!r}"
    unread = [key for key in unread if key in raw]
    if unread:
        raise ValueError(f"config: keys {unread} are not read by a {run}")
    if "corpus" in raw and raw.get("backend") == "table":
        raise ValueError("config: backend 'table' needs a synth corpus; data mode takes table:FILE")
    if raw.get("train_sizes") and len(raw.get("alphas", [0.2])) > 1:
        raise ValueError("config: sweep either alphas or train_sizes, not both")
    fields = dict(raw)
    fields.pop("bias", None)
    fields["task"] = task
    try:
        if "synth" in raw:
            fields["synth"] = SynthSpec(**raw["synth"])
        fields["align"] = AlignmentConfig(
            **{k: tuple(v) if isinstance(v, list) else v for k, v in raw.get("align", {}).items()}
        )
    except ValueError as exc:
        raise ValueError(f"config: {exc}") from None
    for i, size in enumerate(raw.get("train_sizes", [])):
        if size > fields["synth"].n_train:
            raise ValueError(f"config: train_sizes[{i}] must be <= synth.n_train, got {size}")
    if "biased_positions" in raw:
        fields["biased_positions"] = frozenset(raw["biased_positions"])
    for key in ("triggers", "seeds", "systems", "alphas"):
        if key in raw:
            fields[key] = tuple(raw[key])
    fields["train_sizes"] = tuple(raw["train_sizes"]) if raw.get("train_sizes") else None
    # The internal lookup table only makes sense for synthetic corpora.
    fields.setdefault("backend", "table" if "synth" in raw else "markov")
    if fields["backend"] != "table":
        try:
            parse_backend_spec(fields["backend"])
        except ValueError as exc:
            raise ValueError(f"config: {exc}") from None
    return PipelineConfig(**fields)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Manifest:
    """Incrementally written record of stages and artifact checksums."""

    def __init__(self, out_dir: Path, config_echo: dict) -> None:
        self.out_dir = out_dir
        self.path = out_dir / "manifest.json"
        self.data: dict = {"config": config_echo, "stages": []}
        self._write()

    def _write(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.path.write_text(
            json.dumps(self.data, indent=2, sort_keys=True), encoding="utf-8"
        )

    def record(self, stage: str, status: str, artifacts: list[Path], error: str | None = None) -> None:
        entry: dict = {
            "stage": stage,
            "status": status,
            "artifacts": [
                {
                    "path": str(p.relative_to(self.out_dir)),
                    "sha256": _sha256(p),
                }
                for p in sorted(artifacts)
            ],
        }
        if error:
            entry["error"] = error
        self.data["stages"].append(entry)
        self._write()


def _config_echo(config: PipelineConfig) -> dict:
    echo = dataclasses.asdict(config)
    echo["task"] = config.task.value
    echo["biased_positions"] = sorted(config.biased_positions)
    echo["out_dir"] = "."  # keep the manifest byte-identical across run roots
    return json.loads(json.dumps(echo, sort_keys=True, default=list))


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute all stages; returns the manifest dict.

    Configuration problems (missing corpus file, bad mode combinations) are
    raised before any stage runs or any artifact is written.
    """
    if (config.synth is None) == (config.corpus is None):
        raise ValueError("run_pipeline: exactly one of synth/corpus must be configured")
    if config.corpus is not None and not Path(config.corpus).exists():
        raise ValueError(f"run_pipeline: corpus path {config.corpus!r} does not exist")
    out_dir = Path(config.out_dir)
    manifest = _Manifest(out_dir, _config_echo(config))
    state: dict = {}
    if config.synth is not None:
        stages = _TOY_STAGES
    elif config.task == Task.NLI:
        stages = _NLI_DATA_STAGES
    else:
        stages = _DATA_STAGES
    for name, fn in stages:
        try:
            artifacts = fn(config, out_dir, state)
        except Exception as exc:  # noqa: BLE001 - every failure must land in the manifest
            manifest.record(name, "failed", [], error=str(exc))
            raise PipelineError(f"stage {name!r} failed: {exc}") from exc
        manifest.record(name, "ok", artifacts)
    return manifest.data


# -- stages, shared by run_pipeline and the CLI verbs ----------------------


def write_split(
    partition: BiasPartition,
    out_dir: Path,
    names: tuple[str, str] = ("biased.jsonl", "non_biased.jsonl"),
) -> list[Path]:
    """Save each non-empty side relabelled with its split name, plus the
    evidence JSONL; ``names`` are the biased and non-biased file names."""
    artifacts = []
    sides = (("biased", partition.biased), ("non_biased", partition.non_biased))
    for (label, side), name in zip(sides, names):
        if len(side):
            relabelled = Corpus(tuple(relabel(s, label) for s in side), side.task)
            artifacts.append(save_corpus(relabelled, out_dir / name))
    artifacts.append(write_evidence(partition, out_dir / "evidence.jsonl"))
    return artifacts


def infer_corpus(
    corpus: Corpus,
    backend: Backend,
    n_per_prompt: int,
    seed: int,
    max_tokens: int,
    strategy: str | None = None,
    max_in_flight: int = 1,
) -> dict[str, list[GenerationResult]]:
    """Low-bias candidates for every sample, keyed by sample id in corpus order.

    ``strategy`` overrides the task's default prompt strategy. Every
    sample's prompts go to one ``generate`` call, so a ``BackendError``'s
    prompt index counts prompts across the corpus.
    """
    spec = default_prompt_spec(
        corpus.task, corpus=corpus, strategy=None if strategy is None else PromptStrategy(strategy)
    )
    prompts = [build_prompt(s, spec) for s in corpus]
    results = iter(generate(
        [prompt for sample_prompts in prompts for prompt in sample_prompts],
        backend,
        n_per_prompt=n_per_prompt,
        seed=seed,
        max_tokens=max_tokens,
        max_in_flight=max_in_flight,
    ))
    return {s.id: list(islice(results, len(p) * n_per_prompt)) for s, p in zip(corpus, prompts)}


def align_corpus(
    task: Task,
    samples: Sequence[Sample],
    candidates: Mapping[str, Sequence[GenerationResult]],
    config: AlignmentConfig,
) -> tuple[dict[str, list[AlignedResponse]], float | None]:
    """Verdicts for every candidate, keyed by sample id in ``samples`` order.

    Candidates of an id not in ``samples`` are rejected before anything
    runs. Each candidate's ``gate_statistic`` is computed once; the gate
    threshold (incoherence for question generation, unreliability
    otherwise) is the candidate threshold whose keep fraction on those
    statistics lands nearest the target. It is returned, or ``None`` when
    there was no candidate to calibrate on.
    """
    unknown = sorted(set(candidates) - {s.id for s in samples})
    if unknown:
        raise ValueError(f"align: candidate sample id {unknown[0]!r} not in corpus")
    present = [sample for sample in samples if candidates.get(sample.id)]
    stats = [gate_statistic(task, sample, cand) for sample in present for cand in candidates[sample.id]]
    if not stats:
        return {}, None
    threshold = calibrate_threshold(stats, config.candidate_thresholds, config.target_keep_fraction)
    rows = iter(stats)
    aligned = {}
    for sample in present:
        cands = list(candidates[sample.id])
        aligned[sample.id] = align_responses(task, sample, cands, config, threshold, list(islice(rows, len(cands))))
    return aligned, threshold


def pool_evals(system: str, metric: str, evals: Sequence[SystemEval]) -> SystemEval:
    """Count-weighted mean of several runs' scores, per split and per position."""
    splits = {}
    for name in ("biased", "non_biased"):
        scored = [ev.splits[name] for ev in evals if name in ev.splits]
        if scored:
            total = sum(score * count for score, count in scored)
            count = sum(count for _, count in scored)
            splits[name] = (total / count, count)
    pooled: dict[int | None, tuple[float, int]] = {}
    for ev in evals:
        for row in ev.by_position:
            total, count = pooled.get(row.position, (0.0, 0))
            pooled[row.position] = (total + row.mean_score * row.count, count + row.count)
    rows = sorted(
        (PositionRow(pos, total / count, count) for pos, (total, count) in pooled.items() if count),
        key=lambda r: (r.position is None, r.position or 0),
    )
    return SystemEval(system, metric, splits, tuple(rows))


def write_report(evals: Sequence[SystemEval], out_dir: Path, metric: str) -> list[Path]:
    """Score and per-position CSVs, the split chart, and the position chart
    when any system has per-position rows."""
    artifacts = [
        report_mod.write_scores_csv(evals, out_dir / "report.csv"),
        report_mod.write_position_csv(evals, out_dir / "report_by_relpos.csv"),
        report_mod.write_split_chart(evals, out_dir / "splits.svg", metric),
    ]
    if any(ev.by_position for ev in evals):
        artifacts.append(report_mod.write_position_chart(evals, out_dir / "relpos.svg", metric))
    return artifacts


# -- toy-mode stages -------------------------------------------------------


def _stage_synth(config: PipelineConfig, out_dir: Path, state: dict) -> list[Path]:
    artifacts = []
    state["data"] = {}
    for seed in config.seeds:
        spec = dataclasses.replace(config.synth, seed=config.synth.seed + seed)
        train_c, eval_b, eval_n = synth_corpus(spec)
        state["data"][seed] = {"train": train_c, "eval_biased": eval_b, "eval_nonbiased": eval_n}
        seed_dir = out_dir / "data" / f"seed{seed}"
        artifacts.append(save_corpus(train_c, seed_dir / "train.jsonl"))
        artifacts.append(save_corpus(eval_b, seed_dir / "eval_biased.jsonl"))
        artifacts.append(save_corpus(eval_n, seed_dir / "eval_nonbiased.jsonl"))
    return artifacts


def _stage_split(config: PipelineConfig, out_dir: Path, state: dict) -> list[Path]:
    """Re-derive the eval partition with the real splitter (not generator labels)."""
    artifacts = []
    for seed, data in state["data"].items():
        pool = Corpus(tuple(data["eval_biased"]) + tuple(data["eval_nonbiased"]), config.task)
        data["partition"] = split_corpus(pool, config.biased_positions, config.triggers)
        artifacts += write_split(
            data["partition"],
            out_dir / "split" / f"seed{seed}",
            names=("eval_biased.jsonl", "eval_nonbiased.jsonl"),
        )
    return artifacts


def _resolve_toy_backend(config: PipelineConfig, train_corpus: Corpus, seed: int):
    if config.backend == "table":
        table = build_lowbias_table(
            train_corpus,
            garbage_rate=config.garbage_rate,
            n_candidates=config.n_per_prompt,
            seed=1009 + seed,
        )
        return StubBackend(StubMode.TABLE, table=table)
    return resolve_backend(config.backend)


def _stage_infer(config: PipelineConfig, out_dir: Path, state: dict) -> list[Path]:
    artifacts = []
    for seed, data in state["data"].items():
        data["candidates"] = infer_corpus(
            data["train"],
            _resolve_toy_backend(config, data["train"], seed),
            n_per_prompt=config.n_per_prompt,
            seed=seed,
            max_tokens=config.max_tokens,
        )
        path = out_dir / "infer" / f"seed{seed}" / "candidates.jsonl"
        artifacts.append(write_candidates(data["candidates"], path))
    return artifacts


def _stage_align(config: PipelineConfig, out_dir: Path, state: dict) -> list[Path]:
    artifacts = []
    for seed, data in state["data"].items():
        data["aligned"], threshold = align_corpus(
            config.task, data["train"].samples, data["candidates"], config.align
        )
        calibration: dict = {"calibrated": threshold is not None}
        if threshold is not None:
            calibration["threshold"] = threshold
        seed_dir = out_dir / "align" / f"seed{seed}"
        artifacts.append(write_aligned(data["aligned"], seed_dir / "aligned.jsonl"))
        calibration_path = seed_dir / "calibration.json"
        calibration_path.write_text(json.dumps(calibration, sort_keys=True), encoding="utf-8")
        artifacts.append(calibration_path)
    return artifacts


def _sweep_points(config: PipelineConfig) -> list[dict]:
    """Cross-product of systems with the active sweep (alphas or train sizes)."""
    points = []
    sweep_alpha = len(config.alphas) > 1
    sweep_size = config.train_sizes is not None and len(config.train_sizes) > 1
    for system in config.systems:
        alphas = config.alphas if system == "zoe" else (0.0,)
        sizes = config.train_sizes or (None,)
        for alpha in alphas:
            for size in sizes:
                label = system
                if system == "zoe" and sweep_alpha:
                    label += f"@a={alpha:g}"
                if sweep_size:
                    label += f"@n={size}"
                points.append({"system": system, "alpha": alpha, "size": size, "label": label})
    return points


#: The train stage's config, output directory and (sweep point, seed, data)
#: jobs in a forked pool worker, set by ``_set_train_jobs``.
_train_jobs: tuple = ()


def _set_train_jobs(config: PipelineConfig, out_dir: Path, jobs: list[tuple]) -> None:
    global _train_jobs
    _train_jobs = (config, out_dir, jobs)


def _train_job(config: PipelineConfig, point: dict, seed: int, data: dict) -> TrainJob:
    """One (sweep point, seed) job: the seed's train corpus, cut to the point's
    size and position-perturbed for ``rp``, with aligned responses for ``zoe``."""
    train_corpus: Corpus = data["train"]
    if point["size"] is not None:
        train_corpus = Corpus(train_corpus.samples[: point["size"]], config.task)
    if point["system"] == "rp":
        perturbed = tuple(
            perturb_positions(s, seed=seed * 100003 + i)
            for i, s in enumerate(train_corpus)
        )
        train_corpus = Corpus(perturbed, config.task)
    return TrainJob(
        ToyModel.initialize(config.synth.vocab_size, seed=seed),
        train_corpus,
        aligned=data["aligned"] if point["system"] == "zoe" else None,
        config=LossConfig(alpha=point["alpha"]),
        seed=seed,
    )


def _train_group(group: list[int]) -> list[tuple[ToyModel, list[Path]]]:
    """Train one lockstep group of jobs and write each job's run directory."""
    config, out_dir, jobs = _train_jobs
    runs = train_lockstep(
        [_train_job(config, *jobs[i]) for i in group],
        epochs=config.epochs,
        learning_rate=config.learning_rate,
        clip_norm=config.clip_norm,
    )
    results = []
    for i, run in zip(group, runs):
        point, seed, _ = jobs[i]
        run_dir = out_dir / "runs" / point["label"] / f"seed{seed}"
        paths = [save_model(run.model, run_dir / "model.json"), write_epochs(run.epoch_summaries(), run_dir / "epochs.jsonl")]
        results.append((run.model, paths))
    return results


def _lockstep_groups(sizes: Sequence[int], n_groups: int) -> list[list[int]]:
    """Job indices in lockstep groups: the jobs whose corpora have one size
    (so one step count), in job order, cut into chunks of at most
    ``ceil(len(sizes) / n_groups)`` jobs."""
    per_group = -(-len(sizes) // n_groups)
    by_size: dict[int, list[int]] = {}
    for i, size in enumerate(sizes):
        by_size.setdefault(size, []).append(i)
    return [
        indices[start : start + per_group]
        for indices in by_size.values()
        for start in range(0, len(indices), per_group)
    ]


def _stage_train(config: PipelineConfig, out_dir: Path, state: dict) -> list[Path]:
    """Train every (sweep point, seed) job on a forked process pool.

    The jobs are cut into one lockstep group per worker (see
    ``_lockstep_groups``), and each worker advances its group's jobs
    together, one batched SGD step at a time. Workers inherit the job list
    at fork (the pipeline holds no thread of its own by then), so nothing
    but job indices and trained models crosses a process boundary, and each
    worker writes its jobs' run directories. The first failure cancels the
    groups not yet started; the stage then raises the error of the first
    failed job in sweep order.
    """
    # Imported here: a module-level import slows every ``posdebias`` start-up.
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    jobs = [(point, seed, data) for point in _sweep_points(config) for seed, data in state["data"].items()]
    sizes = [point["size"] or len(data["train"]) for point, _, data in jobs]
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    groups = _lockstep_groups(sizes, workers)
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_set_train_jobs,
        initargs=(config, out_dir, jobs),
    ) as pool:
        futures = [pool.submit(_train_group, group) for group in groups]
        wait(futures, return_when=FIRST_EXCEPTION)
        pool.shutdown(cancel_futures=True)
    errors = [(group, future.exception()) for group, future in zip(groups, futures) if not future.cancelled()]
    # A diverged group names its job; any other error counts as its first job's.
    failed = [(group[getattr(exc, "job", 0)], exc) for group, exc in errors if exc is not None]
    if failed:
        raise min(failed, key=operator.itemgetter(0))[1]
    state["models"] = {}
    artifacts = []
    for group, future in zip(groups, futures):
        for i, (trained, paths) in zip(group, future.result()):
            point, seed, _ = jobs[i]
            state["models"][(point["label"], seed)] = trained
            artifacts += paths
    return artifacts


def _stage_eval(config: PipelineConfig, out_dir: Path, state: dict) -> list[Path]:
    artifacts = []
    state["evals"] = []
    for point in _sweep_points(config):
        label = point["label"]
        per_seed = [
            evaluate(state["models"][(label, seed)], data["partition"], config.metric, label)
            for seed, data in state["data"].items()
        ]
        pooled = pool_evals(label, config.metric, per_seed)
        state["evals"].append((point, pooled))
        path = out_dir / "eval" / f"{label}.json"
        artifacts.append(write_eval(pooled, path, alpha=point["alpha"], n_train=point["size"]))
    return artifacts


def _stage_report(config: PipelineConfig, out_dir: Path, state: dict) -> list[Path]:
    report_dir = out_dir / "report"
    artifacts = write_report([ev for _, ev in state["evals"]], report_dir, config.metric)
    if len(config.alphas) > 1:
        zoe = [(point["alpha"], ev.splits) for point, ev in state["evals"] if point["system"] == "zoe"]
        series = {
            side: [(alpha, splits[side][0]) for alpha, splits in zoe]
            for side in ("non_biased", "biased")
        }
        artifacts.append(
            report_mod.write_sweep_chart(
                series, report_dir / "alpha_sweep.svg",
                f"{config.metric} vs alpha", "alpha", config.metric,
            )
        )
    if config.train_sizes and len(config.train_sizes) > 1:
        series = {}
        for point, ev in state["evals"]:
            series.setdefault(point["system"], []).append(
                (float(point["size"]), ev.splits["non_biased"][0])
            )
        artifacts.append(
            report_mod.write_sweep_chart(
                series, report_dir / "train_size_sweep.svg",
                f"non-biased {config.metric} vs training size", "training samples", config.metric,
            )
        )
    return artifacts


# -- data-mode stages ------------------------------------------------------


def _stage_data_split(config: PipelineConfig, out_dir: Path, state: dict) -> list[Path]:
    corpus = load_corpus(config.corpus, config.task)
    partition = split_corpus(corpus, config.biased_positions, config.triggers)
    # The whole corpus is the candidate source, as the train split is in toy mode.
    state["data"] = {0: {"train": corpus, "partition": partition}}
    return write_split(partition, out_dir / "split")


def _stage_data_report(config: PipelineConfig, out_dir: Path, state: dict) -> list[Path]:
    data = state["data"][0]
    partition: BiasPartition = data["partition"]
    total = len(partition.biased) + len(partition.non_biased)
    aligned = data.get("aligned", {})
    verdicts = [v for vs in aligned.values() for v in vs]
    kept = sum(1 for v in verdicts if v.kept)
    evals = [
        SystemEval(
            system="corpus",
            metric="fraction",
            splits={
                "biased": (len(partition.biased) / total, len(partition.biased)),
                "non_biased": (len(partition.non_biased) / total, len(partition.non_biased)),
            },
        )
    ]
    if verdicts:
        evals.append(
            SystemEval(
                system="align",
                metric="kept_fraction",
                splits={"all": (kept / len(verdicts), len(verdicts))},
            )
        )
    return [report_mod.write_scores_csv(evals, out_dir / "report" / "report.csv")]


_TOY_STAGES = (
    ("synth", _stage_synth),
    ("split", _stage_split),
    ("infer", _stage_infer),
    ("align", _stage_align),
    ("train", _stage_train),
    ("eval", _stage_eval),
    ("report", _stage_report),
)

_DATA_STAGES = (
    ("split", _stage_data_split),
    ("infer", _stage_infer),
    ("align", _stage_align),
    ("report", _stage_data_report),
)

# No gate prunes NLI candidates and data mode does not train, so nothing
# would read what infer and align produce.
_NLI_DATA_STAGES = (("split", _stage_data_split), ("report", _stage_data_report))
