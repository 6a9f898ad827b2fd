"""End-to-end orchestration with a checksummed run manifest.

Two modes share the same stage machinery:

* toy mode (``synth`` configured): generate a synthetic corpus, split the
  eval pool, draw low-bias candidates from the stub backend, align them,
  train the configured systems, evaluate, and report;
* data mode (``corpus`` configured): split a user corpus, draw and align
  candidates, and report partition and alignment statistics.

Every stage appends its artifacts (with SHA-256 checksums) to
``manifest.json`` as soon as it finishes, so a failed run preserves all
artifacts produced before the failure and marks the failing stage.

Stage bodies are plain functions (``split_corpus``, ``write_split``,
``infer_corpus``, ``align_corpus``, ``eval_model``, ``pool_evals``,
``write_report``) that the CLI verbs call as well; record formats live in
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
from pathlib import Path
from typing import Mapping, Sequence

from . import report as report_mod
from .backends import Backend, GenerationResult, StubBackend, StubMode, resolve_backend
from .bias_split import (
    DEFAULT_BIASED_POSITIONS,
    BiasKind,
    BiasPartition,
    perturb_positions,
    split_by_lead_bias,
    split_by_lexical_bias,
    split_by_relative_position,
    write_evidence,
)
from .corpus import Corpus, Sample, Task, load_corpus, relabel, save_corpus
from .lowbias_infer import PromptStrategy, build_prompt, default_prompt_spec, generate
from .metrics import PositionRow
from .msa_align import (
    DEFAULT_LEXICAL_TRIGGERS,
    AlignedResponse,
    AlignmentConfig,
    align_responses,
    calibrate_threshold,
    gate_statistic,
)
from .objective import LossConfig
from .records import write_aligned, write_candidates, write_eval, write_trace
from .report import SystemEval
from .toy_model import (
    METRICS,
    SynthSpec,
    ToyModel,
    build_lowbias_table,
    evaluate,
    save_model,
    synth_corpus,
    train,
)


class PipelineError(RuntimeError):
    """A stage failed; the manifest records which one."""


CONFIG_SCHEMA: dict = {
    "type": "object",
    "description": "Pipeline run configuration; exactly one of 'synth' or 'corpus' must be set.",
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
            "default": "relative_position",
            "description": "Toy mode takes only 'relative_position'.",
        },
        "biased_positions": {"type": "array", "items": {"type": "integer"}, "default": [0, 1]},
        "triggers": {"type": "array", "items": {"type": "string"}},
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
        "calibrate": {"type": "boolean", "default": True},
        "align": {
            "type": "object",
            "description": "AlignmentConfig overrides.",
            "properties": {
                "instruction_keywords": {"type": "array", "items": {"type": "string"}},
                "dull_patterns": {"type": "array", "items": {"type": "string"}},
                "incoherence_threshold": {"type": "number", "default": 0.15},
                "unreliable_threshold": {"type": "number", "default": 0.15},
                "candidate_thresholds": {"type": "array", "items": {"type": "number"}, "default": [0.1, 0.15, 0.2]},
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
    bias: str = "relative_position"
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
    calibrate: bool = True
    align: AlignmentConfig = field(default_factory=AlignmentConfig)


def parse_config(raw: dict) -> PipelineConfig:
    """Validate a raw config dict against ``CONFIG_SCHEMA`` and the modes.

    Every problem is raised here, naming the field, before any stage runs.
    Keys left out take the ``PipelineConfig`` defaults.
    """
    _check_schema("", raw, CONFIG_SCHEMA)
    if "out_dir" not in raw:
        raise ValueError("config: 'out_dir' is required")
    if ("synth" in raw) == ("corpus" in raw):
        raise ValueError("config: exactly one of 'synth' or 'corpus' must be set")
    if "synth" in raw:
        # The synthetic corpus is dialogue QA, split by relative position.
        for key, only in (("task", "cqa"), ("bias", "relative_position")):
            if raw.get(key, only) != only:
                raise ValueError(f"config: {key} must be {only!r} in toy mode (synth), got {raw[key]!r}")
    elif raw.get("backend") == "table":
        raise ValueError("config: backend 'table' needs a synth corpus; data mode takes table:FILE")
    if raw.get("train_sizes") and len(raw.get("alphas", [0.2])) > 1:
        raise ValueError("config: sweep either alphas or train_sizes, not both")
    fields = dict(raw)
    if "task" in raw:
        fields["task"] = Task(raw["task"])
    if "synth" in raw:
        fields["synth"] = SynthSpec(**raw["synth"])
    if "biased_positions" in raw:
        fields["biased_positions"] = frozenset(raw["biased_positions"])
    for key in ("triggers", "seeds", "systems", "alphas"):
        if key in raw:
            fields[key] = tuple(raw[key])
    fields["train_sizes"] = tuple(raw["train_sizes"]) if raw.get("train_sizes") else None
    fields["align"] = AlignmentConfig(
        **{
            k: tuple(v) if isinstance(v, list) else v
            for k, v in raw.get("align", {}).items()
        }
    )
    # The internal lookup table only makes sense for synthetic corpora.
    fields.setdefault("backend", "table" if "synth" in raw else "markov")
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
    stages = _TOY_STAGES if config.synth is not None else _DATA_STAGES
    for name, fn in stages:
        try:
            artifacts = fn(config, out_dir, state)
        except Exception as exc:  # noqa: BLE001 - every failure must land in the manifest
            manifest.record(name, "failed", [], error=str(exc))
            raise PipelineError(f"stage {name!r} failed: {exc}") from exc
        manifest.record(name, "ok", artifacts)
    return manifest.data


# -- stages, shared by run_pipeline and the CLI verbs ----------------------


def split_corpus(
    corpus: Corpus,
    bias: str,
    positions: frozenset[int] = DEFAULT_BIASED_POSITIONS,
    triggers: tuple[str, ...] = DEFAULT_LEXICAL_TRIGGERS,
    min_lead_score: float = 0.0,
) -> BiasPartition:
    """Partition a corpus by the evidence of one bias kind."""
    if bias == BiasKind.RELATIVE_POSITION:
        return split_by_relative_position(corpus, positions)
    if bias == BiasKind.LEAD:
        return split_by_lead_bias(corpus, min_lead_score=min_lead_score)
    if bias == BiasKind.LEXICAL:
        return split_by_lexical_bias(corpus, triggers)
    raise ValueError(f"unknown bias kind {bias!r}")


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

    ``strategy`` overrides the task's default prompt strategy.
    """
    spec = default_prompt_spec(
        corpus.task, corpus=corpus, strategy=None if strategy is None else PromptStrategy(strategy)
    )
    candidates = {}
    for sample in corpus:
        prompts = build_prompt(sample, spec, allow_strategy_mismatch=strategy is not None)
        candidates[sample.id] = generate(
            prompts,
            backend,
            n_per_prompt=n_per_prompt,
            seed=seed,
            max_tokens=max_tokens,
            max_in_flight=max_in_flight,
        )
    return candidates


def align_corpus(
    task: Task,
    samples: Sequence[Sample],
    candidates: Mapping[str, Sequence[GenerationResult]],
    config: AlignmentConfig,
    calibrate: bool,
) -> tuple[dict[str, list[AlignedResponse]], float | None]:
    """Verdicts for every candidate, keyed by sample id in ``samples`` order.

    Candidates of an id not in ``samples`` are rejected before anything
    runs. With ``calibrate``, the gate threshold (incoherence for question
    generation, unreliability otherwise) is the candidate threshold whose
    keep fraction lands nearest the target; it is returned, or ``None`` when
    nothing was calibrated.
    """
    unknown = sorted(set(candidates) - {s.id for s in samples})
    if unknown:
        raise ValueError(f"align: candidate sample id {unknown[0]!r} not in corpus")
    threshold = None
    if calibrate:
        stats = [
            gate_statistic(task, sample, cand)
            for sample in samples
            for cand in candidates.get(sample.id, ())
        ]
        if stats:
            threshold = calibrate_threshold(
                stats, config.candidate_thresholds, config.target_keep_fraction
            )
            gate = "incoherence_threshold" if task == Task.CQG else "unreliable_threshold"
            config = dataclasses.replace(config, **{gate: threshold})
    aligned = {
        sample.id: align_responses(task, sample, list(candidates[sample.id]), config)
        for sample in samples
        if candidates.get(sample.id)
    }
    return aligned, threshold


def eval_model(model: ToyModel, partition: BiasPartition, metric: str, system: str) -> SystemEval:
    """Score a model on both partition sides; an empty side is left out."""
    result = evaluate(model, partition, metric=metric)
    sides = (("biased", result.biased), ("non_biased", result.non_biased))
    return SystemEval(
        system=system,
        metric=metric,
        splits={name: (side.score, side.count) for name, side in sides if side.score is not None},
        by_position=result.by_relative_position,
    )


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
        data["partition"] = split_by_relative_position(pool, config.biased_positions)
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
        if config.task == Task.NLI:
            # No gate applies to NLI candidates, so none is kept for training.
            data["aligned"] = {}
            calibration: dict = {"calibrated": False, "note": "nli candidates are not pruned"}
        else:
            data["aligned"], threshold = align_corpus(
                config.task, data["train"].samples, data["candidates"], config.align, config.calibrate
            )
            calibration = {"calibrated": threshold is not None}
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


#: The train stage's jobs in a forked pool worker, set by ``_set_train_jobs``.
_train_jobs: list[tuple] = []


def _set_train_jobs(jobs: list[tuple]) -> None:
    global _train_jobs
    _train_jobs = jobs


def _train_job(index: int) -> tuple[ToyModel, list[Path]]:
    """Train one (sweep point, seed) job and write its run directory."""
    config, out_dir, point, seed, data = _train_jobs[index]
    train_corpus: Corpus = data["train"]
    if point["size"] is not None:
        train_corpus = Corpus(train_corpus.samples[: point["size"]], config.task)
    if point["system"] == "rp":
        perturbed = tuple(
            perturb_positions(s, seed=seed * 100003 + i)
            for i, s in enumerate(train_corpus)
        )
        train_corpus = Corpus(perturbed, config.task)
    trained, trace = train(
        ToyModel.initialize(config.synth.vocab_size, seed=seed),
        train_corpus,
        aligned=data["aligned"] if point["system"] == "zoe" else None,
        config=LossConfig(alpha=point["alpha"]),
        epochs=config.epochs,
        learning_rate=config.learning_rate,
        seed=seed,
        clip_norm=config.clip_norm,
    )
    run_dir = out_dir / "runs" / point["label"] / f"seed{seed}"
    paths = [save_model(trained, run_dir / "model.json"), write_trace(trace, run_dir / "trace.jsonl")]
    return trained, paths


def _stage_train(config: PipelineConfig, out_dir: Path, state: dict) -> list[Path]:
    """Train every (sweep point, seed) job on a forked process pool.

    Workers inherit the job list at fork (the pipeline holds no thread of
    its own by then), so nothing but job indices and trained models crosses
    a process boundary, and each worker writes its own run directory. Jobs
    with aligned responses (the slowest) go first; results are kept in
    sweep-point x seed order, so every artifact matches a serial run. The
    first failure cancels the jobs not yet started.
    """
    # Imported here: a module-level import slows every ``posdebias`` start-up.
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    jobs = [
        (config, out_dir, point, seed, data)
        for point in _sweep_points(config)
        for seed, data in state["data"].items()
    ]
    dispatch = sorted(range(len(jobs)), key=lambda i: jobs[i][2]["system"] != "zoe")
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_set_train_jobs,
        initargs=(jobs,),
    ) as pool:
        futures = {i: pool.submit(_train_job, i) for i in dispatch}
        wait(futures.values(), return_when=FIRST_EXCEPTION)
        pool.shutdown(cancel_futures=True)
    # In sweep order: a failure raises the error of the first failed job that ran.
    results = [futures[i].result() for i in range(len(jobs)) if not futures[i].cancelled()]
    state["models"] = {}
    artifacts = []
    for (_, _, point, seed, _), (trained, paths) in zip(jobs, results):
        state["models"][(point["label"], seed)] = trained
        artifacts += paths
    return artifacts


def _stage_eval(config: PipelineConfig, out_dir: Path, state: dict) -> list[Path]:
    artifacts = []
    state["evals"] = []
    for point in _sweep_points(config):
        label = point["label"]
        per_seed = [
            eval_model(state["models"][(label, seed)], data["partition"], config.metric, label)
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
    partition = split_corpus(
        corpus, config.bias, positions=config.biased_positions, triggers=config.triggers
    )
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
