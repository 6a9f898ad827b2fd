"""End-to-end orchestration with a checksummed run manifest.

Two modes share the same stage machinery:

* toy mode (``synth`` configured): generate a synthetic corpus, split the
  eval pool, draw low-bias candidates from the stub backend, align them,
  train the configured systems, evaluate, and report;
* data mode (``corpus`` configured): split a user corpus, draw and align
  candidates, and report partition and alignment statistics; an NLI corpus,
  whose candidates nothing prunes or trains on, is only split and reported.

Every stage appends the files it wrote, with the SHA-256 checksums that
``corpus.write_blocks`` took as it wrote them, to ``manifest.json`` as soon
as it finishes or fails, so a failed run preserves all artifacts produced
before the failure and marks the failing stage.

Stage bodies are plain functions (``split_shards``, ``write_split``,
``infer_shards``, ``align_shards``, ``write_verdicts``, ``pool_evals``,
``write_report``, and ``toy_model.evaluate``) that the CLI verbs call as well;
record formats live in ``posdebias.records``. Each candidate's verdict is
decided once, by ``msa_align.align_responses`` in ``write_verdicts``; toy
training reads the texts it keeps.
"""
from __future__ import annotations

import dataclasses
import json
import math
import operator
import os
import sys
from concurrent.futures import FIRST_EXCEPTION, wait
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from . import corpus as corpus_mod
from . import report as report_mod
from .backends import Backend, BackendError, GenerationResult, StubBackend, StubMode, reads_max_tokens, record_line, resolve_backend
from .bias_split import (
    BIAS_BY_TASK,
    DEFAULT_BIASED_POSITIONS,
    DEFAULT_LEXICAL_TRIGGERS,
    BiasKind,
    BiasPartition,
    evidence_record,
    perturb_positions,
    split_corpus,
)
from .corpus import Corpus, Sample, SynthSpec, Task, encode_json, json_value, load_corpus, sample_to_record, save_corpus, write_blocks
from .lowbias_infer import DEFAULT_MAX_TOKENS, DEFAULT_N_PER_PROMPT, PromptStrategy, build_prompt, default_prompt_spec, generate
from .metrics import METRICS, PositionRow, tokenize
from .msa_align import VERDICTS, AlignmentConfig, Verdict, align_responses, calibrate_threshold, form_reasons, gate_statistic
from .objective import LossConfig
from .records import candidate_line, verdict_head, verdict_tail, write_epochs, write_eval
from .report import SystemEval

if TYPE_CHECKING:
    from .toy_model import EpochSummary, ToyModel, TrainJob


def __getattr__(name: str):
    """``pipeline.train``, imported on first access and kept as a global for
    perfbench's tracer to rebind: its harness test reads it. Once that test
    reads a name the pipeline calls, this goes."""
    if name == "train":
        from .toy_model import train

        globals()["train"] = train
        return train
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PipelineError(RuntimeError):
    """A stage failed; the manifest records which one."""


#: Keys some runs never read: toy mode's training keys (data mode), the
#: candidate keys (a data-mode nli run, which only splits and reports), the
#: split parameter of each bias kind (a task split by another kind),
#: ``max_tokens`` on the echo and table backends, whose candidates have no
#: length to cap, and in toy mode ``garbage_rate`` off the internal table
#: and ``alphas`` without the ``zoe`` system.
_TOY_ONLY_KEYS = ("seeds", "systems", "alphas", "train_sizes", "epochs", "learning_rate", "clip_norm", "garbage_rate", "metric")
_CANDIDATE_KEYS = ("n_per_prompt", "max_tokens", "backend", "align")
_SPLIT_KEYS = {BiasKind.RELATIVE_POSITION: "biased_positions", BiasKind.LEXICAL: "triggers"}


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
    n_per_prompt: int = DEFAULT_N_PER_PROMPT
    max_tokens: int = DEFAULT_MAX_TOKENS
    garbage_rate: float = 0.25
    metric: str = "accuracy"
    backend: str = "table"
    align: AlignmentConfig = field(default_factory=AlignmentConfig)


CONFIG_SCHEMA: dict = {
    "type": "object",
    "description": "Pipeline run configuration; exactly one of 'synth' or 'corpus' must be set; unread keys are rejected.",
    "properties": {
        "out_dir": {"type": "string", "description": "Directory for artifacts and manifest."},
        "task": {
            "type": "string",
            "enum": [t.value for t in Task],
            "default": PipelineConfig.task.value,
            "description": "Toy mode takes only 'cqa'.",
        },
        "synth": {
            "type": "object",
            "description": "Synthetic corpus shape (toy mode).",
            "properties": {
                "n_utterances": {"type": "integer", "default": SynthSpec.n_utterances},
                "n_train": {"type": "integer", "default": SynthSpec.n_train},
                "n_eval": {"type": "integer", "default": SynthSpec.n_eval},
                "biased_fraction": {"type": "number", "default": SynthSpec.biased_fraction},
                "vocab_size": {"type": "integer", "default": SynthSpec.vocab_size},
                "seed": {"type": "integer", "default": SynthSpec.seed},
            },
        },
        "corpus": {"type": "string", "description": "JSONL corpus path (data mode)."},
        "bias": {
            "type": "string",
            "enum": [k.value for k in BiasKind],
            "description": "Optional: the task picks the kind (cqa, cqg: relative_position; sum, kgc: lead; nli: lexical).",
        },
        "biased_positions": {"type": "array", "items": {"type": "integer"}, "minItems": 1, "default": sorted(PipelineConfig.biased_positions)},
        "triggers": {"type": "array", "items": {"type": "string"}, "minItems": 1, "default": list(PipelineConfig.triggers)},
        "seeds": {"type": "array", "items": {"type": "integer"}, "minItems": 1, "uniqueItems": True, "default": list(PipelineConfig.seeds)},
        "systems": {
            "type": "array",
            "items": {"type": "string", "enum": ["ft", "zoe", "rp"]},
            "minItems": 1,
            "uniqueItems": True,
            "default": list(PipelineConfig.systems),
        },
        "alphas": {
            "type": "array",
            "items": {"type": "number", "minimum": 0, "maximum": 1},
            "minItems": 1,
            "uniqueItems": True,
            "default": list(PipelineConfig.alphas),
        },
        "train_sizes": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
            "uniqueItems": True,
            "description": "Optional training-size sweep; incompatible with a multi-alpha sweep.",
        },
        "epochs": {"type": "integer", "minimum": 0, "default": PipelineConfig.epochs},
        "learning_rate": {"type": "number", "minimum": 0, "default": PipelineConfig.learning_rate},
        "clip_norm": {"type": "number", "exclusiveMinimum": 0, "default": PipelineConfig.clip_norm},
        "n_per_prompt": {"type": "integer", "minimum": 1, "default": PipelineConfig.n_per_prompt},
        "max_tokens": {"type": "integer", "minimum": 1, "default": PipelineConfig.max_tokens},
        "garbage_rate": {"type": "number", "minimum": 0, "maximum": 1, "default": PipelineConfig.garbage_rate},
        "metric": {"type": "string", "enum": list(METRICS), "default": PipelineConfig.metric},
        "backend": {
            "type": "string",
            "description": "Backend spec: echo | markov | table | table:FILE | replay:FILE | url:ENDPOINT. "
            "'table' is the lookup table built from the synthetic corpus, toy mode's default; "
            "data mode cannot take it. "
            "POSDEBIAS_BACKEND_URL overrides any configured endpoint.",
            "default": PipelineConfig.backend,
        },
        "align": {
            "type": "object",
            "description": "AlignmentConfig overrides.",
            "properties": {
                "instruction_keywords": {
                    "type": "array", "items": {"type": "string"}, "minItems": 1,
                    "default": list(AlignmentConfig.instruction_keywords),
                    "description": "cqg compliance gate: a kept candidate contains one of these words.",
                },
                "dull_patterns": {"type": "array", "items": {"type": "string"}, "default": list(AlignmentConfig.dull_patterns)},
                "candidate_thresholds": {
                    "type": "array", "items": {"type": "number"}, "default": list(AlignmentConfig.candidate_thresholds),
                    "description": "Gate thresholds calibration picks from; one entry fixes the threshold.",
                },
                "target_keep_fraction": {"type": "number", "default": AlignmentConfig.target_keep_fraction},
            },
        },
    },
    "required": ["out_dir"],
}

_JSON_TYPES = {"string": str, "integer": int, "number": (int, float), "boolean": bool, "array": list, "object": dict}

_BOUNDS = (("minimum", operator.ge, ">="), ("exclusiveMinimum", operator.gt, ">"), ("maximum", operator.le, "<="))


def _check_schema(name: str, value, schema: dict) -> None:
    """Reject ``value`` unless it has the schema's type (by ``json_value``),
    a finite value if a number, enum member, bounds, item count, distinct
    items where asked and (for objects) only known keys; errors name the
    field."""
    kind = schema["type"]
    try:
        json_value(value, _JSON_TYPES[kind], name or "config")
    except ValueError as exc:
        raise ValueError(f"config: {exc} (expected {kind})") from None
    if kind == "number" and not math.isfinite(value):
        raise ValueError(f"config: {name} must be a finite number, got {value!r}")
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
    task = Task(raw.get("task", PipelineConfig.task))
    kind = BIAS_BY_TASK[task]
    if "synth" in raw and task != Task.CQA:
        raise ValueError(f"config: task must be 'cqa' in toy mode (synth), got {task.value!r}")
    if raw.get("bias", kind.value) != kind.value:
        raise ValueError(f"config: bias must be {kind.value!r} for task {task.value!r}, got {raw['bias']!r}")
    unread = [key for other, key in _SPLIT_KEYS.items() if other != kind]
    # The internal lookup table only makes sense for synthetic corpora.
    backend = raw.get("backend", "markov" if "corpus" in raw else "table")
    if "corpus" in raw and backend == "table":
        raise ValueError("config: backend 'table' needs a synth corpus; data mode takes table:FILE")
    if "corpus" in raw:
        unread += _TOY_ONLY_KEYS + (_CANDIDATE_KEYS if task == Task.NLI else ())
        run = f"data-mode {task.value} run"
    else:
        run = f"toy {task.value} run"
        if backend != "table":
            unread.append("garbage_rate")
        if "zoe" not in raw.get("systems", PipelineConfig.systems):
            unread.append("alphas")
            run += " without system 'zoe'"
    if not reads_max_tokens(backend):
        unread.append("max_tokens")
    if "backend" not in unread:
        run += f" on backend {backend!r}"
    unread = [key for key in dict.fromkeys(unread) if key in raw]
    if unread:
        raise ValueError(f"config: keys {unread} are not read by a {run}")
    if "train_sizes" in raw and len(raw.get("alphas", PipelineConfig.alphas)) > 1:
        raise ValueError("config: sweep either alphas or train_sizes, not both")
    align = raw.get("align", {})
    words = {"triggers": raw.get("triggers", ()), **{f"align.{k}": align.get(k, ()) for k in ("instruction_keywords", "dull_patterns")}}
    for name, entries in words.items():
        check_words(f"config: {name}", entries)
    fields = dict(raw)
    fields.pop("bias", None)
    fields["task"] = task
    try:
        if "synth" in raw:
            from . import toy_model  # noqa: F401 - toy mode trains with numpy; without it, fail here, before any stage
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
    fields["train_sizes"] = tuple(raw["train_sizes"]) if "train_sizes" in raw else None
    fields["backend"] = backend
    if backend != "table":
        try:
            resolve_backend(backend)
        except ValueError as exc:
            raise ValueError(f"config: {exc}") from None
    return PipelineConfig(**fields)


def check_words(name: str, words: Sequence[str]) -> None:
    """Raise ``ValueError`` naming ``name[i]`` for the first word that
    tokenizes to nothing. Such a word matches nothing: a trigger fails the
    split, a question word rejects every candidate, a pattern never matches."""
    for i, word in enumerate(words):
        if not tokenize(word):
            raise ValueError(f"{name}[{i}] tokenizes to nothing: {word!r}")


def _write_manifest(manifest: dict, out_dir: Path) -> None:
    write_blocks([json.dumps(manifest, indent=2, sort_keys=True)], out_dir / "manifest.json")


def _config_echo(config: PipelineConfig) -> dict:
    echo = dataclasses.asdict(config)
    echo["task"] = config.task.value
    echo["biased_positions"] = sorted(config.biased_positions)
    # The run root as "." and input files by name: the manifest's bytes do not depend on where they live.
    echo["out_dir"] = "."
    if config.corpus is not None:
        echo["corpus"] = Path(config.corpus).name
    kind, colon, path = config.backend.partition(":")
    if colon and kind in ("table", "replay"):
        echo["backend"] = f"{kind}:{Path(path).name}"
    return json.loads(json.dumps(echo, sort_keys=True, default=list))


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute all stages; returns the manifest dict.

    Configuration problems (missing corpus file, bad mode combinations) are
    raised before any stage runs or any artifact is written. Data mode
    splits, infers and aligns per sample range on every usable CPU; toy
    mode runs them in-process, since training reads their objects.
    """
    if (config.synth is None) == (config.corpus is None):
        raise ValueError("run_pipeline: exactly one of synth/corpus must be configured")
    if config.corpus is not None and not Path(config.corpus).exists():
        raise ValueError(f"run_pipeline: corpus path {config.corpus!r} does not exist")
    out_dir = Path(config.out_dir)
    manifest: dict = {"config": _config_echo(config), "stages": []}
    _write_manifest(manifest, out_dir)
    state: dict = {}
    if config.synth is not None:
        stages = _TOY_STAGES
    elif config.task == Task.NLI:
        stages = _NLI_DATA_STAGES
    else:
        stages = _DATA_STAGES
    for name, fn in stages:
        corpus_mod.written = written = {}  # the stage's files, hashed as they are written
        entry: dict = {"stage": name, "status": "failed"}
        try:
            fn(config, out_dir, state)
            entry["status"] = "ok"
        except Exception as exc:  # noqa: BLE001 - every failure must land in the manifest
            entry["error"] = str(exc)
            raise PipelineError(f"stage {name!r} failed: {exc}") from exc
        finally:  # a failed stage's entry lists the files it wrote, partial ones too
            corpus_mod.written = None
            entry["artifacts"] = [{"path": str(p.relative_to(out_dir)), "sha256": h} for p, h in sorted(written.items())]
            manifest["stages"].append(entry)
            _write_manifest(manifest, out_dir)
    return manifest


# -- stages, shared by run_pipeline and the CLI verbs ----------------------
#
# Split, infer and align do per-sample work only; the one decision that spans
# samples is the calibrated gate threshold. ``_run_shards`` cuts the samples
# into contiguous ranges, one per usable CPU, and runs ``_shard`` on each in a
# forked worker (or, for one range, in-process). A worker sends back encoded
# lines, one text block per output file, and its gate statistics; the parent
# calibrates on the statistics in sample order, decides every verdict at that
# threshold (``align_responses``), completes the verdict lines and writes each
# file as the blocks in range order.


@dataclass(frozen=True)
class _Job:
    """The per-sample work of one pass over ``samples``: the split's
    ``(positions, triggers)``; the backend, prompt spec and ``generate``
    keywords to infer with, and whether to build the record lines of that
    traffic; the ``candidates`` to align when nothing is inferred; the gate
    config to align with. A part left ``None`` is skipped."""

    task: Task
    samples: tuple[Sample, ...]
    split: tuple | None = None
    infer: tuple | None = None
    record: bool = False
    candidates: Mapping[str, Sequence[GenerationResult]] | None = None
    align: AlignmentConfig | None = None


@dataclass
class Shard:
    """What a pass yields for one contiguous sample range.

    Each text block holds the range's lines of one output file, each ending
    in a newline: the biased, non-biased and evidence lines of the split,
    the candidates, and the record lines of the backend traffic in prompt
    order (``record_line``). ``heads`` holds the head of each candidate's
    verdict line (``verdict_head``), ``stats`` its gate statistic (an
    ``array('d')``) and ``reasons`` the bits of its threshold-free reasons
    (``form_reasons``), for ``write_verdicts`` to decide
    (``align_responses``) and complete.
    ``error`` is ``(stage, exception)`` for the first failure; no later part
    ran. ``partition`` and ``results`` are the objects; a worker drops them.
    """

    split: tuple[str, str, str] = ("", "", "")
    n_biased: int = 0
    candidates: str = ""
    record: str = ""
    heads: Sequence[str] = ()
    stats: Sequence[float] = ()
    reasons: bytes = b""
    error: tuple[str, Exception] | None = None
    partition: BiasPartition | None = None
    results: Mapping[str, Sequence[GenerationResult]] | None = None


def _shard(job: _Job, lo: int, hi: int) -> Shard:
    """Run ``job`` on ``job.samples[lo:hi]``. An exception is caught and
    kept with the stage it belongs to."""
    from array import array

    shard = Shard()
    samples = job.samples[lo:hi]
    stage = "split"
    try:
        if job.split is not None:
            corpus = Corpus(samples, job.task)
            partition = split_corpus(corpus, *job.split)
            shard.split = (
                _lines(encode_json({**sample_to_record(s), "split": "biased"}) for s in partition.biased),
                _lines(encode_json({**sample_to_record(s), "split": "non_biased"}) for s in partition.non_biased),
                _lines(encode_json(evidence_record(s.id, partition.evidence[s.id])) for s in corpus),
            )
            shard.n_biased, shard.partition = len(partition.biased), partition
        stage = "infer"
        results = job.candidates
        if job.infer is not None:
            backend, spec, options = job.infer
            prompts = [build_prompt(s, spec) for s in samples]
            flat, n = [prompt for sample_prompts in prompts for prompt in sample_prompts], options["n_per_prompt"]
            drawn: list[GenerationResult] = []
            try:
                # Every sample has as many prompts as the first (``build_prompt``).
                drawn = generate(flat, backend, prompt_offset=lo * len(prompts[0]) if prompts else 0, **options)
            except BackendError as exc:  # its results are recorded here: they need not cross a pipe
                drawn, exc.results = exc.results, []
                raise
            finally:  # so a failing prompt's range records the prompts before it
                if job.record:
                    shard.record = _lines(record_line(flat[j // n], options["max_tokens"], options["seed"] + j % n, r) for j, r in enumerate(drawn))
            drawn = iter(drawn)
            results = {s.id: list(islice(drawn, len(p) * n)) for s, p in zip(samples, prompts)}
            shard.candidates = _lines(
                candidate_line(sample_id, k, result) for sample_id, rs in results.items() for k, result in enumerate(rs)
            )
        shard.results = results
        stage = "align"
        if job.align is not None:
            heads, stats, reasons = [], array("d"), bytearray()
            for sample in samples:
                candidates = results.get(sample.id)
                if not candidates:
                    continue
                target_tokens = tokenize(sample.target)
                for candidate in candidates:
                    stats.append(gate_statistic(job.task, target_tokens, candidate))
                    reasons.append(form_reasons(job.task, candidate, job.align))
                    heads.append(verdict_head(sample.id, candidate.text, candidate.logprobs_json))
            shard.heads, shard.stats, shard.reasons = heads, stats, bytes(reasons)
    except Exception as exc:  # noqa: BLE001 - raised by the stage it belongs to
        shard.error = (stage, exc)
    return shard


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _shard_in_worker(job: _Job, bounds: tuple[int, int]) -> Shard:
    """``_shard`` in a forked worker, without its objects and with its error
    ``_portable``."""
    shard = _shard(job, *bounds)
    shard.partition = shard.results = None
    if shard.error is not None:
        shard.error = (shard.error[0], _portable(shard.error[1]))
    return shard


#: The names of what a pass calls per sample. One that wraps another
#: (``functools.wraps`` sets ``__wrapped__``) is a tracer's or a profiler's,
#: recording in this process, where a forked worker's calls never reach.
_PER_SAMPLE = ("split_corpus", "build_prompt", "generate", "gate_statistic", "tokenize", "form_reasons")


def _run_shards(job: _Job, shards: int | None = None) -> list[Shard]:
    """``_shard`` over ``shards`` contiguous ranges of ``job.samples`` (every
    usable CPU when ``None``, never more ranges than samples), in range
    order, in forked workers (``_fork_map``). One range runs in-process, and
    so does the whole pass when its backend does not set ``forks_safely``
    or a per-sample function is wrapped (``_PER_SAMPLE``)."""
    if shards is None:
        shards = len(os.sched_getaffinity(0))
    n = len(job.samples)
    shards = max(1, min(shards, n))
    if job.infer is not None and not getattr(job.infer[0], "forks_safely", False):
        shards = 1
    if any(hasattr(globals()[name], "__wrapped__") for name in _PER_SAMPLE):
        shards = 1
    if shards == 1:
        return [_shard(job, 0, n)]
    bounds = [(n * i // shards, n * (i + 1) // shards) for i in range(shards)]
    return [future.result() for future in _fork_map(_shard_in_worker, job, bounds, shards)]


#: What the workers of a ``_fork_map`` inherit: the ``state`` it was given.
_inherited = None


def _fork_map(fn, state, items: Sequence, workers: int) -> list:
    """Call ``fn(state, item)`` for every item on ``workers`` forked
    processes; return the done futures, in item order.

    The workers inherit ``state`` and all else the parent holds at the fork,
    after ``gc.freeze()``, so they neither traverse nor copy it. The first
    call that raises cancels the calls not yet started; its exception comes
    back ``_portable``. Every worker has exited when this returns or raises.
    """
    global _inherited
    # Imported here: a module-level import slows every ``posdebias`` start-up.
    import gc
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    _inherited = state
    gc.freeze()
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_call_inherited, fn, item) for item in items]
            wait(futures, return_when=FIRST_EXCEPTION)
            pool.shutdown(cancel_futures=True)
    finally:
        gc.unfreeze()
        _inherited = None
    return futures


def _call_inherited(fn, item):
    try:
        return fn(_inherited, item)
    except Exception as exc:  # noqa: BLE001 - any exception must come back whole
        raise _portable(exc) from None


def _portable(exc: Exception) -> Exception:
    """``exc``, or a ``RuntimeError`` with its message when it would not
    survive the pipe back from a worker (pickled, then unpickled)."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any pickling failure
        return RuntimeError(str(exc))
    return exc


def _raise_for(shards: Sequence[Shard], stage: str) -> None:
    """Raise the first error of ``stage``, in range order: the first failing
    sample's in corpus order."""
    for shard in shards:
        if shard.error is not None and shard.error[0] == stage:
            raise shard.error[1]


def split_shards(
    corpus: Corpus,
    positions: frozenset[int] = DEFAULT_BIASED_POSITIONS,
    triggers: Sequence[str] = DEFAULT_LEXICAL_TRIGGERS,
    shards: int | None = None,
) -> list[Shard]:
    """``split_corpus`` run per sample range (see ``_run_shards``); raises
    the first error in corpus order."""
    result = _run_shards(_Job(corpus.task, corpus.samples, split=(positions, triggers)), shards)
    _raise_for(result, "split")
    return result


def write_split(
    shards: Sequence[Shard],
    samples: Sequence[Sample],
    out_dir: Path,
    names: tuple[str, str] = ("biased.jsonl", "non_biased.jsonl"),
) -> None:
    """Save each non-empty side of the split of ``samples`` with its split
    name in every record, plus the evidence JSONL in id order; ``names`` are
    the biased and non-biased file names."""
    for side, name in enumerate(names):
        blocks = [shard.split[side] for shard in shards]
        if any(blocks):
            write_blocks(blocks, out_dir / name)
    evidence = "".join(shard.split[2] for shard in shards).split("\n")
    by_id = sorted(range(len(samples)), key=lambda i: samples[i].id)
    write_blocks((evidence[i] + "\n" for i in by_id), out_dir / "evidence.jsonl")


def infer_shards(
    corpus: Corpus,
    backend: Backend,
    n_per_prompt: int,
    seed: int,
    max_tokens: int,
    strategy: str | None = None,
    max_in_flight: int = 1,
    align: AlignmentConfig | None = None,
    shards: int | None = None,
    record: str | Path | None = None,
) -> list[Shard]:
    """Low-bias candidates for every sample, drawn per sample range (see
    ``_run_shards``; one range for a backend that does not set
    ``forks_safely``).

    ``strategy`` overrides the task's default prompt strategy, whose spec
    is built once from the whole corpus. A ``BackendError``'s prompt index
    counts prompts across the corpus, and the first failing prompt's is
    raised. With ``record`` the backend traffic is written there first, one
    line per candidate in prompt order, up to the first failing prompt.
    With ``align`` each range also computes its gate statistics and verdict
    heads; an error there is ``align_shards``' to raise.
    """
    spec = default_prompt_spec(
        corpus.task, corpus=corpus, strategy=None if strategy is None else PromptStrategy(strategy)
    )
    options = {"n_per_prompt": n_per_prompt, "seed": seed, "max_tokens": max_tokens, "max_in_flight": max_in_flight}
    result = _run_shards(_Job(corpus.task, corpus.samples, infer=(backend, spec, options), record=record is not None, align=align), shards)
    if record is not None:
        failed = [i for i, shard in enumerate(result) if shard.error is not None and shard.error[0] == "infer"]
        write_blocks((shard.record for shard in result[: failed[0] + 1 if failed else None]), record)
    _raise_for(result, "infer")
    return result


def align_shards(
    task: Task,
    samples: Sequence[Sample],
    candidates: Mapping[str, Sequence[GenerationResult]],
    config: AlignmentConfig,
    shards: int | None = None,
) -> list[Shard]:
    """Gate statistics and verdict heads of ``candidates`` per sample range
    (see ``_run_shards``), in ``samples`` order. Candidates of an id not in
    ``samples`` are rejected before anything runs."""
    unknown = sorted(set(candidates) - {s.id for s in samples})
    if unknown:
        raise ValueError(f"align: candidate sample id {unknown[0]!r} not in corpus")
    result = _run_shards(_Job(task, tuple(samples), candidates=candidates, align=config), shards)
    _raise_for(result, "align")
    return result


def write_verdicts(task: Task, shards: Sequence[Shard], config: AlignmentConfig, path: Path) -> tuple[float | None, list[Verdict]]:
    """Calibrate on the statistics of ``shards`` in sample order, decide
    every candidate at that threshold (``align_responses``), complete each
    verdict line and write the aligned JSONL. Returns the threshold
    (``None`` with no candidate) and the verdicts in sample order. When the
    share of statistics at or above the threshold misses the keep target
    by more than 2.5 points, one line on stderr says so, and names the
    share of candidates kept."""
    from array import array

    stats = array("d")
    for shard in shards:
        stats.extend(shard.stats)
    threshold = calibrate_threshold(stats, config.candidate_thresholds, config.target_keep_fraction) if stats else None
    verdicts = align_responses(task, stats, b"".join(shard.reasons for shard in shards), config, threshold)
    passed = sum(1 for stat in stats if stat >= threshold) / len(stats) if stats else None
    if passed is not None and abs(passed - config.target_keep_fraction) > 0.025:
        kept = sum(verdict.kept for verdict in verdicts)
        print(
            f"align: {passed:.1%} of {len(stats)} gate statistics at or above threshold {threshold:g} against a "
            f"{config.target_keep_fraction:.1%} calibration target; {kept / len(stats):.1%} of candidates kept",
            file=sys.stderr,
        )
    tails = map({v: verdict_tail(v.rejection_reasons) + "\n" for v in VERDICTS}.__getitem__, verdicts)
    write_blocks(("".join(map(operator.add, shard.heads, islice(tails, len(shard.heads)))) for shard in shards), path)
    return threshold, verdicts


def _weighted_mean(pairs: Sequence[tuple[float, int]]) -> tuple[float, int]:
    """Count-weighted mean of ``(score, count)`` pairs, and their total count.
    The sum is exactly rounded (``math.fsum``): the pairs' order changes no bit."""
    count = sum(n for _, n in pairs)
    return math.fsum(score * n for score, n in pairs) / count, count


def pool_evals(system: str, metric: str, evals: Sequence[SystemEval]) -> SystemEval:
    """Count-weighted mean of several runs' scores, per split and per
    position, the same in any order of ``evals`` (``_weighted_mean``)."""
    splits = {}
    for name in ("biased", "non_biased"):
        scored = [ev.splits[name] for ev in evals if name in ev.splits]
        if scored:
            splits[name] = _weighted_mean(scored)
    pooled: dict[int | None, list[tuple[float, int]]] = {}
    for ev in evals:
        for row in ev.by_position:
            pooled.setdefault(row.position, []).append((row.mean_score, row.count))
    rows = sorted(
        (PositionRow(pos, *_weighted_mean(pairs)) for pos, pairs in pooled.items() if any(n for _, n in pairs)),
        key=lambda r: (r.position is None, r.position or 0),
    )
    return SystemEval(system, metric, splits, tuple(rows))


def write_report(evals: Sequence[SystemEval], out_dir: Path, metric: str) -> None:
    """Score and per-position CSVs, the split chart, and the position chart
    when any system has a per-position row with a known position."""
    report_mod.write_scores_csv(evals, out_dir / "report.csv")
    report_mod.write_position_csv(evals, out_dir / "report_by_relpos.csv")
    report_mod.write_split_chart(evals, out_dir / "splits.svg", metric)
    if any(row.position is not None for ev in evals for row in ev.by_position):
        report_mod.write_position_chart(evals, out_dir / "relpos.svg", metric)


# -- toy-mode stages -------------------------------------------------------


def _stage_synth(config: PipelineConfig, out_dir: Path, state: dict) -> None:
    # Toy stages import ``toy_model`` (and numpy) here: data mode never does.
    from .toy_model import synth_corpus

    state["data"] = {}
    for seed in config.seeds:
        spec = dataclasses.replace(config.synth, seed=config.synth.seed + seed)
        train_c, eval_b, eval_n = synth_corpus(spec)
        state["data"][seed] = {"train": train_c, "eval_biased": eval_b, "eval_nonbiased": eval_n}
        seed_dir = out_dir / "data" / f"seed{seed}"
        save_corpus(train_c, seed_dir / "train.jsonl")
        save_corpus(eval_b, seed_dir / "eval_biased.jsonl")
        save_corpus(eval_n, seed_dir / "eval_nonbiased.jsonl")


def _stage_split(config: PipelineConfig, out_dir: Path, state: dict) -> None:
    """Re-derive the eval partition with the real splitter (not generator labels)."""
    for seed, data in state["data"].items():
        pool = Corpus(tuple(data["eval_biased"]) + tuple(data["eval_nonbiased"]), config.task)
        (shard,) = split_shards(pool, config.biased_positions, config.triggers, shards=1)
        data["partition"] = shard.partition
        write_split([shard], pool.samples, out_dir / "split" / f"seed{seed}", names=("eval_biased.jsonl", "eval_nonbiased.jsonl"))


def _resolve_toy_backend(config: PipelineConfig, train_corpus: Corpus, seed: int):
    if config.backend == "table":
        from .toy_model import build_lowbias_table

        table = build_lowbias_table(
            train_corpus,
            garbage_rate=config.garbage_rate,
            n_candidates=config.n_per_prompt,
            seed=1009 + seed,
        )
        return StubBackend(StubMode.TABLE, table=table)
    return resolve_backend(config.backend)


def _stage_infer(config: PipelineConfig, out_dir: Path, state: dict) -> None:
    """Draw each seed's candidates, with their gate statistics and verdict
    heads for the align stage, which raises any error of that work."""
    for seed, data in state["data"].items():
        data["shards"] = infer_shards(
            data["train"],
            _resolve_toy_backend(config, data["train"], seed),
            n_per_prompt=config.n_per_prompt,
            seed=seed,
            max_tokens=config.max_tokens,
            align=config.align,
            shards=1 if config.synth is not None else None,
        )
        write_blocks((shard.candidates for shard in data["shards"]), out_dir / "infer" / f"seed{seed}" / "candidates.jsonl")
        # Written, the text is dead weight: align reads no candidate line.
        for shard in data["shards"]:
            shard.candidates = ""


def _stage_align(config: PipelineConfig, out_dir: Path, state: dict) -> None:
    for seed, data in state["data"].items():
        shards = data.pop("shards")
        _raise_for(shards, "align")
        seed_dir = out_dir / "align" / f"seed{seed}"
        threshold, data["verdicts"] = write_verdicts(config.task, shards, config.align, seed_dir / "aligned.jsonl")
        if config.synth is not None:
            # Training reads each sample's kept texts. Toy ranges run
            # in-process; ``zip`` takes a sample's verdicts after its candidates.
            verdicts = iter(data["verdicts"])
            data["aligned"] = {
                sample_id: [c.text for c, verdict in zip(candidates, verdicts) if verdict.kept]
                for shard in shards
                for sample_id, candidates in shard.results.items()
                if candidates
            }
        calibration: dict = {"calibrated": threshold is not None}
        if threshold is not None:
            calibration["threshold"] = threshold
        write_blocks([json.dumps(calibration, sort_keys=True)], seed_dir / "calibration.json")


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


def _train_job(config: PipelineConfig, point: dict, seed: int, data: dict) -> TrainJob:
    """One (sweep point, seed) job: the seed's train corpus, cut to the point's
    size and position-perturbed for ``rp``, with aligned responses for ``zoe``."""
    from .toy_model import ToyModel, TrainJob

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


def _train_point(stage: tuple, point: dict) -> list[tuple[ToyModel, list[EpochSummary], SystemEval | Exception]]:
    """Train one sweep point's jobs, one per seed in ``seeds`` order, in
    lockstep, and score each trained model on its seed's partition; returns
    each job's model, epoch summaries and ``SystemEval``. A job whose
    scoring raised carries the exception (``_portable``) in place of its
    ``SystemEval``, for the eval stage to raise."""
    from .toy_model import evaluate, train_lockstep

    config, data_by_seed = stage
    runs = train_lockstep(
        [_train_job(config, point, seed, data) for seed, data in data_by_seed.items()],
        epochs=config.epochs,
        learning_rate=config.learning_rate,
        clip_norm=config.clip_norm,
    )
    results = []
    for run, data in zip(runs, data_by_seed.values()):
        try:
            scored: SystemEval | Exception = evaluate(run.model, data["partition"], config.metric, point["label"])
        except Exception as exc:  # noqa: BLE001 - a scoring failure is the eval stage's, not training's
            scored = _portable(exc)
        results.append((run.model, run.epoch_summaries(), scored))
    return results


def _stage_train(config: PipelineConfig, out_dir: Path, state: dict) -> None:
    """Train every (sweep point, seed) job on forked workers (``_fork_map``).

    Each sweep point's jobs, its seeds in ``seeds`` order, form one
    lockstep group, which one worker advances together, one batched SGD
    step at a time; its jobs share one corpus size, so one step count. The
    CPU count sets only how many workers run, so no byte depends on it.
    Workers inherit the per-seed data at fork (the pipeline holds no thread
    of its own by then), so only sweep points go out; each worker scores
    its jobs' models on their seeds' partitions for the eval stage and
    sends back the models, epoch summaries and ``SystemEval``s (or scoring
    errors), from which the parent writes the run directories. A training
    failure cancels the points not yet started; the stage then raises the
    error of the first failed point in sweep order (its first diverged job)
    and writes no run directory.
    """
    from .toy_model import save_model

    points = _sweep_points(config)
    workers = min(len(points), len(os.sched_getaffinity(0)))
    futures = _fork_map(_train_point, (config, state["data"]), points, workers)
    # Points start in sweep order, so no point before a failed one was cancelled.
    for future in futures:
        if not future.cancelled() and future.exception() is not None:
            raise future.exception()
    state["scores"] = {}
    for point, future in zip(points, futures):
        for seed, (model, summaries, scored) in zip(state["data"], future.result()):
            run_dir = out_dir / "runs" / point["label"] / f"seed{seed}"
            save_model(model, run_dir / "model.json")
            write_epochs(summaries, run_dir / "epochs.jsonl")
            state["scores"][(point["label"], seed)] = scored


def _stage_eval(config: PipelineConfig, out_dir: Path, state: dict) -> None:
    """Pool the per-seed scores the train workers computed; the first
    scoring error in sweep and seed order is raised here."""
    state["evals"] = []
    for point in _sweep_points(config):
        label = point["label"]
        per_seed = [state["scores"][(label, seed)] for seed in state["data"]]
        for scored in per_seed:
            if isinstance(scored, Exception):
                raise scored
        pooled = pool_evals(label, config.metric, per_seed)
        state["evals"].append((point, pooled))
        write_eval(pooled, out_dir / "eval" / f"{label}.json", alpha=point["alpha"], n_train=point["size"])


def _stage_report(config: PipelineConfig, out_dir: Path, state: dict) -> None:
    report_dir = out_dir / "report"
    write_report([ev for _, ev in state["evals"]], report_dir, config.metric)
    if len(config.alphas) > 1:
        zoe = [(point["alpha"], ev.splits) for point, ev in state["evals"] if point["system"] == "zoe"]
        series = {
            side: [(alpha, splits[side][0]) for alpha, splits in zoe]
            for side in ("non_biased", "biased")
        }
        report_mod.write_sweep_chart(
            series, report_dir / "alpha_sweep.svg",
            f"{config.metric} vs alpha", "alpha", config.metric,
        )
    if config.train_sizes and len(config.train_sizes) > 1:
        series = {}
        for point, ev in state["evals"]:
            series.setdefault(point["system"], []).append(
                (float(point["size"]), ev.splits["non_biased"][0])
            )
        report_mod.write_sweep_chart(
            series, report_dir / "train_size_sweep.svg",
            f"non-biased {config.metric} vs training size", "training samples", config.metric,
        )


# -- data-mode stages ------------------------------------------------------


def _stage_data_split(config: PipelineConfig, out_dir: Path, state: dict) -> None:
    corpus = load_corpus(config.corpus, config.task)
    shards = split_shards(corpus, config.biased_positions, config.triggers)
    # The whole corpus is the candidate source, as the train split is in toy mode.
    state["data"] = {0: {"train": corpus, "biased": sum(shard.n_biased for shard in shards)}}
    write_split(shards, corpus.samples, out_dir / "split")


def _stage_data_report(config: PipelineConfig, out_dir: Path, state: dict) -> None:
    data = state["data"][0]
    total, biased = len(data["train"]), data["biased"]
    evals = [
        SystemEval(
            system="corpus",
            metric="fraction",
            splits={"biased": (biased / total, biased), "non_biased": ((total - biased) / total, total - biased)},
        )
    ]
    verdicts = data.get("verdicts")
    if verdicts:
        kept = sum(verdict.kept for verdict in verdicts)
        evals.append(
            SystemEval(
                system="align",
                metric="kept_fraction",
                splits={"all": (kept / len(verdicts), len(verdicts))},
            )
        )
    report_mod.write_scores_csv(evals, out_dir / "report" / "report.csv")


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
