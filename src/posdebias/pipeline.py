"""End-to-end orchestration with a checksummed run manifest.

Each mode is one function that runs its stages in order:

* toy mode (``synth``, ``_run_toy``): generate a synthetic corpus, split
  the eval pool, draw low-bias candidates from the stub backend, align
  them, train the configured systems, evaluate, and report;
* data mode (``corpus``, ``_run_data``): split a user corpus, draw and
  align candidates, and report partition and alignment statistics; an NLI
  corpus, whose candidates nothing prunes or trains on, is only split and
  reported.

Each stage is one ``with _stage(...)`` block that hands its results to the
later ones as local variables. ``_stage`` appends the files the block
wrote, with the SHA-256 checksums ``corpus.write_blocks`` took as it wrote
them, to ``manifest.json`` as soon as the block finishes or fails, so a
failed run keeps all artifacts made before the failure and marks the
failing stage.

Stage bodies call plain functions (``corpus_pass``, ``write_split``,
``write_verdicts``, ``pool_evals``, ``write_report``, and
``toy_model.evaluate``) that the CLI verbs call as well: ``corpus_pass`` is
the one pass that splits, infers or aligns a corpus file, for ``run`` and
for the ``split``, ``infer`` and ``align --corpus`` verbs alike. Record
formats live in ``posdebias.records``. Each candidate's verdict is decided
once, by ``msa_align.align_responses`` in ``write_verdicts``; toy training
reads the texts it keeps.
"""
from __future__ import annotations

import dataclasses
import json
import math
import operator
import os
import sys
from concurrent.futures import FIRST_EXCEPTION, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from . import corpus as corpus_mod
from . import report as report_mod
from .backends import BackendError, GenerationResult, StubBackend, StubMode, reads_max_tokens, record_line, resolve_backend
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
from .corpus import Corpus, Sample, SynthSpec, Task, decode_samples, encode_json, join_ranges, json_value, line_ranges, read_text, sample_to_record, save_corpus, write_blocks
from .lowbias_infer import DEFAULT_MAX_TOKENS, DEFAULT_N_PER_PROMPT, build_prompt, default_prompt_spec, generate
from .metrics import METRICS, PositionRow, tokenize
from .msa_align import VERDICTS, AlignmentConfig, Verdict, align_responses, calibrate_threshold, form_reasons, gate_statistic
from .objective import LossConfig
from .records import candidate_line, verdict_head, verdict_tail, write_epochs, write_eval
from .report import SystemEval

if TYPE_CHECKING:
    from .toy_model import EpochSummary, ToyModel


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
    labels = [f"{alpha:g}" for alpha in raw.get("alphas", ())]  # as ``_sweep_points`` labels a zoe point
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"config: alphas[{i}] labels its sweep point zoe@a={label}, as alphas[{labels.index(label)}] does, got {raw['alphas'][i]!r}")
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
    """Run the configured mode, ``_run_toy`` or ``_run_data``, whose every
    stage writes its manifest entry as it finishes or fails (``_stage``);
    returns the manifest dict.

    Configuration problems (missing corpus file, bad mode combinations) are
    raised before any stage runs or any artifact is written. Data mode
    splits, infers and aligns per line range on every usable CPU; toy
    mode runs them in-process, since training reads their objects.
    """
    if (config.synth is None) == (config.corpus is None):
        raise ValueError("run_pipeline: exactly one of synth/corpus must be configured")
    if config.corpus is not None and not Path(config.corpus).exists():
        raise ValueError(f"run_pipeline: corpus path {config.corpus!r} does not exist")
    out_dir = Path(config.out_dir)
    manifest: dict = {"config": _config_echo(config), "stages": []}
    _write_manifest(manifest, out_dir)
    (_run_toy if config.synth is not None else _run_data)(config, out_dir, manifest)
    return manifest


# -- stages, shared by run_pipeline and the CLI verbs ----------------------
#
# Split, infer and align do per-sample work only; the one decision that spans
# samples is the calibrated gate threshold. ``_run_shards`` cuts a corpus
# file's lines (``corpus_pass``; each worker decodes its own), or the samples
# of a ``cqg`` align without a corpus, into contiguous ranges and runs
# ``_shard`` on each in a forked worker (or, for one range, in-process; toy
# mode calls ``_shard`` on its samples directly). A worker encodes its lines,
# one text block per output file, writes the blocks to a part file and sends
# back their lengths and its gate statistics; the parent calibrates on the
# statistics in sample order, decides every verdict at that threshold
# (``align_responses``), completes the verdict lines and writes each file as
# the blocks in range order, read back one range at a time (``Shard.take``).

#: Lines (or samples) per range, which sets what a process holds; a
#: pass over no more runs in-process (two forked ranges win from 200-500 on).
RANGE_LINES = 500


@dataclass(frozen=True)
class _Job:
    """The per-sample work of one pass over ``samples`` or ``source`` (a
    corpus file's path and text): the split's ``(positions, triggers)``;
    the backend, prompt spec and ``generate`` keywords to infer with, and
    whether to build the record lines of that traffic; the ``candidates`` to
    align when nothing is inferred; the gate config. ``None`` skips a part."""

    task: Task
    samples: tuple[Sample, ...] = ()
    source: tuple[Path, str] | None = None
    split: tuple | None = None
    infer: tuple | None = None
    record: bool = False
    candidates: Mapping[str, Sequence[GenerationResult]] | None = None
    align: AlignmentConfig | None = None


#: The text blocks a forked range hands over in its part file, in file order.
#: The evidence lines cross the pipe: ``write_split`` sorts them by id across
#: ranges.
_PART_BLOCKS = ("biased", "non_biased", "candidates", "record", "heads")


@dataclass
class Shard:
    """What a pass yields for one contiguous sample range.

    Each text block holds the range's lines of one output file, each ending
    in a newline: the ``biased``, ``non_biased`` and ``evidence`` lines of
    the split, the ``candidates``, and the ``record`` lines of the backend
    traffic in prompt order (``record_line``). ``heads`` holds the head of
    each candidate's verdict line (``verdict_head``), joined by newlines,
    ``stats`` its gate statistic (an ``array('d')``) and ``reasons`` the
    bits of its threshold-free reasons (``form_reasons``), for
    ``write_verdicts`` to decide (``align_responses``) and complete.
    A forked range holds its ``_PART_BLOCKS`` in the file ``part`` instead,
    at the offset and byte length ``spans`` gives each non-empty one; read
    every block with ``take``. ``n_candidates`` counts the candidates.
    ``error`` is ``(stage, exception)`` for the first failure; no later part
    ran. ``ids`` maps a ``source`` range's ids to their line numbers.
    ``partition`` and ``results`` are the objects; a worker drops them.
    """

    biased: str = ""
    non_biased: str = ""
    evidence: str = ""
    candidates: str = ""
    record: str = ""
    heads: str = ""
    ids: dict[str, int] = field(default_factory=dict)
    n_biased: int = 0
    n_candidates: int = 0
    stats: Sequence[float] = ()
    reasons: bytes = b""
    error: tuple[str, Exception] | None = None
    partition: BiasPartition | None = None
    results: Mapping[str, Sequence[GenerationResult]] | None = None
    part: str | None = None
    spans: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: Removes the part file (``_drop_part``), once: when the last block is
    #: taken, or when the shard dies.
    drop: Callable[[], object] | None = None

    def has(self, name: str) -> bool:
        """Whether block ``name`` holds a line."""
        return bool(getattr(self, name)) or name in self.spans

    def take(self, name: str) -> str:
        """Block ``name``, which the shard then no longer holds: its text, or
        its bytes read back from the part file."""
        text = getattr(self, name)
        setattr(self, name, "")
        if name in self.spans:
            offset, size = self.spans.pop(name)
            with open(self.part, "rb") as handle:
                handle.seek(offset)
                text = handle.read(size).decode("utf-8")
            if not self.spans:
                self.drop()
        return text

    def take_error(self) -> Exception:
        """``error``'s exception, which the shard lets go of: raised, its
        traceback holds the pass, so the pass must not hold it back."""
        exc, self.error = self.error[1], None
        return exc


def _shard(job: _Job, bounds: tuple[int, ...]) -> Shard:
    """Run ``job`` on ``job.samples[lo:hi]``, or on the ``source`` lines
    of one of ``line_ranges``, which a bad line stops. An exception is
    caught and kept with the stage it belongs to."""
    from array import array

    shard = Shard()
    stage = "corpus"
    try:
        if job.source is None:
            lo, hi = bounds
            samples = job.samples[lo:hi]
        else:
            start, end, first_line, lo = bounds
            samples, shard.ids, error = decode_samples(job.source[0], job.source[1][start:end], job.task, first_line)
            if error is not None:
                raise error
        stage = "split"
        if job.split is not None:
            corpus = Corpus(samples, job.task)
            partition = split_corpus(corpus, *job.split)
            shard.biased = _lines(encode_json({**sample_to_record(s), "split": "biased"}) for s in partition.biased)
            shard.non_biased = _lines(encode_json({**sample_to_record(s), "split": "non_biased"}) for s in partition.non_biased)
            shard.evidence = _lines(encode_json(evidence_record(s.id, partition.evidence[s.id])) for s in corpus)
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
            shard.n_candidates, drawn = len(drawn), iter(drawn)
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
            shard.heads, shard.stats, shard.reasons = "\n".join(heads), stats, bytes(reasons)
    except Exception as exc:  # noqa: BLE001 - raised by the stage it belongs to
        shard.error = (stage, exc)
    return shard


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _shard_in_worker(job: _Job, item: tuple[tuple[int, ...], str]) -> Shard:
    """``_shard`` on ``item``'s bounds in a forked worker, without its
    objects, with its ``_PART_BLOCKS`` in the part file ``item[1]``
    (``_spill``) and with its error ``_portable``. A part file that cannot
    be written fails the range at the job's first stage: its blocks are lost."""
    bounds, part = item
    shard = _shard(job, bounds)
    shard.partition = shard.results = None
    try:
        _spill(shard, part)
    except OSError as exc:
        shard.spans = {}
        shard.error = ("split" if job.split else "infer" if job.infer else "align", exc)
    if shard.error is not None:
        shard.error = (shard.error[0], _portable(shard.error[1]))
    return shard


def _spill(shard: Shard, path: str) -> None:
    """Write the shard's non-empty ``_PART_BLOCKS`` one after another to a
    part file at ``path``, noting each one's offset and byte length in
    ``spans``, and drop their text; write no file when all are empty."""
    names = [name for name in _PART_BLOCKS if getattr(shard, name)]
    if not names:
        return
    shard.part, offset = path, 0
    for name in names:
        size = len(getattr(shard, name).encode("utf-8"))
        shard.spans[name], offset = (offset, size), offset + size
    corpus_mod.written = None  # a part file is no artifact: no stage hashes it
    write_blocks([getattr(shard, name) for name in names], path)
    for name in names:
        setattr(shard, name, "")


def _drop_part(path: str) -> None:
    """Remove a part file, if it was written, and then its directory, if no
    other part file is left in it."""
    try:
        os.remove(path)
    except FileNotFoundError:  # the range wrote none
        pass
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:  # another part file is left
        pass


#: The names of what a pass calls per sample. One that wraps another
#: (``functools.wraps`` sets ``__wrapped__``) is a tracer's or a profiler's,
#: recording in this process, where a forked worker's calls never reach.
_PER_SAMPLE = ("split_corpus", "build_prompt", "generate", "gate_statistic", "tokenize", "form_reasons")


def _run_shards(job: _Job) -> list[Shard]:
    """``_shard`` over ranges of ``RANGE_LINES`` of ``job.samples`` or
    ``source`` lines, in order, on forked workers, one per usable CPU
    (``_fork_map``). One range runs in-process, and so does the whole pass
    when its backend does not set ``forks_safely`` or a per-sample function
    is wrapped (``_PER_SAMPLE``). Forked ranges hand their text blocks over
    in part files, in a directory of ``tempfile``'s own
    (``_shard_in_worker``, ``Shard.take``)."""
    n = len(job.samples) if job.source is None else job.source[1].count("\n") + (not job.source[1].endswith("\n"))
    shards = max(1, -(-n // RANGE_LINES))
    if job.infer is not None and not getattr(job.infer[0], "forks_safely", False):
        shards = 1
    if any(hasattr(globals()[name], "__wrapped__") for name in _PER_SAMPLE):
        shards = 1
    bounds = [(n * i // shards, n * (i + 1) // shards) for i in range(shards)]
    if job.source is not None:
        bounds = line_ranges(job.source[1], bounds)
    if shards == 1:
        return [_shard(job, bounds[0])]
    # Imported here, as ``_fork_map`` imports ``multiprocessing``.
    import shutil
    import tempfile
    import weakref

    workers = min(shards, len(os.sched_getaffinity(0)))
    directory = tempfile.mkdtemp(prefix="posdebias-")
    parts = [os.path.join(directory, f"{i}.part") for i in range(shards)]
    try:
        result = [future.result() for future in _fork_map(_shard_in_worker, job, list(zip(bounds, parts)), workers)]
    except BaseException:
        shutil.rmtree(directory, ignore_errors=True)
        raise
    # A part file goes once its last block is taken, else when its shard
    # dies: after a failed stage, with the failure (at the latest at exit).
    for shard, part in zip(result, parts):
        shard.drop = weakref.finalize(shard, _drop_part, part)
        if not shard.spans:
            shard.drop()
    return result


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
            raise shard.take_error()


def corpus_pass(path: str | Path, task: Task, **parts) -> tuple[list[Shard], dict[str, int]]:
    """One pass (``_run_shards``) over the lines of the corpus file at
    ``path``, read once (``read_text``), doing the ``_Job`` ``parts``:
    ``split=(positions, triggers)``; ``infer=(backend, prompt spec,
    generate keywords)``, with ``record=True`` for the traffic's lines; the
    ``candidates`` to align when nothing is inferred; ``align``, the gate
    config. The one way a corpus file is split, inferred or aligned.

    Raises the first bad line in file order, then an empty corpus
    (``join_ranges``); each stage's own errors stay on the shards for the
    caller to raise (``_raise_for``). Returns the shards and the corpus's
    ids with their line numbers, in file order."""
    shards = _run_shards(_Job(task, source=(Path(path), read_text(path)), **parts))
    return shards, join_ranges(path, [(s.ids, s.error[1] if s.error and s.error[0] == "corpus" else None) for s in shards])


def write_split(
    shards: Sequence[Shard],
    ids: Sequence[str],
    out_dir: Path,
    names: tuple[str, str] = ("biased.jsonl", "non_biased.jsonl"),
) -> None:
    """Save each non-empty side of the split of the samples with ``ids``,
    in order, with its split name in every record, plus the evidence JSONL
    in id order; ``names`` are the biased and non-biased file names."""
    for side, name in zip(("biased", "non_biased"), names):
        if any(shard.has(side) for shard in shards):
            write_blocks((shard.take(side) for shard in shards), out_dir / name)
    evidence = "".join(shard.take("evidence") for shard in shards).split("\n")
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    write_blocks((evidence[i] + "\n" for i in by_id), out_dir / "evidence.jsonl")


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
    # One range's heads at a time; a head is JSON, so it holds no raw newline.
    write_blocks(("".join(map(operator.add, shard.take("heads").split("\n"), islice(tails, len(shard.stats)))) for shard in shards), path)
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


# -- the two runs, one ``with _stage`` block per manifest entry ------------
#
# Nothing runs between two blocks, where an exception would escape the
# manifest; per-seed work runs in a helper or a comprehension, so a finished
# stage's objects die with it.


@contextmanager
def _stage(name: str, out_dir: Path, manifest: dict):
    """Run the block as stage ``name``: its files are hashed as they are
    written (``corpus.written``), and its manifest entry, ok or failed, lists
    them, partial ones too. A failure is raised as ``PipelineError``."""
    corpus_mod.written = written = {}
    entry: dict = {"stage": name, "status": "failed"}
    try:
        yield
        entry["status"] = "ok"
    except Exception as exc:  # noqa: BLE001 - every failure must land in the manifest
        entry["error"] = str(exc)
        raise PipelineError(f"stage {name!r} failed: {exc}") from exc
    finally:
        corpus_mod.written = None
        entry["artifacts"] = [{"path": str(p.relative_to(out_dir)), "sha256": h} for p, h in sorted(written.items())]
        manifest["stages"].append(entry)
        _write_manifest(manifest, out_dir)


def _write_candidates(out_dir: Path, seed: int, shards: list[Shard]) -> list[Shard]:
    """Write one seed's candidates JSONL from its pass, whose gate
    statistics and verdict heads ``_align_pass`` reads."""
    write_blocks((shard.take("candidates") for shard in shards), out_dir / "infer" / f"seed{seed}" / "candidates.jsonl")
    return shards


def _align_pass(config: PipelineConfig, out_dir: Path, seed: int, shards: Sequence[Shard]) -> list[Verdict]:
    """Calibrate and decide one seed's verdicts (``write_verdicts``) and
    write its calibration; returns the verdicts in sample order."""
    _raise_for(shards, "align")
    seed_dir = out_dir / "align" / f"seed{seed}"
    threshold, verdicts = write_verdicts(config.task, shards, config.align, seed_dir / "aligned.jsonl")
    calibration = {"calibrated": False} if threshold is None else {"calibrated": True, "threshold": threshold}
    write_blocks([json.dumps(calibration, sort_keys=True)], seed_dir / "calibration.json")
    return verdicts


def _run_toy(config: PipelineConfig, out_dir: Path, manifest: dict) -> None:
    """Toy mode: synthesize each seed's corpora, split its eval pool, draw
    and align candidates from its train split, train every sweep point,
    pool the scores and report."""
    with _stage("synth", out_dir, manifest):
        # Imported here: data mode never loads ``toy_model`` (and numpy).
        from .toy_model import synth_corpus

        corpora = {}  # seed -> (train, eval_biased, eval_nonbiased)
        for seed in config.seeds:
            corpora[seed] = synth_corpus(dataclasses.replace(config.synth, seed=config.synth.seed + seed))
            for name, corpus in zip(("train", "eval_biased", "eval_nonbiased"), corpora[seed]):
                save_corpus(corpus, out_dir / "data" / f"seed{seed}" / f"{name}.jsonl")
    with _stage("split", out_dir, manifest):
        partitions = {seed: _split_eval_pool(config, out_dir, seed, eval_b, eval_n) for seed, (_, eval_b, eval_n) in corpora.items()}
    with _stage("infer", out_dir, manifest):
        passes = {seed: _infer_train(config, out_dir, seed, train) for seed, (train, _, _) in corpora.items()}
    with _stage("align", out_dir, manifest):
        kept = {seed: _kept_texts(config, out_dir, seed, passes.pop(seed)) for seed in config.seeds}
    with _stage("train", out_dir, manifest):
        scores = _train(config, out_dir, {seed: (corpora[seed][0], kept[seed], partitions[seed]) for seed in config.seeds})
    with _stage("eval", out_dir, manifest):
        # The first scoring error in sweep and seed order is raised here.
        evals = []
        for point in _sweep_points(config):
            per_seed = scores[point["label"]]
            for scored in per_seed:
                if isinstance(scored, Exception):
                    raise scored
            pooled = pool_evals(point["label"], config.metric, per_seed)
            evals.append((point, pooled))
            write_eval(pooled, out_dir / "eval" / f"{point['label']}.json", alpha=point["alpha"], n_train=point["size"])
    with _stage("report", out_dir, manifest):
        report_dir = out_dir / "report"
        write_report([ev for _, ev in evals], report_dir, config.metric)
        if len(config.alphas) > 1:
            zoe = [(point["alpha"], ev.splits) for point, ev in evals if point["system"] == "zoe"]
            series = {side: [(alpha, splits[side][0]) for alpha, splits in zoe] for side in ("non_biased", "biased")}
            report_mod.write_sweep_chart(series, report_dir / "alpha_sweep.svg", f"{config.metric} vs alpha", "alpha", config.metric)
        if config.train_sizes and len(config.train_sizes) > 1:
            series = {}
            for point, ev in evals:
                series.setdefault(point["system"], []).append((float(point["size"]), ev.splits["non_biased"][0]))
            report_mod.write_sweep_chart(
                series, report_dir / "train_size_sweep.svg",
                f"non-biased {config.metric} vs training size", "training samples", config.metric,
            )


def _split_eval_pool(config: PipelineConfig, out_dir: Path, seed: int, eval_b: Corpus, eval_n: Corpus) -> BiasPartition:
    """Re-derive one seed's eval partition with the real splitter (not the
    generator's labels) and write its split."""
    pool = Corpus(tuple(eval_b) + tuple(eval_n), config.task)
    shards = [_shard(_Job(config.task, pool.samples, split=(config.biased_positions, config.triggers)), (0, len(pool)))]
    _raise_for(shards, "split")
    write_split(shards, [sample.id for sample in pool], out_dir / "split" / f"seed{seed}", names=("eval_biased.jsonl", "eval_nonbiased.jsonl"))
    return shards[0].partition


def _infer_train(config: PipelineConfig, out_dir: Path, seed: int, train: Corpus) -> list[Shard]:
    """Draw one seed's candidates from its train split, with their gate
    statistics and verdict heads, and write them (``_write_candidates``).
    The default backend looks each prompt up in a table built from the split."""
    from .toy_model import build_lowbias_table

    backend = resolve_backend(config.backend) if config.backend != "table" else StubBackend(
        StubMode.TABLE,
        table=build_lowbias_table(train, garbage_rate=config.garbage_rate, n_candidates=config.n_per_prompt, seed=1009 + seed),
    )
    options = {"n_per_prompt": config.n_per_prompt, "seed": seed, "max_tokens": config.max_tokens, "max_in_flight": 1}
    shards = [_shard(_Job(config.task, train.samples, infer=(backend, default_prompt_spec(config.task), options), align=config.align), (0, len(train)))]
    _raise_for(shards, "infer")
    return _write_candidates(out_dir, seed, shards)


def _kept_texts(config: PipelineConfig, out_dir: Path, seed: int, shards: Sequence[Shard]) -> dict[str, list[str]]:
    """Align one seed's pass (``_align_pass``); returns each sample's kept
    texts, which training reads. Toy ranges run in-process, so they hold
    their results; ``zip`` takes a sample's verdicts after its candidates."""
    verdicts = iter(_align_pass(config, out_dir, seed, shards))
    return {
        sample_id: [c.text for c, verdict in zip(candidates, verdicts) if verdict.kept]
        for shard in shards
        for sample_id, candidates in shard.results.items()
        if candidates
    }


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


def _train_point(inherited: tuple, point: dict) -> list[tuple[ToyModel, list[EpochSummary], SystemEval | Exception]]:
    """Train one sweep point's jobs, one per seed in ``seeds`` order, in
    lockstep: each on its seed's train corpus, cut to the point's size and
    position-perturbed for ``rp``, with its kept texts for ``zoe``. Score
    each trained model on its seed's partition; returns each job's model,
    epoch summaries and ``SystemEval``. A job whose scoring raised carries
    the exception (``_portable``) in place of its ``SystemEval``, for the
    eval stage to raise."""
    from .toy_model import ToyModel, TrainJob, evaluate, train_lockstep

    config, by_seed = inherited
    jobs = []
    for seed, (train_corpus, kept, _) in by_seed.items():
        if point["size"] is not None:
            train_corpus = Corpus(train_corpus.samples[: point["size"]], config.task)
        if point["system"] == "rp":
            train_corpus = Corpus(tuple(perturb_positions(s, seed=seed * 100003 + i) for i, s in enumerate(train_corpus)), config.task)
        aligned = kept if point["system"] == "zoe" else None
        model = ToyModel.initialize(config.synth.vocab_size, seed=seed)
        jobs.append(TrainJob(model, train_corpus, aligned=aligned, config=LossConfig(alpha=point["alpha"]), seed=seed))
    runs = train_lockstep(jobs, epochs=config.epochs, learning_rate=config.learning_rate, clip_norm=config.clip_norm)
    results = []
    for run, (_, _, partition) in zip(runs, by_seed.values()):
        try:
            scored: SystemEval | Exception = evaluate(run.model, partition, config.metric, point["label"])
        except Exception as exc:  # noqa: BLE001 - a scoring failure is the eval stage's, not training's
            scored = _portable(exc)
        results.append((run.model, run.epoch_summaries(), scored))
    return results


def _train(config: PipelineConfig, out_dir: Path, by_seed: dict[int, tuple]) -> dict[str, list[SystemEval | Exception]]:
    """Train every (sweep point, seed) job on forked workers (``_fork_map``),
    write the run directories and return each point's per-seed scores (or
    scoring errors) by label.

    Each point's jobs, one per seed of ``by_seed`` (train corpus, kept
    texts, eval partition) in order, form one lockstep group, which one
    worker advances one batched SGD step at a time, so the CPU count sets
    only how many workers run and no byte depends on it. Workers inherit
    ``by_seed`` at fork, so only sweep points go out. A training failure
    cancels the points not yet started; the first failed point's error (its
    first diverged job) is raised, and no run directory is written.
    """
    from .toy_model import save_model

    points = _sweep_points(config)
    workers = min(len(points), len(os.sched_getaffinity(0)))
    futures = _fork_map(_train_point, (config, by_seed), points, workers)
    # Points start in sweep order, so no point before a failed one was cancelled.
    for future in futures:
        if not future.cancelled() and future.exception() is not None:
            raise future.exception()
    scores = {}
    for point, future in zip(points, futures):
        scores[point["label"]] = []
        for seed, (model, summaries, scored) in zip(by_seed, future.result()):
            run_dir = out_dir / "runs" / point["label"] / f"seed{seed}"
            save_model(model, run_dir / "model.json")
            write_epochs(summaries, run_dir / "epochs.jsonl")
            scores[point["label"]].append(scored)
    return scores


def _run_data(config: PipelineConfig, out_dir: Path, manifest: dict) -> None:
    """Data mode: one pass over the corpus file's lines (``corpus_pass``)
    splits, infers and aligns; each stage raises its errors from it (split
    the corpus's first) and writes its files, and the report counts. An nli
    run, whose candidates nothing prunes or trains on, only splits."""
    with _stage("split", out_dir, manifest):
        backend = unresolved = None
        if config.task != Task.NLI:
            try:
                backend = resolve_backend(config.backend)
            except ValueError as exc:  # the infer stage's failure, as when that stage resolved it
                unresolved = exc
        options = {"n_per_prompt": config.n_per_prompt, "seed": 0, "max_tokens": config.max_tokens, "max_in_flight": 1}
        shards, ids = corpus_pass(
            config.corpus, config.task, split=(config.biased_positions, config.triggers),
            infer=None if backend is None else (backend, default_prompt_spec(config.task), options),
            align=None if backend is None else config.align,
        )
        _raise_for(shards, "split")
        biased = sum(shard.n_biased for shard in shards)
        write_split(shards, list(ids), out_dir / "split")
        verdicts: list[Verdict] = []  # what align decides; an nli run has no align stage
    if config.task != Task.NLI:
        with _stage("infer", out_dir, manifest):
            if unresolved is not None:
                raise unresolved
            _raise_for(shards, "infer")
            _write_candidates(out_dir, 0, shards)
        with _stage("align", out_dir, manifest):
            verdicts = _align_pass(config, out_dir, 0, shards)
            del shards
    with _stage("report", out_dir, manifest):
        total = len(ids)
        evals = [SystemEval("corpus", "fraction", {"biased": (biased / total, biased), "non_biased": ((total - biased) / total, total - biased)})]
        if verdicts:
            kept = sum(verdict.kept for verdict in verdicts)
            evals.append(SystemEval("align", "kept_fraction", {"all": (kept / len(verdicts), len(verdicts))}))
        report_mod.write_scores_csv(evals, out_dir / "report" / "report.csv")
