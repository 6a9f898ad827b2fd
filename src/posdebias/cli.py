"""Command-line interface.

Verbs mirror the pipeline stages so each can be run standalone on JSONL
artifacts, plus ``run`` for the full configured pipeline. Each verb parses
its options, calls the stage function in ``posdebias.pipeline`` and the
record codec in ``posdebias.records``, and prints one line.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .backends import BackendError, reads_max_tokens, resolve_backend
from .bias_split import BIAS_BY_TASK, DEFAULT_BIASED_POSITIONS, DEFAULT_LEXICAL_TRIGGERS, BiasKind, split_by_relative_position
from .corpus import CorpusError, Sample, SynthSpec, Task, load_corpus, write_blocks
from .lowbias_infer import DEFAULT_MAX_TOKENS, DEFAULT_N_PER_PROMPT, PromptStrategy
from .metrics import METRICS
from .msa_align import DEFAULT_CANDIDATE_THRESHOLDS, AlignmentConfig
from .objective import LossConfig
from .pipeline import (
    CONFIG_SCHEMA,
    PipelineConfig,
    PipelineError,
    align_shards,
    check_words,
    infer_shards,
    parse_config,
    run_pipeline,
    split_shards,
    write_report,
    write_split,
    write_verdicts,
)
from .records import load_aligned, load_candidates, load_eval, write_epochs, write_eval

#: ``--positions`` default of ``split`` and ``eval``.
_DEFAULT_POSITIONS = ",".join(map(str, sorted(DEFAULT_BIASED_POSITIONS)))


def _fail(message: str) -> None:
    raise click.ClickException(message)


def _task(value: str) -> Task:
    try:
        return Task(value)
    except ValueError:
        _fail(f"unknown task {value!r}; expected one of {[t.value for t in Task]}")


def _positions(value: str) -> frozenset[int]:
    try:
        positions = frozenset(int(part) for part in value.split(",") if part.strip())
    except ValueError:
        positions = frozenset()
    if not positions:
        _fail(f"bad --positions {value!r}; expected comma-separated integers like '0,1'")
    return positions


@click.group()
def main() -> None:
    """Position-debiasing toolkit: split, infer, align, train, evaluate, report."""


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--task", "task_name", required=True)
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--positions", default=None, help=f"Biased relative positions (cqa, cqg).  [default: {_DEFAULT_POSITIONS}]")
@click.option("--triggers", default=None, help=f"Comma-separated lexical triggers (nli).  [default: {','.join(DEFAULT_LEXICAL_TRIGGERS)}]")
def split(corpus_path, task_name, out_dir, positions, triggers):
    """Partition a corpus into biased / non-biased subsets with evidence, by
    the task's bias kind: relative position (cqa, cqg), lead (sum, kgc) or lexical (nli)."""
    task = _task(task_name)
    kind = BIAS_BY_TASK[task]
    # Each option is read by one bias kind only, as parse_config reads its keys.
    for option, value, reader in (("--positions", positions, BiasKind.RELATIVE_POSITION), ("--triggers", triggers, BiasKind.LEXICAL)):
        if value is not None and reader != kind:
            _fail(f"split: {option} is not read by a {task.value} split (bias kind {kind.value})")
    options = {}
    if positions is not None:
        options["positions"] = _positions(positions)
    if triggers is not None:
        options["triggers"] = tuple(t.strip() for t in triggers.split(",") if t.strip())
        if not options["triggers"]:
            _fail(f"bad --triggers {triggers!r}; expected comma-separated words like 'not,never'")
    try:
        check_words("split: --triggers", options.get("triggers", ()))
        corpus = load_corpus(corpus_path, task)
        shards = split_shards(corpus, **options)
    except (CorpusError, ValueError) as exc:
        _fail(str(exc))
    out = Path(out_dir)
    write_split(shards, corpus.samples, out)
    biased = sum(shard.n_biased for shard in shards)
    click.echo(f"split: {biased} biased, {len(corpus) - biased} non-biased -> {out}")


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--task", "task_name", required=True)
@click.option("--backend", default="markov", show_default=True, help="echo | markov | table:FILE | replay:FILE | url:ENDPOINT")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--n-per-prompt", default=DEFAULT_N_PER_PROMPT, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--max-tokens", default=None, type=click.IntRange(min=1), help=f"Longest candidate in tokens (markov, replay, url).  [default: {DEFAULT_MAX_TOKENS}]")
@click.option("--max-in-flight", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--strategy", default=None, type=click.Choice([s.value for s in PromptStrategy]))
@click.option("--record", "record_path", default=None, type=click.Path(dir_okay=False), help="Write the raw backend traffic to this JSONL file, in prompt order.")
def infer(corpus_path, task_name, backend, out_path, n_per_prompt, seed, max_tokens, max_in_flight, strategy, record_path):
    """Generate low-bias candidate responses for every sample."""
    task = _task(task_name)
    # Only backends that cap a length read it, as parse_config reads max_tokens.
    if max_tokens is not None and not reads_max_tokens(backend):
        _fail(f"infer: --max-tokens is not read by backend {backend!r}")
    try:
        engine = resolve_backend(backend)
        corpus = load_corpus(corpus_path, task)
        shards = infer_shards(
            corpus,
            engine,
            n_per_prompt=n_per_prompt,
            seed=seed,
            max_tokens=max_tokens or DEFAULT_MAX_TOKENS,
            strategy=strategy,
            max_in_flight=max_in_flight,
            record=record_path,
        )
    except (CorpusError, BackendError, ValueError) as exc:
        _fail(str(exc))
    out = write_blocks((shard.candidates for shard in shards), Path(out_path))
    total = sum(shard.candidates.count("\n") for shard in shards)
    click.echo(f"infer: {total} candidates -> {out}")


@main.command()
@click.option("--candidates", "candidates_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--task", "task_name", required=True)
@click.option("--corpus", "corpus_path", default=None, type=click.Path(exists=True, dir_okay=False), help="Required for tasks whose gates compare against the target.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--threshold", "thresholds", multiple=True, type=float, default=DEFAULT_CANDIDATE_THRESHOLDS, show_default=True, help="Candidate gate threshold; repeatable, one fixes it.")
def align(candidates_path, task_name, corpus_path, out_path, thresholds):
    """Filter candidates with the task's rejection gates.

    The gate threshold is the candidate whose keep fraction is nearest the
    target. Verdicts follow the order of --corpus, or of the candidates file
    when question generation runs without a corpus.
    """
    task = _task(task_name)
    if task == Task.NLI:
        _fail("align: nli candidates are not pruned; no alignment file to produce")
    try:
        candidates = load_candidates(candidates_path)
        if corpus_path:
            samples = load_corpus(corpus_path, task).samples
        elif task == Task.CQG:
            # Question-generation gates never look at the reference target.
            samples = tuple(Sample(id=sid, task=task, target="") for sid in candidates)
        else:
            _fail(f"align: --corpus is required for task {task.value!r} (gates compare against targets)")
        config = AlignmentConfig(candidate_thresholds=thresholds)
        shards = align_shards(task, samples, candidates, config)
    except (CorpusError, ValueError) as exc:
        _fail(str(exc))
    if not any(shard.stats for shard in shards):
        _fail("align: no candidates matched the corpus; nothing to calibrate")
    out = Path(out_path)
    threshold, verdicts = write_verdicts(task, shards, config, out)
    click.echo(f"align: calibrated threshold {threshold:g}")
    click.echo(f"align: kept {sum(verdict.kept for verdict in verdicts)}/{len(verdicts)} candidates -> {out}")


@main.command("train-toy")
@click.option("--train", "train_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--task", "task_name", default="cqa", show_default=True)
@click.option("--aligned", "aligned_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--alpha", default=0.0, show_default=True, type=click.FloatRange(0, 1))
@click.option("--epochs", default=PipelineConfig.epochs, show_default=True, type=click.IntRange(min=0))
@click.option("--learning-rate", default=PipelineConfig.learning_rate, show_default=True, type=click.FloatRange(min=0))
@click.option("--clip-norm", default=PipelineConfig.clip_norm, show_default=True, type=click.FloatRange(min=0, min_open=True))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--vocab-size", default=SynthSpec.vocab_size, show_default=True, type=int)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--trace", "trace_path", default=None, type=click.Path(dir_okay=False), help="Write the epoch summaries (epochs JSONL) here.")
def train_toy(train_path, task_name, aligned_path, alpha, epochs, learning_rate, clip_norm, seed, vocab_size, out_path, trace_path):
    """Train the toy sequence model, optionally with an alignment loss term."""
    task = _task(task_name)
    # The align term weighs alpha and reads the aligned responses: each needs the other.
    if aligned_path and alpha == 0:
        _fail("train-toy: --aligned is not read with --alpha 0")
    if alpha != 0 and not aligned_path:
        _fail(f"train-toy: --alpha {alpha:g} is not read without --aligned")
    # Imported here: only the train-toy and eval verbs need numpy, and a
    # module-level import slows every ``posdebias`` start-up.
    from .toy_model import ToyModel, save_model, train

    try:
        corpus = load_corpus(train_path, task)
        aligned = load_aligned(aligned_path) if aligned_path else None
        unknown = sorted(set(aligned or ()) - {s.id for s in corpus})
        if unknown:
            raise ValueError(f"train-toy: aligned sample id {unknown[0]!r} not in --train")
        trained, summaries = train(
            ToyModel.initialize(vocab_size, seed=seed),
            corpus,
            aligned=aligned,
            config=LossConfig(alpha=alpha),
            epochs=epochs,
            learning_rate=learning_rate,
            clip_norm=clip_norm,
            seed=seed,
        )
    except (CorpusError, ValueError) as exc:
        _fail(str(exc))
    save_model(trained, out_path)
    if trace_path:
        write_epochs(summaries, trace_path)
    final = summaries[-1].combined if summaries else float("nan")
    click.echo(f"train-toy: {len(summaries)} epochs, final epoch loss {final:.6f} -> {out_path}")


@main.command("eval")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False), help="Evaluation pool; re-split by relative position.")
@click.option("--task", "task_name", default="cqa", show_default=True)
@click.option("--metric", default=PipelineConfig.metric, show_default=True, type=click.Choice(METRICS))
@click.option("--positions", default=_DEFAULT_POSITIONS, show_default=True)
@click.option("--system", default="model", show_default=True, help="Label used in the report row.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def eval_cmd(model_path, corpus_path, task_name, metric, positions, system, out_path):
    """Evaluate a trained model on the biased / non-biased partition."""
    task = _task(task_name)
    biased_positions = _positions(positions)
    from .toy_model import evaluate, load_model

    try:
        model = load_model(model_path)
        corpus = load_corpus(corpus_path, task)
        partition = split_by_relative_position(corpus, biased_positions)
        result = evaluate(model, partition, metric, system)
    except (CorpusError, ValueError) as exc:
        _fail(str(exc))
    out = write_eval(result, out_path)
    shown = ", ".join(f"{k}={score:.4f}" for k, (score, _) in sorted(result.splits.items()))
    click.echo(f"eval: {shown} -> {out}")


@main.command()
@click.argument("eval_files", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def report(eval_files, out_dir):
    """Combine eval JSON files of one metric, one per system, into CSV tables and SVG charts."""
    try:
        evals = [load_eval(path) for path in eval_files]
    except ValueError as exc:
        _fail(f"report: bad eval file: {exc}")
    for path, ev in zip(eval_files, evals):
        if not ev.splits:
            _fail(f"report: eval file {path} has no split scores to report")
    if len({ev.metric for ev in evals}) > 1 or len({ev.system for ev in evals}) < len(evals):
        shown = ", ".join(f"{path} ({ev.system}, {ev.metric})" for path, ev in zip(eval_files, evals))
        _fail(f"report: eval files must score one metric and name each system once: {shown}")
    out = Path(out_dir)
    write_report(evals, out, evals[0].metric)
    click.echo(f"report: {len(evals)} systems -> {out}")


@main.command()
@click.option("--config", "config_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", default=None, type=click.Path(file_okay=False), help="Override the configured output directory.")
@click.option("--print-schema", is_flag=True, help="Print the config schema and exit.")
def run(config_path, out_dir, print_schema):
    """Run the full pipeline from a JSON config file."""
    if print_schema:
        click.echo(json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True))
        return
    if not config_path:
        _fail("run: --config is required (or use --print-schema)")
    try:
        raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        _fail(f"run: config is not valid JSON: {exc}")
    if out_dir and isinstance(raw, dict):  # parse_config names any other top level
        raw["out_dir"] = out_dir
    try:
        config = parse_config(raw)
        manifest = run_pipeline(config)
    except (PipelineError, CorpusError, ValueError) as exc:
        _fail(str(exc))
    stages = ", ".join(s["stage"] for s in manifest["stages"] if s["status"] == "ok")
    click.echo(f"run: completed stages [{stages}] -> {config.out_dir}/manifest.json")


if __name__ == "__main__":
    sys.exit(main())
