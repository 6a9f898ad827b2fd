"""Command-line interface.

Verbs mirror the pipeline stages so each can be run standalone on JSONL
artifacts, plus ``run`` for the full configured pipeline. Each verb parses
its options, calls the stage function in ``posdebias.pipeline`` and the
record codec in ``posdebias.records``, and prints one line. ``split``,
``infer`` and ``align --corpus`` run ``run``'s own pass over the corpus
file (``pipeline.corpus_pass``), each range decoding its own lines.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from .backends import BackendError, reads_max_tokens, resolve_backend
from .bias_split import BIAS_BY_TASK, DEFAULT_BIASED_POSITIONS, DEFAULT_LEXICAL_TRIGGERS, BiasKind, split_by_relative_position
from .corpus import CorpusError, Sample, SynthSpec, Task, load_corpus, parse_json, read_text, write_blocks
from .lowbias_infer import DEFAULT_MAX_TOKENS, DEFAULT_N_PER_PROMPT, DEFAULT_STRATEGY_BY_TASK, PromptStrategy, default_prompt_spec
from .metrics import METRICS
from .msa_align import DEFAULT_CANDIDATE_THRESHOLDS, AlignmentConfig
from .objective import LossConfig
from .pipeline import (
    CONFIG_SCHEMA,
    PipelineConfig,
    PipelineError,
    _Job,
    _raise_for,
    _run_shards,
    check_words,
    corpus_pass,
    parse_config,
    run_pipeline,
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


class _Finite(click.FloatRange):
    """A ``FloatRange`` that also rejects nan and infinity: nan fails no
    bound's comparison, and a range open above takes infinity."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{number} is not a finite number.", param, ctx)
        return number


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
    biased_positions = DEFAULT_BIASED_POSITIONS if positions is None else _positions(positions)
    words = DEFAULT_LEXICAL_TRIGGERS
    if triggers is not None:
        words = tuple(t.strip() for t in triggers.split(",") if t.strip())
        if not words:
            _fail(f"bad --triggers {triggers!r}; expected comma-separated words like 'not,never'")
    try:
        check_words("split: --triggers", words)
        shards, ids = corpus_pass(corpus_path, task, split=(biased_positions, words))
        _raise_for(shards, "split")
    except (CorpusError, ValueError) as exc:
        _fail(str(exc))
    out = Path(out_dir)
    write_split(shards, list(ids), out)
    biased = sum(shard.n_biased for shard in shards)
    click.echo(f"split: {biased} biased, {len(ids) - biased} non-biased -> {out}")


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
    strategy = PromptStrategy(strategy) if strategy else DEFAULT_STRATEGY_BY_TASK[task]
    options = {"n_per_prompt": n_per_prompt, "seed": seed, "max_tokens": max_tokens or DEFAULT_MAX_TOKENS, "max_in_flight": max_in_flight}
    try:
        engine = resolve_backend(backend)
        # ICL draws its exemplars from the whole corpus: the one verb input the parent decodes.
        spec = default_prompt_spec(task, load_corpus(corpus_path, task) if strategy == PromptStrategy.ICL else None, strategy)
        shards, _ = corpus_pass(corpus_path, task, infer=(engine, spec, options), record=record_path is not None)
        if record_path is not None:  # the traffic of the ranges up to the first failing prompt
            failed = [i for i, shard in enumerate(shards) if shard.error is not None and shard.error[0] == "infer"]
            write_blocks((shard.take("record") for shard in shards[: failed[0] + 1 if failed else None]), record_path)
        _raise_for(shards, "infer")
    except (CorpusError, BackendError, ValueError) as exc:
        _fail(str(exc))
    out = write_blocks((shard.take("candidates") for shard in shards), Path(out_path))
    total = sum(shard.n_candidates for shard in shards)
    click.echo(f"infer: {total} candidates -> {out}")


@main.command()
@click.option("--candidates", "candidates_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--task", "task_name", required=True)
@click.option("--corpus", "corpus_path", default=None, type=click.Path(exists=True, dir_okay=False), help="Required for tasks whose gates compare against the target.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--threshold", "thresholds", multiple=True, type=_Finite(0, 1, min_open=True, max_open=True), default=DEFAULT_CANDIDATE_THRESHOLDS, show_default=True, help="Candidate gate threshold; repeatable, one fixes it.")
def align(candidates_path, task_name, corpus_path, out_path, thresholds):
    """Filter candidates with the task's rejection gates.

    The gate threshold is the candidate whose keep fraction is nearest the
    target. Verdicts follow the order of --corpus, or of the candidates file
    when question generation runs without a corpus.
    """
    task = _task(task_name)
    if task == Task.NLI:
        _fail("align: nli candidates are not pruned; no alignment file to produce")
    if not corpus_path and task != Task.CQG:
        _fail(f"align: --corpus is required for task {task.value!r} (gates compare against targets)")
    try:
        candidates = load_candidates(candidates_path)
        config = AlignmentConfig(candidate_thresholds=thresholds)
        if corpus_path:  # the workers inherit ``candidates`` at fork
            shards, ids = corpus_pass(corpus_path, task, candidates=candidates, align=config)
            unknown = sorted(set(candidates).difference(ids))
            if unknown:
                raise ValueError(f"align: candidate sample id {unknown[0]!r} not in corpus")
        else:  # question-generation gates never look at the reference target
            samples = tuple(Sample(id=sid, task=task, target="") for sid in candidates)
            shards = _run_shards(_Job(task, samples, candidates=candidates, align=config))
        _raise_for(shards, "align")
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
@click.option("--alpha", default=0.0, show_default=True, type=_Finite(0, 1))
@click.option("--epochs", default=PipelineConfig.epochs, show_default=True, type=click.IntRange(min=0))
@click.option("--learning-rate", default=PipelineConfig.learning_rate, show_default=True, type=_Finite(min=0))
@click.option("--clip-norm", default=PipelineConfig.clip_norm, show_default=True, type=_Finite(min=0, min_open=True))
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
    def configure(raw: object) -> PipelineConfig:  # parse_config names a top level other than an object
        return parse_config({**raw, "out_dir": out_dir} if out_dir and isinstance(raw, dict) else raw)

    try:  # a bad config fails naming the file, before any stage runs
        config = parse_json(read_text(config_path), config_path, configure)
        manifest = run_pipeline(config)
    except (PipelineError, CorpusError, ValueError) as exc:
        _fail(str(exc))
    stages = ", ".join(s["stage"] for s in manifest["stages"] if s["status"] == "ok")
    click.echo(f"run: completed stages [{stages}] -> {config.out_dir}/manifest.json")


if __name__ == "__main__":
    sys.exit(main())
