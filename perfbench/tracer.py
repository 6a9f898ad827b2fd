"""In-memory span tracer that instruments posdebias from the outside.

The tracer rebinds module-level names (``posdebias.pipeline.train``,
``posdebias.bias_split.rouge_l``, ...) and class attributes
(``StubBackend.complete``) to wrappers that record a span or bump a counter,
and puts the originals back on ``restore``. Rebinding is by identity: every
``posdebias.*`` module attribute that *is* a traced function gets the
wrapper, so a call is seen whichever module makes it. Nothing under ``src/``
knows about tracing.

A span is ``(id, name, start, end, parent)``; every span of one traced run
shares the run id the tracer was created with. A layer is the module named
before the first dot of a span name. A span's self time is its duration
minus the part of its interval that child spans cover; children running on
worker threads may overlap, so the covered part is the union of their
intervals.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

#: The program's modules; each is one layer of the per-layer breakdown.
LAYERS = (
    "pipeline",
    "cli",
    "corpus",
    "bias_split",
    "metrics",
    "lowbias_infer",
    "backends",
    "msa_align",
    "objective",
    "toy_model",
    "report",
)

#: Per-layer metrics a traced run reports, with their units, in output order.
PER_LAYER = (
    ("toy_model.train_s", "s"),
    ("toy_model.train_steps", "count"),
    ("toy_model.step_us", "us"),
    ("objective.combined_loss_calls", "count"),
    ("toy_model.evaluate_s", "s"),
    ("toy_model.decode_calls", "count"),
    ("toy_model.synth_s", "s"),
    ("toy_model.lowbias_table_s", "s"),
    ("bias_split.split_s", "s"),
    ("bias_split.ground_calls", "count"),
    ("bias_split.ground_us", "us"),
    ("metrics.rouge_l_calls", "count"),
    ("metrics.rouge_l_s", "s"),
    ("metrics.tokenize_calls", "count"),
    ("metrics.tokenize_per_rouge", "ratio"),
    ("metrics.lcs_calls", "count"),
    ("metrics.lcs_cells", "count"),
    ("lowbias_infer.generate_s", "s"),
    ("lowbias_infer.generate_calls", "count"),
    ("lowbias_infer.pools_created", "count"),
    ("lowbias_infer.build_prompt_s", "s"),
    ("backends.complete_calls", "count"),
    ("backends.complete_us", "us"),
    ("backends.record_s", "s"),
    ("backends.record_lines_bad", "count"),
    ("msa_align.align_s", "s"),
    ("msa_align.gate_statistic_s", "s"),
    ("msa_align.calibrate_s", "s"),
    ("msa_align.candidates", "count"),
    ("msa_align.kept", "count"),
    ("msa_align.keep_fraction", "ratio"),
    ("msa_align.target_keep_fraction", "ratio"),
    ("msa_align.rejected.unreliable", "count"),
    ("corpus.load_s", "s"),
    ("corpus.save_s", "s"),
    ("corpus.save_calls", "count"),
    ("report.write_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
)


class Tracer:
    """Records spans and counters; ``install``/``restore`` patch the program."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.counts: Counter = Counter()
        self.target_keep_fraction = 0.0
        self._name_index: dict[str, int] = {}
        self._ids = itertools.count()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap_span(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, kwargs, result)``
        runs outside the span to take counts from the call."""
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_index[name]
        main_stack = self._main_stack
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's first span was caused by whatever the main
            # thread has open (``generate`` fanning out to its pool).
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else -1
            span_id = next(ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name_id, start, end, parent))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_count(self, name: str, fn, weight=None):
        """``fn`` counting its calls (and ``weight(args)`` under ``name + '_cells'``)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            if weight is not None:
                counts[name + "_cells"] += weight(args)
            return fn(*args, **kwargs)

        return counted

    # -- patching --------------------------------------------------------

    def patch_everywhere(self, fn, wrapper) -> None:
        """Rebind every ``posdebias.*`` module attribute that is ``fn``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("posdebias"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Instrument every layer boundary the benchmark workloads cross."""
        from posdebias import (
            backends,
            bias_split,
            corpus,
            lowbias_infer,
            metrics,
            msa_align,
            objective,
            pipeline,
            report,
            toy_model,
        )

        spans = {
            pipeline.run_pipeline: "pipeline.run",
            toy_model.synth_corpus: "toy_model.synth",
            toy_model.build_lowbias_table: "toy_model.lowbias_table",
            toy_model.evaluate: "toy_model.evaluate",
            toy_model.save_model: "toy_model.save_model",
            bias_split.split_by_relative_position: "bias_split.split",
            bias_split.split_by_lead_bias: "bias_split.split",
            bias_split.split_by_lexical_bias: "bias_split.split",
            bias_split.ground_response: "bias_split.ground",
            bias_split.write_evidence: "bias_split.write_evidence",
            bias_split.perturb_positions: "bias_split.perturb",
            corpus.load_corpus: "corpus.load",
            corpus.save_corpus: "corpus.save",
            lowbias_infer.default_prompt_spec: "lowbias_infer.prompt_spec",
            lowbias_infer.build_prompt: "lowbias_infer.build_prompt",
            lowbias_infer.generate: "lowbias_infer.generate",
            msa_align.gate_statistic: "msa_align.gate_statistic",
            metrics.rouge_l: "metrics.rouge_l",
            objective.combined_loss: "objective.combined_loss",
            backends.resolve_backend: "backends.resolve",
            report.write_scores_csv: "report.write",
            report.write_position_csv: "report.write",
            report.write_split_chart: "report.write",
            report.write_position_chart: "report.write",
            report.write_sweep_chart: "report.write",
        }
        for fn, name in spans.items():
            self.patch_everywhere(fn, self.wrap_span(name, fn))
        self.patch_everywhere(
            toy_model.train, self.wrap_span("toy_model.train", toy_model.train, self._after_train)
        )
        self.patch_everywhere(
            msa_align.align_responses,
            self.wrap_span("msa_align.align", msa_align.align_responses, self._after_align),
        )
        self.patch_everywhere(
            msa_align.calibrate_threshold,
            self.wrap_span("msa_align.calibrate", msa_align.calibrate_threshold),
        )
        self.patch_everywhere(metrics.tokenize, self.wrap_count("metrics.tokenize", metrics.tokenize))
        self.patch_everywhere(
            metrics.lcs_length,
            self.wrap_count("metrics.lcs", metrics.lcs_length, lambda a: len(a[0]) * len(a[1])),
        )
        self.patch_everywhere(
            toy_model.generate_response,
            self.wrap_count("toy_model.decode", toy_model.generate_response),
        )
        self.patch_everywhere(
            lowbias_infer.ThreadPoolExecutor,
            self.wrap_count("lowbias_infer.pools", lowbias_infer.ThreadPoolExecutor),
        )
        self.patch_attr(
            backends.StubBackend,
            "complete",
            self.wrap_span("backends.complete", backends.StubBackend.complete),
        )
        self.patch_attr(
            backends.RecordingBackend,
            "complete",
            self.wrap_span("backends.record", backends.RecordingBackend.complete),
        )

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _after_train(self, args, kwargs, result) -> None:
        _, trace = result
        self.counts["toy_model.train_steps"] += len(trace)

    def _after_align(self, args, kwargs, result) -> None:
        config = kwargs.get("config", args[3] if len(args) > 3 else None)
        self.target_keep_fraction = config.target_keep_fraction
        for verdict in result:
            self.counts["msa_align.candidates"] += 1
            self.counts["msa_align.kept"] += verdict.kept
            for reason in verdict.rejection_reasons:
                self.counts[f"msa_align.rejected.{reason.value}"] += 1

    # -- output ----------------------------------------------------------

    def write_spans(self, path: Path, origin: float) -> None:
        """Spans as TSV, times in seconds from ``origin``."""
        with path.open("w", encoding="utf-8") as handle:
            handle.write("run\tid\tname\tstart_s\tend_s\tparent\n")
            for span_id, name_id, start, end, parent in sorted(self.spans):
                handle.write(
                    f"{self.run_id}\t{span_id}\t{self.names[name_id]}\t"
                    f"{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Every traced ``PER_LAYER`` value except those the caller measures
        (record-file lines and tracing overhead)."""
        named = [(self.names[n], start, end) for _, n, start, end, _ in self.spans]
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end in named:
            total[name] += end - start
            calls[name] += 1
        name_self: dict[str, float] = defaultdict(float)
        for (name, _, _), own in zip(named, self_times(self.spans)):
            name_self[name] += own
        layer_self: dict[str, float] = defaultdict(float)
        for name, own in name_self.items():
            layer_self[name.split(".", 1)[0]] += own
        c = self.counts
        steps = c["toy_model.train_steps"]
        out = {
            "toy_model.train_s": total["toy_model.train"],
            "toy_model.train_steps": steps,
            "toy_model.step_us": _ratio(total["toy_model.train"] * 1e6, steps),
            "objective.combined_loss_calls": calls["objective.combined_loss"],
            "toy_model.evaluate_s": total["toy_model.evaluate"],
            "toy_model.decode_calls": c["toy_model.decode"],
            "toy_model.synth_s": total["toy_model.synth"],
            "toy_model.lowbias_table_s": total["toy_model.lowbias_table"],
            "bias_split.split_s": total["bias_split.split"],
            "bias_split.ground_calls": calls["bias_split.ground"],
            "bias_split.ground_us": _ratio(
                total["bias_split.ground"] * 1e6, calls["bias_split.ground"]
            ),
            "metrics.rouge_l_calls": calls["metrics.rouge_l"],
            "metrics.rouge_l_s": total["metrics.rouge_l"],
            "metrics.tokenize_calls": c["metrics.tokenize"],
            "metrics.tokenize_per_rouge": _ratio(c["metrics.tokenize"], calls["metrics.rouge_l"]),
            "metrics.lcs_calls": c["metrics.lcs"],
            "metrics.lcs_cells": c["metrics.lcs_cells"],
            "lowbias_infer.generate_s": total["lowbias_infer.generate"],
            "lowbias_infer.generate_calls": calls["lowbias_infer.generate"],
            "lowbias_infer.pools_created": c["lowbias_infer.pools"],
            "lowbias_infer.build_prompt_s": total["lowbias_infer.build_prompt"],
            "backends.complete_calls": calls["backends.complete"],
            "backends.complete_us": _ratio(
                total["backends.complete"] * 1e6, calls["backends.complete"]
            ),
            "backends.record_s": name_self["backends.record"],
            "msa_align.align_s": total["msa_align.align"],
            "msa_align.gate_statistic_s": total["msa_align.gate_statistic"],
            "msa_align.calibrate_s": total["msa_align.calibrate"],
            "msa_align.candidates": c["msa_align.candidates"],
            "msa_align.kept": c["msa_align.kept"],
            "msa_align.keep_fraction": _ratio(c["msa_align.kept"], c["msa_align.candidates"]),
            "msa_align.target_keep_fraction": self.target_keep_fraction,
            "msa_align.rejected.unreliable": c["msa_align.rejected.unreliable"],
            "corpus.load_s": total["corpus.load"],
            "corpus.save_s": total["corpus.save"],
            "corpus.save_calls": calls["corpus.save"],
            "report.write_s": total["report.write"],
            "trace.spans": len(self.spans),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def covered_length(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans) -> list[float]:
    """Self time of each span, in the order given."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent in spans:
        children[parent].append((start, end))
    return [
        (end - start) - covered_length(children.get(span_id, ()), start, end)
        for span_id, _, start, end, _ in spans
    ]
