"""End-to-end pipeline and CLI tests on small corpora."""
import dataclasses
import hashlib
import inspect
import json
import math
import multiprocessing
import os
import re
import tempfile
from pathlib import Path
from statistics import mean

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import nli_sample
from oracles import aligned_jsonl, candidates_jsonl
from test_msa_align import align_corpus
from posdebias import corpus as corpus_mod
from posdebias import lowbias_infer, msa_align, pipeline, toy_model
from posdebias.backends import BACKEND_URL_ENV, BackendError, StubBackend, StubMode
from posdebias.bias_split import BIAS_BY_TASK, BiasKind
from posdebias.cli import main
from posdebias.corpus import Corpus, Task, load_corpus, save_corpus, write_blocks
from posdebias.lowbias_infer import DEFAULT_DIVERSE_PROMPTS, DEFAULT_ICL_K, build_prompt, default_prompt_spec
from posdebias.msa_align import AlignmentConfig
from posdebias.objective import LossConfig
from posdebias.pipeline import (
    CONFIG_SCHEMA,
    PipelineConfig,
    PipelineError,
    infer_shards,
    parse_config,
    run_pipeline,
)
from posdebias.records import load_aligned, write_epochs
from posdebias.toy_model import (
    SynthSpec,
    ToyModel,
    TrainingDivergedError,
    TrainJob,
    build_lowbias_table,
    save_model,
    synth_corpus,
    train,
    train_lockstep,
)

TOY_RAW = {
    "synth": {"n_utterances": 6, "n_train": 12, "n_eval": 12, "biased_fraction": 0.9, "vocab_size": 12, "seed": 0},
    "seeds": [0, 1],
    "systems": ["ft", "zoe", "rp"],
    "epochs": 2,
    "learning_rate": 0.5,
    "n_per_prompt": 3,
}


#: ``table:FILE`` entries that fail when the file is read, each with the error it names.
BAD_TABLE_ENTRIES = pytest.mark.parametrize(
    "entry, message",
    [
        ({"token_logprobs": [-0.5]}, "missing field 'text'"),
        ({"text": ["a"]}, "field 'text' has the wrong type"),
        ([], "empty list"),
        ({"text": "a", "token_logprobs": [0.5]}, "invalid token logprob 0.5"),
        ({"text": "a b", "tokens": ["a", 2]}, "field 'tokens' has an item of the wrong type: 2"),
        ({"text": "a", "token_logprobs": [True]}, "field 'token_logprobs' has an item of the wrong type: True"),
        (["a b", 7], "entry must be a string or a JSON object, got 7"),
        # JSON escapes of lone surrogates decode, but no output file can hold them.
        ("bad \ud800 text", "field 'text' does not encode as UTF-8"),
        ({"text": "a b", "tokens": ["a", "\udc80"]}, "field 'tokens' does not encode as UTF-8"),
        ({"text": "a", "token_logprobs": [-(10**400)]}, "field 'token_logprobs' has a number too large for a float"),
    ],
    ids=[
        "missing-text", "wrong-type", "empty-list", "positive-logprob", "non-string-token", "bool-logprob",
        "number-entry", "surrogate-text", "surrogate-token", "huge-logprob",
    ],
)

#: Replay responses no run can use, and the error each raises.
BAD_REPLAY_RESPONSES = pytest.mark.parametrize(
    "response, message",
    [
        ({"text": "bad \ud800", "tokens": [], "token_logprobs": []}, "field 'text' does not encode as UTF-8"),
        ({"tokens": ["\ud800"], "token_logprobs": [-0.5]}, "field 'tokens' does not encode as UTF-8"),
        ({"tokens": ["a"], "token_logprobs": [-(10**400)]}, "field 'token_logprobs' has a number too large for a float"),
    ],
    ids=["surrogate-text", "surrogate-token", "huge-logprob"],
)


def write_bad_replay(path: Path, response: dict) -> None:
    """Write a replay file whose second exchange, for prompt ``p q``, answers
    with ``response``."""
    good = {"request": {"prompt": "fine"}, "response": {"tokens": [], "token_logprobs": []}}
    bad = {"request": {"prompt": "p q"}, "response": response}
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")


def write_bad_table(path: Path, entry) -> str:
    """Write a table file whose entry for a two-line prompt is ``entry``;
    return the pattern of that prompt as errors quote it, on one line."""
    path.write_text(json.dumps({"fine": "a b", "bad\nprompt": entry}), encoding="utf-8")
    return rf"table entry for prompt 'bad\\nprompt'"


def infer_in_process(corpus: Corpus, backend, **options) -> dict:
    """The candidates of every sample, keyed by sample id, from
    ``infer_shards`` on one in-process range."""
    (shard,) = infer_shards(corpus, backend, shards=1, **options)
    return shard.results


def run_toy(out_dir, **overrides) -> dict:
    raw = {**TOY_RAW, **overrides, "out_dir": str(out_dir)}
    return run_pipeline(parse_config(raw))


class TestParseConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys.*typo"):
            parse_config({"out_dir": "x", "synth": {}, "typo": 1})

    def test_out_dir_required(self):
        with pytest.raises(ValueError, match="out_dir"):
            parse_config({"synth": {}})

    def test_exactly_one_of_synth_or_corpus(self):
        with pytest.raises(ValueError, match="exactly one"):
            parse_config({"out_dir": "x"})
        with pytest.raises(ValueError, match="exactly one"):
            parse_config({"out_dir": "x", "synth": {}, "corpus": "c.jsonl"})

    def test_cannot_sweep_alphas_and_sizes_together(self):
        with pytest.raises(ValueError, match="not both"):
            parse_config({
                "out_dir": "x", "synth": {},
                "alphas": [0.1, 0.2], "train_sizes": [100, 200],
            })

    def test_unknown_metric_rejected_before_any_stage(self):
        with pytest.raises(ValueError, match="unknown metric 'foo'"):
            parse_config({"out_dir": "x", "synth": {}, "metric": "foo"})
        assert parse_config({"out_dir": "x", "synth": {}, "metric": "bleu_2"}).metric == "bleu_2"

    @pytest.mark.parametrize(
        "raw, field",
        [
            ({"synth": {}, "alphas": [1.5]}, "alphas"),
            ({"synth": {}, "systems": []}, "systems"),
            ({"synth": {}, "seeds": ["a"]}, "seeds"),
            ({"synth": {}, "seeds": [0, 0]}, "seeds"),
            ({"synth": {}, "task": "nli"}, "task"),
            ({"synth": {}, "train_sizes": [0]}, "train_sizes"),
            ({"synth": {}, "bias": "weird"}, "bias"),
            ({"synth": {}, "bias": "lead"}, "bias"),
            ({"corpus": "c.jsonl", "backend": "table"}, "backend"),
            ({"synth": {}, "backend": "replay:missing.jsonl"}, "backend"),
            ({"synth": {}, "backend": "gpt4"}, "backend"),
            ({"corpus": "c.jsonl", "backend": "table:nope.json"}, "backend"),
            ({"synth": {}, "align": {"instruction_keywords": []}}, "align.instruction_keywords"),
            ({"corpus": "c.jsonl", "backend": "table:bad.json"}, "backend"),
            ({"synth": {"n_utterances": 2}}, "n_utterances"),
            ({"synth": {}, "biased_positions": []}, "biased_positions"),
            ({"corpus": "c.jsonl", "task": "nli", "bias": "lexical", "triggers": []}, "triggers"),
            ({"synth": {"n_train": 20}, "train_sizes": [600, 10]}, r"train_sizes\[0\] must"),
            ({"synth": {}, "calibrate": False}, "calibrate"),
            ({"synth": {}, "align": {"incoherence_threshold": 0.15}}, "align.incoherence_threshold"),
            ({"synth": {}, "align": {"unreliable_threshold": 0.15}}, "align.unreliable_threshold"),
            ({"corpus": "c.jsonl", "seeds": [3, 4]}, "seeds"),
            ({"corpus": "c.jsonl", "systems": ["ft"]}, "systems"),
            ({"corpus": "c.jsonl", "alphas": [0.2]}, "alphas"),
            ({"corpus": "c.jsonl", "train_sizes": [10]}, "train_sizes"),
            ({"corpus": "c.jsonl", "epochs": 5}, "epochs"),
            ({"corpus": "c.jsonl", "learning_rate": 0.1}, "learning_rate"),
            ({"corpus": "c.jsonl", "clip_norm": 1.0}, "clip_norm"),
            ({"corpus": "c.jsonl", "garbage_rate": 0.25}, "garbage_rate"),
            ({"corpus": "c.jsonl", "metric": "accuracy"}, "metric"),
            ({"synth": {}, "triggers": ["no"]}, "triggers"),
            ({"corpus": "c.jsonl", "task": "sum", "triggers": ["no"]}, "triggers"),
            ({"corpus": "c.jsonl", "task": "sum", "biased_positions": [0]}, "biased_positions"),
            ({"corpus": "c.jsonl", "task": "nli", "biased_positions": [0]}, "biased_positions"),
            ({"corpus": "c.jsonl", "task": "nli", "n_per_prompt": 1}, "n_per_prompt"),
            ({"corpus": "c.jsonl", "task": "nli", "max_tokens": 4}, "max_tokens"),
            ({"corpus": "c.jsonl", "task": "nli", "backend": "markov"}, "backend"),
            ({"corpus": "c.jsonl", "task": "nli", "align": {}}, "align"),
            ({"synth": {}, "max_tokens": 16}, "max_tokens"),
            ({"synth": {}, "backend": "markov", "garbage_rate": 0.25}, "garbage_rate"),
            ({"synth": {}, "backend": "echo", "max_tokens": 8}, "max_tokens"),
            ({"synth": {}, "backend": "table:table.json", "max_tokens": 8}, "max_tokens"),
            ({"corpus": "c.jsonl", "backend": "echo", "max_tokens": 8}, "max_tokens"),
            ({"corpus": "c.jsonl", "backend": "table:table.json", "max_tokens": 8}, "max_tokens"),
            ({"synth": {}, "systems": ["ft", "ft"]}, "systems"),
            ({"synth": {}, "alphas": [0.2, 0.2, 0.5]}, "alphas"),
            ({"synth": {}, "train_sizes": [10, 10, 20]}, "train_sizes"),
            ({"synth": {}, "backend": "replay:bad.json"}, r"backend.*bad\.json: line 1: malformed JSON"),
            ({"synth": {}, "backend": "replay:tape.jsonl"}, r"backend.*tape\.jsonl: line 2: missing field 'response"),
            ({"synth": {}, "systems": ["ft"], "alphas": [0.5, 0.7]}, "alphas"),
            ({"synth": {}, "learning_rate": 10**400}, "learning_rate"),
            ({"synth": {}, "learning_rate": 1e400}, "learning_rate"),
            ({"synth": {}, "clip_norm": json.loads("Infinity")}, "clip_norm"),
            ({"synth": {}, "train_sizes": []}, "train_sizes"),
            ({"corpus": "c.jsonl", "task": "nli", "triggers": ["not", "!!"]}, r"triggers\[1\] tokenizes"),
            ({"synth": {}, "align": {"instruction_keywords": ["?"]}}, r"align\.instruction_keywords\[0\] tokenizes"),
            ({"corpus": "c.jsonl", "task": "cqg", "align": {"dull_patterns": ["what", " ..."]}}, r"align\.dull_patterns\[1\] tokenizes"),
            ({"corpus": "c.jsonl", "task": "cqa", "backend": "url:"}, r"backend 'url:': endpoint '' is not an absolute"),
            ({"corpus": "c.jsonl", "backend": "url:notaurl"}, r"backend 'url:notaurl': endpoint 'notaurl' is not"),
            ({"corpus": "c.jsonl", "backend": "url:ftp://host/x"}, r"backend 'url:ftp://host/x': .* not an absolute http\(s\) URL"),
            ({"synth": {}, "backend": "http://"}, r"backend 'http://': .* not an absolute http\(s\) URL"),
        ],
        ids=[
            "alphas-above-one", "systems-empty", "seeds-not-integer", "seeds-repeated", "task-nli-in-toy",
            "train-sizes-zero", "bias-unknown", "bias-lead-in-toy", "backend-table-in-data-mode",
            "backend-replay-file-missing", "backend-unknown", "backend-table-file-missing",
            "instruction-keywords-empty", "backend-table-file-not-json", "n-utterances-below-three",
            "biased-positions-empty", "triggers-empty", "train-size-above-n-train", "calibrate-removed",
            "incoherence-threshold-removed", "unreliable-threshold-removed",
            "data-mode-seeds", "data-mode-systems", "data-mode-alphas", "data-mode-train-sizes",
            "data-mode-epochs", "data-mode-learning-rate", "data-mode-clip-norm", "data-mode-garbage-rate",
            "data-mode-metric", "triggers-in-toy", "triggers-on-sum", "biased-positions-on-sum",
            "biased-positions-on-nli", "nli-n-per-prompt", "nli-max-tokens", "nli-backend", "nli-align",
            "toy-table-max-tokens", "toy-markov-garbage-rate", "toy-echo-max-tokens",
            "toy-table-file-max-tokens", "data-mode-echo-max-tokens", "data-mode-table-file-max-tokens",
            "systems-repeated", "alphas-repeated", "train-sizes-repeated",
            "backend-replay-file-not-jsonl", "backend-replay-line-without-response", "alphas-without-zoe",
            "learning-rate-too-large-for-a-float", "learning-rate-infinite", "clip-norm-infinite",
            "train-sizes-empty", "trigger-without-a-word", "instruction-keyword-without-a-word",
            "dull-pattern-without-a-word", "backend-url-empty", "backend-url-without-scheme",
            "backend-url-not-http", "backend-bare-url-without-host",
        ],
    )
    def test_bad_field_rejected_before_any_stage(self, tmp_path, monkeypatch, raw, field):
        monkeypatch.chdir(tmp_path)  # relative backend files resolve here; only these three exist
        monkeypatch.delenv(BACKEND_URL_ENV, raising=False)
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "table.json").write_text("{}")
        (tmp_path / "tape.jsonl").write_text('{"request": {}, "response": {"tokens": [], "token_logprobs": []}}\n{"request": {}}\n')
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match=rf"config: .*\b{field}\b"):
            parse_config({**raw, "out_dir": str(out_dir)})
        assert not out_dir.exists()

    @BAD_TABLE_ENTRIES
    def test_bad_table_file_entry_rejected_before_any_stage(self, tmp_path, entry, message):
        table = tmp_path / "table.json"
        prompt = write_bad_table(table, entry)
        out_dir = tmp_path / "out"
        raw = {"out_dir": str(out_dir), "corpus": "c.jsonl", "backend": f"table:{table}"}
        with pytest.raises(ValueError, match=rf"^config: backend 'table:{re.escape(str(table))}': {prompt}: .*{re.escape(message)}"):
            parse_config(raw)
        assert not out_dir.exists()

    @BAD_REPLAY_RESPONSES
    def test_bad_replay_response_rejected_before_any_stage(self, tmp_path, response, message):
        tape = tmp_path / "tape.jsonl"
        write_bad_replay(tape, response)
        out_dir = tmp_path / "out"
        raw = {"out_dir": str(out_dir), "synth": {}, "backend": f"replay:{tape}"}
        pattern = rf"^config: backend 'replay:{re.escape(str(tape))}': .*line 2: response to prompt 'p q': {re.escape(message)}"
        with pytest.raises(ValueError, match=pattern):
            parse_config(raw)
        assert not out_dir.exists()

    def test_schema_defaults_match_the_dataclass_defaults(self):
        # ``run --print-schema`` shows these defaults; they must be the ones used.
        def as_json(value):
            return json.loads(json.dumps(value, default=sorted))

        owners = [(CONFIG_SCHEMA, PipelineConfig), (CONFIG_SCHEMA["properties"]["synth"], SynthSpec),
                  (CONFIG_SCHEMA["properties"]["align"], AlignmentConfig)]
        checked = 0
        for schema, owner in owners:
            defaults = {
                f.name: f.default_factory() if f.default_factory is not dataclasses.MISSING else f.default
                for f in dataclasses.fields(owner)
            }
            for key, prop in schema["properties"].items():
                if "default" in prop:
                    assert prop["default"] == as_json(defaults[key]), key
                    checked += 1
        assert checked >= 24

    @given(task=st.sampled_from(Task), kind=st.sampled_from(BiasKind))
    def test_bias_is_accepted_only_as_the_tasks_own_kind(self, task, kind):
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp) / "out"
            raw = {"out_dir": str(out_dir), "corpus": "c.jsonl", "task": task.value, "bias": kind.value}
            if kind == BIAS_BY_TASK[task]:
                config = parse_config(raw)
                assert config.task == task and not hasattr(config, "bias")
            else:
                with pytest.raises(ValueError, match=rf"config: bias must be '{BIAS_BY_TASK[task].value}'"):
                    parse_config(raw)
            assert not out_dir.exists()

    def test_benchmark_configs_parse(self, tmp_path, monkeypatch):
        # A config the benchmark runs must never be rejected before its first stage.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from workloads import WORKLOADS

        for name in ("toy", "data-relpos", "data-lead-long"):
            workload = WORKLOADS[name]()
            workload.samples = 10
            work = tmp_path / name
            work.mkdir()
            workload.prepare(work, seed=0)
            parse_config({**workload.raw, "out_dir": str(work / "out")})

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            parse_config({"out_dir": "x", "synth": {}, "systems": ["ft", "bert"]})

    def test_backend_default_depends_on_mode(self, tmp_path):
        toy = parse_config({"out_dir": "x", "synth": {}})
        assert toy.backend == "table"
        corpus_file = tmp_path / "c.jsonl"
        corpus_file.write_text("")
        data = parse_config({"out_dir": "x", "corpus": str(corpus_file)})
        assert data.backend == "markov"

    def test_align_overrides_and_synth_spec(self):
        config = parse_config({
            "out_dir": "x",
            "synth": {"n_train": 7},
            "align": {"target_keep_fraction": 0.3, "candidate_thresholds": [0.1, 0.3]},
            "biased_positions": [0, 1, 2],
        })
        assert config.synth == SynthSpec(n_train=7)
        assert config.align.target_keep_fraction == 0.3
        assert config.align.candidate_thresholds == (0.1, 0.3)
        assert config.biased_positions == frozenset({0, 1, 2})


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("toyrun") / "out"
    manifest = run_toy(out_dir)
    return out_dir, manifest


class TestToyPipeline:
    def test_stage_order_and_status(self, toy_run):
        _, manifest = toy_run
        assert [s["stage"] for s in manifest["stages"]] == [
            "synth", "split", "infer", "align", "train", "eval", "report",
        ]
        assert all(s["status"] == "ok" for s in manifest["stages"])

    def test_artifact_checksums_match_file_contents(self, toy_run):
        out_dir, manifest = toy_run
        artifacts = [a for s in manifest["stages"] for a in s["artifacts"]]
        assert artifacts
        for artifact in artifacts:
            data = (out_dir / artifact["path"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == artifact["sha256"]

    def test_every_written_file_is_in_the_manifest(self, toy_run):
        out_dir, manifest = toy_run
        listed = {a["path"] for s in manifest["stages"] for a in s["artifacts"]}
        on_disk = {
            str(p.relative_to(out_dir))
            for p in out_dir.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert listed == on_disk

    def test_manifest_on_disk_matches_return_value(self, toy_run):
        out_dir, manifest = toy_run
        assert json.loads((out_dir / "manifest.json").read_text()) == manifest
        assert manifest["config"]["out_dir"] == "."

    def test_manifest_records_the_inputs_by_file_name(self, dialogue_corpus_file, tmp_path):
        # One corpus and table, run from roots whose paths differ in length.
        spec = default_prompt_spec(Task.CQA)
        table = json.dumps({build_prompt(s, spec)[0]: "x" for s in load_corpus(dialogue_corpus_file, Task.CQA)})
        manifests = []
        for root in (tmp_path / "a", tmp_path / "a-much-longer-directory-name" / "b"):
            root.mkdir(parents=True)
            (root / "corpus.jsonl").write_bytes(dialogue_corpus_file.read_bytes())
            (root / "table.json").write_text(table)
            run_pipeline(parse_config({
                "out_dir": str(root / "out"), "corpus": str(root / "corpus.jsonl"),
                "backend": f"table:{root / 'table.json'}",
            }))
            manifests.append((root / "out" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        config = json.loads(manifests[0])["config"]
        assert (config["corpus"], config["backend"]) == ("corpus.jsonl", "table:table.json")

    def test_candidate_counts(self, toy_run):
        out_dir, _ = toy_run
        for seed in (0, 1):
            lines = (out_dir / "infer" / f"seed{seed}" / "candidates.jsonl").read_text().splitlines()
            assert len(lines) == 12 * 3
            record = json.loads(lines[0])
            assert set(record) == {
                "sample_id", "candidate_index", "text", "tokens", "token_logprobs", "backend_id",
            }

    def test_eval_artifacts_per_system(self, toy_run):
        out_dir, _ = toy_run
        for system in ("ft", "zoe", "rp"):
            entry = json.loads((out_dir / "eval" / f"{system}.json").read_text())
            assert entry["system"] == system
            assert set(entry["splits"]) == {"biased", "non_biased"}
            # Two seeds x 24 eval samples, pooled count-weighted.
            assert entry["splits"]["biased"]["count"] + entry["splits"]["non_biased"]["count"] == 48

    def test_report_rows_cover_systems_times_splits(self, toy_run):
        out_dir, _ = toy_run
        lines = (out_dir / "report" / "report.csv").read_text().splitlines()
        assert lines[0] == "system,split,metric,score,count"
        assert len(lines) == 1 + 3 * 2
        assert (out_dir / "report" / "splits.svg").exists()
        assert (out_dir / "report" / "relpos.svg").exists()

    def test_rerun_is_byte_identical(self, toy_run, tmp_path):
        out_dir, manifest = toy_run
        second = run_toy(tmp_path / "out2")
        assert second == manifest
        for name in ("report/report.csv", "report/report_by_relpos.csv"):
            assert (tmp_path / "out2" / name).read_bytes() == (out_dir / name).read_bytes()

    def test_benchmark_tracer_counts_the_verdicts_written(self, tmp_path, monkeypatch):
        # The benchmark's tracer counts verdicts, and reads the keep target,
        # through ``align_responses(task, stats, reasons, config, threshold)``,
        # the rule that decides every verdict, once per seed.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from tracer import Tracer

        out_dir = tmp_path / "out"
        tracer = Tracer("test")
        tracer.install()
        try:
            run_toy(out_dir, systems=["ft"], epochs=1)
        finally:
            tracer.restore()
        verdicts = [
            json.loads(line)
            for seed in TOY_RAW["seeds"]
            for line in (out_dir / "align" / f"seed{seed}" / "aligned.jsonl").read_text().splitlines()
        ]
        assert tracer.counts["msa_align.candidates"] == len(verdicts) == 2 * 12 * 3
        assert tracer.counts["msa_align.kept"] == sum(v["kept"] for v in verdicts) > 0
        assert tracer.target_keep_fraction == 0.2
        gate_spans = [span for span in tracer.spans if tracer.names[span[1]] == "msa_align.gate_statistic"]
        assert len(gate_spans) == len(verdicts)

    def test_each_candidate_is_decided_once(self, tmp_path, monkeypatch):
        # ``form_reasons`` runs once per candidate, in the align pass, and
        # ``align_responses`` once per seed, over all of the seed's candidates.
        calls = dict.fromkeys(("form_reasons", "align_responses"), 0)
        for name in calls:

            def counted(*args, fn=getattr(msa_align, name), name=name):
                calls[name] += 1
                return fn(*args)

            for module in (msa_align, pipeline):
                monkeypatch.setattr(module, name, counted)
        out_dir = tmp_path / "out"
        run_toy(out_dir, systems=["ft"], epochs=1)
        verdicts = sum(
            len((out_dir / "align" / f"seed{seed}" / "aligned.jsonl").read_text().splitlines()) for seed in TOY_RAW["seeds"]
        )
        assert calls == {"form_reasons": verdicts, "align_responses": len(TOY_RAW["seeds"])}


@settings(max_examples=8, deadline=None)
@given(
    n_train=st.integers(2, 8),
    n_per_prompt=st.integers(1, 3),
    thresholds=st.sampled_from([(0.15,), (0.1, 0.5, 0.9), (0.3, 0.6)]),
    garbage_rate=st.sampled_from([0.0, 0.25, 0.75]),
    seeds=st.lists(st.integers(0, 20), min_size=1, max_size=2, unique=True),
)
# Every candidate noise: no threshold keeps one.
@example(n_train=4, n_per_prompt=2, thresholds=(0.1,), garbage_rate=1.0, seeds=[0])
def test_training_reads_the_kept_lines_of_the_aligned_file(n_train, n_per_prompt, thresholds, garbage_rate, seeds):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        config = parse_config({
            **TOY_RAW, "out_dir": tmp, "synth": {**TOY_RAW["synth"], "n_train": n_train}, "seeds": seeds,
            "n_per_prompt": n_per_prompt, "garbage_rate": garbage_rate, "align": {"candidate_thresholds": list(thresholds)},
        })
        state: dict = {}
        for stage in (pipeline._stage_synth, pipeline._stage_infer, pipeline._stage_align):
            stage(config, out_dir, state)
        for seed, data in state["data"].items():
            path = out_dir / "align" / f"seed{seed}" / "aligned.jsonl"
            kept: dict[str, list[str]] = {}
            for verdict in map(json.loads, path.read_text().splitlines()):
                kept.setdefault(verdict["sample_id"], []).extend([verdict["text"]] if verdict["kept"] else [])
            assert data["aligned"] == load_aligned(path) == kept
            assert list(kept) == [sample.id for sample in data["train"]]
            if garbage_rate == 1.0:
                assert not any(kept.values())


#: The stages whose files a seed writes alone, in its own ``seed*`` directory.
PER_SEED_STAGES = ("data", "split", "infer", "align")

#: The files that pool every seed: they may depend on the set of seeds, not on their order.
POOLED = ("eval/", "report/report.csv", "report/report_by_relpos.csv")


@settings(max_examples=6, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 30), min_size=2, max_size=3, unique=True),
    epochs=st.integers(1, 2),
    systems=st.sampled_from([["ft"], ["ft", "zoe"], ["zoe", "rp"]]),
    metric=st.sampled_from(["rouge_l", "bleu_2"]),
    data=st.data(),
)
def test_a_seed_outputs_do_not_depend_on_the_other_seeds(seeds, epochs, systems, metric, data):
    # Trained this little, every model scores 0 on accuracy; on the overlap
    # metrics the seeds' scores differ, so pooling them in another order can show.
    reordered = data.draw(st.permutations(seeds).filter(lambda order: order != seeds), label="reordered")
    with tempfile.TemporaryDirectory() as tmp:

        def run(name: str, run_seeds: list[int]) -> dict[str, bytes]:
            out_dir = Path(tmp) / name
            run_toy(out_dir, seeds=run_seeds, epochs=epochs, systems=systems, metric=metric)
            return {p.relative_to(out_dir).as_posix(): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}

        together = run("together", seeds)
        for seed in seeds:
            alone = run(f"alone{seed}", [seed])
            own = {path for path in together if path.split("/")[0] in PER_SEED_STAGES and f"/seed{seed}/" in path}
            assert own == {path for path in alone if path.split("/")[0] in PER_SEED_STAGES}
            assert {path: together[path] for path in own} == {path: alone[path] for path in own}
        shuffled = run("reordered", reordered)
    pooled = [path for path in together if path.startswith(POOLED)]
    assert len(pooled) == len(systems) + 2
    assert {path: shuffled[path] for path in pooled} == {path: together[path] for path in pooled}


class TestPipelineFailureModes:
    @pytest.mark.parametrize(
        "mode, failing",
        [(mode, name) for mode, stages in (("toy", pipeline._TOY_STAGES), ("data", pipeline._DATA_STAGES), ("nli", pipeline._NLI_DATA_STAGES))
         for name in (None, *(name for name, _ in stages))],
    )
    def test_manifest_lists_every_file_once_with_its_checksum(
        self, tmp_path, dialogue_corpus_file, nli_corpus_file, monkeypatch, mode, failing
    ):
        # ``failing`` writes all it would, then raises: the failed entry lists what it wrote.
        stages_name = {"toy": "_TOY_STAGES", "data": "_DATA_STAGES", "nli": "_NLI_DATA_STAGES"}[mode]
        real_stages = getattr(pipeline, stages_name)

        def fail_after(fn):
            def stage(*args):
                fn(*args)
                raise RuntimeError("injected")
            return stage

        def run(out_dir, failing):
            stages = tuple((name, fail_after(fn) if name == failing else fn) for name, fn in real_stages)
            monkeypatch.setattr(pipeline, stages_name, stages)
            raw = {"out_dir": str(out_dir)}
            if mode == "toy":
                raw.update(n_per_prompt=2, synth={**TOY_RAW["synth"], "n_train": 8, "n_eval": 8}, seeds=[0], systems=["ft", "zoe"], epochs=1)
            elif mode == "data":
                raw.update(n_per_prompt=2, corpus=str(dialogue_corpus_file), task="cqa", max_tokens=8)
            else:
                raw.update(corpus=str(nli_corpus_file), task="nli")
            if failing:
                with pytest.raises(PipelineError, match=f"^stage '{failing}' failed: injected$"):
                    run_pipeline(parse_config(raw))
            else:
                run_pipeline(parse_config(raw))
            entries = json.loads((out_dir / "manifest.json").read_text())["stages"]
            assert (entries[-1]["stage"], entries[-1]["status"]) == (failing or stages[-1][0], "failed" if failing else "ok")
            listed = [a for e in entries for a in e["artifacts"]]
            for artifact in listed:
                assert hashlib.sha256((out_dir / artifact["path"]).read_bytes()).hexdigest() == artifact["sha256"]
            written = [  # an earlier run's files carry mtime 0
                str(p.relative_to(out_dir)) for p in out_dir.rglob("*")
                if p.is_file() and p.name != "manifest.json" and p.stat().st_mtime_ns
            ]
            assert sorted(a["path"] for a in listed) == sorted(written)

        run(tmp_path / "fresh", failing)
        # Again into a directory that holds a whole earlier run: a file that
        # this run does not rewrite (a later stage's) must not be listed.
        out_dir = tmp_path / "again"
        run(out_dir, None)
        for path in out_dir.rglob("*"):
            os.utime(path, ns=(0, 0))
        run(out_dir, failing)

    def test_a_write_that_fails_part_way_is_listed_with_the_bytes_on_disk(self, tmp_path, nli_corpus_file, monkeypatch, runner):
        def blocks():
            yield "first block\n"
            raise RuntimeError("second block")

        def report(config, out_dir, state):
            write_blocks(blocks(), out_dir / "report" / "partial.txt")

        raw = {"out_dir": str(tmp_path / "ok"), "corpus": str(nli_corpus_file), "task": "nli"}
        run_pipeline(parse_config(raw))
        assert corpus_mod.written is None
        monkeypatch.setattr(pipeline, "_NLI_DATA_STAGES", (pipeline._NLI_DATA_STAGES[0], ("report", report)))
        out_dir = tmp_path / "failed"
        with pytest.raises(PipelineError, match="^stage 'report' failed: second block$"):
            run_pipeline(parse_config({**raw, "out_dir": str(out_dir)}))
        assert corpus_mod.written is None  # a later CLI verb records nothing
        entry = json.loads((out_dir / "manifest.json").read_text())["stages"][-1]
        on_disk = (out_dir / "report" / "partial.txt").read_bytes()
        assert on_disk == b"first block\n"
        assert (entry["status"], entry["artifacts"]) == (
            "failed", [{"path": "report/partial.txt", "sha256": hashlib.sha256(on_disk).hexdigest()}]
        )
        invoke_ok(runner, ["split", "--corpus", str(nli_corpus_file), "--task", "nli", "--out-dir", str(tmp_path / "cli")])
        assert corpus_mod.written is None

    def test_missing_corpus_fails_before_any_stage(self, tmp_path):
        out_dir = tmp_path / "out"
        config = parse_config({
            "out_dir": str(out_dir), "corpus": str(tmp_path / "absent.jsonl"), "task": "cqa",
        })
        # parse_config does not touch the filesystem; run_pipeline must.
        with pytest.raises(ValueError, match="does not exist"):
            run_pipeline(config)
        assert not out_dir.exists()

    def test_failed_stage_is_marked_and_prior_artifacts_survive(self, tmp_path):
        out_dir = tmp_path / "out"
        empty_table = tmp_path / "empty-table.json"
        empty_table.write_text("{}")
        with pytest.raises(PipelineError, match="stage 'infer' failed: .*no entry"):
            run_toy(out_dir, backend=f"table:{empty_table}")
        manifest = json.loads((out_dir / "manifest.json").read_text())
        by_stage = {s["stage"]: s for s in manifest["stages"]}
        assert by_stage["synth"]["status"] == "ok"
        assert by_stage["split"]["status"] == "ok"
        assert by_stage["infer"]["status"] == "failed"
        assert "error" in by_stage["infer"]
        assert "train" not in by_stage
        for artifact in by_stage["synth"]["artifacts"]:
            assert (out_dir / artifact["path"]).exists()


class TestSweeps:
    def test_alpha_sweep_yields_one_eval_per_alpha(self, tmp_path):
        out_dir = tmp_path / "out"
        run_toy(
            out_dir,
            synth={"n_utterances": 6, "n_train": 8, "n_eval": 8, "biased_fraction": 0.9, "vocab_size": 12, "seed": 0},
            seeds=[0],
            systems=["zoe"],
            alphas=[0.1, 0.2, 0.3, 0.4, 0.5],
            epochs=1,
        )
        labels = sorted(p.stem for p in (out_dir / "eval").glob("*.json"))
        assert labels == ["zoe@a=0.1", "zoe@a=0.2", "zoe@a=0.3", "zoe@a=0.4", "zoe@a=0.5"]
        assert (out_dir / "report" / "alpha_sweep.svg").exists()

    def test_train_size_sweep_labels_and_chart(self, tmp_path):
        out_dir = tmp_path / "out"
        run_toy(
            out_dir,
            synth={"n_utterances": 6, "n_train": 8, "n_eval": 8, "biased_fraction": 0.9, "vocab_size": 12, "seed": 0},
            seeds=[0],
            systems=["ft", "zoe"],
            train_sizes=[4, 8],
            epochs=1,
        )
        labels = sorted(p.stem for p in (out_dir / "eval").glob("*.json"))
        assert labels == ["ft@n=4", "ft@n=8", "zoe@n=4", "zoe@n=8"]
        assert (out_dir / "report" / "train_size_sweep.svg").exists()


class TestParallelTrain:
    """The train stage's process pool against training done in-process."""

    def test_run_artifacts_match_in_process_training_for_unordered_seeds(self, tmp_path):
        out_dir = tmp_path / "out"
        run_toy(out_dir, seeds=[1, 0], systems=["ft", "zoe"], epochs=3)
        data = {
            seed: (
                load_corpus(out_dir / "data" / f"seed{seed}" / "train.jsonl", Task.CQA),
                load_aligned(out_dir / "align" / f"seed{seed}" / "aligned.jsonl"),
            )
            for seed in (1, 0)
        }
        # One lockstep group per system: its seeds, in ``seeds`` order.
        for system in ("ft", "zoe"):
            runs = train_lockstep(
                [
                    TrainJob(
                        ToyModel.initialize(12, seed=seed),
                        data[seed][0],
                        aligned=data[seed][1] if system == "zoe" else None,
                        config=LossConfig(alpha=0.2 if system == "zoe" else 0.0),
                        seed=seed,
                    )
                    for seed in (1, 0)
                ],
                epochs=3,
                learning_rate=0.5,
                clip_norm=1.0,
            )
            for seed, run in zip((1, 0), runs):
                run_dir = out_dir / "runs" / system / f"seed{seed}"
                direct = tmp_path / "direct" / system / f"seed{seed}"
                expected_model = save_model(run.model, direct / "model.json").read_bytes()
                expected_epochs = write_epochs(run.epoch_summaries(), direct / "epochs.jsonl").read_bytes()
                assert (run_dir / "model.json").read_bytes() == expected_model
                assert (run_dir / "epochs.jsonl").read_bytes() == expected_epochs
                assert sorted(p.name for p in run_dir.iterdir()) == ["epochs.jsonl", "model.json"]

    def test_output_bytes_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch):
        raw = {
            "synth": {"n_train": 100, "n_eval": 20, "vocab_size": 12},
            "seeds": [0, 1, 2], "systems": ["ft", "zoe"], "epochs": 5,
        }
        outputs = {}
        for cpus in (1, 2, 4):
            # The CPU count the train stage sizes its pool by; the real cores stay as they are.
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            out_dir = tmp_path / f"cpus{cpus}"
            run_pipeline(parse_config({**raw, "out_dir": str(out_dir)}))
            outputs[cpus] = {str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}
        assert sum(name.startswith("runs/") for name in outputs[2]) == 12
        assert outputs[1] == outputs[2] == outputs[4]

    def test_scoring_error_in_a_worker_fails_eval_not_train_and_leaves_no_worker(self, tmp_path, monkeypatch):
        def evaluate(model, partition, metric, system):
            if system != "ft":
                raise ValueError(f"cannot score {system}")
            return toy_model.evaluate.__wrapped__(model, partition, metric, system)

        evaluate.__wrapped__ = toy_model.evaluate
        monkeypatch.setattr(toy_model, "evaluate", evaluate)  # forked workers inherit the patch
        out_dir = tmp_path / "out"
        # The first failure in sweep order (ft, zoe, rp) is zoe's.
        with pytest.raises(PipelineError, match="^stage 'eval' failed: cannot score zoe$"):
            run_toy(out_dir)
        assert multiprocessing.active_children() == []
        stages = json.loads((out_dir / "manifest.json").read_text())["stages"]
        assert [(s["stage"], s["status"]) for s in stages][-2:] == [("train", "ok"), ("eval", "failed")]
        assert stages[-1]["error"] == "cannot score zoe"
        assert len(stages[-2]["artifacts"]) == 2 * 3 * 2  # model.json and epochs.jsonl per job
        for artifact in stages[-2]["artifacts"]:
            assert (out_dir / artifact["path"]).exists()
        assert [p.name for p in (out_dir / "eval").iterdir()] == ["ft.json"]  # pooled before zoe failed
        assert [a["path"] for a in stages[-1]["artifacts"]] == ["eval/ft.json"]

    @pytest.mark.parametrize("stage, name", [("train", "train_lockstep"), ("eval", "evaluate")])
    def test_an_error_that_cannot_be_pickled_keeps_its_stage_and_message(self, tmp_path, monkeypatch, stage, name):
        class TwoPartError(Exception):
            def __init__(self, left, right):
                super().__init__(f"{left}/{right}")

        def fail(*args, **kwargs):
            raise TwoPartError(name, "broken")

        monkeypatch.setattr(toy_model, name, fail)  # forked workers inherit the patch
        with pytest.raises(PipelineError, match=f"^stage '{stage}' failed: {name}/broken$"):
            run_toy(tmp_path / "out", systems=["ft"])
        assert multiprocessing.active_children() == []

    def test_diverging_job_fails_train_with_its_own_error_and_leaves_no_worker(self, tmp_path):
        out_dir = tmp_path / "out"
        with pytest.raises(PipelineError, match="stage 'train' failed: non-finite loss at step"):
            run_toy(out_dir, systems=["zoe", "ft"], learning_rate=1e308)
        assert multiprocessing.active_children() == []
        # The first job in sweep order (zoe, seed 0), trained in-process.
        train_c = load_corpus(out_dir / "data" / "seed0" / "train.jsonl", Task.CQA)
        aligned = load_aligned(out_dir / "align" / "seed0" / "aligned.jsonl")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as serial:
                train(
                    ToyModel.initialize(12, seed=0), train_c, aligned=aligned,
                    config=LossConfig(alpha=0.2), epochs=2, learning_rate=1e308, clip_norm=1.0, seed=0,
                )
        by_stage = {s["stage"]: s for s in json.loads((out_dir / "manifest.json").read_text())["stages"]}
        assert by_stage["train"]["status"] == "failed"
        assert by_stage["train"]["error"] == str(serial.value)
        assert "eval" not in by_stage


class TestEpochSummaries:
    """``runs/<label>/seed<N>/epochs.jsonl`` against ``train-toy`` and the
    per-step losses of ``train_lockstep`` on the same job."""

    def test_train_toy_writes_the_bytes_of_the_run_job(self, runner, tmp_path):
        out_dir = tmp_path / "out"
        run_toy(out_dir, seeds=[0], systems=["ft", "zoe"], epochs=3)
        train_file = out_dir / "data" / "seed0" / "train.jsonl"
        aligned_file = out_dir / "align" / "seed0" / "aligned.jsonl"
        for system in ("ft", "zoe"):
            run_dir = out_dir / "runs" / system / "seed0"
            model_file, trace_file = tmp_path / f"{system}.json", tmp_path / f"{system}-epochs.jsonl"
            args = [
                "train-toy", "--train", str(train_file), "--vocab-size", "12", "--epochs", "3",
                "--learning-rate", "0.5", "--clip-norm", "1.0", "--seed", "0",
                "--out", str(model_file), "--trace", str(trace_file),
            ]
            if system == "zoe":
                args += ["--aligned", str(aligned_file), "--alpha", "0.2"]
            result = invoke_ok(runner, args)
            assert model_file.read_bytes() == (run_dir / "model.json").read_bytes()
            assert trace_file.read_bytes() == (run_dir / "epochs.jsonl").read_bytes()
            summaries = [json.loads(line) for line in trace_file.read_text().splitlines()]
            assert result.output == (
                f"train-toy: 3 epochs, final epoch loss {summaries[-1]['combined']:.6f} -> {model_file}\n"
            )

    def test_epoch_means_match_the_per_step_losses(self, tmp_path):
        out_dir = tmp_path / "out"
        run_toy(out_dir, seeds=[0], systems=["ft", "zoe"], epochs=3)
        corpus = load_corpus(out_dir / "data" / "seed0" / "train.jsonl", Task.CQA)
        aligned = load_aligned(out_dir / "align" / "seed0" / "aligned.jsonl")
        for system, alpha in (("ft", 0.0), ("zoe", 0.2)):
            epochs_file = out_dir / "runs" / system / "seed0" / "epochs.jsonl"
            summaries = [json.loads(line) for line in epochs_file.read_text().splitlines()]
            assert [s["epoch"] for s in summaries] == [0, 1, 2]
            job = TrainJob(ToyModel.initialize(12, seed=0), corpus, aligned, config=LossConfig(alpha=alpha), seed=0)
            (run,) = train_lockstep([job], epochs=3, learning_rate=0.5, clip_norm=1.0)
            n = len(corpus)
            for summary in summaries:
                steps = run.losses[summary["epoch"] * n : (summary["epoch"] + 1) * n].tolist()
                assert summary["l_target"] == pytest.approx(mean(t for t, _, _ in steps), rel=1e-12)
                assert summary["combined"] == pytest.approx(mean(c for _, _, c in steps), rel=1e-12)
                kept = [a for _, a, _ in steps if not math.isnan(a)]
                if kept:
                    assert summary["l_align"] == pytest.approx(mean(kept), rel=1e-12)
                else:
                    assert summary["l_align"] is None
                assert 0.0 <= summary["clip_fraction"] <= 1.0
                assert 0.0 < summary["grad_norm_mean"] <= summary["grad_norm_max"]
            assert summaries[0]["clip_fraction"] > 0.0
            assert any(s["l_align"] is not None for s in summaries) == (system == "zoe")

    def test_clip_fraction_is_zero_under_a_huge_clip_norm(self, tmp_path):
        out_dir = tmp_path / "out"
        run_toy(out_dir, seeds=[0], systems=["ft"], epochs=2, clip_norm=1e9)
        epochs_file = out_dir / "runs" / "ft" / "seed0" / "epochs.jsonl"
        assert [json.loads(line)["clip_fraction"] for line in epochs_file.read_text().splitlines()] == [0.0, 0.0]


@pytest.fixture
def dialogue_corpus_file(tmp_path):
    spec = SynthSpec(n_utterances=6, n_train=10, n_eval=1, biased_fraction=0.5, vocab_size=12, seed=5)
    train_c, _, _ = synth_corpus(spec)
    return save_corpus(train_c, tmp_path / "dialogue.jsonl")


@pytest.fixture
def nli_corpus_file(tmp_path):
    samples = (
        nli_sample("n0", "a man walks the dog", "the dog is not walked", "contradiction"),
        nli_sample("n1", "a man walks the dog", "an animal is outside", "entailment"),
        nli_sample("n2", "the sky is blue", "nobody is around", "neutral"),
        nli_sample("n3", "the sky is blue", "the sky is blue", "entailment"),
        nli_sample("n4", "children play chess", "children never lose", "neutral"),
        nli_sample("n5", "children play chess", "a game is played", "entailment"),
    )
    return save_corpus(Corpus(samples, Task.NLI), tmp_path / "nli.jsonl")


class TestDataModePipeline:
    def test_dialogue_corpus_split_infer_align_report(self, dialogue_corpus_file, tmp_path):
        out_dir = tmp_path / "out"
        manifest = run_pipeline(parse_config({
            "out_dir": str(out_dir),
            "corpus": str(dialogue_corpus_file),
            "task": "cqa",
            "n_per_prompt": 2,
            "max_tokens": 8,
        }))
        assert [s["stage"] for s in manifest["stages"]] == ["split", "infer", "align", "report"]
        assert (out_dir / "split" / "evidence.jsonl").exists()
        aligned = (out_dir / "align" / "seed0" / "aligned.jsonl").read_text().splitlines()
        assert len(aligned) == 10 * 2
        report = (out_dir / "report" / "report.csv").read_text()
        assert "corpus,biased,fraction" in report
        assert "align,all,kept_fraction" in report

    def test_nli_corpus_runs_split_then_report(self, nli_corpus_file, tmp_path):
        # No gate prunes NLI candidates and nothing trains, so none is drawn.
        out_dir = tmp_path / "out"
        manifest = run_pipeline(parse_config({
            "out_dir": str(out_dir),
            "corpus": str(nli_corpus_file),
            "task": "nli",
            "bias": "lexical",
        }))
        assert [s["stage"] for s in manifest["stages"]] == ["split", "report"]
        assert not (out_dir / "infer").exists() and not (out_dir / "align").exists()
        evidence = [
            json.loads(line)
            for line in (out_dir / "split" / "evidence.jsonl").read_text().splitlines()
        ]
        assert {e["id"] for e in evidence if e["biased"]} == {"n0", "n2", "n4"}
        assert (out_dir / "report" / "report.csv").read_bytes() == (
            b"system,split,metric,score,count\r\n"
            b"corpus,biased,fraction,0.500000,3\r\n"
            b"corpus,non_biased,fraction,0.500000,3\r\n"
        )

    def test_cqg_corpus_rejects_a_candidate_without_question_words(self, dialogue_corpus_file, tmp_path):
        corpus = load_corpus(dialogue_corpus_file, Task.CQA)
        cqg = Corpus(tuple(dataclasses.replace(s, task=Task.CQG) for s in corpus), Task.CQG)
        cqg_file = save_corpus(cqg, tmp_path / "cqg.jsonl")
        spec = default_prompt_spec(Task.CQG)
        table = {
            prompt: "tell me more about it" if i == 0 else "what happened next"
            for s in cqg for i, prompt in enumerate(build_prompt(s, spec))
        }
        table_file = tmp_path / "table.json"
        table_file.write_text(json.dumps(table))
        out_dir = tmp_path / "out"
        run_pipeline(parse_config({
            "out_dir": str(out_dir), "corpus": str(cqg_file), "task": "cqg",
            "backend": f"table:{table_file}", "n_per_prompt": 1,
        }))
        aligned = (out_dir / "align" / "seed0" / "aligned.jsonl").read_text()
        verdicts = [json.loads(line) for line in aligned.splitlines()]
        assert len(verdicts) == len(cqg) * len(DEFAULT_DIVERSE_PROMPTS)
        for verdict in verdicts:
            if verdict["text"] == "tell me more about it":
                assert verdict["rejection_reasons"] == ["non_compliant"]
            else:
                assert verdict["kept"]
        assert sum(not v["kept"] for v in verdicts) == len(cqg)

    def test_benchmark_tracer_counts_the_verdicts_written(self, dialogue_corpus_file, tmp_path, monkeypatch):
        # The benchmark's tracer counts verdicts, and reads the keep target,
        # through ``align_responses(task, stats, reasons, config, threshold)``.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from tracer import Tracer

        out_dir = tmp_path / "out"
        tracer = Tracer("test")
        tracer.install()
        try:
            run_pipeline(parse_config({
                "out_dir": str(out_dir), "corpus": str(dialogue_corpus_file), "task": "cqa", "n_per_prompt": 2,
            }))
        finally:
            tracer.restore()
        aligned = (out_dir / "align" / "seed0" / "aligned.jsonl").read_text().splitlines()
        verdicts = [json.loads(line) for line in aligned]
        assert tracer.counts["msa_align.candidates"] == len(verdicts) == 20
        assert tracer.counts["msa_align.kept"] == sum(v["kept"] for v in verdicts) > 0
        assert tracer.target_keep_fraction == 0.2
        gate_spans = [span for span in tracer.spans if tracer.names[span[1]] == "msa_align.gate_statistic"]
        assert len(gate_spans) == len(verdicts)


class TestInferCorpus:
    def test_one_generate_call_builds_one_thread_pool(self, dialogue_corpus_file, monkeypatch):
        corpus = load_corpus(dialogue_corpus_file, Task.CQA)
        pools = []

        class CountingPool(lowbias_infer.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(lowbias_infer, "ThreadPoolExecutor", CountingPool)
        backend = StubBackend(StubMode.MARKOV)
        candidates = infer_in_process(corpus, backend, n_per_prompt=2, seed=3, max_tokens=4, max_in_flight=2)
        assert len(corpus) >= 3 and len(pools) == 1
        spec = default_prompt_spec(Task.CQA)
        assert candidates == {
            s.id: lowbias_infer.generate(build_prompt(s, spec), backend, n_per_prompt=2, seed=3, max_tokens=4)
            for s in corpus
        }

    def test_backend_error_counts_prompts_across_the_corpus(self, dialogue_corpus_file):
        corpus = load_corpus(dialogue_corpus_file, Task.CQA)
        spec = default_prompt_spec(Task.CQA)
        table = {build_prompt(s, spec)[0]: "x" for i, s in enumerate(corpus) if i != 2}
        with pytest.raises(BackendError) as info:
            backend = StubBackend(StubMode.TABLE, table=table)
            infer_in_process(corpus, backend, n_per_prompt=1, seed=0, max_tokens=4)
        assert info.value.prompt_index == 2


@pytest.fixture
def runner():
    return CliRunner()


def invoke_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestCliVerbs:
    def test_print_schema(self, runner):
        result = invoke_ok(runner, ["run", "--print-schema"])
        schema = json.loads(result.output)
        assert schema["required"] == ["out_dir"]
        assert "synth" in schema["properties"]

    def test_print_schema_bytes_are_pinned(self, runner):
        # The schema shows every built-in default: the split triggers, the
        # alignment keywords and dull patterns, and each dataclass default.
        output = invoke_ok(runner, ["run", "--print-schema"]).output
        assert hashlib.sha256(output.encode()).hexdigest() == (
            "95f5134685e27c9a57c6ea0a4f927dd8feda9e1630d8feef4b246fd6ddc6b013"
        )

    def test_split_verb(self, runner, dialogue_corpus_file, tmp_path):
        out = tmp_path / "splitout"
        result = invoke_ok(runner, [
            "split", "--corpus", str(dialogue_corpus_file), "--task", "cqa",
            "--out-dir", str(out),
        ])
        assert "biased" in result.output
        assert (out / "evidence.jsonl").exists()
        assert (out / "biased.jsonl").exists() and (out / "non_biased.jsonl").exists()

    def test_split_task_picks_the_kind_as_run_does(self, runner, dialogue_corpus_file, tmp_path):
        help_text = invoke_ok(runner, ["split", "--help"]).output
        assert "--bias" not in help_text and "--min-lead-score" not in help_text
        corpus = load_corpus(dialogue_corpus_file, Task.CQA)
        sum_file = save_corpus(
            Corpus(tuple(dataclasses.replace(s, task=Task.SUM) for s in corpus), Task.SUM), tmp_path / "sum.jsonl"
        )
        run_dir = tmp_path / "run"
        run_pipeline(parse_config({"out_dir": str(run_dir), "corpus": str(sum_file), "task": "sum", "bias": "lead"}))
        cli_dir = tmp_path / "cli"
        invoke_ok(runner, ["split", "--corpus", str(sum_file), "--task", "sum", "--out-dir", str(cli_dir)])
        evidence = [json.loads(line) for line in (cli_dir / "evidence.jsonl").read_text().splitlines()]
        assert {e["kind"] for e in evidence} == {"lead"} and len(evidence) == len(corpus)
        for name in ("biased.jsonl", "non_biased.jsonl", "evidence.jsonl"):
            assert (cli_dir / name).read_bytes() == (run_dir / "split" / name).read_bytes(), name

    @pytest.mark.parametrize(
        ("task", "option"),
        [("sum", "--positions"), ("sum", "--triggers"), ("cqa", "--triggers"), ("nli", "--positions")],
    )
    def test_split_rejects_the_option_of_another_bias_kind(self, runner, dialogue_corpus_file, tmp_path, task, option):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "split", "--corpus", str(dialogue_corpus_file), "--task", task, "--out-dir", str(out), option, "5",
        ])
        assert result.exit_code != 0
        assert f"split: {option} is not read by a {task} split" in result.output
        assert not out.exists()

    def test_split_reads_the_option_of_its_own_bias_kind(self, runner, dialogue_corpus_file, nli_corpus_file, tmp_path):
        invoke_ok(runner, [
            "split", "--corpus", str(dialogue_corpus_file), "--task", "cqa", "--out-dir", str(tmp_path / "cqa"),
            "--positions", "2,3",
        ])
        evidence = [json.loads(line) for line in (tmp_path / "cqa" / "evidence.jsonl").read_text().splitlines()]
        assert {e["relative_position"] in (2, 3) for e in evidence if "relative_position" in e} == {True, False}
        assert all(e["biased"] == (e.get("relative_position") in (2, 3)) for e in evidence)
        invoke_ok(runner, [
            "split", "--corpus", str(nli_corpus_file), "--task", "nli", "--out-dir", str(tmp_path / "nli"),
            "--triggers", "sky",
        ])
        evidence = [json.loads(line) for line in (tmp_path / "nli" / "evidence.jsonl").read_text().splitlines()]
        assert {e["id"] for e in evidence if e["biased"]} == {"n3"}

    @pytest.mark.parametrize("option", ["--max-tokens", "--n-per-prompt", "--max-in-flight"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_infer_rejects_counts_below_one(self, runner, dialogue_corpus_file, tmp_path, option, value):
        out = tmp_path / "candidates.jsonl"
        result = runner.invoke(main, [
            "infer", "--corpus", str(dialogue_corpus_file), "--task", "cqa", "--out", str(out), option, value,
        ])
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        ("verb", "task", "option", "value", "message"),
        [
            ("split", "cqa", "--positions", "", "bad --positions ''"),
            ("split", "cqa", "--positions", ",", "bad --positions ','"),
            ("split", "cqa", "--positions", "0,x", "bad --positions '0,x'"),
            ("eval", "cqa", "--positions", "", "bad --positions ''"),
            ("eval", "cqa", "--positions", " , ", "bad --positions ' , '"),
            ("split", "nli", "--triggers", "", "bad --triggers ''"),
            ("split", "nli", "--triggers", " ,", "bad --triggers ' ,'"),
            ("split", "nli", "--triggers", "!!", "split: --triggers[0] tokenizes to nothing: '!!'"),
            ("split", "nli", "--triggers", "sky,?", "split: --triggers[1] tokenizes to nothing: '?'"),
            # Click's ranges, the bounds of CONFIG_SCHEMA; --aligned names a bad aligned file.
            ("train-toy", "cqa", "--epochs", "-1", "Invalid value for '--epochs': -1 is not in the range x>=0."),
            ("train-toy", "cqa", "--learning-rate", "-1", "Invalid value for '--learning-rate': -1.0 is not in the range x>=0."),
            ("train-toy", "cqa", "--clip-norm", "0", "Invalid value for '--clip-norm': 0.0 is not in the range x>0."),
            ("train-toy", "cqa", "--alpha", "1.5", "Invalid value for '--alpha': 1.5 is not in the range 0<=x<=1."),
        ],
    )
    def test_split_and_eval_reject_a_bad_option_value_before_loading(
        self, runner, dialogue_corpus_file, tmp_path, monkeypatch, verb, task, option, value, message
    ):
        def load(*args):
            raise AssertionError("loaded before the options were checked")

        monkeypatch.setattr("posdebias.cli.load_corpus", load)
        monkeypatch.setattr("posdebias.cli.load_aligned", load)
        monkeypatch.setattr("posdebias.toy_model.load_model", load)
        out = tmp_path / "out"
        if verb == "train-toy":
            args = [verb, "--train", str(dialogue_corpus_file), "--aligned", str(dialogue_corpus_file), "--out", str(out)]
        else:
            args = [verb, "--corpus", str(dialogue_corpus_file)]
            args += ["--out-dir", str(out)] if verb == "split" else ["--model", str(dialogue_corpus_file), "--out", str(out)]
        result = runner.invoke(main, args + ["--task", task, option, value])
        # A click parameter error exits with 2, a verb's own check with 1.
        assert result.exit_code == (2 if message.startswith("Invalid value") else 1), result.output
        assert f"Error: {message}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        ("backend", "env_url", "message"),
        [
            ("url:", None, "backend 'url:': endpoint '' is not an absolute http(s) URL"),
            ("url:notaurl", None, "backend 'url:notaurl': endpoint 'notaurl' is not an absolute http(s) URL"),
            ("url:http://host/x", "notaurl", f"endpoint 'notaurl' (from {BACKEND_URL_ENV}) is not an absolute"),
        ],
    )
    def test_infer_rejects_a_bad_endpoint_before_loading(
        self, runner, dialogue_corpus_file, tmp_path, monkeypatch, backend, env_url, message
    ):
        def load(*args):
            raise AssertionError("loaded before the endpoint was checked")

        monkeypatch.setattr("posdebias.cli.load_corpus", load)
        monkeypatch.delenv(BACKEND_URL_ENV, raising=False)
        if env_url:
            monkeypatch.setenv(BACKEND_URL_ENV, env_url)
        out = tmp_path / "candidates.jsonl"
        result = runner.invoke(main, ["infer", "--corpus", str(dialogue_corpus_file), "--task", "cqa", "--backend", backend, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert message in result.output
        assert not out.exists()

    def test_split_rejects_unknown_task(self, runner, dialogue_corpus_file, tmp_path):
        result = runner.invoke(main, [
            "split", "--corpus", str(dialogue_corpus_file), "--task", "qa",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert result.exit_code != 0
        assert "unknown task" in result.output

    def test_infer_align_train_eval_report_round_trip(self, runner, tmp_path):
        spec = SynthSpec(n_utterances=6, n_train=8, n_eval=8, biased_fraction=0.9, vocab_size=12, seed=5)
        train_c, eval_b, eval_n = synth_corpus(spec)
        train_file = save_corpus(train_c, tmp_path / "train.jsonl")
        pool_file = save_corpus(
            Corpus(tuple(eval_b) + tuple(eval_n), Task.CQA), tmp_path / "pool.jsonl"
        )
        table_file = tmp_path / "table.json"
        table_file.write_text(json.dumps(build_lowbias_table(train_c, seed=2)))

        candidates = tmp_path / "candidates.jsonl"
        invoke_ok(runner, [
            "infer", "--corpus", str(train_file), "--task", "cqa",
            "--backend", f"table:{table_file}", "--out", str(candidates),
            "--n-per-prompt", "2",
        ])
        assert len(candidates.read_text().splitlines()) == 16

        aligned = tmp_path / "aligned.jsonl"
        result = invoke_ok(runner, [
            "align", "--candidates", str(candidates), "--task", "cqa",
            "--corpus", str(train_file), "--out", str(aligned),
        ])
        assert "calibrated threshold" in result.output
        verdicts = [json.loads(line) for line in aligned.read_text().splitlines()]
        assert len(verdicts) == 16
        assert all(v["kept"] == (not v["rejection_reasons"]) for v in verdicts)

        model_file = tmp_path / "model.json"
        trace_file = tmp_path / "epochs.jsonl"
        invoke_ok(runner, [
            "train-toy", "--train", str(train_file), "--aligned", str(aligned),
            "--alpha", "0.2", "--epochs", "2", "--vocab-size", "12",
            "--out", str(model_file), "--trace", str(trace_file),
        ])
        assert [json.loads(line)["epoch"] for line in trace_file.read_text().splitlines()] == [0, 1]

        eval_file = tmp_path / "eval.json"
        invoke_ok(runner, [
            "eval", "--model", str(model_file), "--corpus", str(pool_file),
            "--task", "cqa", "--metric", "accuracy", "--system", "zoe",
            "--out", str(eval_file),
        ])
        entry = json.loads(eval_file.read_text())
        assert entry["system"] == "zoe"
        assert set(entry["splits"]) == {"biased", "non_biased"}

        report_dir = tmp_path / "report"
        invoke_ok(runner, ["report", str(eval_file), "--out-dir", str(report_dir)])
        lines = (report_dir / "report.csv").read_text().splitlines()
        assert lines[0] == "system,split,metric,score,count"
        assert len(lines) == 3
        assert (report_dir / "relpos.svg").exists()

    @pytest.mark.parametrize("in_flight", ["1", "4"])
    @pytest.mark.parametrize("backend", ["markov", "table"])
    def test_infer_record_then_replay_writes_the_same_bytes(self, runner, tmp_path, backend, in_flight):
        spec = SynthSpec(n_utterances=6, n_train=4, n_eval=1, biased_fraction=0.9, vocab_size=12, seed=5)
        train_c, _, _ = synth_corpus(spec)
        corpus_file = save_corpus(train_c, tmp_path / "c.jsonl")
        if backend == "table":
            # Integer, signed-zero and float logprobs, each written back as JSON gave it.
            entries = [{"text": "a b c d", "token_logprobs": [-1, -0.0, -0.25, 0]}, "e f", {"text": "g", "token_logprobs": [-2]}]
            prompts = {p for s in train_c for p in build_prompt(s, default_prompt_spec(Task.CQA))}
            (tmp_path / "table.json").write_text(json.dumps(dict.fromkeys(prompts, entries)))
            backend = f"table:{tmp_path / 'table.json'}"
        recording = tmp_path / "traffic.jsonl"
        recording.write_text("an older recording, replaced\n")
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        invoke_ok(runner, [
            "infer", "--corpus", str(corpus_file), "--task", "cqa", "--max-in-flight", in_flight,
            "--backend", backend, "--record", str(recording), "--out", str(first),
        ])
        invoke_ok(runner, [
            "infer", "--corpus", str(corpus_file), "--task", "cqa",
            "--backend", f"replay:{recording}", "--out", str(second),
        ])

        def content(path):  # each line up to its last key, backend_id
            return [line.rpartition(', "backend_id": ')[0] for line in path.read_text().splitlines()]

        assert content(first) == content(second)
        if backend != "markov":  # the table's logprobs reach both files as written
            assert '"token_logprobs": [-1, -0.0, -0.25, 0]' in second.read_text()

    def test_infer_record_keeps_the_traffic_before_a_failing_prompt(self, runner, tmp_path):
        spec = SynthSpec(n_utterances=6, n_train=6, n_eval=1, biased_fraction=0.9, vocab_size=12, seed=5)
        train_c, _, _ = synth_corpus(spec)
        corpus_file = save_corpus(train_c, tmp_path / "c.jsonl")
        prompts = [build_prompt(s, default_prompt_spec(Task.CQA))[0] for s in train_c]
        (tmp_path / "table.json").write_text(json.dumps({p: ["a", "b"] for p in prompts[:3] + prompts[4:]}))
        recording = tmp_path / "traffic.jsonl"
        result = runner.invoke(main, [
            "infer", "--corpus", str(corpus_file), "--task", "cqa", "--backend", f"table:{tmp_path / 'table.json'}",
            "--n-per-prompt", "2", "--record", str(recording), "--out", str(tmp_path / "candidates.jsonl"),
        ])
        assert result.exit_code == 1 and "prompt 3: stub table has no entry" in result.output
        entries = [json.loads(line) for line in recording.read_text().splitlines()]
        assert [(e["request"]["prompt"], e["response"]["text"]) for e in entries] == [(p, t) for p in prompts[:3] for t in "ab"]
        assert not (tmp_path / "candidates.jsonl").exists()

    @pytest.mark.parametrize("strategy", ["diverse", "icl"])
    def test_infer_strategy_override_on_instruction_task(self, runner, tmp_path, strategy):
        spec = SynthSpec(n_utterances=6, n_train=6, n_eval=1, biased_fraction=0.9, vocab_size=12, seed=5)
        train_c, _, _ = synth_corpus(spec)
        corpus_file = save_corpus(train_c, tmp_path / "c.jsonl")
        recording = tmp_path / "traffic.jsonl"
        invoke_ok(runner, [
            "infer", "--corpus", str(corpus_file), "--task", "cqa", "--strategy", strategy,
            "--backend", "markov", "--n-per-prompt", "1", "--record", str(recording),
            "--out", str(tmp_path / "candidates.jsonl"),
        ])
        prompts = [json.loads(line)["request"]["prompt"] for line in recording.read_text().splitlines()]
        for sample in train_c:
            own = [p for p in prompts if p.endswith(sample.input_text) or p.endswith(f"{sample.input_text}\noutput:")]
            if strategy == "diverse":
                assert len(own) == len(DEFAULT_DIVERSE_PROMPTS)
                assert all(template in prompt for template, prompt in zip(DEFAULT_DIVERSE_PROMPTS, own))
            else:
                (prompt,) = own
                assert prompt.count("input: ") == DEFAULT_ICL_K + 1

    def test_icl_prompts_never_hold_the_samples_own_pair(self, tmp_path):
        spec = SynthSpec(n_utterances=6, n_train=6, n_eval=1, biased_fraction=0.9, vocab_size=12, seed=5)
        train_c, _, _ = synth_corpus(spec)
        recording = tmp_path / "traffic.jsonl"
        infer_shards(train_c, StubBackend(StubMode.MARKOV), n_per_prompt=1, seed=0, max_tokens=8, strategy="icl", record=recording)
        prompts = [json.loads(line)["request"]["prompt"] for line in recording.read_text().splitlines()]
        assert len(prompts) == len(train_c) == 6
        for sample, prompt in zip(train_c, prompts):
            assert prompt.endswith(f"input: {sample.input_text}\noutput:")
            assert f"input: {sample.input_text}\noutput: {sample.target}" not in prompt
            assert prompt.count("input: ") == DEFAULT_ICL_K + 1

    def test_split_infer_align_chain_matches_run_artifacts(self, runner, tmp_path):
        # Corpus order differs from sample-id order, so an id-sorted verdict
        # file would not match the one ``run`` writes.
        spec = SynthSpec(n_utterances=6, n_train=1, n_eval=15, biased_fraction=0.9, vocab_size=12, seed=3)
        _, eval_b, eval_n = synth_corpus(spec)
        samples = tuple(eval_n) + tuple(eval_b)
        corpus_file = save_corpus(Corpus(samples, Task.CQA), tmp_path / "corpus.jsonl")
        run_dir = tmp_path / "run"
        run_pipeline(parse_config({
            "out_dir": str(run_dir), "corpus": str(corpus_file), "task": "cqa", "backend": "markov",
        }))
        cli_dir = tmp_path / "cli"
        invoke_ok(runner, [
            "split", "--corpus", str(corpus_file), "--task", "cqa", "--out-dir", str(cli_dir),
        ])
        invoke_ok(runner, [
            "infer", "--corpus", str(corpus_file), "--task", "cqa", "--backend", "markov",
            "--out", str(cli_dir / "candidates.jsonl"),
        ])
        invoke_ok(runner, [
            "align", "--candidates", str(cli_dir / "candidates.jsonl"), "--task", "cqa",
            "--corpus", str(corpus_file), "--out", str(cli_dir / "aligned.jsonl"),
        ])
        pairs = {
            "biased.jsonl": "split/biased.jsonl",
            "non_biased.jsonl": "split/non_biased.jsonl",
            "evidence.jsonl": "split/evidence.jsonl",
            "candidates.jsonl": "infer/seed0/candidates.jsonl",
            "aligned.jsonl": "align/seed0/aligned.jsonl",
        }
        for cli_name, run_name in pairs.items():
            assert (cli_dir / cli_name).read_bytes() == (run_dir / run_name).read_bytes(), cli_name

    def test_align_rejects_unknown_ids_before_calibrating(self, runner, dialogue_corpus_file, tmp_path):
        candidates = tmp_path / "c.jsonl"
        candidates.write_text(json.dumps(
            {"sample_id": "ghost", "candidate_index": 0, "text": "x", "tokens": ["x"], "token_logprobs": [-0.1]}
        ) + "\n")
        result = runner.invoke(main, [
            "align", "--candidates", str(candidates), "--task", "cqa",
            "--corpus", str(dialogue_corpus_file), "--out", str(tmp_path / "a.jsonl"),
        ])
        assert result.exit_code != 0
        assert "'ghost' not in corpus" in result.output

    def test_align_rejects_nli(self, runner, tmp_path):
        candidates = tmp_path / "c.jsonl"
        candidates.write_text("")
        result = runner.invoke(main, [
            "align", "--candidates", str(candidates), "--task", "nli",
            "--out", str(tmp_path / "a.jsonl"),
        ])
        assert result.exit_code != 0
        assert "nli candidates are not pruned" in result.output

    def test_align_cqg_needs_no_corpus(self, runner, tmp_path):
        candidates = tmp_path / "c.jsonl"
        records = [
            {"sample_id": "s0", "candidate_index": 0, "text": "what is the topic",
             "tokens": ["what", "is", "the", "topic"], "token_logprobs": [-0.1] * 4},
            {"sample_id": "s0", "candidate_index": 1, "text": "the passage",
             "tokens": ["the", "passage"], "token_logprobs": [-0.1, -9.0]},
        ]
        candidates.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "aligned.jsonl"
        invoke_ok(runner, [
            "align", "--candidates", str(candidates), "--task", "cqg", "--out", str(out),
        ])
        verdicts = [json.loads(line) for line in out.read_text().splitlines()]
        assert verdicts[0]["kept"]
        assert "incoherent" in verdicts[1]["rejection_reasons"]

    def test_align_missing_corpus_for_target_gates(self, runner, tmp_path):
        candidates = tmp_path / "c.jsonl"
        candidates.write_text("")
        result = runner.invoke(main, [
            "align", "--candidates", str(candidates), "--task", "cqa",
            "--out", str(tmp_path / "a.jsonl"),
        ])
        assert result.exit_code != 0
        assert "--corpus is required" in result.output

    def test_align_threshold_option_sets_the_candidates(self, runner, dialogue_corpus_file, tmp_path):
        corpus = load_corpus(dialogue_corpus_file, Task.CQA)
        candidates = infer_in_process(corpus, StubBackend(StubMode.MARKOV), n_per_prompt=2, seed=0, max_tokens=8)
        candidates_file = tmp_path / "c.jsonl"
        candidates_file.write_text(candidates_jsonl(candidates), encoding="utf-8")
        for thresholds in ((0.15,), (0.1, 0.3)):
            out = tmp_path / "aligned.jsonl"
            result = invoke_ok(runner, [
                "align", "--candidates", str(candidates_file), "--task", "cqa",
                "--corpus", str(dialogue_corpus_file), "--out", str(out),
                *(arg for t in thresholds for arg in ("--threshold", str(t))),
            ])
            aligned, threshold = align_corpus(
                Task.CQA, corpus.samples, candidates, AlignmentConfig(candidate_thresholds=thresholds)
            )
            assert f"calibrated threshold {threshold:g}\n" in result.output
            assert out.read_bytes() == aligned_jsonl(candidates, aligned).encode("utf-8")
            if len(thresholds) == 1:
                assert threshold == thresholds[0]

    def test_align_without_candidates_fails(self, runner, tmp_path):
        candidates = tmp_path / "c.jsonl"
        candidates.write_text("")
        result = runner.invoke(main, [
            "align", "--candidates", str(candidates), "--task", "cqg", "--out", str(tmp_path / "a.jsonl"),
        ])
        assert result.exit_code != 0
        assert "nothing to calibrate" in result.output

    def test_gate_threshold_has_one_option_and_no_fixed_field(self, runner):
        help_text = invoke_ok(runner, ["align", "--help"]).output
        assert "--threshold FLOAT" in help_text
        for removed in ("--incoherence-threshold", "--unreliable-threshold", "--calibrate", "--no-calibrate"):
            assert removed not in help_text
        schema = json.loads(invoke_ok(runner, ["run", "--print-schema"]).output)
        assert "calibrate" not in schema["properties"]
        assert sorted(schema["properties"]["align"]["properties"]) == [
            "candidate_thresholds", "dull_patterns", "instruction_keywords", "target_keep_fraction",
        ]

    def test_run_verb_with_config_file(self, runner, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({
            **TOY_RAW,
            "synth": {"n_utterances": 6, "n_train": 6, "n_eval": 6, "biased_fraction": 0.9, "vocab_size": 12, "seed": 0},
            "seeds": [0],
            "systems": ["ft"],
            "epochs": 1,
            "out_dir": str(tmp_path / "ignored"),
        }))
        out_dir = tmp_path / "out"
        result = invoke_ok(runner, ["run", "--config", str(config_file), "--out-dir", str(out_dir)])
        assert "completed stages" in result.output
        assert (out_dir / "manifest.json").exists()

    def test_run_rejects_bad_json(self, runner, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text("{not json")
        result = runner.invoke(main, ["run", "--config", str(config_file)])
        assert result.exit_code != 0
        assert "not valid JSON" in result.output

    @pytest.mark.parametrize(
        "content, problem",
        [(b"[1, 2]", "config: field 'config' has the wrong type: [1, 2] (expected object)"), (b'{"out_dir": "\xff"}', "can't decode byte 0xff")],
        ids=["top-level-not-an-object", "not-utf8"],
    )
    def test_run_rejects_an_unreadable_config_in_one_line(self, runner, tmp_path, content, problem):
        config_file = tmp_path / "config.json"
        config_file.write_bytes(content)
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", str(config_file), "--out-dir", str(out_dir)])
        assert result.exit_code == 1 and result.exception.__class__ is SystemExit
        assert problem in result.output and len(result.output.strip().splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "verb, artifact, field",
        [
            ("eval", {}, "'vocabulary'"),
            ("eval", {"vocabulary": ["a"], "weights": [["x"]]}, "'weights'"),
            ("eval", {"vocabulary": [], "weights": [], "window_scale": "2"}, "'window_scale'"),
            ("eval", {"vocabulary": ["a"], "weights": [[-(10**400)]]}, "'weights'"),
            ("eval", {"vocabulary": ["a"], "weights": [[True], [True], [True], [True]]}, "'weights'"),
            ("report", {"system": "ft", "splits": []}, "'splits'"),
            ("report", {"system": "ft", "splits": {"biased": {"score": "0.5", "count": 3}}}, "'splits.biased.score'"),
            ("report", {"system": "ft", "splits": {"biased": {"score": 10**400, "count": 3}}}, "'splits.biased.score'"),
            ("report", {"system": "ft", "by_position": [{"position": 0, "score": 1.0}]}, "'by_position[0].count'"),
            ("report", [], "must be a JSON object"),
        ],
        ids=[
            "model-empty-object", "model-weights-not-numbers", "model-window-scale-string", "model-weight-too-large",
            "model-weights-booleans",
            "eval-splits-a-list", "eval-score-a-string", "eval-score-too-large", "eval-position-row-without-count",
            "eval-not-an-object",
        ],
    )
    def test_bad_model_or_eval_file_fails_in_one_line_naming_the_field(
        self, runner, tmp_path, dialogue_corpus_file, verb, artifact, field
    ):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(artifact))
        if verb == "eval":
            args = ["eval", "--model", str(path), "--corpus", str(dialogue_corpus_file), "--out", str(tmp_path / "e.json")]
        else:
            args = ["report", str(path), "--out-dir", str(tmp_path / "report")]
        result = runner.invoke(main, args)
        assert result.exit_code == 1 and result.exception.__class__ is SystemExit
        (line,) = result.output.strip().splitlines()
        assert str(path) in line and field in line
        assert not (tmp_path / "e.json").exists() and not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "second", [{"system": "zoe", "metric": "rouge_l"}, {"system": "ft", "metric": "accuracy"}],
        ids=["mixed-metrics", "repeated-system"],
    )
    def test_report_rejects_eval_files_it_cannot_chart_together(self, runner, tmp_path, second):
        paths = []
        for name, entry in (("a.json", {"system": "ft", "metric": "accuracy"}), ("b.json", second)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps({**entry, "splits": {"biased": {"score": 0.5, "count": 2}}}))
        result = runner.invoke(main, ["report", *map(str, paths), "--out-dir", str(tmp_path / "report")])
        assert result.exit_code == 1
        (line,) = result.output.strip().splitlines()
        assert "one metric and name each system once" in line and all(str(path) in line for path in paths)
        assert not (tmp_path / "report").exists()

    def test_report_rejects_an_eval_file_without_splits_before_writing(self, runner, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"system": "a", "metric": "accuracy"}))
        result = runner.invoke(main, ["report", str(path), "--out-dir", str(tmp_path / "report")])
        assert result.exit_code == 1 and result.exception.__class__ is SystemExit
        (line,) = result.output.strip().splitlines()
        assert line == f"Error: report: eval file {path} has no split scores to report"
        assert not (tmp_path / "report").exists()

    def test_report_draws_no_position_chart_without_a_known_position(self, runner, tmp_path):
        # ``eval`` writes such rows when no sample has an answered turn.
        path = tmp_path / "a.json"
        path.write_text(json.dumps({
            "system": "a", "metric": "accuracy", "splits": {"biased": {"score": 0.5, "count": 2}},
            "by_position": [{"position": None, "score": 0.5, "count": 2}],
        }))
        report_dir = tmp_path / "report"
        invoke_ok(runner, ["report", str(path), "--out-dir", str(report_dir)])
        assert sorted(p.name for p in report_dir.iterdir()) == ["report.csv", "report_by_relpos.csv", "splits.svg"]

    @BAD_TABLE_ENTRIES
    def test_infer_rejects_a_bad_table_file_entry_in_one_line(self, runner, tmp_path, dialogue_corpus_file, entry, message):
        table = tmp_path / "table.json"
        prompt = write_bad_table(table, entry)
        out = tmp_path / "candidates.jsonl"
        result = runner.invoke(main, [
            "infer", "--corpus", str(dialogue_corpus_file), "--task", "cqa",
            "--backend", f"table:{table}", "--out", str(out),
        ])
        assert result.exit_code == 1 and result.exception.__class__ is SystemExit
        (line,) = result.output.strip().splitlines()
        assert re.match(rf"Error: backend 'table:{re.escape(str(table))}': {prompt}: .*{re.escape(message)}", line)
        assert not out.exists()

    @BAD_REPLAY_RESPONSES
    def test_infer_rejects_a_bad_replay_response_in_one_line(self, runner, tmp_path, dialogue_corpus_file, response, message):
        tape = tmp_path / "tape.jsonl"
        write_bad_replay(tape, response)
        out = tmp_path / "candidates.jsonl"
        result = runner.invoke(main, [
            "infer", "--corpus", str(dialogue_corpus_file), "--task", "cqa",
            "--backend", f"replay:{tape}", "--out", str(out),
        ])
        assert result.exit_code == 1 and result.exception.__class__ is SystemExit
        (line,) = result.output.strip().splitlines()
        assert f"Error: backend 'replay:{tape}': {tape}: line 2: response to prompt 'p q': {message}" in line
        assert not out.exists()

    @pytest.mark.parametrize("backend", ["echo", "table:table.json"])
    def test_infer_rejects_max_tokens_on_a_backend_that_never_reads_it(self, runner, tmp_path, dialogue_corpus_file, monkeypatch, backend):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "table.json").write_text("{}")
        out = tmp_path / "candidates.jsonl"
        result = runner.invoke(main, [
            "infer", "--corpus", str(dialogue_corpus_file), "--task", "cqa",
            "--backend", backend, "--out", str(out), "--max-tokens", "1",
        ])
        assert result.exit_code == 1
        assert result.output == f"Error: infer: --max-tokens is not read by backend {backend!r}\n"
        assert not out.exists()

    def test_infer_rejects_a_replay_line_without_response_in_one_line(self, runner, tmp_path, dialogue_corpus_file):
        tape = tmp_path / "tape.jsonl"
        tape.write_text('{"request": {}, "response": {"tokens": [], "token_logprobs": []}}\n{"request": {}}\n')
        out = tmp_path / "candidates.jsonl"
        result = runner.invoke(main, [
            "infer", "--corpus", str(dialogue_corpus_file), "--task", "cqa",
            "--backend", f"replay:{tape}", "--out", str(out),
        ])
        assert result.exit_code == 1 and result.exception.__class__ is SystemExit
        (line,) = result.output.strip().splitlines()
        assert f"{tape}: line 2: missing field 'response'" in line
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["align", "train-toy"])
    def test_non_utf8_jsonl_artifact_fails_in_one_line_naming_the_file(self, runner, tmp_path, dialogue_corpus_file, verb):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\n")
        out = tmp_path / "out.jsonl"
        if verb == "align":
            args = ["align", "--candidates", str(bad), "--task", "cqg", "--out", str(out)]
        else:
            args = ["train-toy", "--train", str(dialogue_corpus_file), "--aligned", str(bad), "--alpha", "0.2", "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1 and result.exception.__class__ is SystemExit
        (line,) = result.output.strip().splitlines()
        assert f"{bad}: not valid UTF-8" in line
        assert not out.exists()

    @pytest.mark.parametrize(
        "verb, edit, message",
        [
            # json.dumps escapes a lone surrogate as "\ud800", which loads
            # but no output file can hold.
            ("split", {"document": ["t1 c1", "t2 \ud800"]}, "field 'document[1]' does not encode as UTF-8"),
            ("infer", {"document": ["t1 c1", "t2 \ud800"]}, "field 'document[1]' does not encode as UTF-8"),
            ("align", {"text": "x \ud800"}, "field 'text' does not encode as UTF-8"),
            ("align", {"tokens": ["\ud800"]}, "field 'tokens' does not encode as UTF-8"),
            ("align", {"token_logprobs": [False]}, "field 'token_logprobs' has an item of the wrong type: False"),
            ("align", {"token_logprobs": ["-0.1"]}, "field 'token_logprobs' has an item of the wrong type: '-0.1'"),
            ("align", {"token_logprobs": [-(10**400)]}, "field 'token_logprobs' has a number too large for a float"),
            ("align", {"text": None}, "missing field 'text'"),
            ("train-toy", {"token_logprobs": ["x", {}]}, "field 'token_logprobs' has an item of the wrong type: 'x'"),
            ("train-toy", {"kept": False, "rejection_reasons": ["bogus"]}, "field 'rejection_reasons[0]' is not a rejection reason: 'bogus'"),
        ],
        ids=[
            "split-surrogate", "infer-surrogate", "align-surrogate-text", "align-surrogate-token",
            "align-bool-logprob", "align-string-logprob", "align-huge-logprob", "align-no-text",
            "train-toy-non-number-logprobs", "train-toy-unknown-reason",
        ],
    )
    def test_bad_jsonl_record_fails_at_read_in_one_line(self, runner, tmp_path, dialogue_corpus_file, verb, edit, message):
        # A corpus record for split and infer, a candidate for align, a verdict for train-toy; ``None`` drops a key.
        record = {
            "align": {"sample_id": "s0", "text": "x", "tokens": ["x"], "token_logprobs": [-0.1]},
            "train-toy": {"sample_id": "s0", "text": "x", "token_logprobs": [-0.1], "kept": True},
        }.get(verb, {"id": "s0", "task": "cqa", "document": ["t1 c1"], "target": "t1 c1"})
        record = {k: v for k, v in {**record, **edit}.items() if v is not None}
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        args = {
            "split": ["split", "--corpus", str(bad), "--task", "cqa", "--out-dir", str(out)],
            "infer": ["infer", "--corpus", str(bad), "--task", "cqa", "--backend", "echo", "--out", str(out)],
            "align": ["align", "--candidates", str(bad), "--task", "cqg", "--out", str(out)],
            "train-toy": ["train-toy", "--train", str(dialogue_corpus_file), "--aligned", str(bad), "--alpha", "0.2", "--out", str(out)],
        }[verb]
        result = runner.invoke(main, args)
        assert result.exit_code == 1 and result.exception.__class__ is SystemExit
        (line,) = result.output.strip().splitlines()
        assert line.startswith(f"Error: {bad}: line 1: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "options, problem",
        [
            (["--aligned", "known.jsonl", "--alpha", "0"], "train-toy: --aligned is not read with --alpha 0"),
            (["--alpha", "0.2"], "train-toy: --alpha 0.2 is not read without --aligned"),
            (["--aligned", "unknown.jsonl", "--alpha", "0.2"], "train-toy: aligned sample id 'nope' not in --train"),
        ],
        ids=["aligned-with-alpha-zero", "alpha-without-aligned", "aligned-id-not-in-train"],
    )
    def test_train_toy_rejects_alignment_inputs_it_would_not_read(
        self, runner, tmp_path, dialogue_corpus_file, options, problem
    ):
        known = load_corpus(dialogue_corpus_file, Task.CQA).samples[0].id
        for name, sample_id in (("known.jsonl", known), ("unknown.jsonl", "nope")):
            verdict = {"sample_id": sample_id, "text": "a b", "token_logprobs": [-0.1, -0.2], "kept": True}
            (tmp_path / name).write_text(json.dumps(verdict) + "\n")
        out = tmp_path / "model.json"
        result = runner.invoke(main, [
            "train-toy", "--train", str(dialogue_corpus_file), "--epochs", "1", "--out", str(out),
            *(str(tmp_path / o) if o.endswith(".jsonl") else o for o in options),
        ])
        assert result.exit_code == 1 and result.exception.__class__ is SystemExit
        (line,) = result.output.strip().splitlines()
        assert problem in line
        assert not out.exists()

    def test_train_toy_rejects_a_kept_verdict_with_reasons(self, runner, tmp_path, dialogue_corpus_file):
        known = load_corpus(dialogue_corpus_file, Task.CQA).samples[0].id
        aligned = tmp_path / "aligned.jsonl"
        aligned.write_text("".join(
            json.dumps({"sample_id": known, "text": "a b", "token_logprobs": [-0.1, -0.2], "kept": kept, "rejection_reasons": ["dull"]}) + "\n"
            for kept in (False, True)
        ))
        problem = f"{aligned}: line 2: field 'kept' disagrees with 'rejection_reasons'"
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            load_aligned(aligned)
        out = tmp_path / "model.json"
        result = runner.invoke(main, [
            "train-toy", "--train", str(dialogue_corpus_file), "--aligned", str(aligned), "--alpha", "0.2",
            "--epochs", "1", "--out", str(out),
        ])
        assert result.exit_code == 1 and result.exception.__class__ is SystemExit
        (line,) = result.output.strip().splitlines()
        assert line == f"Error: {problem}"
        assert not out.exists()

    def test_train_toy_rejects_an_infinite_learning_rate(self, runner, tmp_path, dialogue_corpus_file):
        out = tmp_path / "model.json"
        result = runner.invoke(main, [
            "train-toy", "--train", str(dialogue_corpus_file), "--learning-rate", "inf", "--out", str(out),
        ])
        assert result.exit_code == 1 and result.exception.__class__ is SystemExit
        (line,) = result.output.strip().splitlines()
        assert line == "Error: train: learning_rate must be finite and >= 0, got inf"
        assert not out.exists()

    def test_run_requires_config(self, runner):
        result = runner.invoke(main, ["run"])
        assert result.exit_code != 0
        assert "--config is required" in result.output


def test_every_readme_import_resolves():
    # The package root re-exports nothing: module paths are the one documented way in.
    import posdebias

    assert all(name.startswith("_") or inspect.ismodule(value) for name, value in vars(posdebias).items())
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    imports = re.findall(r"^\s*(from posdebias\S* import .+)$", readme, flags=re.MULTILINE)
    assert imports
    for line in imports:
        exec(line, {})
