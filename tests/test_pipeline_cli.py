"""End-to-end pipeline and CLI tests on small corpora."""
import dataclasses
import hashlib
import json
import multiprocessing
import os
import tempfile
from pathlib import Path
from statistics import mean

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from conftest import nli_sample
from posdebias import lowbias_infer
from posdebias.backends import BackendError, RecordingBackend, StubBackend, StubMode
from posdebias.bias_split import BIAS_BY_TASK, BiasKind
from posdebias.cli import main
from posdebias.corpus import Corpus, Task, load_corpus, save_corpus
from posdebias.lowbias_infer import DEFAULT_DIVERSE_PROMPTS, DEFAULT_ICL_K, build_prompt, default_prompt_spec
from posdebias.msa_align import AlignmentConfig
from posdebias.objective import LossConfig
from posdebias.pipeline import (
    CONFIG_SCHEMA,
    PipelineConfig,
    PipelineError,
    _lockstep_groups,
    align_corpus,
    infer_corpus,
    parse_config,
    run_pipeline,
)
from posdebias.records import load_aligned, write_aligned, write_candidates, write_epochs
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
    "alphas": [0.2],
    "epochs": 2,
    "learning_rate": 0.5,
    "n_per_prompt": 3,
}


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
            "toy-table-max-tokens", "toy-markov-garbage-rate",
        ],
    )
    def test_bad_field_rejected_before_any_stage(self, tmp_path, monkeypatch, raw, field):
        monkeypatch.chdir(tmp_path)  # relative backend files resolve here; only bad.json exists
        (tmp_path / "bad.json").write_text("{not json")
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match=rf"config: .*\b{field}\b"):
            parse_config({**raw, "out_dir": str(out_dir)})
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


class TestPipelineFailureModes:
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
        jobs = [(system, seed) for system in ("ft", "zoe") for seed in (1, 0)]
        groups = _lockstep_groups([12] * len(jobs), min(len(jobs), len(os.sched_getaffinity(0))))
        assert sorted(i for group in groups for i in group) == list(range(len(jobs)))
        for group in groups:
            runs = train_lockstep(
                [
                    TrainJob(
                        ToyModel.initialize(12, seed=seed),
                        data[seed][0],
                        aligned=data[seed][1] if system == "zoe" else None,
                        config=LossConfig(alpha=0.2 if system == "zoe" else 0.0),
                        seed=seed,
                    )
                    for system, seed in (jobs[i] for i in group)
                ],
                epochs=3,
                learning_rate=0.5,
                clip_norm=1.0,
            )
            for i, run in zip(group, runs):
                system, seed = jobs[i]
                run_dir = out_dir / "runs" / system / f"seed{seed}"
                direct = tmp_path / "direct" / system / f"seed{seed}"
                expected_model = save_model(run.model, direct / "model.json").read_bytes()
                expected_epochs = write_epochs(run.epoch_summaries(), direct / "epochs.jsonl").read_bytes()
                assert (run_dir / "model.json").read_bytes() == expected_model
                assert (run_dir / "epochs.jsonl").read_bytes() == expected_epochs
                assert sorted(p.name for p in run_dir.iterdir()) == ["epochs.jsonl", "model.json"]

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
                    config=LossConfig(alpha=0.2), epochs=2, learning_rate=1e308, seed=0,
                )
        by_stage = {s["stage"]: s for s in json.loads((out_dir / "manifest.json").read_text())["stages"]}
        assert by_stage["train"]["status"] == "failed"
        assert by_stage["train"]["error"] == str(serial.value)
        assert "eval" not in by_stage


class TestEpochSummaries:
    """``runs/<label>/seed<N>/epochs.jsonl`` against the per-step trace of
    ``train-toy --trace`` on the same job."""

    def test_epoch_means_match_the_per_step_trace(self, runner, tmp_path):
        out_dir = tmp_path / "out"
        run_toy(out_dir, seeds=[0], systems=["ft", "zoe"], epochs=3)
        for system in ("ft", "zoe"):
            epochs_file = out_dir / "runs" / system / "seed0" / "epochs.jsonl"
            summaries = [json.loads(line) for line in epochs_file.read_text().splitlines()]
            assert [s["epoch"] for s in summaries] == [0, 1, 2]
            trace_file = tmp_path / f"{system}-trace.jsonl"
            args = [
                "train-toy", "--train", str(out_dir / "data" / "seed0" / "train.jsonl"), "--vocab-size", "12",
                "--epochs", "3", "--learning-rate", "0.5", "--seed", "0",
                "--out", str(tmp_path / f"{system}.json"), "--trace", str(trace_file),
            ]
            if system == "zoe":
                args += ["--aligned", str(out_dir / "align" / "seed0" / "aligned.jsonl"), "--alpha", "0.2"]
            invoke_ok(runner, args)
            trace = [json.loads(line) for line in trace_file.read_text().splitlines()]
            for summary in summaries:
                steps = [t for t in trace if t["epoch"] == summary["epoch"]]
                assert summary["l_target"] == pytest.approx(mean(t["l_target"] for t in steps), rel=1e-12)
                assert summary["combined"] == pytest.approx(mean(t["combined"] for t in steps), rel=1e-12)
                aligned = [t["l_align"] for t in steps if t["l_align"] is not None]
                if aligned:
                    assert summary["l_align"] == pytest.approx(mean(aligned), rel=1e-12)
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
        # through ``align_responses(task, sample, candidates, config)``.
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
        candidates = infer_corpus(corpus, backend, n_per_prompt=2, seed=3, max_tokens=4, max_in_flight=2)
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
            infer_corpus(corpus, backend, n_per_prompt=1, seed=0, max_tokens=4)
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
            "--n-per-prompt", "2", "--max-tokens", "6",
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
        trace_file = tmp_path / "trace.jsonl"
        invoke_ok(runner, [
            "train-toy", "--train", str(train_file), "--aligned", str(aligned),
            "--alpha", "0.2", "--epochs", "2", "--vocab-size", "12",
            "--out", str(model_file), "--trace", str(trace_file),
        ])
        assert len(trace_file.read_text().splitlines()) == 16

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

    def test_infer_record_then_replay(self, runner, tmp_path):
        spec = SynthSpec(n_utterances=6, n_train=4, n_eval=1, biased_fraction=0.9, vocab_size=12, seed=5)
        train_c, _, _ = synth_corpus(spec)
        corpus_file = save_corpus(train_c, tmp_path / "c.jsonl")
        recording = tmp_path / "traffic.jsonl"
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        invoke_ok(runner, [
            "infer", "--corpus", str(corpus_file), "--task", "cqa",
            "--backend", "markov", "--record", str(recording), "--out", str(first),
        ])
        invoke_ok(runner, [
            "infer", "--corpus", str(corpus_file), "--task", "cqa",
            "--backend", f"replay:{recording}", "--out", str(second),
        ])

        def content(path):
            records = [json.loads(line) for line in path.read_text().splitlines()]
            for record in records:
                record.pop("backend_id")
            return records

        assert content(first) == content(second)

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
        backend = RecordingBackend(StubBackend(StubMode.MARKOV), recording)
        infer_corpus(train_c, backend, n_per_prompt=1, seed=0, max_tokens=8, strategy="icl")
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
        candidates = infer_corpus(corpus, StubBackend(StubMode.MARKOV), n_per_prompt=2, seed=0, max_tokens=8)
        candidates_file = write_candidates(candidates, tmp_path / "c.jsonl")
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
            assert out.read_bytes() == write_aligned(aligned, tmp_path / "want.jsonl").read_bytes()
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

    def test_run_requires_config(self, runner):
        result = runner.invoke(main, ["run"])
        assert result.exit_code != 0
        assert "--config is required" in result.output
