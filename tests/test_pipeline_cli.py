"""End-to-end pipeline and CLI tests on small corpora."""
import hashlib
import json
import multiprocessing

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import nli_sample
from posdebias.backends import RecordingBackend, StubBackend, StubMode
from posdebias.cli import main
from posdebias.corpus import Corpus, Task, load_corpus, save_corpus
from posdebias.lowbias_infer import DEFAULT_DIVERSE_PROMPTS, DEFAULT_ICL_K
from posdebias.objective import LossConfig
from posdebias.pipeline import PipelineError, infer_corpus, parse_config, run_pipeline
from posdebias.records import load_aligned, write_trace
from posdebias.toy_model import (
    SynthSpec,
    ToyModel,
    TrainingDivergedError,
    build_lowbias_table,
    save_model,
    synth_corpus,
    train,
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
        ],
        ids=[
            "alphas-above-one", "systems-empty", "seeds-not-integer", "seeds-repeated", "task-nli-in-toy",
            "train-sizes-zero", "bias-unknown", "bias-lead-in-toy", "backend-table-in-data-mode",
        ],
    )
    def test_bad_field_rejected_before_any_stage(self, tmp_path, raw, field):
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match=rf"config: .*\b{field}\b"):
            parse_config({**raw, "out_dir": str(out_dir)})
        assert not out_dir.exists()

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
            "align": {"unreliable_threshold": 0.3, "candidate_thresholds": [0.1, 0.3]},
            "biased_positions": [0, 1, 2],
        })
        assert config.synth == SynthSpec(n_train=7)
        assert config.align.unreliable_threshold == 0.3
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
        with pytest.raises(PipelineError, match="stage 'infer' failed"):
            run_toy(out_dir, backend=f"table:{tmp_path / 'missing-table.json'}")
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
        for seed in (1, 0):
            train_c = load_corpus(out_dir / "data" / f"seed{seed}" / "train.jsonl", Task.CQA)
            aligned = load_aligned(out_dir / "align" / f"seed{seed}" / "aligned.jsonl")
            for system in ("ft", "zoe"):
                model, trace = train(
                    ToyModel.initialize(12, seed=seed),
                    train_c,
                    aligned=aligned if system == "zoe" else None,
                    config=LossConfig(alpha=0.2 if system == "zoe" else 0.0),
                    epochs=3,
                    learning_rate=0.5,
                    seed=seed,
                    clip_norm=1.0,
                )
                run_dir = out_dir / "runs" / system / f"seed{seed}"
                direct = tmp_path / "direct" / system / f"seed{seed}"
                expected_model = save_model(model, direct / "model.json").read_bytes()
                expected_trace = write_trace(trace, direct / "trace.jsonl").read_bytes()
                assert (run_dir / "model.json").read_bytes() == expected_model
                assert (run_dir / "trace.jsonl").read_bytes() == expected_trace

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

    def test_nli_corpus_candidates_are_not_pruned(self, nli_corpus_file, tmp_path):
        out_dir = tmp_path / "out"
        run_pipeline(parse_config({
            "out_dir": str(out_dir),
            "corpus": str(nli_corpus_file),
            "task": "nli",
            "bias": "lexical",
            "n_per_prompt": 1,
            "max_tokens": 4,
        }))
        note = json.loads((out_dir / "align" / "seed0" / "calibration.json").read_text())
        assert note == {"calibrated": False, "note": "nli candidates are not pruned"}
        assert (out_dir / "align" / "seed0" / "aligned.jsonl").read_text() == ""
        evidence = [
            json.loads(line)
            for line in (out_dir / "split" / "evidence.jsonl").read_text().splitlines()
        ]
        assert {e["id"] for e in evidence if e["biased"]} == {"n0", "n2", "n4"}


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
            "--corpus", str(train_file), "--out", str(aligned), "--calibrate",
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
            "--corpus", str(corpus_file), "--calibrate", "--out", str(cli_dir / "aligned.jsonl"),
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
            "--corpus", str(dialogue_corpus_file), "--calibrate", "--out", str(tmp_path / "a.jsonl"),
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
