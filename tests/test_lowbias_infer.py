"""Prompt construction per strategy and candidate generation."""
from __future__ import annotations

import hashlib
import json

import pytest

from posdebias.backends import BackendError, StubBackend, StubMode
from posdebias.corpus import Corpus, Task
from posdebias.lowbias_infer import (
    DEFAULT_DIVERSE_PROMPTS,
    DEFAULT_ICL_K,
    DEFAULT_INSTRUCTIONS,
    DEFAULT_STRATEGY_BY_TASK,
    PromptSpec,
    PromptStrategy,
    build_prompt,
    default_prompt_spec,
    generate,
    make_icl_exemplars,
)

from conftest import dialogue_sample, nli_sample


class TestDefaults:
    def test_strategy_assignment(self):
        assert DEFAULT_STRATEGY_BY_TASK[Task.CQA] == PromptStrategy.INSTRUCTION_ONLY
        assert DEFAULT_STRATEGY_BY_TASK[Task.KGC] == PromptStrategy.INSTRUCTION_ONLY
        assert DEFAULT_STRATEGY_BY_TASK[Task.SUM] == PromptStrategy.INSTRUCTION_ONLY
        assert DEFAULT_STRATEGY_BY_TASK[Task.CQG] == PromptStrategy.DIVERSE
        assert DEFAULT_STRATEGY_BY_TASK[Task.NLI] == PromptStrategy.ICL

    def test_diverse_prompts_cover_question_types(self):
        joined = " ".join(DEFAULT_DIVERSE_PROMPTS).lower()
        for word in ("what", "who", "when", "where", "why"):
            assert word in joined

    def test_every_task_has_instruction(self):
        for task in Task:
            assert DEFAULT_INSTRUCTIONS[task].strip()

    def test_default_prompts_are_pinned(self):
        # One fixed sample under each task's default strategy covers every
        # instruction and every diverse prompt.
        exemplars = tuple(nli_sample(f"n{i}", f"premise {i}", f"hypothesis {i}", "neutral") for i in range(6))
        corpus = Corpus(exemplars, Task.NLI)
        prompts = {}
        for task in Task:
            sample = exemplars[0] if task == Task.NLI else dialogue_sample(
                "s", ["u0 alpha", "u1 beta"], "pq", "u0 alpha", "q", "u1 beta", task=task
            )
            prompts[task.value] = build_prompt(sample, default_prompt_spec(task, corpus))
        blob = json.dumps(prompts, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == "61150f458a9c9c4ac3aae2e7be929409d210678566ad73ffb54ec93be31dfe63"


class TestPromptSpec:
    def test_validation(self):
        # A spec is checked when it is built, not when a prompt is rendered.
        with pytest.raises(ValueError, match="needs an instruction"):
            PromptSpec(PromptStrategy.INSTRUCTION_ONLY)
        with pytest.raises(ValueError, match="needs diverse_prompts"):
            PromptSpec(PromptStrategy.DIVERSE, instruction="i")
        with pytest.raises(ValueError, match="at least one exemplar"):
            PromptSpec(PromptStrategy.ICL, instruction="i")

    def test_default_spec_nli_needs_corpus(self):
        with pytest.raises(ValueError, match="needs a corpus"):
            default_prompt_spec(Task.NLI)

    def test_default_spec_shapes(self):
        cqa = default_prompt_spec(Task.CQA)
        assert cqa.strategy == PromptStrategy.INSTRUCTION_ONLY
        cqg = default_prompt_spec(Task.CQG)
        assert cqg.diverse_prompts == DEFAULT_DIVERSE_PROMPTS


class TestIclExemplars:
    def _corpus(self) -> Corpus:
        samples = tuple(
            nli_sample(f"s{i}", f"premise {i}", f"hypothesis {i}", "entailment")
            for i in range(6)
        )
        return Corpus(samples, Task.NLI)

    def test_first_k_by_id(self):
        exemplars = make_icl_exemplars(self._corpus(), k=2)
        assert len(exemplars) == 2
        assert exemplars[0][0].startswith("premise: premise 0")
        assert exemplars[1][0].startswith("premise: premise 1")
        assert exemplars[0][1] == "entailment"

    def test_default_k(self):
        assert len(make_icl_exemplars(self._corpus())) == DEFAULT_ICL_K

    def test_k_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            make_icl_exemplars(self._corpus(), k=0)


class TestBuildPrompt:
    def test_instruction_only_single_prompt(self):
        sample = dialogue_sample("s", ["u0 alpha", "u1 beta"], "pq", "u0 alpha", "q", "u1 beta")
        spec = default_prompt_spec(Task.CQA)
        prompts = build_prompt(sample, spec)
        assert len(prompts) == 1
        assert prompts[0] == f"{spec.instruction}\n\n{sample.input_text}"

    def test_diverse_one_prompt_per_entry(self):
        sample = dialogue_sample(
            "s", ["u0 alpha", "u1 beta"], "pq", "u0 alpha", "q", "u1 beta", task=Task.CQG
        )
        spec = default_prompt_spec(Task.CQG)
        prompts = build_prompt(sample, spec)
        assert len(prompts) == len(DEFAULT_DIVERSE_PROMPTS)
        for prompt, diverse in zip(prompts, DEFAULT_DIVERSE_PROMPTS):
            assert diverse in prompt
            assert prompt.endswith(sample.input_text)

    def test_icl_layout(self):
        corpus = Corpus(
            tuple(
                nli_sample(f"s{i}", f"premise {i}", f"hyp {i}", "entailment")
                for i in range(4)
            ),
            Task.NLI,
        )
        spec = default_prompt_spec(Task.NLI, corpus=corpus)
        query = nli_sample("q", "new premise", "new hyp", "neutral")
        prompts = build_prompt(query, spec)
        assert len(prompts) == 1
        blocks = prompts[0].split("\n\n")
        # instruction, 4 exemplars, query
        assert len(blocks) == 6
        assert blocks[1].startswith("input: premise: premise 0")
        assert blocks[1].endswith("output: entailment")
        assert blocks[-1].endswith("output:")

    def test_icl_never_shows_a_sample_its_own_pair(self):
        corpus = Corpus(
            tuple(
                nli_sample(f"s{i}", f"premise {i}", f"hyp {i}", "entailment")
                for i in range(6)
            ),
            Task.NLI,
        )
        spec = default_prompt_spec(Task.NLI, corpus=corpus)
        for sample in corpus:
            (prompt,) = build_prompt(sample, spec)
            assert f"input: {sample.input_text}\noutput: {sample.target}" not in prompt
            assert prompt.count("input: ") == DEFAULT_ICL_K + 1


class TestGenerate:
    def test_result_layout_and_seeds(self):
        backend = StubBackend(
            StubMode.TABLE,
            table={"p0": ["a", "b", "c"], "p1": ["x", "y", "z"]},
        )
        results = generate(["p0", "p1"], backend, n_per_prompt=3, seed=0)
        assert [r.text for r in results] == ["a", "b", "c", "x", "y", "z"]

    def test_seed_offset_applies(self):
        backend = StubBackend(StubMode.TABLE, table={"p": ["s0", "s1", "s2", "s3"]})
        results = generate(["p"], backend, n_per_prompt=2, seed=1)
        # candidate k uses seed + k -> seeds 1 and 2
        assert [r.text for r in results] == ["s1", "s2"]

    def test_parallel_matches_serial(self):
        backend = StubBackend(StubMode.MARKOV)
        prompts = [f"prompt number {i} alpha beta" for i in range(5)]
        serial = generate(prompts, backend, n_per_prompt=2, seed=3)
        parallel = generate(prompts, backend, n_per_prompt=2, seed=3, max_in_flight=4)
        assert serial == parallel

    def test_error_carries_prompt_index(self):
        backend = StubBackend(StubMode.TABLE, table={"ok": "fine"})
        with pytest.raises(BackendError) as info:
            generate(["ok", "missing"], backend, n_per_prompt=1)
        assert info.value.prompt_index == 1
        assert "prompt 1" in str(info.value)

    def test_empty_prompts(self):
        assert generate([], StubBackend(StubMode.ECHO)) == []

    def test_n_per_prompt_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            generate(["p"], StubBackend(StubMode.ECHO), n_per_prompt=0)

