"""Low-bias unsupervised response generation.

A pre-trained backend is prompted without any task-specific fine-tuning, so
its responses do not inherit the position bias of the training labels. Each
task has a default prompting strategy: plain instructions for answer-style
tasks, a set of diverse question-type prompts for question generation, and
in-context exemplars only for NLI. Overriding a default is possible but must
be explicit, since accidentally swapping strategies changes the experiment.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

from .backends import Backend, BackendError, GenerationResult
from .corpus import Corpus, Sample, Task


#: Question-type prompts used by the diverse strategy; user-replaceable.
DEFAULT_DIVERSE_PROMPTS: tuple[str, ...] = tuple(
    f"Ask a '{word}' question about the dialogue so far." for word in ("what", "who", "when", "where", "why")
)

#: Per-task instruction lines used when the caller supplies none.
DEFAULT_INSTRUCTIONS: dict[Task, str] = {
    Task.CQA: "Answer the question using the document and the dialogue so far.",
    Task.CQG: "Ask a question about the document and the dialogue so far.",
    Task.KGC: "Write the next reply grounded in the document.",
    Task.SUM: "Summarize the document.",
    Task.NLI: "Decide whether the premise entails the hypothesis. Answer with one of: entailment, neutral, contradiction.",
}

#: How many exemplars the in-context strategy uses by default.
DEFAULT_ICL_K = 4

#: How many candidates to draw per prompt by default.
DEFAULT_N_PER_PROMPT = 3

#: Longest candidate to ask a backend for by default, in tokens.
DEFAULT_MAX_TOKENS = 16


class PromptStrategy(str, Enum):
    INSTRUCTION_ONLY = "instruction_only"
    DIVERSE = "diverse"
    ICL = "icl"


DEFAULT_STRATEGY_BY_TASK: dict[Task, PromptStrategy] = {
    Task.CQA: PromptStrategy.INSTRUCTION_ONLY,
    Task.KGC: PromptStrategy.INSTRUCTION_ONLY,
    Task.SUM: PromptStrategy.INSTRUCTION_ONLY,
    Task.CQG: PromptStrategy.DIVERSE,
    Task.NLI: PromptStrategy.ICL,
}


@dataclass(frozen=True)
class PromptSpec:
    """Strategy plus the text pieces it needs, checked once when built.

    An ICL prompt shows the first ``DEFAULT_ICL_K`` exemplars other than
    the prompted sample's own (input, target) pair.
    """

    strategy: PromptStrategy
    instruction: str = ""
    diverse_prompts: tuple[str, ...] = ()
    exemplars: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.strategy == PromptStrategy.INSTRUCTION_ONLY and not self.instruction.strip():
            raise ValueError("PromptSpec: instruction_only strategy needs an instruction")
        if self.strategy == PromptStrategy.DIVERSE and not self.diverse_prompts:
            raise ValueError("PromptSpec: diverse strategy needs diverse_prompts")
        if self.strategy == PromptStrategy.ICL and not self.exemplars:
            raise ValueError("PromptSpec: icl strategy needs at least one exemplar")


def default_prompt_spec(
    task: Task, corpus: Corpus | None = None, strategy: PromptStrategy | None = None
) -> PromptSpec:
    """Spec implementing ``strategy`` (default: the task's own) for ``task``.

    The spec carries the task's instruction plus what the strategy needs:
    the diverse prompts, or exemplars drawn from ``corpus``, which ICL
    therefore requires. ICL draws the first ``DEFAULT_ICL_K + 1`` samples in
    id order, one more than a prompt shows, so a sample that is one of them
    still sees ``DEFAULT_ICL_K`` others instead of its own gold pair.
    """
    if strategy is None:
        strategy = DEFAULT_STRATEGY_BY_TASK[task]
    instruction = DEFAULT_INSTRUCTIONS[task]
    if strategy == PromptStrategy.DIVERSE:
        return PromptSpec(strategy, instruction, diverse_prompts=DEFAULT_DIVERSE_PROMPTS)
    if strategy == PromptStrategy.ICL:
        if corpus is None:
            raise ValueError("default_prompt_spec: icl strategy needs a corpus for exemplars")
        return PromptSpec(strategy, instruction, exemplars=make_icl_exemplars(corpus, k=DEFAULT_ICL_K + 1))
    return PromptSpec(strategy, instruction)


def make_icl_exemplars(corpus: Corpus, k: int = DEFAULT_ICL_K) -> tuple[tuple[str, str], ...]:
    """First ``k`` samples by id order as (input, target) exemplar pairs."""
    if k < 1:
        raise ValueError("make_icl_exemplars: k must be >= 1")
    chosen = sorted(corpus, key=lambda s: s.id)[:k]
    return tuple((s.input_text, s.target) for s in chosen)


def build_prompt(sample: Sample, spec: PromptSpec) -> list[str]:
    """Render the prompt(s) for one sample under a strategy.

    Instruction-only and ICL yield exactly one prompt; diverse yields one per
    diverse prompt, in their given order.
    """
    if spec.strategy == PromptStrategy.INSTRUCTION_ONLY:
        return [f"{spec.instruction}\n\n{sample.input_text}"]
    if spec.strategy == PromptStrategy.DIVERSE:
        head = f"{spec.instruction}\n\n" if spec.instruction.strip() else ""
        return [f"{head}{dp}\n\n{sample.input_text}" for dp in spec.diverse_prompts]
    blocks = [spec.instruction] if spec.instruction.strip() else []
    shown = [pair for pair in spec.exemplars if pair != (sample.input_text, sample.target)]
    for ex_input, ex_output in shown[:DEFAULT_ICL_K]:
        blocks.append(f"input: {ex_input}\noutput: {ex_output}")
    blocks.append(f"input: {sample.input_text}\noutput:")
    return ["\n\n".join(blocks)]


def generate(
    prompts: list[str],
    backend: Backend,
    n_per_prompt: int = DEFAULT_N_PER_PROMPT,
    seed: int = 0,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    max_in_flight: int = 1,
    prompt_offset: int = 0,
) -> list[GenerationResult]:
    """Draw ``n_per_prompt`` candidates for every prompt.

    Results come back grouped by prompt order: the k-th candidate of prompt i
    sits at index ``i * n_per_prompt + k``. Candidate k uses seed ``seed + k``
    so outputs are a pure function of (prompt, seed) and never of list
    position. ``max_in_flight`` bounds concurrent backend requests; results
    are reassembled in deterministic order regardless. A ``BackendError``
    names its prompt as ``prompt_offset`` plus its index in ``prompts``, and
    its ``results`` are those of the prompts before it.
    """
    if n_per_prompt < 1:
        raise ValueError("generate: n_per_prompt must be >= 1")

    def run_one(job: tuple[int, int, str]) -> GenerationResult:
        index, k, prompt = job
        try:
            return backend.complete(prompt, max_tokens=max_tokens, seed=seed + k)
        except BackendError as exc:
            raise BackendError(f"prompt {index}: {exc}", prompt_index=index) from exc

    jobs = [(i, k, p) for i, p in enumerate(prompts, start=prompt_offset) for k in range(n_per_prompt)]
    done: list[GenerationResult] = []
    try:
        if max_in_flight <= 1:
            for job in jobs:
                done.append(run_one(job))
        else:
            with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
                for result in pool.map(run_one, jobs):
                    done.append(result)
    except BackendError as exc:
        exc.results = done[: (exc.prompt_index - prompt_offset) * n_per_prompt]
        raise
    return done

