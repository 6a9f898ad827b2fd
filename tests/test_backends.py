"""Stub modes, result validation, HTTP client against a live local server,
and record/replay round-trips."""
from __future__ import annotations

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Iterator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posdebias import backends
from posdebias.backends import (
    BACKEND_URL_ENV,
    BackendError,
    GenerationResult,
    HttpBackend,
    ReplayBackend,
    StubBackend,
    StubMode,
    record_line,
    resolve_backend,
)
from posdebias.corpus import Corpus, SynthSpec, Task, save_corpus, write_blocks
from posdebias.lowbias_infer import build_prompt, default_prompt_spec, generate
from posdebias.pipeline import _raise_for, corpus_pass
from posdebias.records import load_candidates
from posdebias.toy_model import synth_corpus

from conftest import dialogue_sample
from oracles import candidates_jsonl, markov_complete

#: Text that JSON, JSONL line splitting or UTF-8 could mangle: non-ASCII,
#: quotes, backslashes and the line separators U+2028, U+2029 and U+0085
#: (any character UTF-8 can encode, so no lone surrogates).
TRICKY_TEXT = st.text(st.one_of(st.characters(codec="utf-8"), st.sampled_from('"\\\n\r\u2028\u2029\u0085é')), max_size=12)


@st.composite
def generation_results(draw, backend_id=st.just("stub-x")):
    """Arbitrary valid results: empty text allowed, logprobs finite and <= 0."""
    tokens = draw(st.lists(TRICKY_TEXT, max_size=5))
    logprobs = draw(st.lists(st.floats(max_value=0.0, allow_nan=False, allow_infinity=False), min_size=len(tokens), max_size=len(tokens)))
    return GenerationResult(draw(TRICKY_TEXT), tuple(tokens), tuple(logprobs), draw(backend_id))


class TestGenerationResult:
    def test_parallel_arrays_enforced(self):
        with pytest.raises(ValueError, match="parallel"):
            GenerationResult("a b", ("a", "b"), (-0.1,), "x")

    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError, match="invalid token logprob"):
            GenerationResult("a", ("a",), (0.1,), "x")

    def test_nan_logprob_rejected(self):
        with pytest.raises(ValueError, match="invalid token logprob"):
            GenerationResult("a", ("a",), (float("nan"),), "x")

    def test_min_token_prob(self):
        result = GenerationResult(
            "a b", ("a", "b"), (math.log(0.5), math.log(0.2)), "x"
        )
        assert result.min_token_prob() == pytest.approx(0.2, abs=1e-12)

    def test_min_token_prob_empty(self):
        assert GenerationResult("", (), (), "x").min_token_prob() == 1.0


class TestEchoStub:
    def test_echoes_after_marker(self):
        backend = StubBackend(StubMode.ECHO)
        result = backend.complete("instruction stuff copy: the payload text")
        assert result.text == "the payload text"
        assert result.tokens == ("the", "payload", "text")
        assert result.token_logprobs == (0.0, 0.0, 0.0)

    def test_last_marker_wins(self):
        backend = StubBackend(StubMode.ECHO)
        assert backend.complete("copy: first copy: second").text == "second"

    def test_no_marker_echoes_whole_prompt(self):
        backend = StubBackend(StubMode.ECHO)
        assert backend.complete("  plain prompt ").text == "plain prompt"


class TestTableStub:
    def test_string_value(self):
        backend = StubBackend(StubMode.TABLE, table={"p": "a b"})
        result = backend.complete("p")
        assert result.text == "a b"
        assert result.token_logprobs == (math.log(0.5),) * 2

    def test_dict_value_with_explicit_logprobs(self):
        backend = StubBackend(
            StubMode.TABLE,
            table={"p": {"text": "a b", "token_logprobs": [-0.1, -0.2]}},
        )
        assert backend.complete("p").token_logprobs == (-0.1, -0.2)

    def test_list_value_indexed_by_seed(self):
        backend = StubBackend(StubMode.TABLE, table={"p": ["first", "second", "third"]})
        assert backend.complete("p", seed=0).text == "first"
        assert backend.complete("p", seed=1).text == "second"
        assert backend.complete("p", seed=2).text == "third"
        assert backend.complete("p", seed=3).text == "first"

    def test_missing_prompt_is_error(self):
        backend = StubBackend(StubMode.TABLE, table={})
        with pytest.raises(BackendError, match="no entry"):
            backend.complete("unknown")

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("bad \ud800 text", "field 'text' does not encode as UTF-8"),
            ({"text": "a b", "tokens": ["a", "\udc80"]}, "field 'tokens' does not encode as UTF-8"),
            ({"text": "a", "token_logprobs": [-(10**400)]}, "field 'token_logprobs' has a number too large for a float"),
        ],
        ids=["surrogate-text", "surrogate-token", "huge-logprob"],
    )
    def test_entry_no_run_can_write_names_its_prompt(self, entry, message):
        # A JSON escape such as "\ud800" decodes to a lone surrogate, which
        # UTF-8 cannot encode; a JSON integer can overflow a float.
        with pytest.raises(ValueError, match=rf"^table entry for prompt 'p': {re.escape(message)}"):
            StubBackend(StubMode.TABLE, table={"p": entry})

    def test_entries_become_results_once_when_built(self):
        backend = StubBackend(StubMode.TABLE, table={"p": ["a", {"text": "b c", "tokens": ["b", "c"]}]})
        assert backend.complete("p", seed=1) is backend.complete("p", seed=3)
        assert backend.complete("p", seed=1).tokens == ("b", "c")


class TestMarkovStub:
    def test_deterministic_per_prompt_and_seed(self):
        backend = StubBackend(StubMode.MARKOV)
        a = backend.complete("some words here", seed=4)
        b = backend.complete("some words here", seed=4)
        assert a == b

    def test_seed_changes_output(self):
        backend = StubBackend(StubMode.MARKOV)
        outputs = {backend.complete("alpha beta gamma delta", seed=s).text for s in range(8)}
        assert len(outputs) > 1

    def test_vocabulary_comes_from_prompt(self):
        backend = StubBackend(StubMode.MARKOV)
        result = backend.complete("red blue green", seed=0, max_tokens=12)
        assert set(result.tokens) <= {"red", "blue", "green"}

    def test_max_tokens_respected(self):
        backend = StubBackend(StubMode.MARKOV)
        assert len(backend.complete("a b c", seed=0, max_tokens=3).tokens) == 3

    @settings(max_examples=200, deadline=None)
    @given(
        prompt=st.one_of(TRICKY_TEXT, st.lists(st.sampled_from(["a", "b", "Zed", "é", "😀", " ", "\n"])).map("".join)),
        seed=st.integers(-(2**40), 2**40),
        max_tokens=st.integers(-2, 20),
    )
    def test_matches_the_per_call_reference(self, prompt, seed, max_tokens):
        result = StubBackend(StubMode.MARKOV).complete(prompt, max_tokens=max_tokens, seed=seed)
        tokens, logprobs = markov_complete(prompt, max_tokens, seed)
        assert (result.text, result.tokens, result.token_logprobs) == (" ".join(tokens), tokens, logprobs)
        # Equal floats could still differ in sign or representation; the text cannot.
        assert list(map(repr, result.token_logprobs)) == list(map(repr, logprobs))

    def test_prompt_state_is_built_once_per_prompt(self, monkeypatch):
        hashed, original = [], backends._stable_hash
        monkeypatch.setattr(backends, "_stable_hash", lambda text: hashed.append(text) or original(text))
        backends._markov_state.cache_clear()
        prompts = ["p q r", "s t", "p q r u"]
        results = generate(prompts, StubBackend(StubMode.MARKOV), n_per_prompt=3, seed=5, max_tokens=4)
        assert len(results) == 9 and hashed == prompts


class TestHttpBackend:
    def test_complete_round_trip(self, local_server):
        server, url = local_server
        backend = HttpBackend(url)
        result = backend.complete("hello", max_tokens=8, seed=3)
        assert result.text == "reply to hello"
        assert result.token_logprobs == (-0.1, -0.2, -0.3)
        assert server.requests[-1] == {
            "prompt": "hello",
            "max_tokens": 8,
            "seed": 3,
            "logprobs": True,
        }

    def test_5xx_is_an_error_after_one_request(self, local_server):
        server, url = local_server
        server.failures_left = 10
        with pytest.raises(BackendError, match="server error 503"):
            HttpBackend(url).complete("flaky")
        assert len(server.requests) == 1

    def test_4xx_is_hard_error(self, local_server):
        _, url = local_server
        with pytest.raises(BackendError, match="status 403"):
            HttpBackend(url).complete("forbidden")

    def test_missing_logprobs_is_hard_error(self, local_server):
        _, url = local_server
        with pytest.raises(BackendError, match="logprobs required"):
            HttpBackend(url).complete("no-logprobs")

    @pytest.mark.parametrize(
        "prompt, message",
        [("surrogate", "field 'text' does not encode as UTF-8"), ("huge-logprob", "field 'token_logprobs' has a number too large")],
    )
    def test_response_no_run_can_write_is_an_error(self, local_server, prompt, message):
        _, url = local_server
        with pytest.raises(BackendError, match=re.escape(message)):
            HttpBackend(url).complete(prompt)

    def test_unreachable_host_is_an_error_after_one_request(self, monkeypatch):
        backend = HttpBackend("http://127.0.0.1:9/nope", timeout=0.2)
        posts, post = [], backend.session.post
        monkeypatch.setattr(backend.session, "post", lambda *a, **k: posts.append(a) or post(*a, **k))
        with pytest.raises(BackendError, match="transport failure"):
            backend.complete("x")
        assert len(posts) == 1


def tape(path: Path, backend, prompt: str, seeds=(0,)) -> Path:
    """A recording of ``backend``'s answer to ``prompt`` at each seed, as the
    infer pass writes one: a ``record_line`` per exchange."""
    return write_blocks((record_line(prompt, 16, seed, backend.complete(prompt, seed=seed)) + "\n" for seed in seeds), path)


def small_corpus(n: int) -> Corpus:
    return Corpus(tuple(dialogue_sample(f"s{i}", [f"u{i} a", "b c"], "pq", f"u{i} a", "q", "b c") for i in range(n)), Task.CQA)


def infer_pass(path: Path, corpus: Corpus, backend, n_per_prompt: int, seed: int, max_tokens: int, max_in_flight: int = 1, record: Path | None = None) -> list:
    """The shards of ``corpus_pass`` inferring on ``corpus``, saved to
    ``path``; with ``record``, the traffic is written there first, as
    ``infer --record`` writes it."""
    options = {"n_per_prompt": n_per_prompt, "seed": seed, "max_tokens": max_tokens, "max_in_flight": max_in_flight}
    infer = (backend, default_prompt_spec(corpus.task), options)
    shards, _ = corpus_pass(save_corpus(corpus, path), corpus.task, infer=infer, record=record is not None)
    if record is not None:
        write_blocks((shard.take("record") for shard in shards), record)
    _raise_for(shards, "infer")
    return shards


class TestRecordReplay:
    def test_record_then_replay_identical(self, tmp_path, local_server):
        server, url = local_server
        record_path = tmp_path / "tape.jsonl"
        corpus = small_corpus(3)
        (live,) = infer_pass(tmp_path / "corpus.jsonl", corpus, HttpBackend(url), 2, 3, 8, record=record_path)
        assert len(server.requests) == 6

        (replayed,) = infer_pass(tmp_path / "corpus.jsonl", corpus, ReplayBackend(record_path), 2, 3, 8)
        fields = ("sample_id", "candidate_index", "text", "tokens", "token_logprobs")
        want, got = ([[json.loads(line)[k] for k in fields] for line in shard.take("candidates").split("\n")[:-1]] for shard in (live, replayed))
        assert len(want) == 6 and got == want

    def test_replay_unknown_request_is_error(self, tmp_path):
        record_path = tape(tmp_path / "tape.jsonl", StubBackend(StubMode.ECHO), "known")
        replay = ReplayBackend(record_path)
        with pytest.raises(BackendError, match="no response"):
            replay.complete("different prompt")

    def test_replay_response_without_logprobs_fails_when_the_file_is_read(self, tmp_path):
        record_path = tape(tmp_path / "tape.jsonl", StubBackend(StubMode.MARKOV), "p q r", seeds=(0, 1))
        first, second = (json.loads(line) for line in record_path.read_text().splitlines())
        del second["response"]["token_logprobs"]
        record_path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(record_path))}: line 2: response to prompt 'p q r': missing field 'token_logprobs'$"):
            ReplayBackend(record_path)

    @pytest.mark.parametrize(
        "response, message",
        [
            ({"text": "bad \ud800", "tokens": [], "token_logprobs": []}, "field 'text' does not encode as UTF-8"),
            ({"tokens": ["\udc80"], "token_logprobs": [-0.5]}, "field 'tokens' does not encode as UTF-8"),
            ({"tokens": ["a"], "token_logprobs": [-(10**400)]}, "field 'token_logprobs' has a number too large for a float"),
        ],
        ids=["surrogate-text", "surrogate-token", "huge-logprob"],
    )
    def test_replay_response_no_run_can_write_fails_when_the_file_is_read(self, tmp_path, response, message):
        record_path = tmp_path / "tape.jsonl"
        record_path.write_text(json.dumps({"request": {"prompt": "p q r"}, "response": response}) + "\n")
        prefix = f"{re.escape(str(record_path))}: line 1: response to prompt 'p q r': "
        with pytest.raises(ValueError, match=f"^{prefix}{re.escape(message)}"):
            ReplayBackend(record_path)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(results=st.lists(generation_results(), min_size=1, max_size=4))
    def test_any_result_round_trips_through_record_and_replay(self, tmp_path, results):
        record_path = tape(tmp_path / "tape.jsonl", _ScriptedBackend(results), "p", seeds=range(len(results)))
        replay = ReplayBackend(record_path)
        for seed, want in enumerate(results):
            got = replay.complete("p", seed=seed)
            assert (got.text, got.tokens, got.token_logprobs) == (want.text, want.tokens, want.token_logprobs)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(candidates=st.dictionaries(TRICKY_TEXT, st.lists(generation_results(TRICKY_TEXT), min_size=1, max_size=3), max_size=3))
    def test_any_result_round_trips_through_the_candidates_file(self, tmp_path, candidates):
        path = tmp_path / "c.jsonl"
        path.write_text(candidates_jsonl(candidates), encoding="utf-8")
        assert load_candidates(path) == candidates

    def test_replay_distinguishes_seeds(self, tmp_path):
        record_path = tape(tmp_path / "tape.jsonl", StubBackend(StubMode.MARKOV), "p q r")
        replay = ReplayBackend(record_path)
        replay.complete("p q r", seed=0)
        with pytest.raises(BackendError):
            replay.complete("p q r", seed=1)


class _ScriptedBackend:
    """Answers any prompt with ``results[seed]``."""

    backend_id = "scripted"

    def __init__(self, results: list[GenerationResult]) -> None:
        self.results = results

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        return self.results[seed]


class _LongAnswerBackend:
    """Answers every prompt with 3,000 tokens, so each record is long."""

    backend_id = "long-answer"

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        tokens = tuple(f"{prompt}.{seed}.{i}" for i in range(3000))
        return GenerationResult(" ".join(tokens), tokens, (-0.5,) * len(tokens), self.backend_id)


class TestConcurrentRecording:
    def test_concurrent_calls_record_whole_lines_in_prompt_order(self, tmp_path):
        record_path = tmp_path / "tape.jsonl"
        corpus = small_corpus(32)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            infer_pass(tmp_path / "corpus.jsonl", corpus, _LongAnswerBackend(), 4, 0, 8, max_in_flight=8, record=record_path)
        finally:
            sys.setswitchinterval(interval)
        lines = record_path.read_text(encoding="utf-8").splitlines()
        spec = default_prompt_spec(Task.CQA)
        requests = [(entry["request"]["prompt"], entry["request"]["seed"]) for entry in map(json.loads, lines)]
        assert requests == [(build_prompt(s, spec)[0], k) for s in corpus for k in range(4)]
        assert all(entry["response"]["text"].startswith(prompt) for entry, (prompt, _) in zip(map(json.loads, lines), requests))


class TestResolveBackend:
    def test_stub_specs(self):
        assert resolve_backend("echo", env={}).mode == StubMode.ECHO
        assert resolve_backend("markov", env={}).mode == StubMode.MARKOV

    def test_bare_table_spec_rejected(self):
        # A table needs entries; the toy pipeline builds its own.
        with pytest.raises(ValueError, match="unknown backend spec 'table'"):
            resolve_backend("table", env={})

    def test_kinds_with_an_argument_take_it_after_a_colon(self, tmp_path):
        for spec in ("gpt4", "echo:x", "markov:", "url", "replay"):
            with pytest.raises(ValueError, match=f"unknown backend spec '{spec}'"):
                resolve_backend(spec, env={})
        with pytest.raises(ValueError, match="does not exist"):
            resolve_backend(f"replay:{tmp_path / 'absent.jsonl'}", env={})

    def test_table_file(self, tmp_path, monkeypatch):
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps({"p": "from disk"}), encoding="utf-8")
        reads, read_bytes = [], Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path) or read_bytes(path))
        backend = resolve_backend(f"table:{table_path}", env={})
        assert reads == [table_path]
        assert backend.complete("p").text == "from disk"

    def test_replay_file(self, tmp_path):
        record_path = tape(tmp_path / "tape.jsonl", StubBackend(StubMode.ECHO), "x")
        backend = resolve_backend(f"replay:{record_path}", env={})
        assert backend.complete("x").text == "x"

    def test_url_specs(self):
        assert resolve_backend("url:http://host/a", env={}).url == "http://host/a"
        assert resolve_backend("https://host/b", env={}).url == "https://host/b"

    def test_env_var_overrides_endpoints_only(self):
        env = {BACKEND_URL_ENV: "http://override/x"}
        assert resolve_backend("url:http://host/a", env=env).url == "http://override/x"
        assert resolve_backend("http://host/a", env=env).url == "http://override/x"
        # Stub specs are not hijacked by the endpoint override.
        assert isinstance(resolve_backend("echo", env=env), StubBackend)

    @pytest.mark.parametrize("url", ["", "notaurl", "ftp://host/x", "http://", "http:///x", "http://[::1"])
    def test_endpoint_must_be_an_absolute_http_url(self, url):
        pattern = rf"^backend 'url:{re.escape(url)}': endpoint {re.escape(repr(url))} is not an absolute http\(s\) URL$"
        with pytest.raises(ValueError, match=pattern):
            resolve_backend(f"url:{url}", env={})
        if url:  # an empty override is no override
            pattern = rf"^backend 'url:http://host/a': endpoint {re.escape(repr(url))} \(from {BACKEND_URL_ENV}\) is not"
            with pytest.raises(ValueError, match=pattern):
                resolve_backend("url:http://host/a", env={BACKEND_URL_ENV: url})

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown backend spec"):
            resolve_backend("carrier-pigeon", env={})


#: Modules of the HTTP stack that only an ``url:`` backend needs.
HTTP_STACK = ("requests", "urllib3")

SRC = Path(backends.__file__).resolve().parent.parent


def fresh_interpreter(code: str, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter, so that no other test's imports count."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop(BACKEND_URL_ENV, None)
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize(
    ("code", "loads"),
    [
        ("import posdebias.cli", []),
        ("import posdebias.pipeline", []),
        ("from posdebias.pipeline import parse_config; parse_config({'out_dir': 'out', 'synth': {}})", ["numpy"]),
        ("from posdebias.pipeline import parse_config; parse_config({'out_dir': 'out', 'corpus': 'c.jsonl', 'backend': 'markov'})", []),
        ("from posdebias.backends import resolve_backend; resolve_backend('url:http://127.0.0.1:9/x', env={})", sorted(HTTP_STACK)),
    ],
    ids=["import-cli", "import-pipeline", "parse-toy-config", "parse-markov-data-config", "resolve-url-backend"],
)
def test_http_stack_is_loaded_only_for_an_url_backend(tmp_path, code, loads):
    # numpy too: only toy runs and the train-toy and eval verbs need it.
    script = f"{code}\nimport sys\nprint(sorted(m for m in {HTTP_STACK + ('numpy',)!r} if m in sys.modules))"
    done = fresh_interpreter(script, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == repr(loads)


#: Data mode and the verbs it shares, then a toy config, run with numpy
#: importable or (argument ``blocked``) not.
DATA_MODE_SCRIPT = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # every import of numpy raises ImportError
from posdebias.cli import main
from posdebias.pipeline import parse_config

for args in (
    "run --config data.json",
    "split --corpus c.jsonl --task cqa --out-dir split",
    "infer --corpus c.jsonl --task cqa --out candidates.jsonl",
    "align --candidates candidates.jsonl --task cqa --corpus c.jsonl --out aligned.jsonl",
    "report a.json b.json --out-dir report",
):
    main.main(args=args.split(), prog_name="posdebias", standalone_mode=False)
try:
    parse_config({"out_dir": "toy", "synth": {}})
    print("toy config parsed")
except ImportError:
    print("toy config: ImportError")
"""


def test_data_mode_and_its_verbs_run_without_numpy(tmp_path):
    train_c, _, _ = synth_corpus(SynthSpec(n_train=40, n_eval=1, seed=3))
    outputs = {}
    for mode in ("blocked", "normal"):
        work = tmp_path / mode
        save_corpus(train_c, work / "c.jsonl")
        (work / "data.json").write_text(json.dumps({"out_dir": "run", "corpus": "c.jsonl"}))
        for name, system in (("a.json", "ft"), ("b.json", "zoe")):
            (work / name).write_text(json.dumps({"system": system, "metric": "accuracy", "splits": {"biased": {"score": 0.5, "count": 4}}}))
        done = fresh_interpreter(DATA_MODE_SCRIPT, work, mode)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == ("toy config: ImportError" if mode == "blocked" else "toy config parsed")
        assert not (work / "toy").exists()
        outputs[mode] = {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}
    assert {"run/manifest.json", "split/evidence.jsonl", "candidates.jsonl", "aligned.jsonl", "report/report.csv"} <= set(outputs["normal"])
    assert outputs["blocked"] == outputs["normal"]


def module_level_imports(source: str) -> Iterator[str]:
    """The top-level package of every import that runs when ``source`` is
    imported: any not inside a function (class bodies run) or an
    ``if TYPE_CHECKING:`` block. A relative import is reported as ``.`` and
    the sibling module, ``.corpus`` for ``from . import corpus`` as for
    ``from .corpus import Sample``."""

    def visit(nodes: Iterable[ast.AST]) -> Iterator[str]:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
                yield from visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                yield from (alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level:
                modules = [node.module] if node.module else [alias.name for alias in node.names]
                yield from ("." + module.partition(".")[0] for module in modules)
            elif isinstance(node, ast.ImportFrom):
                yield node.module.partition(".")[0]
            yield from visit(ast.iter_child_nodes(node))

    return visit([ast.parse(source)])


def test_no_module_imports_the_http_stack_at_import_time():
    # Every ``posdebias`` start-up pays for what a module imports at its top:
    # not the HTTP stack, and numpy only through ``toy_model``, which no
    # module imports there.
    found = {
        (path.stem, name)
        for path in sorted(SRC.joinpath("posdebias").glob("*.py"))
        for name in module_level_imports(path.read_text(encoding="utf-8"))
        if name in HTTP_STACK or name == ".toy_model" or (name == "numpy" and path.stem != "toy_model")
    }
    assert found == set()
    sample = (
        "import json.decoder\nfrom . import corpus, toy_model\nfrom .metrics.sub import x\ndef f():\n    import requests\n"
        "class C:\n    from urllib3 import util\nif TYPE_CHECKING:\n    import numpy\nelse:\n    from .report import y\n"
    )
    assert list(module_level_imports(sample)) == ["json", ".corpus", ".toy_model", ".metrics", "urllib3", ".report"]
