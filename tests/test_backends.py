"""Stub modes, result validation, HTTP client against a live local server,
and record/replay round-trips."""
from __future__ import annotations

import json
import math
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from posdebias.backends import (
    BACKEND_URL_ENV,
    BackendError,
    GenerationResult,
    HttpBackend,
    RecordingBackend,
    ReplayBackend,
    StubBackend,
    StubMode,
    resolve_backend,
)
from posdebias.lowbias_infer import generate


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


class _Handler(BaseHTTPRequestHandler):
    """Scriptable completion server; behavior is keyed on the prompt text."""

    def do_POST(self):  # noqa: N802 - http.server API
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        prompt = payload.get("prompt", "")
        self.server.requests.append(payload)
        if prompt == "flaky" and self.server.failures_left > 0:
            self.server.failures_left -= 1
            self.send_response(503)
            self.end_headers()
            return
        if prompt == "forbidden":
            self.send_response(403)
            self.end_headers()
            return
        if prompt == "no-logprobs":
            body = {"text": "x", "tokens": ["x"]}
        else:
            body = {
                "text": f"reply to {prompt}",
                "tokens": ["reply", "to", prompt],
                "token_logprobs": [-0.1, -0.2, -0.3],
            }
        data = json.dumps(body).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # silence request logging
        pass


@pytest.fixture
def local_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.requests = []
    server.failures_left = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}/v1/complete"
    server.shutdown()
    server.server_close()


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

    def test_5xx_retries_then_succeeds(self, local_server):
        server, url = local_server
        server.failures_left = 2
        result = HttpBackend(url, retries=2).complete("flaky")
        assert result.text == "reply to flaky"
        assert len(server.requests) == 3

    def test_5xx_exhausted_is_retryable_error(self, local_server):
        server, url = local_server
        server.failures_left = 10
        with pytest.raises(BackendError, match="server error 503") as info:
            HttpBackend(url, retries=1).complete("flaky")
        assert info.value.retryable

    def test_4xx_is_hard_error(self, local_server):
        _, url = local_server
        with pytest.raises(BackendError, match="status 403") as info:
            HttpBackend(url).complete("forbidden")
        assert not info.value.retryable

    def test_missing_logprobs_is_hard_error(self, local_server):
        _, url = local_server
        with pytest.raises(BackendError, match="logprobs required"):
            HttpBackend(url).complete("no-logprobs")

    def test_unreachable_host_is_retryable(self):
        backend = HttpBackend("http://127.0.0.1:9/nope", timeout=0.2)
        with pytest.raises(BackendError, match="transport failure") as info:
            backend.complete("x")
        assert info.value.retryable


class TestRecordReplay:
    def test_record_then_replay_identical(self, tmp_path, local_server):
        _, url = local_server
        record_path = tmp_path / "tape.jsonl"
        live = RecordingBackend(HttpBackend(url), record_path)
        first = live.complete("hello", max_tokens=8, seed=3)

        replay = ReplayBackend(record_path)
        replayed = replay.complete("hello", max_tokens=8, seed=3)
        assert replayed.text == first.text
        assert replayed.tokens == first.tokens
        assert replayed.token_logprobs == first.token_logprobs

    def test_replay_unknown_request_is_error(self, tmp_path):
        record_path = tmp_path / "tape.jsonl"
        RecordingBackend(StubBackend(StubMode.ECHO), record_path).complete("known")
        replay = ReplayBackend(record_path)
        with pytest.raises(BackendError, match="no response"):
            replay.complete("different prompt")

    def test_replay_distinguishes_seeds(self, tmp_path):
        record_path = tmp_path / "tape.jsonl"
        live = RecordingBackend(StubBackend(StubMode.MARKOV), record_path)
        live.complete("p q r", seed=0)
        replay = ReplayBackend(record_path)
        replay.complete("p q r", seed=0)
        with pytest.raises(BackendError):
            replay.complete("p q r", seed=1)


class _LongAnswerBackend:
    """Answers every prompt with 3,000 tokens, so each record is long."""

    backend_id = "long-answer"

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        tokens = tuple(f"{prompt}.{seed}.{i}" for i in range(3000))
        return GenerationResult(" ".join(tokens), tokens, (-0.5,) * len(tokens), self.backend_id)


class TestConcurrentRecording:
    def test_every_concurrent_call_records_one_whole_line(self, tmp_path):
        record_path = tmp_path / "tape.jsonl"
        backend = RecordingBackend(_LongAnswerBackend(), record_path)
        prompts = [f"p{i}" for i in range(32)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = generate(prompts, backend, n_per_prompt=4, max_in_flight=8)
        finally:
            sys.setswitchinterval(interval)
        lines = record_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(results) == 128
        requests = sorted(
            (entry["request"]["prompt"], entry["request"]["seed"])
            for entry in map(json.loads, lines)
        )
        assert requests == sorted((p, k) for p in prompts for k in range(4))


class TestResolveBackend:
    def test_stub_specs(self):
        assert resolve_backend("echo", env={}).mode == StubMode.ECHO
        assert resolve_backend("markov", env={}).mode == StubMode.MARKOV

    def test_bare_table_spec_rejected(self):
        # A table needs entries; the toy pipeline builds its own.
        with pytest.raises(ValueError, match="unknown backend spec 'table'"):
            resolve_backend("table", env={})

    def test_table_file(self, tmp_path):
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps({"p": "from disk"}), encoding="utf-8")
        backend = resolve_backend(f"table:{table_path}", env={})
        assert backend.complete("p").text == "from disk"

    def test_replay_file(self, tmp_path):
        record_path = tmp_path / "tape.jsonl"
        RecordingBackend(StubBackend(StubMode.ECHO), record_path).complete("x")
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

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown backend spec"):
            resolve_backend("carrier-pigeon", env={})
