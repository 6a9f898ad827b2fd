"""Generation backends: a thin HTTP completion client plus offline stubs.

Every backend speaks one verb: ``complete`` produces a continuation for a
prompt together with its per-token log-probabilities. The log-probabilities
are mandatory; a backend that cannot produce them is unusable here.

Wire format (HTTP, JSON bodies):

    request:  {"prompt": str, "max_tokens": int, "seed": int, "logprobs": true}
    response: {"text": str, "tokens": [str, ...], "token_logprobs": [float, ...]}
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Protocol, runtime_checkable

import requests

#: Environment variable that overrides any configured HTTP endpoint.
BACKEND_URL_ENV = "POSDEBIAS_BACKEND_URL"


class BackendError(RuntimeError):
    """Backend failure; ``retryable`` marks transient transport problems."""

    def __init__(
        self,
        message: str,
        *,
        retryable: bool = False,
        prompt_index: int | None = None,
    ) -> None:
        super().__init__(message)
        self.retryable = retryable
        self.prompt_index = prompt_index


@dataclass(frozen=True)
class GenerationResult:
    """One completion: surface text, its tokens, and per-token logprobs."""

    text: str
    tokens: tuple[str, ...]
    token_logprobs: tuple[float, ...]
    backend_id: str

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.token_logprobs):
            raise ValueError(
                "GenerationResult: tokens and token_logprobs must be parallel "
                f"({len(self.tokens)} vs {len(self.token_logprobs)})"
            )
        for lp in self.token_logprobs:
            if not math.isfinite(lp) or lp > 0.0:
                raise ValueError(f"GenerationResult: invalid token logprob {lp}")

    def min_token_prob(self) -> float:
        """Probability of the least likely token; 1.0 for an empty result."""
        if not self.token_logprobs:
            return 1.0
        return math.exp(min(self.token_logprobs))


@runtime_checkable
class Backend(Protocol):
    backend_id: str

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        ...


def _stable_hash(text: str) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


#: Per-token logprob of table entries that carry none (probability 0.5).
STUB_DEFAULT_LOGPROB = math.log(0.5)

#: Longest markov-mode completion, in tokens.
STUB_MARKOV_LENGTH = 8


class StubMode(str, Enum):
    ECHO = "echo"
    TABLE = "table"
    MARKOV = "markov"


class StubBackend:
    """Deterministic offline backend.

    Modes:

    * ``echo``: returns the text after the last ``copy:`` marker in the
      prompt (the whole prompt when no marker is present) with logprob 0 per
      token, i.e. certainty.
    * ``table``: looks the prompt up in a caller-supplied table. Values may
      be a string, a ``{"text": ..., "token_logprobs": [...]}`` record, or a
      list of either; list entries are cycled by seed so repeated calls with
      increasing seeds walk the list deterministically. Entries without
      logprobs get ``STUB_DEFAULT_LOGPROB`` per token.
    * ``markov``: emits a seeded pseudo-random walk over the prompt's own
      vocabulary, at most ``STUB_MARKOV_LENGTH`` tokens; useful as a
      nonsense generator with stable outputs.
    """

    def __init__(self, mode: StubMode | str = StubMode.ECHO, table: dict | None = None) -> None:
        self.mode = StubMode(mode)
        self.table = dict(table or {})
        self.backend_id = f"stub-{self.mode.value}"

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        if self.mode == StubMode.ECHO:
            text = self._echo_text(prompt)
            tokens = tuple(text.split())
            return GenerationResult(text, tokens, (0.0,) * len(tokens), self.backend_id)
        if self.mode == StubMode.TABLE:
            if prompt not in self.table:
                raise BackendError(f"stub table has no entry for prompt {prompt[:80]!r}")
            return self._from_table_value(self.table[prompt], seed)
        rng = random.Random(_stable_hash(prompt) ^ (seed & 0xFFFFFFFF))
        vocab = sorted(set(prompt.split())) or ["the"]
        length = max(1, min(max_tokens, STUB_MARKOV_LENGTH))
        tokens = tuple(rng.choice(vocab) for _ in range(length))
        logprobs = tuple(-rng.uniform(0.05, 1.5) for _ in tokens)
        return GenerationResult(" ".join(tokens), tokens, logprobs, self.backend_id)

    @staticmethod
    def _echo_text(prompt: str) -> str:
        marker = "copy:"
        pos = prompt.rfind(marker)
        if pos < 0:
            return prompt.strip()
        return prompt[pos + len(marker) :].strip()

    def _from_table_value(self, value, seed: int) -> GenerationResult:
        if isinstance(value, list):
            if not value:
                raise BackendError("stub table entry is an empty list")
            value = value[seed % len(value)]
        if isinstance(value, str):
            tokens = tuple(value.split())
            logprobs = (STUB_DEFAULT_LOGPROB,) * len(tokens)
            return GenerationResult(value, tokens, logprobs, self.backend_id)
        if isinstance(value, dict):
            text = value["text"]
            tokens = tuple(value.get("tokens") or text.split())
            logprobs = value.get("token_logprobs")
            if logprobs is None:
                logprobs = (STUB_DEFAULT_LOGPROB,) * len(tokens)
            return GenerationResult(text, tokens, tuple(logprobs), self.backend_id)
        raise BackendError(f"stub table entry of unsupported type {type(value).__name__}")


def _complete_payload(prompt: str, max_tokens: int, seed: int) -> dict:
    """Request body of a completion; also the key of a recorded exchange."""
    return {"prompt": prompt, "max_tokens": max_tokens, "seed": seed, "logprobs": True}


def _result_from_body(body: dict, backend_id: str) -> GenerationResult:
    """A served or recorded response body as a result; logprobs are required."""
    tokens = body.get("tokens")
    logprobs = body.get("token_logprobs")
    if tokens is None or logprobs is None:
        raise BackendError("logprobs required: backend response lacks per-token logprobs")
    return GenerationResult(
        text=body.get("text", ""),
        tokens=tuple(tokens),
        token_logprobs=tuple(float(lp) for lp in logprobs),
        backend_id=backend_id,
    )


class HttpBackend:
    """JSON-over-HTTP completion client.

    Transport failures and 5xx responses raise retryable ``BackendError``s;
    responses without per-token logprobs are a hard error because nothing
    downstream can work without them.
    """

    def __init__(self, url: str, timeout: float = 30.0, retries: int = 0) -> None:
        self.url = url
        self.timeout = timeout
        self.retries = retries
        self.session = requests.Session()
        self.backend_id = f"http:{url}"

    def _post(self, payload: dict) -> dict:
        last_error: BackendError | None = None
        for _ in range(self.retries + 1):
            try:
                response = self.session.post(self.url, json=payload, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = BackendError(f"transport failure: {exc}", retryable=True)
                continue
            if response.status_code >= 500:
                last_error = BackendError(
                    f"server error {response.status_code}", retryable=True
                )
                continue
            if response.status_code != 200:
                raise BackendError(
                    f"backend rejected request with status {response.status_code}"
                )
            try:
                return response.json()
            except ValueError as exc:
                raise BackendError(f"backend returned invalid JSON: {exc}") from exc
        assert last_error is not None
        raise last_error

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        body = self._post(_complete_payload(prompt, max_tokens, seed))
        return _result_from_body(body, self.backend_id)


def _request_key(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False)


class RecordingBackend:
    """Wrap another backend and append each exchange to a JSONL file."""

    def __init__(self, inner: Backend, path: str | Path) -> None:
        self.inner = inner
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.backend_id = inner.backend_id
        # Concurrent ``generate`` calls record from several threads at once.
        self._lock = threading.Lock()

    def _record(self, payload: dict, result: GenerationResult) -> None:
        entry = {
            "request": payload,
            "response": {
                "text": result.text,
                "tokens": list(result.tokens),
                "token_logprobs": list(result.token_logprobs),
            },
        }
        line = json.dumps(entry, ensure_ascii=False) + "\n"
        with self._lock, self.path.open("a", encoding="utf-8") as handle:
            handle.write(line)

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        payload = _complete_payload(prompt, max_tokens, seed)
        result = self.inner.complete(prompt, max_tokens=max_tokens, seed=seed)
        self._record(payload, result)
        return result


class ReplayBackend:
    """Serve previously recorded exchanges; unknown requests are errors."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.backend_id = f"replay:{self.path.name}"
        self._responses: dict[str, dict] = {}
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                entry = json.loads(line)
                self._responses[_request_key(entry["request"])] = entry["response"]

    def _lookup(self, payload: dict) -> GenerationResult:
        key = _request_key(payload)
        if key not in self._responses:
            raise BackendError(f"replay file has no response for request {key[:120]}")
        return _result_from_body(self._responses[key], self.backend_id)

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        return self._lookup(_complete_payload(prompt, max_tokens, seed))


def resolve_backend(spec: str, *, env: dict | None = None, retries: int = 0) -> Backend:
    """Build a backend from a config string.

    Accepted specs: ``echo``, ``markov``, ``table:FILE`` (JSON table on
    disk), ``replay:FILE``, ``url:ENDPOINT`` or a bare ``http(s)`` URL. When the ``POSDEBIAS_BACKEND_URL`` environment variable is set it
    overrides any configured endpoint.
    """
    import os

    env = dict(os.environ if env is None else env)
    override = env.get(BACKEND_URL_ENV)
    if spec.startswith("url:"):
        return HttpBackend(override or spec[len("url:") :], retries=retries)
    if spec.startswith(("http://", "https://")):
        return HttpBackend(override or spec, retries=retries)
    if spec.startswith("replay:"):
        return ReplayBackend(spec[len("replay:") :])
    if spec.startswith("table:"):
        loaded = json.loads(Path(spec[len("table:") :]).read_text(encoding="utf-8"))
        return StubBackend(StubMode.TABLE, table=loaded)
    if spec in (StubMode.ECHO.value, StubMode.MARKOV.value):
        return StubBackend(StubMode(spec))
    raise ValueError(f"resolve_backend: unknown backend spec {spec!r}")
