"""Generation backends: a thin HTTP completion client plus offline stubs.

Every backend speaks one verb: ``complete`` produces a continuation for a
prompt together with its per-token log-probabilities. The log-probabilities
are mandatory; a backend that cannot produce them is unusable here.

Wire format (HTTP, JSON bodies):

    request:  {"prompt": str, "max_tokens": int, "seed": int, "logprobs": true}
    response: {"text": str, "tokens": [str, ...], "token_logprobs": [float, ...]}
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import urllib.parse
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Protocol

from .corpus import _check_utf8, _shown, encode_json, json_field, json_list, parse_json, read_jsonl, read_text

#: Environment variable that overrides any configured HTTP endpoint.
BACKEND_URL_ENV = "POSDEBIAS_BACKEND_URL"


class BackendError(RuntimeError):
    """Backend failure; ``prompt_index`` is the failing prompt's, when known,
    and ``results`` what ``generate`` drew for the prompts before it."""

    def __init__(self, message: str, *, prompt_index: int | None = None) -> None:
        super().__init__(message)
        self.prompt_index = prompt_index
        self.results: list[GenerationResult] = []


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

    def body(self) -> dict:
        """The wire-format response body: ``text``, ``tokens`` and
        ``token_logprobs``, in that order (``_result_from_body`` reads it)."""
        return {"text": self.text, "tokens": list(self.tokens), "token_logprobs": list(self.token_logprobs)}

    @functools.cached_property
    def logprobs_json(self) -> str:
        """``token_logprobs`` as JSON text, encoded once for every line that
        holds them (its candidate line and its verdict line)."""
        return encode_json(self.token_logprobs)

    def min_token_prob(self) -> float:
        """Probability of the least likely token; 1.0 for an empty result."""
        if not self.token_logprobs:
            return 1.0
        return math.exp(min(self.token_logprobs))


class Backend(Protocol):
    """A completion source. A backend that holds no connection, lock or
    per-call state sets ``forks_safely = True``, and the pipeline may then
    call it from forked workers; any other runs in the calling process."""

    backend_id: str

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        ...


def _stable_hash(text: str) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@functools.lru_cache(maxsize=1024)
def _markov_state(prompt: str) -> tuple[int, tuple[str, ...]]:
    """The markov stub's per-prompt state, built once per prompt rather than
    once per seed: the prompt's stable hash and its sorted distinct tokens
    (``the`` for a blank prompt)."""
    return _stable_hash(prompt), tuple(sorted(set(prompt.split()))) or ("the",)


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
      be a string, a ``{"text": ..., "tokens": [...], "token_logprobs": [...]}``
      record (``tokens`` and ``token_logprobs`` optional), or a non-empty list
      of either; list entries are cycled by seed so repeated calls with
      increasing seeds walk the list deterministically. Entries without
      logprobs get ``STUB_DEFAULT_LOGPROB`` per token. Every entry becomes
      its result here, so a bad one raises ``ValueError`` naming its prompt.
    * ``markov``: emits ``min(max_tokens, STUB_MARKOV_LENGTH)`` tokens (at
      least one), each drawn independently and uniformly from the prompt's
      distinct tokens, with logprobs drawn uniformly from [-1.5, -0.05],
      all seeded by the prompt and the seed; a nonsense generator with
      stable outputs.
    """

    forks_safely = True

    def __init__(self, mode: StubMode | str = StubMode.ECHO, table: dict | None = None) -> None:
        self.mode = StubMode(mode)
        self.backend_id = f"stub-{self.mode.value}"
        self.table = {prompt: self._table_results(prompt, value) for prompt, value in (table or {}).items()}

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        if self.mode == StubMode.ECHO:
            text = self._echo_text(prompt)
            tokens = tuple(text.split())
            return GenerationResult(text, tokens, (0.0,) * len(tokens), self.backend_id)
        if self.mode == StubMode.TABLE:
            if prompt not in self.table:
                raise BackendError(f"stub table has no entry for prompt {prompt[:80]!r}")
            results = self.table[prompt]
            return results[seed % len(results)]
        key, vocab = _markov_state(prompt)
        rng = random.Random(key ^ (seed & 0xFFFFFFFF))
        choice, draw = rng.choice, rng.random
        tokens = tuple([choice(vocab) for _ in range(max(1, min(max_tokens, STUB_MARKOV_LENGTH)))])
        # -uniform(0.05, 1.5), spelled as ``random.uniform`` documents it.
        logprobs = tuple([-(0.05 + (1.5 - 0.05) * draw()) for _ in tokens])
        return GenerationResult(" ".join(tokens), tokens, logprobs, self.backend_id)

    @staticmethod
    def _echo_text(prompt: str) -> str:
        marker = "copy:"
        pos = prompt.rfind(marker)
        if pos < 0:
            return prompt.strip()
        return prompt[pos + len(marker) :].strip()

    def _table_results(self, prompt: str, value: object) -> tuple[GenerationResult, ...]:
        entries = value if isinstance(value, list) else [value]
        try:
            if not entries:
                raise ValueError("empty list")
            return tuple(map(self._table_result, entries))
        except ValueError as exc:
            raise ValueError(f"table entry for prompt {prompt[:80]!r}: {exc}") from None

    def _table_result(self, entry: object) -> GenerationResult:
        if isinstance(entry, str):
            entry = {"text": entry}
        elif not isinstance(entry, dict):
            raise ValueError(f"entry must be a string or a JSON object, got {_shown(entry)}")
        text = _check_utf8(json_field(entry, "text", str), "text")
        tokens = json_list(entry, "tokens", str, None) or text.split()
        logprobs = json_list(entry, "token_logprobs", (int, float), None)
        if logprobs is None:
            logprobs = (STUB_DEFAULT_LOGPROB,) * len(tokens)
        return GenerationResult(text, tuple(tokens), tuple(logprobs), self.backend_id)


def _complete_payload(prompt: str, max_tokens: int, seed: int) -> dict:
    """Request body of a completion; also the key of a recorded exchange."""
    return {"prompt": prompt, "max_tokens": max_tokens, "seed": seed, "logprobs": True}


def record_line(prompt: str, max_tokens: int, seed: int, result: GenerationResult) -> str:
    """One exchange of an ``infer --record`` file, as ``ReplayBackend`` reads
    it: ``json.dumps`` (``ensure_ascii=False``) of the request and response bodies."""
    return encode_json({"request": _complete_payload(prompt, max_tokens, seed), "response": result.body()})


def _result_from_body(body: object, backend_id: str) -> GenerationResult:
    """A served or recorded response body, or a candidates line, as a result:
    the one decoder of a result from JSON. ``tokens`` and ``token_logprobs``
    are required; a missing or bad field, text that does not encode as UTF-8
    among them, raises ``ValueError`` naming it. Each logprob is kept as JSON
    decoded it (``-1`` stays an int), so a replay writes the bytes recorded."""
    return GenerationResult(
        text=_check_utf8(json_field(body, "text", str, ""), "text"),
        tokens=tuple(json_list(body, "tokens", str)),
        token_logprobs=tuple(json_list(body, "token_logprobs", (int, float))),
        backend_id=backend_id,
    )


class HttpBackend:
    """JSON-over-HTTP completion client; each completion is one request.

    A transport failure, a status other than 200 or a response without
    per-token logprobs raises ``BackendError``: nothing downstream can work
    without the logprobs.
    """

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        self.url = url
        self.timeout = timeout
        # Imported here: only an HTTP backend needs the HTTP stack, and a
        # module-level import slows every ``posdebias`` start-up.
        import requests

        self.session = requests.Session()
        self.backend_id = f"http:{url}"

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        import requests

        payload = _complete_payload(prompt, max_tokens, seed)
        try:
            response = self.session.post(self.url, json=payload, timeout=self.timeout)
        except requests.RequestException as exc:
            raise BackendError(f"transport failure: {exc}") from exc
        if response.status_code >= 500:
            raise BackendError(f"server error {response.status_code}")
        if response.status_code != 200:
            raise BackendError(f"backend rejected request with status {response.status_code}")
        try:
            return parse_json(response.content, self.url, lambda body: _result_from_body(body, self.backend_id))
        except ValueError as exc:
            raise BackendError(f"bad backend response, tokens and logprobs required: {exc}") from None


def _request_key(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False)


class RecordingBackend:
    """Calls ``inner``, and nothing in ``posdebias`` calls it: ``infer
    --record`` builds its lines in the pass (``record_line``). It stays
    because perfbench's tracer patches ``RecordingBackend.complete``."""

    def __init__(self, inner: Backend) -> None:
        self.inner, self.backend_id = inner, inner.backend_id

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        return self.inner.complete(prompt, max_tokens=max_tokens, seed=seed)


class ReplayBackend:
    """Serve previously recorded exchanges; unknown requests are errors. The
    file is read up front (``corpus.read_jsonl``), so a bad line fails at once."""

    forks_safely = True

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.backend_id = f"replay:{self.path.name}"
        self._results = dict(exchange for _, exchange in read_jsonl(self.path, self._exchange))

    def _exchange(self, entry: object) -> tuple[str, GenerationResult]:
        request, response = json_field(entry, "request", dict), json_field(entry, "response", dict)
        try:
            return _request_key(request), _result_from_body(response, self.backend_id)
        except ValueError as exc:
            raise ValueError(f"response to prompt {str(request.get('prompt'))[:80]!r}: {exc}") from None

    def complete(self, prompt: str, max_tokens: int = 16, seed: int = 0) -> GenerationResult:
        key = _request_key(_complete_payload(prompt, max_tokens, seed))
        if key not in self._results:
            raise BackendError(f"replay file has no response for request {key[:120]}")
        return self._results[key]


def reads_max_tokens(spec: str) -> bool:
    """Whether the backend ``spec`` names reads ``max_tokens``: the echo stub
    and the table lookups (``table:FILE``, and the toy run's own ``table``)
    return their texts whole."""
    return not (spec in (StubMode.ECHO.value, StubMode.TABLE.value) or spec.startswith("table:"))


def _table_backend(table: object) -> StubBackend:
    """The ``table:FILE`` backend of the file's JSON object."""
    if not isinstance(table, dict):
        raise ValueError(f"a table must be a JSON object, got {type(table).__name__}")
    return StubBackend(StubMode.TABLE, table=table)


def resolve_backend(spec: str, *, env: dict | None = None) -> Backend:
    """Build the backend a spec names; the one parser of backend specs.

    Specs: ``echo``, ``markov``, ``table:FILE`` (a JSON object from prompt
    to ``StubBackend`` table value), ``replay:FILE`` (an ``infer --record``
    file) and ``url:ENDPOINT`` or a bare ``http(s)`` URL, which the
    ``POSDEBIAS_BACKEND_URL`` environment variable overrides when set. A
    table or replay file is decoded whole here, and an endpoint must be an
    absolute http(s) URL, so an unknown spec, a missing or unreadable file, a
    bad entry or a bad endpoint raises ``ValueError`` naming the spec.
    """
    kind, colon, arg = spec.partition(":")
    if spec.startswith(("http://", "https://")):
        kind, arg = "url", spec
    elif kind not in (("url", "table", "replay") if colon else (StubMode.ECHO.value, StubMode.MARKOV.value)):
        raise ValueError(f"unknown backend spec {spec!r}")
    if kind == "url":
        override = (os.environ if env is None else env).get(BACKEND_URL_ENV)
        url = override or arg
        try:
            parts = urllib.parse.urlsplit(url)
            absolute = parts.scheme in ("http", "https") and bool(parts.hostname)
        except ValueError:
            absolute = False
        if not absolute:
            source = f" (from {BACKEND_URL_ENV})" if override else ""
            raise ValueError(f"backend {spec!r}: endpoint {url!r}{source} is not an absolute http(s) URL")
        return HttpBackend(url)
    if not colon:
        return StubBackend(StubMode(kind))
    if not Path(arg).is_file():
        raise ValueError(f"backend {spec!r}: file {arg!r} does not exist")
    try:
        if kind == "replay":
            return ReplayBackend(arg)
        return parse_json(read_text(arg), arg, _table_backend)
    except ValueError as exc:
        raise ValueError(f"backend {spec!r}: {exc}") from None
