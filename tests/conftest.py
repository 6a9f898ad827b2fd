"""Shared fixtures: small hand-built corpora with known properties, and a
scriptable completion server."""
from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from posdebias.corpus import (
    Corpus,
    DialogueTurn,
    Sample,
    Task,
    make_document,
    render_input,
)


def dialogue_sample(
    sample_id: str,
    utterances: list[str],
    prev_question: str,
    prev_answer: str,
    question: str,
    target: str,
    task: Task = Task.CQA,
) -> Sample:
    """One two-turn dialogue sample: an answered turn then the current turn."""
    document = make_document(utterances)
    history = (DialogueTurn(0, prev_question, prev_answer), DialogueTurn(1, question, None))
    return Sample(
        id=sample_id,
        task=task,
        target=target,
        document=document,
        history=history,
        input_text=render_input(task, document, history),
    )


def nli_sample(sample_id: str, premise: str, hypothesis: str, label: str) -> Sample:
    return Sample(
        id=sample_id,
        task=Task.NLI,
        target=label,
        nli_premise=premise,
        nli_hypothesis=hypothesis,
        input_text=render_input(Task.NLI, nli_premise=premise, nli_hypothesis=hypothesis),
    )


@pytest.fixture
def planted_relpos_corpus() -> tuple[Corpus, set[str], dict[str, int]]:
    """Dialogue corpus with hand-planted relative positions.

    Documents use disjoint token sets per utterance so grounding is
    unambiguous. Returns (corpus, expected-biased ids, expected rel-pos).
    """
    utterances = [
        "alpha alpha one",
        "bravo bravo two",
        "carol carol three",
        "delta delta four",
        "echo echo five",
    ]
    # (id, previous answer grounded at, target grounded at)
    layout = [
        ("s0", 1, 1),  # rel 0 -> biased
        ("s1", 2, 3),  # rel +1 -> biased
        ("s2", 3, 1),  # rel -2
        ("s3", 0, 4),  # rel +4
        ("s4", 4, 0),  # rel -4
        ("s5", 2, 2),  # rel 0 -> biased
    ]
    samples = []
    expected_rel = {}
    for sid, prev_idx, tgt_idx in layout:
        samples.append(
            dialogue_sample(
                sid,
                utterances,
                prev_question="earlier question",
                prev_answer=utterances[prev_idx],
                question="current question",
                target=utterances[tgt_idx],
            )
        )
        expected_rel[sid] = tgt_idx - prev_idx
    corpus = Corpus(tuple(samples), Task.CQA)
    biased_ids = {sid for sid, rel in expected_rel.items() if rel in (0, 1)}
    return corpus, biased_ids, expected_rel


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
        elif prompt == "surrogate":
            body = {"text": "x \ud800", "tokens": ["x"], "token_logprobs": [-0.1]}
        elif prompt == "huge-logprob":
            body = {"text": "x", "tokens": ["x"], "token_logprobs": [-(10**400)]}
        elif "nan-logprob" in prompt:  # a substring, so a corpus sample's prompt can ask for it
            body = {"text": "x", "tokens": ["x"], "token_logprobs": [math.nan]}
        elif "too-deep" in prompt:
            body = "DEEP"
        else:
            body = {
                "text": f"reply to {prompt}",
                "tokens": ["reply", "to", prompt],
                "token_logprobs": [-0.1, -0.2, -0.3],
            }
        data = json.dumps(body).replace('"DEEP"', "[" * 3000 + "]" * 3000).encode("utf-8")
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
