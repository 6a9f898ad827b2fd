"""Every reader of outside JSON (``corpus.parse_json``'s callers) fails on
hostile input as one ``ValueError`` naming the source, and every verb as
one ``Error:`` line that writes nothing."""
from __future__ import annotations

import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posdebias.backends import BackendError, HttpBackend, ReplayBackend, resolve_backend
from posdebias.cli import main
from posdebias.corpus import Task, load_corpus, sample_to_record, save_corpus
from posdebias.pipeline import parse_config
from posdebias.records import load_aligned, load_candidates, load_eval
from posdebias.toy_model import SynthSpec, ToyModel, load_model, synth_corpus

from conftest import dialogue_sample

_MODEL = ToyModel.initialize(vocab_size=4, seed=0)

#: A valid value for each reader: a JSONL reader's two records, one per
#: line, else the one value of the file or served body.
GOOD = {
    "corpus": [
        sample_to_record(dialogue_sample(i, ["u v", "w x"], "p?", "u v", "q?", "w x")) for i in ("a", "b")
    ],
    "candidates": [
        {"sample_id": "a", "candidate_index": i, "text": "u", "tokens": ["u"], "token_logprobs": [-0.1], "backend_id": "b"}
        for i in (0, 1)
    ],
    "aligned": [
        {"sample_id": "a", "text": "u", "token_logprobs": [-0.1], "kept": kept, "rejection_reasons": [] if kept else ["unreliable"]}
        for kept in (True, False)
    ],
    "replay": [
        {"request": {"prompt": p, "max_tokens": 16, "seed": 0, "logprobs": True},
         "response": {"text": "u", "tokens": ["u"], "token_logprobs": [-0.1]}}
        for p in ("p", "q")
    ],
    "config": {"out_dir": "out", "synth": {"n_train": 6, "n_eval": 6, "vocab_size": 12}, "seeds": [0], "learning_rate": 0.5},
    "table": {"p q": {"text": "a b", "token_logprobs": [-0.5, -0.25]}, "r": ["c", "d e"]},
    "eval": {
        "system": "ft", "metric": "accuracy", "splits": {"biased": {"score": 0.5, "count": 2}},
        "by_position": [{"position": 0, "score": 0.25, "count": 1}],
    },
    "model": {  # as ``save_model`` writes it
        "vocabulary": list(_MODEL.vocabulary), "seed": 0, "window_scale": _MODEL.window_scale, "weights": _MODEL.weights.tolist(),
    },
    "http": {"text": "a b", "tokens": ["a", "b"], "token_logprobs": [-0.5, -0.25]},
}
JSONL = ("corpus", "candidates", "aligned", "replay")
URL = "http://127.0.0.1:9/v1/complete"

#: The readers that take a path and raise ``ValueError``.
LOADERS = {
    "corpus": lambda path: load_corpus(path, Task.CQA), "candidates": load_candidates, "aligned": load_aligned,
    "replay": ReplayBackend, "eval": load_eval, "model": load_model,
}


def served(path: Path) -> HttpBackend:
    """An ``HttpBackend`` whose server answers every request with the bytes of ``path``."""
    backend = HttpBackend(URL)
    backend.session.post = lambda *args, **kwargs: SimpleNamespace(status_code=200, content=path.read_bytes())
    return backend


def read(reader: str, path: Path) -> str:
    """The one-line message ``reader`` fails on ``path`` with; any failure
    but its one contract (``ValueError``, a verb's ``Error:`` line, the
    served body's ``BackendError``) propagates."""
    if reader == "config":
        result = CliRunner().invoke(main, ["run", "--config", str(path), "--out-dir", str(path.parent / "out")])
        assert result.exit_code == 1 and result.exception.__class__ is SystemExit, result.output
        (line,) = result.output.strip().splitlines()
        assert line.startswith("Error: ")
        return line.removeprefix("Error: ")
    if reader == "http":
        with pytest.raises(BackendError) as info:
            served(path).complete("p")
        return str(info.value).removeprefix("bad backend response, tokens and logprobs required: ")
    if reader == "table":
        with pytest.raises(ValueError) as info:
            resolve_backend(f"table:{path}", env={})
        return str(info.value).removeprefix(f"backend 'table:{path}': ")
    with pytest.raises(ValueError) as info:
        LOADERS[reader](path)
    return str(info.value)


def spots(value, kind: str, path=()) -> list[tuple]:
    """The paths into ``value`` a mutation can hit: each key or string
    (``("key", ...)`` for a key), each number, or each value."""
    found = []
    if kind == "value" and path:
        found.append(path)
    if isinstance(value, dict):
        for key, item in value.items():
            if kind == "string":
                found.append(path + (("key", key),))
            found += spots(item, kind, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            found += spots(item, kind, path + (i,))
    elif kind == "string" and isinstance(value, str) or kind == "number" and type(value) in (int, float) or kind == "float" and type(value) is float:
        found.append(path)
    return found


def replaced(value, path: tuple, change):
    """A copy of ``value`` with ``change`` applied at ``path`` (a key, for
    a last step ``("key", key)``)."""
    value = json.loads(json.dumps(value))
    *steps, last = path
    parent = value
    for step in steps:
        parent = parent[step]
    if isinstance(last, tuple):
        parent[change(last[1])] = parent.pop(last[1])
    else:
        parent[last] = change(parent[last])
    return value


def mutated(value, mutation: str, draw) -> bytes:
    """The bytes of a file holding ``value`` (one record) after
    ``mutation``; ``draw(n)`` picks one of ``n`` choices."""
    if mutation == "not-an-object":
        return json.dumps([[1], 2.5, "text", None, True][draw(5)]).encode()
    if mutation == "big":  # 2,000 x 50 zeros: a weight matrix where an object is read
        return json.dumps([[0] * 50] * 2000).encode()
    if mutation in ("deep", "surrogate", "nan", "huge"):
        # ``huge`` hits a float the reader reads, else any number (a corpus holds only integers).
        found = spots(value, {"deep": "value", "surrogate": "string", "nan": "number", "huge": "float"}[mutation]) or spots(value, "number")
        where = found[draw(len(found))]
        if mutation == "deep":
            text = json.dumps(replaced(value, where, lambda _: "DEEP")).replace('"DEEP"', "[" * 3000 + "]" * 3000)
        elif mutation == "huge":  # a JSON number that decodes to infinity
            text = json.dumps(replaced(value, where, lambda _: "HUGE")).replace('"HUGE"', "1e400")
        elif mutation == "surrogate":  # json.dumps escapes it: "\udxxx"
            at, surrogate = draw(100), chr(0xD800 + draw(0x800))
            text = json.dumps(replaced(value, where, lambda s: s[:at] + surrogate + s[at:]))
        else:
            text = json.dumps(replaced(value, where, lambda _: [math.nan, math.inf, -math.inf][draw(3)]))
        return text.encode()
    data = json.dumps(value).encode()
    if mutation == "truncated":  # a proper, non-empty prefix of an object is never JSON
        return data[: 1 + draw(len(data) - 1)]
    if mutation == "bad-utf8":  # the JSON is ASCII: a byte above 0x7f alone is never UTF-8
        at = draw(len(data) + 1)
        return data[:at] + bytes([0x80 + draw(0x80)]) + data[at:]
    return b"\xef\xbb\xbf" + data  # a BOM


MUTATIONS = ("deep", "surrogate", "bad-utf8", "bom", "truncated", "not-an-object", "nan", "huge")


def hostile(reader: str, mutation: str, draw) -> tuple[bytes, int | None]:
    """A file for ``reader`` after ``mutation``, and the line its error
    names: a JSONL file's last line, but a BOM on its first; ``None`` for
    a whole file."""
    value = GOOD[reader]
    if reader not in JSONL:
        return mutated(value, mutation, draw), None
    if mutation == "bom":
        return b"\xef\xbb\xbf" + "".join(json.dumps(v) + "\n" for v in value).encode(), 1
    return (json.dumps(value[0]) + "\n").encode() + mutated(value[1], mutation, draw), 2


@pytest.mark.parametrize("reader", GOOD)
def test_each_reader_reads_its_good_file(tmp_path, reader):
    value = GOOD[reader]
    path = tmp_path / "good"
    lines = value if reader in JSONL else [value]
    path.write_text("".join(json.dumps(v) + "\n" for v in lines), encoding="utf-8")
    if reader == "config":
        parse_config({**value, "out_dir": str(tmp_path / "out")})
    elif reader == "http":
        assert served(path).complete("p").tokens == ("a", "b")
    elif reader == "table":
        assert resolve_backend(f"table:{path}", env={}).complete("p q").text == "a b"
    else:
        LOADERS[reader](path)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reader=st.sampled_from(sorted(GOOD)), mutation=st.sampled_from(MUTATIONS), data=st.data())
def test_a_hostile_file_fails_as_one_value_error_naming_the_file(tmp_path, reader, mutation, data):
    def draw(n: int) -> int:
        return data.draw(st.integers(0, n - 1))

    path = tmp_path / "input"
    content, line = hostile(reader, mutation, draw)
    path.write_bytes(content)
    message = read(reader, path)
    source = URL if reader == "http" else str(path)
    assert message.startswith(f"{source}: "), message
    if line is not None and mutation != "bad-utf8":  # bad UTF-8 is named by its byte offset
        assert message.startswith(f"{source}: line {line}: "), message
    assert "\n" not in message
    if mutation == "huge":
        assert re.search(r"field '[^']+'", message), message


@pytest.fixture
def corpus_file(tmp_path):
    spec = SynthSpec(n_utterances=6, n_train=10, n_eval=1, biased_fraction=0.5, vocab_size=12, seed=5)
    return save_corpus(synth_corpus(spec)[0], tmp_path / "corpus.jsonl")


#: Each verb, the reader it feeds the bad file to and its arguments
#: (``BAD`` the bad file, ``OUT`` what it would write, ``CORPUS`` a good corpus).
VERBS = {
    "split": ("corpus", ["split", "--corpus", "BAD", "--task", "cqa", "--out-dir", "OUT"]),
    "infer-table": ("table", ["infer", "--corpus", "CORPUS", "--task", "cqa", "--backend", "table:BAD", "--out", "OUT"]),
    "infer-replay": ("replay", ["infer", "--corpus", "CORPUS", "--task", "cqa", "--backend", "replay:BAD", "--out", "OUT"]),
    "align": ("candidates", ["align", "--candidates", "BAD", "--task", "cqg", "--out", "OUT"]),
    "train-toy": ("aligned", ["train-toy", "--train", "CORPUS", "--aligned", "BAD", "--alpha", "0.2", "--out", "OUT"]),
    "eval": ("model", ["eval", "--model", "BAD", "--corpus", "CORPUS", "--task", "cqa", "--out", "OUT"]),
    "report": ("eval", ["report", "BAD", "--out-dir", "OUT"]),
    "run": ("config", ["run", "--config", "BAD", "--out-dir", "OUT"]),
}


@pytest.mark.parametrize("mutation", ["deep", "nan", "surrogate", "huge", "big"])
@pytest.mark.parametrize("verb", VERBS)
def test_every_verb_fails_on_a_hostile_file_in_one_line_and_writes_nothing(tmp_path, corpus_file, verb, mutation):
    reader, args = VERBS[verb]
    bad, out = tmp_path / "bad", tmp_path / "out"
    bad.write_bytes(hostile(reader, mutation, lambda n: 0)[0])
    args = [{"BAD": str(bad), "OUT": str(out), "CORPUS": str(corpus_file)}.get(a, a.replace("BAD", str(bad))) for a in args]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1 and result.exception.__class__ is SystemExit, result.output
    (line,) = result.output.strip().splitlines()
    assert line.startswith("Error: ") and str(bad) in line
    assert len(line.replace(str(bad), "BAD")) < 300, line  # a value is shown cut to 80 characters
    if mutation == "huge":
        assert re.search(r"field '[^']+'", line), line
    assert not out.exists()


@pytest.mark.parametrize("prompt", ["too-deep", "nan-logprob"])
def test_infer_fails_on_a_hostile_served_body_in_one_line(tmp_path, local_server, prompt):
    _, url = local_server
    corpus = tmp_path / "corpus.jsonl"  # its one prompt holds ``prompt``
    corpus.write_text(json.dumps(sample_to_record(dialogue_sample("a", [f"u {prompt}", "w x"], "p?", "u", "q?", "w x"))) + "\n")
    out = tmp_path / "candidates.jsonl"
    result = CliRunner().invoke(main, ["infer", "--corpus", str(corpus), "--task", "cqa", "--backend", f"url:{url}", "--out", str(out)])
    assert result.exit_code == 1 and result.exception.__class__ is SystemExit, result.output
    (line,) = result.output.strip().splitlines()
    problem = "JSON nested too deeply" if prompt == "too-deep" else "NaN is not a JSON number"
    assert line.startswith("Error: prompt 0: ") and line.endswith(f"{url}: {problem}"), line
    assert not out.exists()


def test_run_fails_on_a_hostile_corpus_in_the_stage_its_manifest_names(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(hostile("corpus", "deep", lambda n: 0)[0])
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps({"out_dir": str(out), "corpus": str(corpus), "task": "cqa", "backend": "echo"}))
    result = CliRunner().invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1 and result.exception.__class__ is SystemExit, result.output
    (line,) = result.output.strip().splitlines()
    assert line == f"Error: stage 'split' failed: {corpus}: line 2: JSON nested too deeply"
    manifest = json.loads((out / "manifest.json").read_text())
    assert [(s["stage"], s["status"], s["artifacts"]) for s in manifest["stages"]] == [("split", "failed", [])]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
