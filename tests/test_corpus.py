"""Data model, JSONL ingestion, rendering, validation, and stats."""
from __future__ import annotations

import ast
import json
import re
from pathlib import Path
from typing import Iterator

import pytest

import posdebias
from posdebias.backends import ReplayBackend
from posdebias.corpus import (
    Corpus,
    CorpusError,
    DialogueTurn,
    Sample,
    Task,
    load_corpus,
    make_document,
    render_input,
    sample_to_record,
    save_corpus,
    validate_sample,
)
from posdebias.records import load_aligned, load_candidates

from conftest import dialogue_sample, nli_sample

#: Each JSONL reader, with one good record and a field it requires.
READERS = {
    "corpus": (
        lambda path: load_corpus(path, Task.CQA),
        sample_to_record(dialogue_sample("a", ["u"], "p?", "u", "q?", "u")),
        "target",
    ),
    "candidates": (
        load_candidates,
        {"sample_id": "a", "candidate_index": 0, "text": "u", "tokens": ["u"], "token_logprobs": [-0.1], "backend_id": "b"},
        "text",
    ),
    "aligned": (
        load_aligned,
        {"sample_id": "a", "text": "u", "token_logprobs": [-0.1], "kept": True, "rejection_reasons": []},
        "kept",
    ),
    "replay": (
        ReplayBackend,
        {"request": {"prompt": "p"}, "response": {"text": "u", "tokens": ["u"], "token_logprobs": [-0.1]}},
        "response",
    ),
}


class TestDataModel:
    def test_task_values(self):
        assert {t.value for t in Task} == {"cqa", "cqg", "kgc", "sum", "nli"}

    def test_make_document_indices(self):
        doc = make_document(["a", "b", "c"])
        assert doc.utterances == ("a", "b", "c")
        assert doc.texts() == ["a", "b", "c"]
        assert len(doc) == 3

    def test_current_question_is_latest_unanswered(self):
        sample = Sample(
            id="x",
            task=Task.CQA,
            target="t",
            history=(
                DialogueTurn(0, "q0", "a0"),
                DialogueTurn(1, "q1", None),
            ),
        )
        assert sample.current_question() == "q1"
        assert sample.last_answered_turn().answer == "a0"

    def test_last_answered_turn_skips_blank_answers(self):
        sample = Sample(
            id="x",
            task=Task.CQA,
            target="t",
            history=(
                DialogueTurn(0, "q0", "real answer"),
                DialogueTurn(1, "q1", "   "),
                DialogueTurn(2, "q2", None),
            ),
        )
        assert sample.last_answered_turn().turn_index == 0

    def test_no_history_no_question(self):
        sample = Sample(id="x", task=Task.SUM, target="t", document=make_document(["u"]))
        assert sample.current_question() is None
        assert sample.last_answered_turn() is None

    def test_corpus_rejects_task_mismatch(self):
        sample = Sample(id="x", task=Task.CQA, target="t")
        with pytest.raises(CorpusError, match="task"):
            Corpus((sample,), Task.SUM)

    def test_corpus_rejects_duplicate_ids(self):
        a = Sample(id="x", task=Task.CQA, target="t")
        b = Sample(id="x", task=Task.CQA, target="u")
        with pytest.raises(CorpusError, match="duplicate"):
            Corpus((a, b), Task.CQA)


class TestRenderInput:
    def test_dialogue_template(self):
        rendered = render_input(
            Task.CQA,
            document=make_document(["first utt", "second utt"]),
            history=(
                DialogueTurn(0, "who?", "first utt"),
                DialogueTurn(1, "what?", None),
            ),
        )
        assert rendered == (
            "document: first utt | second utt\n"
            "history: q: who? a: first utt\n"
            "question: what?"
        )

    def test_nli_template(self):
        rendered = render_input(Task.NLI, nli_premise="p text", nli_hypothesis="h text")
        assert rendered == "premise: p text\nhypothesis: h text"

    def test_summarization_document_only(self):
        rendered = render_input(Task.SUM, document=make_document(["only utt"]))
        assert rendered == "document: only utt"


class TestValidateSample:
    def test_valid_dialogue_sample(self):
        sample = dialogue_sample("s", ["u0", "u1"], "pq", "u0", "q", "u1")
        assert validate_sample(sample) == []

    def test_missing_document(self):
        sample = Sample(id="x", task=Task.CQA, target="t")
        assert "missing document" in validate_sample(sample)

    def test_empty_document(self):
        sample = Sample(id="x", task=Task.CQA, target="t", document=make_document([]))
        assert "document length >= 1 required" in validate_sample(sample)

    def test_nli_requires_premise_and_hypothesis(self):
        sample = Sample(id="x", task=Task.NLI, target="entailment")
        violations = validate_sample(sample)
        assert "missing nli_premise" in violations
        assert "missing nli_hypothesis" in violations

    def test_history_order_flagged(self):
        sample = Sample(
            id="x",
            task=Task.CQA,
            target="t",
            document=make_document(["u"]),
            history=(DialogueTurn(1, "q1", "a"), DialogueTurn(0, "q0", None)),
        )
        assert "history turn indices not strictly increasing" in validate_sample(sample)

    def test_empty_target_and_id(self):
        sample = Sample(id=" ", task=Task.SUM, target="", document=make_document(["u"]))
        violations = validate_sample(sample)
        assert "empty id" in violations
        assert "empty target" in violations


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        samples = (
            dialogue_sample("a", ["u0 text", "u1 text"], "pq?", "u0 text", "q?", "u1 text"),
            dialogue_sample("b", ["v0", "v1"], "pq?", "v1", "q?", "v0"),
        )
        corpus = Corpus(samples, Task.CQA)
        path = save_corpus(corpus, tmp_path / "c.jsonl")
        loaded = load_corpus(path, Task.CQA)
        assert loaded == corpus

    def test_nli_round_trip(self, tmp_path):
        corpus = Corpus(
            (nli_sample("n1", "a premise", "a hypothesis", "entailment"),), Task.NLI
        )
        path = save_corpus(corpus, tmp_path / "n.jsonl")
        assert load_corpus(path, Task.NLI) == corpus

    def test_blank_lines_skipped(self, tmp_path):
        record = sample_to_record(dialogue_sample("a", ["u"], "p?", "u", "q?", "u"))
        path = tmp_path / "c.jsonl"
        path.write_text("\n" + json.dumps(record) + "\n\n", encoding="utf-8")
        assert len(load_corpus(path, Task.CQA)) == 1

    def test_malformed_json_names_line(self, tmp_path):
        record = sample_to_record(dialogue_sample("a", ["u"], "p?", "u", "q?", "u"))
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record) + "\n{not json\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path, Task.CQA)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "task": "cqa"}\n', encoding="utf-8")
        with pytest.raises(CorpusError, match="line 1.*target"):
            load_corpus(path, Task.CQA)

    def test_task_mismatch_names_line(self, tmp_path):
        record = sample_to_record(dialogue_sample("a", ["u"], "p?", "u", "q?", "u"))
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 1.*mismatch"):
            load_corpus(path, Task.SUM)

    def test_duplicate_id_names_line(self, tmp_path):
        record = json.dumps(sample_to_record(dialogue_sample("a", ["u"], "p?", "u", "q?", "u")))
        path = tmp_path / "c.jsonl"
        path.write_text(record + "\n" + record + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2.*duplicate"):
            load_corpus(path, Task.CQA)

    @pytest.mark.parametrize(
        "edit, violation",
        [
            ({"target": ""}, "empty target"),
            ({"document": []}, "document length >= 1 required"),
            (
                {"history": [{"turn_index": 1, "question": "p?", "answer": "u"}, {"turn_index": 0, "question": "q?"}]},
                "history turn indices not strictly increasing",
            ),
        ],
    )
    def test_invalid_sample_names_line_and_violation(self, tmp_path, edit, violation):
        good = sample_to_record(dialogue_sample("a", ["u"], "p?", "u", "q?", "u"))
        bad = {**sample_to_record(dialogue_sample("b", ["u"], "p?", "u", "q?", "u")), **edit}
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=f"line 2: {violation}"):
            load_corpus(path, Task.CQA)

    @pytest.mark.parametrize("turn_index", ["0", True, 0.0, None])
    def test_a_turn_index_that_is_not_an_integer_names_its_field(self, tmp_path, turn_index):
        record = {**sample_to_record(dialogue_sample("a", ["u"], "p?", "u", "q?", "u")), "history": [
            {"turn_index": 0, "question": "p?", "answer": "u"}, {"turn_index": turn_index, "question": "q?"},
        ]}
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"line 1: field 'history\[1\]\.turn_index' must be an integer, got "):
            load_corpus(path, Task.CQA)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"id": "\xff"}\n')
        with pytest.raises(CorpusError, match="UTF-8"):
            load_corpus(path, Task.CQA)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="empty corpus"):
            load_corpus(path, Task.CQA)

    def test_input_text_rendered_when_absent(self, tmp_path):
        record = sample_to_record(dialogue_sample("a", ["u"], "p?", "u", "q?", "u"))
        del record["input_text"]
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        loaded = load_corpus(path, Task.CQA)
        assert loaded.samples[0].input_text.startswith("document: u")

    def test_recorded_input_text_is_kept(self, tmp_path):
        record = sample_to_record(dialogue_sample("a", ["u"], "p?", "u", "q?", "u"))
        record["input_text"] = "already here"
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert load_corpus(path, Task.CQA).samples[0].input_text == "already here"


class TestReadJsonl:
    """The one JSONL reader's error contract, through each reader that calls it."""

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("defect", ["malformed-json", "missing-field", "wrong-type", "not-an-object"])
    def test_bad_line_fails_in_one_line_naming_file_and_line(self, tmp_path, reader, defect):
        read, good, key = READERS[reader]
        bad = {
            "malformed-json": "{not json",
            "missing-field": json.dumps({k: v for k, v in good.items() if k != key}),
            "wrong-type": json.dumps({**good, key: 3}),
            "not-an-object": "[1]",
        }[defect]
        path = tmp_path / "f.jsonl"
        path.write_text(json.dumps(good) + "\n\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(CorpusError if reader == "corpus" else ValueError) as info:
            read(path)
        message = str(info.value)
        assert message.startswith(f"{path}: line 3: ") and "\n" not in message
        assert {
            "malformed-json": "malformed JSON",
            "missing-field": f"missing field {key!r}",
            "wrong-type": f"field {key!r} has the wrong type",
            "not-an-object": "must be a JSON object",
        }[defect] in message

    @pytest.mark.parametrize("reader", READERS)
    def test_bad_utf8_names_the_file(self, tmp_path, reader):
        read, good, _ = READERS[reader]
        path = tmp_path / "f.jsonl"
        path.write_bytes(json.dumps(good).encode() + b"\n\xff\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not valid UTF-8"):
            read(path)

    @pytest.mark.parametrize("reader", READERS)
    def test_lone_surrogate_escape_fails_naming_the_field(self, tmp_path, reader):
        # A lone surrogate in a field's string, then in an unknown key.
        read, good, _ = READERS[reader]
        field, set_bad = {
            "corpus": ("history[0].answer", lambda r: r["history"][0].update(answer="u \ud800")),
            "candidates": ("tokens", lambda r: r.update(tokens=["\ud800"])),
            "aligned": ("text", lambda r: r.update(text="\udc00 u")),
            "replay": ("request.prompt", lambda r: r["request"].update(prompt="p\ud800")),
        }[reader]
        for bad_field, record in ((field, json.loads(json.dumps(good))), ("k\ud800", dict(good, **{"k\ud800": 1}))):
            if bad_field == field:
                set_bad(record)
            path = tmp_path / "f.jsonl"
            path.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
            with pytest.raises(ValueError) as info:
                read(path)
            message = str(info.value)
            assert message.startswith(f"{path}: line 2: field {bad_field!r} does not encode as UTF-8")
            assert "\n" not in message

    def test_escaped_and_raw_non_ascii_text_loads(self, tmp_path):
        # A surrogate pair escape is one non-BMP character; only a lone surrogate is refused.
        corpus = Corpus((dialogue_sample("a", ["caf\u00e9 \U0001f600"], "p?", "u", "q?", "\u65e5"),), Task.CQA)
        for ensure_ascii in (True, False):
            path = tmp_path / "c.jsonl"
            record = sample_to_record(corpus.samples[0])
            path.write_text(json.dumps(record, ensure_ascii=ensure_ascii) + "\n", encoding="utf-8")
            assert ("\\ud83d\\ude00" in path.read_text(encoding="utf-8")) == ensure_ascii
            assert load_corpus(path, Task.CQA) == corpus

    def test_line_separators_inside_strings_round_trip(self, tmp_path):
        # write_jsonl leaves U+2028, U+2029 and U+0085 unescaped; only \n, \r\n and \r end a line.
        corpus = Corpus((dialogue_sample("a", ["u\u2028v"], "p?", "u\x85w", "q?", "x\u2029y"),), Task.CQA)
        path = save_corpus(corpus, tmp_path / "c.jsonl")
        assert "\u2028" in path.read_text(encoding="utf-8")
        assert load_corpus(path, Task.CQA) == corpus

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_end_lines(self, tmp_path, newline):
        read, good, _ = READERS["candidates"]
        path = tmp_path / "c.jsonl"
        path.write_bytes(newline.join([json.dumps(good), json.dumps({**good, "candidate_index": 1}), ""]).encode())
        assert [r.text for r in read(path)["a"]] == ["u", "u"]


def scoped_calls(source: str) -> Iterator[tuple[str, ast.Call]]:
    """``(function, call)`` for every call in ``source``, with the dotted
    name of the function or class it is in."""

    def visit(node: ast.AST, scope: tuple[str, ...]) -> Iterator[tuple[str, ast.Call]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                yield ".".join(scope), child
            yield from visit(child, scope)

    return visit(ast.parse(source), ())


def file_writes(source: str) -> list[tuple[str, str]]:
    """``(function, call)`` for every call in ``source`` that writes a file:
    ``write_text``, ``write_bytes``, and ``open`` (the builtin's second
    argument, a method's first, or ``mode=``) with a mode that is not a
    string constant or that holds ``w``, ``a``, ``x`` or ``+``."""
    found = []
    for scope, call in scoped_calls(source):
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            found.append((scope, name))
        elif name == "open":
            args = call.args[1:] if isinstance(func, ast.Name) else call.args
            mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), args[0] if args else None)
            reads = isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set(mode.value) & set("wax+")
            if mode is not None and not reads:
                found.append((scope, f"open({ast.unparse(mode)})"))
    return found


@pytest.mark.parametrize(
    "call, found",
    [
        ("open(p, 'w')", "open('w')"),
        ("open(p, mode='ab')", "open('ab')"),
        ("p.open('r+')", "open('r+')"),
        ("p.open('x', encoding='utf-8')", "open('x')"),
        ("p.open(mode)", "open(mode)"),
        ("p.write_text('x')", "write_text"),
        ("p.parent.write_bytes(b'')", "write_bytes"),
        ("print(p.open('w').name)", "open('w')"),
        ("open(p)", None),
        ("open(p, 'rb')", None),
        ("p.open(encoding='utf-8')", None),
        ("p.read_text()", None),
    ],
)
def test_file_writes_finds_each_way_to_write_a_file(call, found):
    source = f"class C:\n    def f(self, p, mode):\n        return {call}\n"
    assert file_writes(source) == ([("C.f", found)] if found else [])


def test_write_blocks_is_the_one_code_that_writes_a_file():
    # One writer decides how an artifact is encoded and where its directory
    # comes from; an ``infer --record`` file too.
    writes = {
        (path.stem, *write)
        for path in sorted(Path(posdebias.__file__).parent.glob("*.py"))
        for write in file_writes(path.read_text(encoding="utf-8"))
    }
    assert writes == {("corpus", "write_blocks", "open('wb')")}


def test_write_blocks_is_the_one_code_that_takes_an_artifact_checksum():
    # The manifest's checksums are the writer's: no other code hashes a file.
    calls = {
        (path.stem, scope)
        for path in sorted(Path(posdebias.__file__).parent.glob("*.py"))
        for scope, call in scoped_calls(path.read_text(encoding="utf-8"))
        if getattr(call.func, "attr", None) == "hexdigest"
    }
    assert calls == {("corpus", "write_blocks")}
