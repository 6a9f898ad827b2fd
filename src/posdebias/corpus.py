"""Canonical data model for dialogue-grounded tasks plus JSONL ingestion.

The corpus layer is deliberately task-agnostic: every downstream stage
(splitting, generation, alignment, training) consumes the same ``Sample``
shape, with task-specific fields left unset where they do not apply.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence


class Task(str, Enum):
    """Supported task families."""

    CQA = "cqa"
    CQG = "cqg"
    KGC = "kgc"
    SUM = "sum"
    NLI = "nli"


class CorpusError(ValueError):
    """Raised when a corpus file or record violates the ingestion contract."""


@dataclass(frozen=True)
class Document:
    """An ordered sequence of utterance texts; an utterance's index is its
    position.

    Construction does not reject degenerate documents; ``validate_sample``
    reports them so that malformed records can still be inspected.
    """

    utterances: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.utterances)

    def texts(self) -> list[str]:
        return list(self.utterances)


def make_document(texts: list[str] | tuple[str, ...]) -> Document:
    """Build a document from its utterance texts, in order."""
    return Document(tuple(texts))


@dataclass(frozen=True)
class DialogueTurn:
    """One question/answer exchange; the answer is absent for the current turn."""

    turn_index: int
    question: str
    answer: str | None = None


@dataclass(frozen=True)
class Sample:
    """A single task instance.

    ``document``/``history`` apply to the generative tasks, the ``nli_*``
    fields to NLI. ``input_text`` is the rendered model input; it is derived
    at load time when the record does not carry one. ``split`` is an optional
    bookkeeping label (train/dev/biased/...).
    """

    id: str
    task: Task
    target: str
    document: Document | None = None
    history: tuple[DialogueTurn, ...] = ()
    input_text: str = ""
    nli_premise: str | None = None
    nli_hypothesis: str | None = None
    split: str | None = None

    def current_question(self) -> str | None:
        """Question of the latest unanswered turn, if any."""
        for turn in reversed(self.history):
            if turn.answer is None:
                return turn.question
        return None

    def last_answered_turn(self) -> DialogueTurn | None:
        """Most recent prior turn that carries an answer."""
        for turn in reversed(self.history):
            if turn.answer is not None and turn.answer.strip():
                return turn
        return None


@dataclass(frozen=True)
class Corpus:
    """A homogeneous collection of samples with unique ids."""

    samples: tuple[Sample, ...]
    task: Task

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for sample in self.samples:
            if sample.task != self.task:
                raise CorpusError(
                    f"sample {sample.id!r} has task {sample.task.value!r}, "
                    f"corpus is {self.task.value!r}"
                )
            if sample.id in seen:
                raise CorpusError(f"duplicate sample id {sample.id!r}")
            seen.add(sample.id)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)


@dataclass(frozen=True)
class SynthSpec:
    """Shape of the synthetic corpus ``toy_model.synth_corpus`` generates.
    It lives here, where the config schema reads it without loading numpy."""

    n_utterances: int = 6
    n_train: int = 500
    n_eval: int = 500
    biased_fraction: float = 0.95
    vocab_size: int = 24
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_utterances < 3:
            raise ValueError(f"SynthSpec: n_utterances must be >= 3, got {self.n_utterances}")
        if self.n_train < 1 or self.n_eval < 1:
            raise ValueError("SynthSpec: corpus sizes must be >= 1")
        if not 0.0 <= self.biased_fraction <= 1.0:
            raise ValueError(
                f"SynthSpec: biased_fraction must be in [0, 1], got {self.biased_fraction}"
            )
        if self.vocab_size < self.n_utterances:
            raise ValueError(
                "SynthSpec: vocab_size must be >= n_utterances so utterances are distinct"
            )


def render_input(
    task: Task,
    document: Document | None = None,
    history: tuple[DialogueTurn, ...] = (),
    nli_premise: str | None = None,
    nli_hypothesis: str | None = None,
) -> str:
    """Deterministically render the model input for a sample.

    The template is fixed so that serialized corpora round-trip and repeated
    runs produce identical prompts.
    """
    if task == Task.NLI:
        return f"premise: {nli_premise or ''}\nhypothesis: {nli_hypothesis or ''}"
    parts: list[str] = []
    if document is not None and len(document) > 0:
        parts.append("document: " + " | ".join(document.utterances))
    exchanges = [
        f"q: {t.question} a: {t.answer}" for t in history if t.answer is not None
    ]
    if exchanges:
        parts.append("history: " + " | ".join(exchanges))
    for turn in reversed(history):
        if turn.answer is None:
            parts.append(f"question: {turn.question}")
            break
    return "\n".join(parts)


def validate_sample(sample: Sample) -> list[str]:
    """Return a list of invariant violations; empty means the sample is valid."""
    violations: list[str] = []
    if not sample.id.strip():
        violations.append("empty id")
    if not sample.target.strip():
        violations.append("empty target")
    if sample.task == Task.NLI:
        if not (sample.nli_premise or "").strip():
            violations.append("missing nli_premise")
        if not (sample.nli_hypothesis or "").strip():
            violations.append("missing nli_hypothesis")
        if sample.document is not None:
            violations.append("document present for nli sample")
    else:
        if sample.document is None:
            violations.append("missing document")
        elif len(sample.document) < 1:
            violations.append("document length >= 1 required")
        else:
            for index, text in enumerate(sample.document.utterances):
                if not text.strip():
                    violations.append(f"empty utterance at index {index}")
    turn_indices = [t.turn_index for t in sample.history]
    if any(b <= a for a, b in zip(turn_indices, turn_indices[1:])):
        violations.append("history turn indices not strictly increasing")
    return violations


def _sample_from_record(record: object, task: Task) -> Sample:
    sample_id, target = json_field(record, "id", str), json_field(record, "target", str)
    if json_field(record, "task", str) != task.value:
        raise CorpusError(f"task mismatch: record is {record['task']!r}, expected {task.value!r}")
    document = None
    history: tuple[DialogueTurn, ...] = ()
    premise = hypothesis = None
    if task == Task.NLI:
        premise, hypothesis = json_field(record, "premise", str), json_field(record, "hypothesis", str)
    else:
        doc = json_field(record, "document", list)
        if not all(isinstance(t, str) for t in doc):
            raise CorpusError("'document' must be a list of strings")
        document = make_document(doc)
        built = []
        for i, turn in enumerate(json_field(record, "history", list, [])):
            if not isinstance(turn, dict) or not isinstance(turn.get("question"), str):
                raise CorpusError(f"history entry {i} must be an object with a string 'question'")
            answer = turn.get("answer")
            if answer is not None and not isinstance(answer, str):
                raise CorpusError(f"history entry {i}: 'answer' must be a string or null")
            turn_index = turn.get("turn_index", i)
            if type(turn_index) is not int:
                raise CorpusError(f"field 'history[{i}].turn_index' must be an integer, got {_shown(turn_index)}")
            built.append(DialogueTurn(turn_index, turn["question"], answer))
        history = tuple(built)
    input_text = json_field(record, "input_text", str, "") or render_input(task, document, history, premise, hypothesis)
    return Sample(
        id=sample_id,
        task=task,
        target=target,
        document=document,
        history=history,
        input_text=input_text,
        nli_premise=premise,
        nli_hypothesis=hypothesis,
        split=json_field(record, "split", (str, type(None)), None),
    )


def _shown(value: object) -> str:
    """``repr(value)``, cut after 80 characters, as an error line shows it."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."


def json_value(value: object, kinds: type | tuple[type, ...], field: str, item: bool = False):
    """``value``, decoded JSON from outside the program, if it is one of
    ``kinds``, else ``ValueError`` naming ``field`` (``item``: an item of that
    list). The one type rule: a bool is one only of ``kinds`` ``bool``, and a
    number must fit a float (RFC 8259 section 6): an integer as readers
    convert it, and a float as it was decoded (``1e400`` decodes to infinity)."""
    if not isinstance(value, kinds) or (isinstance(value, bool) and kinds is not bool):
        raise ValueError(f"field {field!r} has {'an item of ' if item else ''}the wrong type: {_shown(value)}")
    if type(value) is int:
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"field {field!r} has a number too large for a float: {str(value)[:20]}...") from None
    elif type(value) is float and abs(value) == math.inf:
        raise ValueError(f"field {field!r} has a number too large for a float: {value}")
    return value


def json_field(record: object, key: str, kinds: type | tuple[type, ...], default=..., where: str = ""):
    """``record[key]``, or ``default`` when the key is absent and a default is
    given. Raises ``ValueError`` naming the field (``where`` + ``key``) when
    ``record`` is not an object, the key is missing, or the value breaks
    ``json_value`` for ``kinds``."""
    if not isinstance(record, dict):
        raise ValueError(f"{where.rstrip('.') or 'record'} must be a JSON object, got {_shown(record)}")
    if key not in record:
        if default is ...:
            raise ValueError(f"missing field {where + key!r}")
        return default
    value = record[key]
    exact = type(value)  # a str, None, ... of a kind asked for passes as it is: no call
    if exact is int or exact is float or not (exact is kinds or type(kinds) is tuple and exact in kinds):
        json_value(value, kinds, where + key)
    return value


def json_list(record: object, key: str, kinds: type | tuple[type, ...], default=...):
    """``json_field`` for a list whose every item passes ``json_value`` for
    ``kinds``; a string item must also encode as UTF-8 (``_check_utf8``)."""
    items = json_field(record, key, list, default)
    for item in items or ():
        if type(json_value(item, kinds, key, item=True)) is str:
            _check_utf8(item, key)
    return items


def load_corpus(path: str | Path, task: Task) -> Corpus:
    """Load a JSONL corpus: ``decode_samples`` and ``join_ranges`` on the
    whole file. A record that breaks the schema, the task, id uniqueness or
    ``validate_sample`` raises ``CorpusError`` naming the file and line, as
    do bad UTF-8 and no records."""
    samples, ids, error = decode_samples(Path(path), read_text(path), task)
    join_ranges(path, [(ids, error)])
    return Corpus(samples, task)


def decode_samples(path: Path, text: str, task: Task, first_line: int = 1) -> tuple[tuple[Sample, ...], dict[str, int], CorpusError | None]:
    """The samples of ``text`` (``read_lines``) before the first line that
    breaks the schema, the task, ``validate_sample`` or id uniqueness, their
    ids with line numbers, and that line's ``CorpusError`` or ``None``."""
    samples: list[Sample] = []
    ids: dict[str, int] = {}

    def decode(record: object) -> Sample:
        sample = _sample_from_record(record, task)
        violations = validate_sample(sample)
        if violations:
            raise CorpusError(violations[0])
        if sample.id in ids:
            raise CorpusError(f"duplicate sample id {sample.id!r}")
        return sample

    try:
        for line_no, sample in read_lines(path, text, decode, first_line):
            ids[sample.id] = line_no
            samples.append(sample)
    except ValueError as exc:
        return tuple(samples), ids, CorpusError(str(exc))
    return tuple(samples), ids, None


def join_ranges(path: str | Path, ranges: Iterable[tuple[dict[str, int], Exception | None]]) -> dict[str, int]:
    """The ids and line numbers of ``decode_samples`` ranges, in file order.
    Raises the first bad line, an id an earlier range holds or the range's
    own error, then an empty corpus."""
    seen: dict[str, int] = {}
    for ids, error in ranges:
        for sample_id, line_no in ids.items():
            if sample_id in seen:
                raise CorpusError(f"{Path(path)}: line {line_no}: duplicate sample id {sample_id!r}")
        seen.update(ids)
        if error is not None:  # a new error: the range's own, raised here, would hold this frame and its caller's ranges
            raise CorpusError(str(error))
    if not seen:
        raise CorpusError(f"{path}: empty corpus")
    return seen


def sample_to_record(sample: Sample) -> dict:
    """Serialize one sample to a JSON-compatible record."""
    record: dict = {"id": sample.id, "task": sample.task.value}
    if sample.task == Task.NLI:
        record["premise"] = sample.nli_premise
        record["hypothesis"] = sample.nli_hypothesis
    else:
        record["document"] = list(sample.document.utterances) if sample.document else []
        record["history"] = [
            {"turn_index": t.turn_index, "question": t.question, "answer": t.answer}
            for t in sample.history
        ]
    record["target"] = sample.target
    if sample.input_text:
        record["input_text"] = sample.input_text
    if sample.split is not None:
        record["split"] = sample.split
    return record


#: ``json.dumps(value, ensure_ascii=False)`` without building an encoder per value.
encode_json = json.JSONEncoder(ensure_ascii=False).encode


#: ``{path: SHA-256 hex}`` of the files ``write_blocks`` writes while it is a
#: dict, partial ones too; ``run_pipeline`` sets one per stage, else ``None``.
written: dict[Path, str] | None = None


def write_blocks(blocks: Iterable[str], path: str | Path) -> Path:
    """Write the text blocks in order as UTF-8, newlines untranslated,
    creating parent directories, and hash the bytes (``written``); the one
    writer of every artifact file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()

    def encoded(block: str) -> bytes:
        data = block.encode("utf-8")
        digest.update(data)
        return data

    with path.open("wb") as handle:
        try:  # through ``map``, each block and its bytes are freed before the next is built
            handle.writelines(map(encoded, blocks))
        finally:
            if written is not None:
                written[path] = digest.hexdigest()
    return path


def write_jsonl(records: Iterable[dict], path: str | Path) -> Path:
    """Write one JSON object per line, creating parent directories."""
    return write_blocks((encode_json(record) + "\n" for record in records), path)


def _check_utf8(value, where: str = ""):
    """``value``, or ``ValueError`` naming the first key or string of this
    decoded JSON value that does not encode as UTF-8: a JSON escape such as
    ``"\\ud800"`` decodes to a lone surrogate, which no output file can hold.
    ``where`` is the value's field path (``history[0].answer``)."""
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"field {where!r} does not encode as UTF-8 ({exc.reason}): {value[:80]!r}") from None
    elif isinstance(value, dict):
        for key, item in value.items():
            field = f"{where}.{key}" if where else key
            _check_utf8(key, field)
            _check_utf8(item, field)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_utf8(item, f"{where}[{i}]")
    return value


def read_text(path: str | Path) -> str:
    """A JSON or JSONL file decoded as UTF-8 once (bad UTF-8 raises ``CorpusError``
    naming the file and offset), each ``\\r\\n`` or ``\\r`` made ``\\n``: a
    string may hold the other line separators (U+2028, U+0085, ...)."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{Path(path)}: not valid UTF-8: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _reject_constant(name: str):  # NaN, Infinity or -Infinity: RFC 8259 section 6 has none
    raise ValueError(f"{name} is not a JSON number")


_decode_json = json.JSONDecoder(parse_constant=_reject_constant).decode  # json.loads' C scanner too


def parse_json(text: str | bytes, source: object, decode: Callable[[object], object], line: int | None = None):
    """``decode`` of the JSON value of ``text`` (bytes: UTF-8), all of
    ``source`` (a file or URL) or its line ``line``: the one parser of
    outside JSON. Malformed JSON, JSON nested deeper than the recursion
    limit (RFC 8259 section 9 lets a parser set one), a ``NaN``, a
    ``TypeError`` or ``ValueError`` from ``decode``, then a key or string
    no output file could hold (``_check_utf8``) raise one ``ValueError``
    that begins ``SOURCE[: line N]: ``."""
    try:
        text = text.decode("utf-8") if type(text) is bytes else text
        value = _decode_json(text)
        item = decode(value)
        if "\\u" in text:
            _check_utf8(value)
        return item
    except json.JSONDecodeError as exc:  # its line, in a whole file too
        line, problem = (line or 1) + exc.lineno - 1, f"malformed JSON: {exc.msg}"
    except RecursionError:
        problem = "JSON nested too deeply"
    except (TypeError, ValueError) as exc:
        problem = str(exc)
    raise ValueError(f"{source}: line {line}: {problem}" if line else f"{source}: {problem}")


def read_lines(path: Path, text: str, decode: Callable[[object], object], first_line: int = 1) -> Iterator[tuple[int, object]]:
    """``(line number, parse_json(line, path, decode, line number))`` for
    every non-blank line of ``text`` (``read_text``), lines of ``path`` from
    ``first_line`` on."""
    for line_no, line in enumerate(text.split("\n"), start=first_line):
        if line.strip():
            yield line_no, parse_json(line, path, decode, line_no)


def line_ranges(text: str, bounds: Sequence[tuple[int, int]]) -> list[tuple[int, int, int, int]]:
    """Each ``(lo, hi)`` run of the lines of ``text`` (0-based), given in
    order from the first, as its start and end offsets, first line number
    and count of records (non-blank lines) before it."""
    ranges, end, records = [], 0, 0
    for lo, hi in bounds:
        start = end
        for _ in range(hi - lo):
            end = text.find("\n", end) + 1 or len(text)
        ranges.append((start, end, lo + 1, records))
        records += sum(1 for line in text[start:end].split("\n") if line.strip())
    return ranges


def read_jsonl(path: str | Path, decode: Callable[[object], object]) -> Iterator[tuple[int, object]]:
    """``read_lines`` of a whole file; the one reader of ``write_jsonl``'s."""
    yield from read_lines(Path(path), read_text(path), decode)


def save_corpus(corpus: Corpus, path: str | Path) -> Path:
    """Write a corpus as JSONL; inverse of ``load_corpus`` on valid corpora."""
    return write_jsonl((sample_to_record(sample) for sample in corpus), path)

