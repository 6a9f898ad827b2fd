"""Candidate and verdict lines: spliced from cached logprob text, equal to
``json.dumps(record, ensure_ascii=False)`` byte for byte."""
from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from posdebias.backends import GenerationResult
from posdebias.msa_align import RejectionReason
from posdebias.records import candidate_line, load_candidates, verdict_head, verdict_tail
from oracles import candidates_jsonl, verdict_record

#: Quotes, backslashes, control characters, line separators, non-ASCII and
#: non-BMP characters (no lone surrogates: no output file can hold one).
TEXT = st.text(
    st.one_of(st.characters(codec="utf-8"), st.sampled_from('"\\\x00\x1f\x7f\n\r\t  \u0085é日😀')),
    max_size=12,
)

#: Finite logprobs <= 0: -0.0, subnormals, the extremes, and the integers a
#: candidates file can hold (``load_candidates`` keeps them as ints).
LOGPROB = st.one_of(
    st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, -5e-324, -2.2250738585072014e-308, -1.7976931348623157e308]),
    st.integers(-(10**6), 0),
)


@st.composite
def results(draw) -> GenerationResult:
    tokens = draw(st.lists(TEXT, max_size=5))
    logprobs = draw(st.lists(LOGPROB, min_size=len(tokens), max_size=len(tokens)))
    return GenerationResult(draw(TEXT), tuple(tokens), tuple(logprobs), draw(TEXT))


@settings(max_examples=100, deadline=None)
@given(sample_id=TEXT, index=st.integers(0, 10**6), result=results())
def test_candidate_line_is_json_dumps_of_the_record(sample_id, index, result):
    record = {"sample_id": sample_id, "candidate_index": index, **result.body(), "backend_id": result.backend_id}
    assert candidate_line(sample_id, index, result) == json.dumps(record, ensure_ascii=False)


@settings(max_examples=100, deadline=None)
@given(sample_id=TEXT, result=results(), reasons=st.frozensets(st.sampled_from(list(RejectionReason))))
def test_verdict_line_is_json_dumps_of_the_record(sample_id, result, reasons):
    # An aligned line is its candidate's head, with the cached logprob text,
    # and the tail its threshold decides.
    head = verdict_head(sample_id, result.text, result.logprobs_json)
    record = verdict_record(sample_id, result.text, result.token_logprobs, reasons)
    assert head + verdict_tail(reasons) == json.dumps(record, ensure_ascii=False)
    # A range's heads travel joined by newlines (``Shard.heads``).
    assert "\n" not in head


@settings(max_examples=40, deadline=None)
@given(candidates=st.dictionaries(TEXT, st.lists(results(), min_size=1, max_size=3), max_size=3))
def test_integer_and_signed_zero_logprobs_round_trip(tmp_path_factory, candidates):
    path = tmp_path_factory.mktemp("c") / "c.jsonl"
    path.write_text(candidates_jsonl(candidates), encoding="utf-8")
    loaded = load_candidates(path)
    assert loaded == candidates
    for sample_id, got in loaded.items():
        for a, b in zip(got, candidates[sample_id]):
            assert list(map(repr, a.token_logprobs)) == list(map(repr, b.token_logprobs))
