"""Self-test of the benchmark harness: span arithmetic, patching, generators.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tracer import Tracer, covered_length, self_times  # noqa: E402
from workloads import lead_long_corpus, ref_rouge_l, write_jsonl  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 10] has children A [1, 4], B [5, 7] and C [6, 8.5] (B and C
    # overlap, as spans from two worker threads do) and D [9.5, 11], which
    # ends after root; A has a child G [2, 3].
    spans = [
        (0, 0, 0.0, 10.0, -1),
        (1, 0, 1.0, 4.0, 0),
        (2, 0, 2.0, 3.0, 1),
        (3, 0, 5.0, 7.0, 0),
        (4, 0, 6.0, 8.5, 0),
        (5, 0, 9.5, 11.0, 0),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 3.5 - 0.5, 2.0, 1.0, 2.0, 2.5, 1.5]
    assert covered_length([(1.0, 2.0), (1.5, 3.0)], 0.0, 2.5) == 1.5


def test_nested_spans_self_times_add_up_to_the_root():
    tracer = Tracer("test")

    def leaf():
        return sum(range(2000))

    traced_leaf = tracer.wrap_span("metrics.leaf", leaf)

    def middle():
        return [traced_leaf() for _ in range(3)]

    traced_middle = tracer.wrap_span("bias_split.middle", middle)
    root = tracer.wrap_span("pipeline.run", lambda: [traced_middle() for _ in range(2)])
    root()
    assert len(tracer.spans) == 1 + 2 + 6
    root_span = next(s for s in tracer.spans if s[4] == -1)
    own = self_times(tracer.spans)
    assert abs(sum(own) - (root_span[3] - root_span[2])) < 1e-9
    assert all(t >= 0 for t in own)
    layers = tracer.layer_metrics()
    assert abs(
        layers["pipeline.self_s"] + layers["bias_split.self_s"] + layers["metrics.self_s"]
        - (root_span[3] - root_span[2])
    ) < 1e-9


def test_install_and_restore_rebind_every_caller():
    from posdebias import backends, bias_split, metrics, pipeline, toy_model

    originals = (pipeline.train, bias_split.rouge_l, backends.StubBackend.complete)
    want = metrics.rouge_l("a b c", "a c")
    tracer = Tracer("test")
    tracer.install()
    try:
        assert pipeline.train is not originals[0]
        assert bias_split.rouge_l is metrics.rouge_l is not originals[1]
        assert metrics.rouge_l("a b c", "a c") == want
    finally:
        tracer.restore()
    assert (pipeline.train, bias_split.rouge_l, backends.StubBackend.complete) == originals
    assert toy_model.train is originals[0]
    assert tracer.counts["metrics.tokenize"] == 2


def test_reference_rouge_l_agrees_with_the_program():
    from posdebias.metrics import rouge_l

    rng = random.Random(7)
    words = ["Va", "vb,", "vc", "vd."]
    for _ in range(300):
        cand = " ".join(rng.choice(words) for _ in range(rng.randint(0, 8)))
        ref = " ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
        assert ref_rouge_l(cand, ref) == rouge_l(cand, ref)


def test_lead_long_generator_plants_recoverable_lead_labels(tmp_path):
    from posdebias.bias_split import split_by_lead_bias
    from posdebias.corpus import Task, load_corpus

    records, planted = lead_long_corpus(seed=3, n_docs=40)
    assert 0 < len(planted) < len(records)
    corpus = load_corpus(write_jsonl(records, tmp_path / "corpus.jsonl"), Task.SUM)
    partition = split_by_lead_bias(corpus)
    assert {s.id for s in partition.biased} == planted
    assert lead_long_corpus(seed=3, n_docs=40) == (records, planted)


def test_server_forks_each_iteration_and_leaves_no_process(tmp_path):
    import os

    import pytest
    from run import Server

    job = {"entry": "cli", "argv": ["--help"], "trace": False, "run_id": "test"}
    server = Server(job, tmp_path)
    try:
        assert server.setup["setup_s"] > 0
        ok = server.run(job, "ok")
        failed = server.run(dict(job, argv=["no-such-command"]), "failed")
    finally:
        server.close()
    assert not ok.failures and ok.result["run_s"] > 0 and ok.rss_mb > 0
    assert failed.failures and "exited 1" in failed.failures[0]
    assert server.proc.returncode == 0
    with pytest.raises(ProcessLookupError):
        os.killpg(server.proc.pid, 0)

    killed = Server(job, tmp_path)
    killed.close(kill=True)
    assert killed.proc.returncode == -9
    with pytest.raises(ProcessLookupError):
        os.killpg(killed.proc.pid, 0)
