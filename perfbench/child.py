"""Set up the program in a fresh interpreter, and run workload iterations.

Usage, with ``src`` on ``PYTHONPATH``::

    python3 perfbench/child.py setup JOB.json
    python3 perfbench/child.py serve JOB.json

A job names the entry point (``pipeline`` or ``cli``), its input and whether
to trace it. ``setup`` imports the entry module (plus ``parse_config`` for
pipeline jobs), writes the set-up seconds to the job's ``result_path`` and
exits. ``serve`` sets up the same way, prints its own set-up seconds as one
JSON line, and then reads job paths from stdin, one a line: for each it forks
a process that runs the job, so every iteration starts from the same freshly
set-up interpreter, and answers with one JSON line holding the fork's exit
code and peak RSS (KiB). The fork writes its result (run seconds and, when
traced, the per-layer metrics) to the job's ``result_path``; any exception
makes it exit non-zero.
"""
from __future__ import annotations

import json
import os
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer


def set_up(job: dict):
    """Import the entry module; returns (entry callable, root span name)."""
    if job["entry"] == "pipeline":
        from posdebias.pipeline import parse_config, run_pipeline

        config = parse_config(job["raw"])
        return (lambda: run_pipeline(config)), "pipeline.run"
    from posdebias.cli import main as cli

    def entry():
        cli.main(args=job["argv"], prog_name="posdebias", standalone_mode=False)

    return entry, "cli.main"


def run(job: dict) -> None:
    """One iteration, inside a fork of the serving interpreter."""
    entry, root_span = set_up(job)
    tracer = Tracer(job["run_id"]) if job["trace"] else None
    if tracer is not None:
        tracer.install()
        entry = tracer.wrap_span(root_span, entry)
    result = {}
    start = time.perf_counter()
    try:
        entry()
    finally:
        result["run_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(Path(job["spans_path"]), start)
    Path(job["result_path"]).write_text(json.dumps(result), encoding="utf-8")


def fork_run(job_path: str) -> dict:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            # stdin and stdout carry the server's protocol; the program
            # reads nothing from it and its prints go nowhere.
            devnull = os.open(os.devnull, os.O_RDWR)
            os.dup2(devnull, 0)
            os.dup2(devnull, 1)
            run(job)
        except BaseException:  # noqa: BLE001 - reported through the exit code
            traceback.print_exc()
            code = 1
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    return {"exit": os.waitstatus_to_exitcode(status), "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    mode, job_path = sys.argv[1], sys.argv[2]
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    started = time.perf_counter()
    set_up(job)
    setup_s = time.perf_counter() - started
    if mode == "setup":
        Path(job["result_path"]).write_text(json.dumps({"setup_s": setup_s}), encoding="utf-8")
        return
    out = sys.stdout
    out.write(json.dumps({"setup_s": setup_s}) + "\n")
    out.flush()
    for line in sys.stdin:
        out.write(json.dumps(fork_run(line.strip())) + "\n")
        out.flush()


if __name__ == "__main__":
    main()
