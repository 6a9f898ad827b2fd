"""posdebias benchmark: one workload per invocation, checked outputs, JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload toy --seed 1 --seconds 45 --trace 0

One fresh interpreter (``perfbench/child.py serve``) imports the program's
entry module and then forks once per iteration, so every iteration starts
from the same freshly set-up state without paying the import again. Inputs
are generated from ``--seed``; the first iteration's outputs are checked,
every later one must match them byte for byte, and all are then deleted.
With ``--trace 0`` the run repeats the workload, at least twice and then
while the next iteration is expected to end within ``--seconds``; then it
starts interpreters that only set up (import of the entry module, plus
``parse_config`` for pipeline workloads) until it has four set-up times,
counting the serving interpreter's, and reports the end-to-end metrics.
With ``--trace 1`` it runs untraced/traced pairs instead and reports the
per-layer metrics, including the tracing overhead, from the traced
iterations. The last stdout line is the JSON result; the exit code is
non-zero when any output check failed.

Peak RSS is the iteration's own, as the kernel counts it for the fork: the
interpreter's memory at the fork counts, shared-library pages only once the
iteration touches them.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import itertools
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import PER_LAYER
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).resolve().parent / "child.py"

#: Fresh interpreters whose set-up time an untraced run takes the median of.
SETUP_SAMPLES = 4

#: Untraced iterations a run times even when they overrun ``--seconds``.
MIN_ITERATIONS = 2

#: A child that has not answered after this many seconds is killed and counted
#: failed, early enough for a run to end within three minutes.
CHILD_TIMEOUT_S = 100

END_TO_END = (
    ("run_s", "s"),
    ("samples_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
)


@dataclass
class Iteration:
    """Outcome of one child process."""

    result: dict
    rss_mb: float
    failures: list[str]
    output_mb: float = 0.0
    digest: str = ""
    facts: dict = field(default_factory=dict)


def child_env() -> dict:
    # A fixed hash seed: a run's iterations all fork from one interpreter, so
    # a random one would make whole runs differ by their dict and set layouts.
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        PYTHONHASHSEED="0",
    )


def write_job(job: dict, work: Path, tag: str) -> Path:
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(dict(job, result_path=str(work / f"{tag}.result.json"))), encoding="utf-8")
    return job_path


def log_tail(log_path: Path) -> str:
    return " | ".join(log_path.read_text(encoding="utf-8").strip().splitlines()[-3:])


def setup_probe(job: dict, work: Path, tag: str) -> Iteration:
    """Set-up time of one fresh interpreter (``child.py setup``)."""
    job_path = write_job(job, work, tag)
    log_path = work / f"{tag}.log"
    try:
        with log_path.open("w", encoding="utf-8") as log:
            code = subprocess.run(
                [sys.executable, str(CHILD), "setup", str(job_path)], cwd=ROOT, env=child_env(),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
                timeout=CHILD_TIMEOUT_S, check=False,
            ).returncode
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return Iteration({}, 0.0, [f"{tag} timed out after {CHILD_TIMEOUT_S} s"])
    if code != 0:
        return Iteration({}, 0.0, [f"{tag} exited {code}: {log_tail(log_path)}"])
    return Iteration(json.loads((work / f"{tag}.result.json").read_text(encoding="utf-8")), 0.0, [])


class ChildFailed(Exception):
    """The serving child died or stopped answering."""


class Server:
    """A ``child.py serve`` process: set up once, then one fork per iteration.

    Its set-up time is one more fresh-interpreter sample. Every exit path
    goes through ``close``, which ends the server and any fork it has left.
    """

    def __init__(self, job: dict, work: Path) -> None:
        self.work = work
        self.log_path = work / "server.log"
        with self.log_path.open("w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(CHILD), "serve", str(write_job(job, work, "server"))],
                cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                text=True, start_new_session=True,
            )
        self.setup = self._reply()

    def _reply(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close(kill=True)
            raise ChildFailed(f"serving child gave no answer: {log_tail(self.log_path)}")
        return json.loads(line)

    def run(self, job: dict, tag: str) -> Iteration:
        job_path = write_job(job, self.work, tag)
        self.proc.stdin.write(f"{job_path}\n")
        self.proc.stdin.flush()
        reply = self._reply()
        rss_mb = reply["maxrss_kb"] / 1024.0  # covers the fork's own children too
        if reply["exit"] != 0:
            return Iteration({}, rss_mb, [f"{tag} exited {reply['exit']}: {log_tail(self.log_path)}"])
        return Iteration(json.loads((self.work / f"{tag}.result.json").read_text(encoding="utf-8")), rss_mb, [])

    def close(self, kill: bool = False) -> None:
        if not kill:
            try:
                self.proc.stdin.close()  # the server exits at the end of its input
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        # Kill what is left of the group (a hung server, or a fork that
        # outlived it), then wait until the group has no process left.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                os.killpg(self.proc.pid, 0)
                time.sleep(0.05)
        except ProcessLookupError:
            pass
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def output_digest(out_dir: Path) -> tuple[float, str]:
    """Megabytes under ``out_dir`` and a digest of every file in it."""
    total = 0
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        body = path.read_bytes()
        total += len(body)
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0" + hashlib.sha256(body).digest())
    return total / 1e6, digest.hexdigest()


def iterate(workload, server: Server, work: Path, index: int, trace: bool, run_id: str) -> Iteration:
    """One iteration; its output directory is removed afterwards.

    Only the first iteration of a run is checked in full: the others must
    write byte-identical outputs (``measure`` compares the digests).
    """
    out_dir = work / f"out{index}"
    job = dict(
        workload.job(out_dir), mode="run", trace=trace, run_id=run_id,
        spans_path=str(work / f"spans{index}.tsv"),
    )
    it = server.run(job, f"run{index}")
    if not it.failures:
        if index == 0:
            try:
                failures, it.facts = workload.check(out_dir)
            except Exception as exc:  # noqa: BLE001 - a broken output is a failed run, not a crash
                failures = [f"output check raised {exc!r}"]
            it.failures += failures
        it.output_mb, it.digest = output_digest(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return it


def tail_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n}, max {max(values):.4f} (too few runs for a tail percentile)"
    pct = int(100 * (n - 10) / n)
    return f"n={n}, p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f}"


def measure(workload, work: Path, seconds: float, trace: bool, run_id: str):
    """Iterate (at least MIN_ITERATIONS times untraced, one pair traced) while
    the next iteration is expected to end within ``seconds``; returns
    (iterations, fresh-interpreter set-ups)."""
    iterations: list[Iteration] = []
    setups: list[Iteration] = []
    try:
        server = Server(workload.job(work / "unused"), work)
    except ChildFailed as exc:
        return [Iteration({}, 0.0, [str(exc)])], setups
    setups.append(Iteration(server.setup, 0.0, []))
    start = time.perf_counter()
    try:
        for rounds in itertools.count(1):
            index = len(iterations)
            pair = [iterate(workload, server, work, index, False, run_id)]
            if trace:
                pair.append(iterate(workload, server, work, index + 1, True, run_id))
            iterations += pair
            if any(it.failures for it in pair):
                break
            # Stop before a round that, at the pace so far, would end late,
            # but time at least MIN_ITERATIONS untraced iterations: a toy
            # iteration takes about half of a run, and a lone one would
            # report the machine's speed over half the time.
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > seconds and (trace or rounds >= MIN_ITERATIONS):
                break
    except ChildFailed as exc:
        iterations.append(Iteration({}, 0.0, [str(exc)]))
    finally:
        server.close()
    digests = {it.digest for it in iterations if not it.failures}
    if len(digests) > 1:
        iterations[-1].failures.append(
            "iterations on the same inputs wrote different outputs"
            + (" (tracing changed an artifact)" if trace else "")
        )
    if not trace:
        for k in range(SETUP_SAMPLES - len(setups)):
            setups.append(setup_probe(workload.job(work / "unused"), work, f"setup{k}"))
            if setups[-1].failures:
                break
    return iterations, setups


def end_to_end(workload, iterations: list[Iteration], setups: list[Iteration]) -> dict:
    run_s = [it.result["run_s"] for it in iterations]
    setup_s = [p.result["setup_s"] for p in setups]
    run_median = statistics.median(run_s)
    values = {
        "run_s": run_median,
        "samples_per_s": workload.samples / run_median,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(it.rss_mb for it in iterations),
        "output_mb": statistics.median(it.output_mb for it in iterations),
    }
    print(f"# run_s: median {run_median:.4f} s, {tail_note(run_s)}; runs " + " ".join(f"{v:.4f}" for v in run_s))
    print(f"# setup_s: median of {len(setup_s)} fresh interpreters")
    return {name: (values[name], unit) for name, unit in END_TO_END}


def per_layer(iterations: list[Iteration]) -> dict:
    untraced, traced = iterations[0::2], iterations[1::2]
    # Traced outputs equal the checked first iteration's, so its facts hold.
    rows = [dict(it.result["layers"], **iterations[0].facts) for it in traced]
    overheads = [t.result["run_s"] - u.result["run_s"] for u, t in zip(untraced, traced)]
    shares = [o / u.result["run_s"] for o, u in zip(overheads, untraced)]
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    values.setdefault("backends.record_lines_bad", 0)
    values["trace.overhead_s"] = statistics.median(overheads)
    values["trace.overhead_share"] = statistics.median(shares)
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so the serving child is still ended.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "posdebias" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'posdebias'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)  # so no timed import compiles bytecode
    workload = WORKLOADS[args.workload]()
    run_id = f"{workload.name}-seed{args.seed}-{os.getpid()}"
    work = WORK / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload.prepare(work, args.seed)
        iterations, setups = measure(workload, work, args.seconds, bool(args.trace), run_id)
        failures = [f for it in iterations + setups for f in it.failures]
        attempted = len(iterations) + len(setups)
        failed = sum(1 for it in iterations + setups if it.failures)
        metrics = {}
        if not failures:
            metrics = per_layer(iterations) if args.trace else end_to_end(workload, iterations, setups)
            if args.trace:
                spans = shutil.move(work / "spans1.tsv", WORK / f"{workload.name}-spans.tsv")
                print(f"# spans of the first traced iteration: {spans}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"# FAILED: {failure}", file=sys.stderr)
    print(f"# workload {workload.name} seed {args.seed}: {failed} of {attempted} runs failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if metrics.get("msa_align.candidates", (0,))[0]:
        print(
            f"# msa_align kept {metrics['msa_align.keep_fraction'][0]:.1%} of candidates "
            f"against a {metrics['msa_align.target_keep_fraction'][0]:.1%} calibration target"
        )
    print(f"error_rate {failed / attempted:.6g} ratio")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
