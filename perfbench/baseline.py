"""Measure the benchmark's baseline and write it with the machine it ran on.

Usage (from the repository root)::

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For every workload in ``BENCHMARK.json`` (or ``--workloads``) this runs ``run.py --trace 0`` once per seed
``first-seed .. first-seed + runs - 1`` and one ``--trace 1`` run, one after
another. It records each end-to-end metric's values, median and quartile
spread (``(q3 - q1) / median``, as ``statistics.quantiles(values, n=4)``
gives the quartiles) and the traced per-layer values.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result["wall_s"] = time.perf_counter() - began
    print(f"{workload} seed {seed} trace {trace}: " + ", ".join(
        f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:6]), flush=True)
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--no-trace", action="store_true", help="Skip the traced run.")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for name in args.workloads:
        runs = [
            bench(name, seed, args.seconds, 0)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        units = {k: v["unit"] for k, v in runs[0]["metrics"].items()}
        entry = {
            "why": WORKLOADS[name].why,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "wall_s": summarize([r["wall_s"] for r in runs]),
            "end_to_end": {
                metric: dict(unit=unit, **summarize([r["metrics"][metric]["value"] for r in runs]))
                for metric, unit in units.items()
            },
        }
        if not args.no_trace:
            traced = bench(name, args.first_seed, args.seconds, 1)
            entry["per_layer"] = traced["metrics"]
            entry["traced_wall_s"] = traced["wall_s"]
        report["workloads"][name] = entry
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
