#!/usr/bin/env python3
"""Run a set of benchmark runs, one seed each, and summarize their spread.

Run from the repository root::

    python3 perfbench/sets.py --runs 10 [--trace] [--out FILE]

Each run is ``perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0``, for every workload in ``BENCHMARK.json`` and seeds 1..runs.
Per workload and end-to-end metric this prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound from ``BENCHMARK.json``, and the mean wall time of a run.  A spread
above a third of its bound is flagged, except for ``setup_s``, whose
spread the benchmark's acceptance rules do not bound.  ``--trace`` adds
one traced run per workload (seed 1) and keeps its per-layer metrics.
``--out`` writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    summary: dict[str, dict] = {}
    steady = True
    for workload in names:
        start = time.perf_counter()
        results = [
            run_once(workload, seed, spec["run_seconds"])
            for seed in range(1, args.runs + 1)
        ]
        print(f"{workload:16s} {(time.perf_counter() - start) / args.runs:.1f} s per run", flush=True)
        if not all(result["correct"] and not result["failed"] for result in results):
            raise SystemExit(f"{workload}: a run failed its correctness checks")
        summary[workload] = {}
        for name, bound in bounds.items():
            stats = summarize([result["metrics"][name]["value"] for result in results])
            summary[workload][name] = stats
            flag = ""
            if name != "setup_s" and stats["spread"] > bound / 3:
                flag = "  <-- spread above bound/3"
                steady = False
            print(
                f"{workload:16s} {name:14s} median {stats['median']:12.5g}  "
                f"q1 {stats['q1']:12.5g}  q3 {stats['q3']:12.5g}  "
                f"spread {stats['spread']:.4f} (bound {bound}){flag}",
                flush=True,
            )
        if args.trace:
            traced = run_once(workload, 1, spec["run_seconds"], trace=1)
            if not traced["correct"]:
                raise SystemExit(f"{workload}: the traced run failed its correctness checks")
            summary[workload]["per_layer"] = {
                name: metric["value"] for name, metric in traced["metrics"].items()
            }
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
