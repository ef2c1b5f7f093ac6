#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Fig. 7/9 sweep pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload fig7-cold --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``fig7-cold``, ``fig7-warm``, ``fig9c-deviating``
and ``compile-leased`` (see README.md for why each exists).  One run sets
up, then repeats whole iterations of the workload, each from emptied
in-process caches, until ``--seconds`` have passed (at least one), and
reports medians.  Every iteration's outputs are checked; a failed check
is printed to stderr, the result says ``"correct": false`` and the exit
code is 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
untraced iterations, then one traced iteration, and reports the
per-layer metrics; the spans are written to
``perfbench/.work/traces/<workload>.json``.  The last line of standard
output is the result as one JSON object; a copy goes to
``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import grids
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

#: Fresh-interpreter set-ups timed for ``setup_s`` (median of this many).
SETUP_SAMPLES = 3


def configure_environment() -> None:
    """Pin everything the program reads from the environment.

    No ``REPRO_*`` knob leaks in from the caller; BLAS gets at most one
    thread per usable CPU; temporary files stay inside the checkout.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    threads = str(len(os.sched_getaffinity(0)))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = threads
    temp = WORK / "tmp"
    temp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(temp)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def timed_subprocess(argv: list[str]) -> tuple[float, str]:
    """Run a child to completion; (wall seconds, stdout).  Raises if it fails."""
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited {done.returncode}: {done.stderr[-2000:]}")
    return elapsed, done.stdout


def setup_seconds(workload: grids.Workload, seed: int) -> float:
    """Median wall time of a fresh interpreter running :func:`warm_up`."""
    argv = [sys.executable, __file__, "--workload", workload.name, "--seed", str(seed), "--warm-up"]
    return statistics.median(timed_subprocess(argv)[0] for _ in range(SETUP_SAMPLES))


def warm_up(workload: grids.Workload, seed: int) -> None:
    """Set-up: import the program and pay its first-call costs on a small grid."""
    run_dir = fresh(WORK / f"warm-up-{os.getpid()}")
    dirs = grids.Dirs(cache=run_dir / "cache", jobs=fresh(run_dir / "jobs"), out=fresh(run_dir / "out"))
    if workload.uses_cache:
        os.environ["REPRO_CACHE_DIR"] = str(fresh(dirs.cache))
    try:
        grids.warm_up(workload, seed, dirs)
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)
        shutil.rmtree(run_dir, ignore_errors=True)


def disk_bytes(*paths: Path) -> int:
    return sum(
        file.stat().st_size for path in paths if path.exists() for file in path.rglob("*") if file.is_file()
    )


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def iterate(workload: grids.Workload, seed: int, dirs: grids.Dirs, tracer: tracing.Tracer | None = None) -> dict:
    """One iteration from emptied in-process state; returns its wall time and outputs."""
    grids.reset_program_state()
    if not workload.warm:
        fresh(dirs.cache)
    fresh(dirs.jobs)
    fresh(dirs.out)
    if workload.uses_cache:
        os.environ["REPRO_CACHE_DIR"] = str(dirs.cache)
    else:
        os.environ.pop("REPRO_CACHE_DIR", None)
    before = grids.counters()
    start = time.perf_counter()
    if tracer is None:
        outcome = workload.run(seed, dirs)
    else:
        outcome = tracer.root(lambda: workload.run(seed, dirs))
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "outcome": outcome,
        "counters": grids.counter_delta(before, grids.counters()),
        "footprint": disk_bytes(dirs.cache, dirs.jobs, dirs.out),
    }


def sources_key() -> str:
    """SHA-256 of the program and benchmark sources: stored digests never cross commits."""
    files = [path for path in sorted(SRC.rglob("*")) if path.is_file() and "__pycache__" not in path.parts]
    sha = hashlib.sha256()
    for path in files + sorted(BENCH_DIR.glob("*.py")):
        sha.update(f"{path.relative_to(ROOT)}\0{path.stat().st_size}\0".encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def check_digest(table: str, seed: int, digest: str) -> list[str]:
    """Rows of one table and seed must hash the same in every run of the same sources.

    The first run of a table and seed publishes its digest; later ones
    compare against it.  The store is keyed by :func:`sources_key`.
    """
    known = WORK / "digests" / sources_key() / f"{table}-seed{seed}.sha256"
    known.parent.mkdir(parents=True, exist_ok=True)
    draft = known.with_name(f"{known.name}.{os.getpid()}")
    draft.write_text(digest)
    try:
        os.link(draft, known)  # atomic: the first publisher wins, nothing is overwritten
    except FileExistsError:
        pass
    finally:
        draft.unlink()
    if known.read_text() != digest:
        return [f"{table} rows for seed {seed} differ from an earlier run's of the same sources"]
    return []


def fill_cache(seed: int, cache: Path) -> int:
    """Set-up of ``fig7-warm`` (run in a child process): one cold Fig. 7 run into ``cache``."""
    out = fresh(cache.parent / "fill-out")
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    outcome = grids.run_fig7(seed, grids.Dirs(cache=cache, jobs=out, out=out))
    errors = grids.check_rows(grids.WORKLOADS["fig7-cold"], outcome)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    print(json.dumps({"digest": outcome.digest}))
    return 0


def run(args: argparse.Namespace) -> int:
    workload = grids.WORKLOADS[args.workload]
    run_dir = fresh(WORK / f"run-{os.getpid()}")
    dirs = grids.Dirs(cache=run_dir / "cache", jobs=run_dir / "jobs", out=run_dir / "out")
    errors: list[str] = []
    try:
        setup_s = setup_seconds(workload, args.seed)
        warm_up(workload, args.seed)  # the same set-up in this process, outside the timed loop
        cold_digest = None
        if workload.warm:
            fresh(dirs.cache)
            fill_s, stdout = timed_subprocess(
                [sys.executable, __file__, "--fill-cache", str(dirs.cache), "--seed", str(args.seed)]
            )
            setup_s += fill_s
            cold_digest = json.loads(stdout.strip().splitlines()[-1])["digest"]

        iterations = []
        start = time.perf_counter()
        while not iterations or time.perf_counter() - start < args.seconds:
            if iterations:
                iterations[-1]["outcome"].evaluations = None  # only the last is oracle-checked
            iteration = iterate(workload, args.seed, dirs)
            outcome = iteration["outcome"]
            errors += grids.check_rows(workload, outcome)
            if iterations and outcome.digest != iterations[0]["outcome"].digest:
                errors.append("rows differ between iterations of one run")
            if cold_digest is not None and outcome.digest != cold_digest:
                errors.append("warm rows differ from the cold run that filled the cache")
            iterations.append(iteration)
        walls = " ".join(f"{iteration['wall_s']:.3f}" for iteration in iterations)
        print(f"perfbench: {args.workload} seed {args.seed}: iteration walls {walls} s", file=sys.stderr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux
        last = iterations[-1]["outcome"]
        errors += check_digest(workload.table, args.seed, last.digest)
        if last.evaluations:
            errors += grids.check_oracle(last, args.seed)

        wall_s = statistics.median(iteration["wall_s"] for iteration in iterations)
        points = len(last.rows)
        trajectories = sum(row["num_trajectories"] for row in last.rows)
        attempted = grids.expected_points(workload) * len(iterations)
        failed = sum(iteration["outcome"].failed for iteration in iterations)
        if args.trace:
            traced = tracing.Tracer()
            with traced:
                iteration = iterate(workload, args.seed, dirs, tracer=traced)
            errors += grids.check_rows(workload, iteration["outcome"])
            if iteration["outcome"].digest != last.digest:
                errors.append("traced rows differ from untraced rows")
            properties = {
                "trace.overhead_s": iteration["wall_s"] - wall_s,
                "traj_per_s": trajectories / wall_s,
                "fail_frac": failed / attempted,
                "workload.points": points,
                "workload.trajectories": trajectories,
                "workload.max_hilbert_dim": grids.max_hilbert_dim(last),
                "workload.compile_only_frac": sum(
                    1 for row in last.rows if not row["num_trajectories"]
                ) / max(points, 1),
            }
            # Free the records and evaluations before the large copy below.
            iteration["outcome"].evaluations = last.evaluations = None
            grids.reset_program_state()
            llc = tracing.last_level_cache_bytes()
            memcpy, copied = tracing.memcpy_gbps(llc)
            metrics = tracing.layer_metrics(traced, iteration["counters"], memcpy)
            metrics.update(properties)
            metrics.update({"noise.memcpy.array_mb": copied / 1e6, "host.llc_mb": llc / 1e6})
            traced.write(WORK / "traces" / f"{workload.name}.json")
        else:
            metrics = {
                "wall_s": wall_s,
                "points_per_s": points / wall_s,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
                "cache_mb": statistics.median(iteration["footprint"] for iteration in iterations) / 1e6,
            }
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)
        shutil.rmtree(run_dir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(metrics):
        errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:44s} {value:14.6g} {units.get(name, '?')}")
    for error in errors:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "?")} for name, value in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result))
    print(json.dumps(result))
    return 0 if not errors else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(grids.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fill-cache", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--warm-up", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    configure_environment()
    if args.fill_cache is not None:
        return fill_cache(args.seed, args.fill_cache)
    if args.workload is None:
        parser.error("--workload is required")
    if args.warm_up:
        warm_up(grids.WORKLOADS[args.workload], args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
