"""The four benchmark workloads and the checks on their outputs.

Every workload runs single-process (``SweepRunner(max_workers=1)``; the
leased workers drain sequentially in-process) and writes its figure table
as CSV and JSON, the files a figure driver hands its user.  The seed is
the root ``rng`` that ``point_seeds`` spreads across the grid points, so
the program only ever sees generated points.

Nothing here touches program internals: grids are built and run through
the public figure drivers, ``compute_table`` and the lease scheduler's
table executor.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: Fig. 7 grid: four circuits x two sizes x the six Fig. 7 strategies.
FIG7_CIRCUITS = ("qram", "cnu", "cuccaro", "select")
FIG7_SIZES = (5, 7)
FIG7_TRAJECTORIES = 32
FIG7_MIXED_RADIX_UP_TO = 8

#: Fig. 9c grid: one 8-qubit QRAM, three |2>/|3> decay scales, four strategies.
FIG9C_QUBITS = 8
FIG9C_SCALES = (1.0, 4.0, 16.0)
FIG9C_TRAJECTORIES = 16

#: Compile-only grid drained by the lease scheduler: 4 circuits x 5 sizes x 9 strategies.
LEASED_SIZES = (9, 17, 25, 33, 41)
LEASED_WORKERS = 2

#: Row fields that are probabilities and must lie in [0, 1].
PROBABILITY_FIELDS = ("fidelity", "gate_eps", "coherence_eps", "total_eps")

#: Trajectories per point of the set-up's warm-up grid.
WARM_UP_TRAJECTORIES = 2

#: Trajectories per block of the fastpath=False oracle.
ORACLE_BLOCK = 16


@dataclass
class Dirs:
    """Where one iteration of a workload reads and writes."""

    cache: Path  # REPRO_CACHE_DIR of the caching workloads
    jobs: Path  # lease-scheduler job directory
    out: Path  # figure CSV/JSON


@dataclass
class Outcome:
    """What one iteration produced: rows as written, plus in-memory evaluations."""

    rows: list[dict]
    digest: str  # SHA-256 of the figure JSON bytes
    evaluations: list[Any] | None  # StrategyEvaluation per row; None for leased rows
    failed: int = 0  # points that raised (SweepFailure) or left a failure marker


@dataclass(frozen=True)
class Workload:
    name: str
    table: str  # figure table name; also the key rows are compared under
    run: Callable[[int, Dirs], Outcome]
    uses_cache: bool  # runs with REPRO_CACHE_DIR set
    warm: bool  # the cache is filled during set-up and kept across iterations


def _runner(dirs: Dirs, table: str):
    from repro.experiments.sweep import SweepRunner

    return SweepRunner(
        max_workers=1,
        csv_path=dirs.out / f"{table}.csv",
        json_path=dirs.out / f"{table}.json",
    )


def _read_outcome(dirs: Dirs, table: str, evaluations: list[Any] | None) -> Outcome:
    payload = (dirs.out / f"{table}.json").read_bytes()
    return Outcome(
        rows=json.loads(payload),
        digest=hashlib.sha256(payload).hexdigest(),
        evaluations=evaluations,
    )


def _failed(error: Exception) -> Outcome:
    failures = getattr(error, "failures", None)
    print(f"perfbench: sweep failed: {error}", file=sys.stderr)
    return Outcome(rows=[], digest="", evaluations=None, failed=len(failures or ()) or 1)


def run_fig7(seed: int, dirs: Dirs) -> Outcome:
    """The Fig. 7 grid: 48 points, 1,536 trajectories."""
    from repro.experiments.fidelity_sweep import run_fidelity_sweep
    from repro.experiments.sweep import SweepFailure

    try:
        evaluations = run_fidelity_sweep(
            workloads=FIG7_CIRCUITS,
            sizes=FIG7_SIZES,
            num_trajectories=FIG7_TRAJECTORIES,
            simulate_mixed_radix_up_to=FIG7_MIXED_RADIX_UP_TO,
            rng=seed,
            runner=_runner(dirs, "fig7"),
        )
    except SweepFailure as error:
        return _failed(error)
    return _read_outcome(dirs, "fig7", evaluations)


def run_fig9c(seed: int, dirs: Dirs) -> Outcome:
    """The Fig. 9c coherence grid: 12 points on registers of up to 4^8 amplitudes."""
    from repro.experiments.sensitivity import run_coherence_sensitivity
    from repro.experiments.sweep import SweepFailure

    try:
        pairs = run_coherence_sensitivity(
            num_qubits=FIG9C_QUBITS,
            coherence_scales=FIG9C_SCALES,
            num_trajectories=FIG9C_TRAJECTORIES,
            rng=seed,
            runner=_runner(dirs, "fig9c"),
        )
    except SweepFailure as error:
        return _failed(error)
    return _read_outcome(dirs, "fig9c", [evaluation for _, evaluation in pairs])


def run_leased(seed: int, dirs: Dirs) -> Outcome:
    """180 compile-only points drained by two sequential leased workers."""
    from repro.artifacts.figures import compute_table, scheduler_table_executor
    from repro.core.strategies import Strategy
    from repro.experiments.fidelity_sweep import fidelity_sweep_points

    points = fidelity_sweep_points(
        workloads=FIG7_CIRCUITS,
        sizes=LEASED_SIZES,
        strategies=list(Strategy),
        num_trajectories=0,
        rng=seed,
    )
    executor = scheduler_table_executor(dirs.jobs, LEASED_WORKERS)
    try:
        compute_table(points, _runner(dirs, "leased"), name="leased", executor=executor)
    except RuntimeError as error:  # the drain names unevaluated points; markers say which failed
        print(f"perfbench: leased drain failed: {error}", file=sys.stderr)
        markers = len(list(dirs.jobs.glob("*/failed/*.json")))
        return Outcome(rows=[], digest="", evaluations=None, failed=markers or 1)
    return _read_outcome(dirs, "leased", None)


def warm_up(workload: Workload, seed: int, dirs: Dirs) -> None:
    """One circuit of the workload's grid at its smallest size: the program's first-call costs.

    A failure raises; set-up that fails is not measured.
    """
    from repro.artifacts.figures import compute_table, scheduler_table_executor
    from repro.core.strategies import Strategy
    from repro.experiments.fidelity_sweep import fidelity_sweep_points, run_fidelity_sweep
    from repro.experiments.sensitivity import run_coherence_sensitivity

    runner = _runner(dirs, "warm-up")
    if workload.table == "fig7":
        run_fidelity_sweep(
            workloads=FIG7_CIRCUITS[:1],
            sizes=FIG7_SIZES[:1],
            num_trajectories=WARM_UP_TRAJECTORIES,
            simulate_mixed_radix_up_to=FIG7_MIXED_RADIX_UP_TO,
            rng=seed,
            runner=runner,
        )
    elif workload.table == "fig9c":
        run_coherence_sensitivity(
            num_qubits=FIG7_SIZES[0],
            coherence_scales=FIG9C_SCALES[:1],
            num_trajectories=WARM_UP_TRAJECTORIES,
            rng=seed,
            runner=runner,
        )
    else:
        points = fidelity_sweep_points(
            workloads=FIG7_CIRCUITS[:1],
            sizes=LEASED_SIZES[:1],
            strategies=list(Strategy),
            num_trajectories=0,
            rng=seed,
        )
        executor = scheduler_table_executor(dirs.jobs, LEASED_WORKERS)
        compute_table(points, runner, name="warm-up", executor=executor)


#: The benchmark's workloads; README.md says why each one is here.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("fig7-cold", "fig7", run_fig7, uses_cache=True, warm=False),
        Workload("fig7-warm", "fig7", run_fig7, uses_cache=True, warm=True),
        Workload("fig9c-deviating", "fig9c", run_fig9c, uses_cache=False, warm=False),
        Workload("compile-leased", "leased", run_leased, uses_cache=True, warm=False),
    )
}


def expected_points(workload: Workload) -> int:
    if workload.table == "fig7":
        return len(FIG7_CIRCUITS) * len(FIG7_SIZES) * 6
    if workload.table == "fig9c":
        return len(FIG9C_SCALES) * 4
    return len(FIG7_CIRCUITS) * len(LEASED_SIZES) * 9


def reset_program_state() -> None:
    """Drop every in-process cache and counter of the program.

    The compile-cache LRU, the fast-path record store and the memoized
    compilation keys (any ``functools.lru_cache`` in a ``repro`` module)
    must not carry from one iteration into the next.
    """
    from repro.core import compile_cache, storage
    from repro.noise import fastpath

    fastpath.reset_fastpath()
    compile_cache.reset_cache()
    storage.reset_storage_stats()
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                    value.cache_clear()
    gc.collect()


def counters() -> dict[str, dict[str, int]]:
    """Snapshot of the program's public counters."""
    from repro.core import storage
    from repro.core.compile_cache import get_cache
    from repro.noise import fastpath

    snapshot = fastpath.stats()
    snapshot.pop("deviation_segments")
    return {
        "fastpath": snapshot,
        "cache": get_cache().stats.as_dict(),
        "storage": storage.STATS.as_dict(),
    }


def counter_delta(before: dict, after: dict) -> dict[str, dict[str, int]]:
    return {
        group: {name: after[group][name] - before[group].get(name, 0) for name in after[group]}
        for group in after
    }


def simulated(outcome: Outcome) -> list[int]:
    """Row indices of points that ran trajectories."""
    return [index for index, row in enumerate(outcome.rows) if row["num_trajectories"]]


def max_hilbert_dim(outcome: Outcome) -> int:
    """Largest simulated register dimension (0 when nothing is simulated)."""
    if not outcome.evaluations:
        return 0
    return max(
        (
            math.prod(outcome.evaluations[index].compilation.physical_circuit.device_dims)
            for index in simulated(outcome)
        ),
        default=0,
    )


def check_rows(workload: Workload, outcome: Outcome) -> list[str]:
    """Errors in one iteration's rows: count, failures, probabilities outside [0, 1]."""
    errors = []
    if outcome.failed:
        errors.append(f"{outcome.failed} point(s) failed")
    if len(outcome.rows) != expected_points(workload):
        errors.append(f"{len(outcome.rows)} rows, expected {expected_points(workload)}")
    for index, row in enumerate(outcome.rows):
        for field in PROBABILITY_FIELDS:
            value = row.get(field)
            if not (isinstance(value, float) and 0.0 <= value <= 1.0):
                errors.append(f"row {index} {field}={value!r} is not in [0, 1]")
    for index in simulated(outcome) if outcome.evaluations else ():
        fidelities = outcome.evaluations[index].simulation.fidelities
        if len(fidelities) != outcome.rows[index]["num_trajectories"]:
            errors.append(f"row {index}: {len(fidelities)} trajectories simulated")
        if not all(0.0 <= value <= 1.0 for value in fidelities):
            errors.append(f"row {index}: a trajectory fidelity is not in [0, 1]")
    return errors


def check_oracle(outcome: Outcome, seed: int) -> list[str]:
    """Recompute one seeded simulated point with the fast path off; compare bit for bit."""
    from repro.noise.model import NoiseModel
    from repro.noise.trajectory import TrajectorySimulator
    from repro.topology.device import CoherenceModel

    candidates = simulated(outcome)
    if not candidates:
        return ["no simulated point to check against the fastpath=False oracle"]
    index = random.Random(seed).choice(candidates)
    row, evaluation = outcome.rows[index], outcome.evaluations[index]
    physical = evaluation.compilation.physical_circuit
    trajectories = row["num_trajectories"]
    simulator = TrajectorySimulator(
        NoiseModel(coherence=CoherenceModel(excited_scale=row["coherence_scale"])),
        rng=row["seed"],
        fastpath=False,
    )
    # Per-trajectory fidelities are bit-exact for every block size, so one
    # fixed block keeps the comparison about the fast path alone.
    oracle = simulator.average_fidelity(
        physical, num_trajectories=trajectories, batch_size=min(ORACLE_BLOCK, trajectories)
    )
    if list(oracle.fidelities) != list(evaluation.simulation.fidelities):
        return [
            f"row {index} ({row['circuit']}/{row['strategy']}): fast-path fidelities "
            "differ from the fastpath=False oracle"
        ]
    return []
