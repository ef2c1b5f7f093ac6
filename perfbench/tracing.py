"""In-memory spans around the calls into each layer, from outside the program.

:class:`Tracer` replaces a layer's public functions and methods, each
where it is looked up, with wrappers that record a span (name, start,
end, parent) and a few counts, and restores the originals on exit.  The
program itself is not modified.  A layer's self time is its spans'
duration minus the part their child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

KERNEL_KINDS = ("diag", "perm", "monomial", "fused", "single", "generic")
PASSES = ("decompose", "place", "route", "emit")
PROVIDERS = ("compiled-program", "nojump-record", "sweep-table", "figure")
ROOT = "bench.iteration"

#: Bytes per complex128 amplitude.
AMPLITUDE_BYTES = 16


class Tracer:
    """Span recorder; use as a context manager around one traced iteration."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.extra_child_s: dict[int, float] = defaultdict(float)  # PassReport time per span
        self.missing: list[str] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
        after: Callable[..., None] | None = None,
        before: Callable[..., Any] | None = None,
    ) -> None:
        """Record a span per call of ``owner.attr``; ``name`` may depend on the arguments."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        record = self._record

        def traced(*args, **kwargs):
            token = before(*args, **kwargs) if before is not None else None
            label = name if isinstance(name, str) else name(*args, **kwargs)
            index, result = record(label, original, args, kwargs)
            if after is not None:
                after(index, result, token, *args, **kwargs)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _record(self, name: str, function: Callable, args: tuple, kwargs: dict) -> tuple[int, Any]:
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return index, function(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def root(self, function: Callable[[], Any]) -> Any:
        """Run ``function`` under the root span every layer span nests in."""
        return self._record(ROOT, function, (), {})[1]

    def __enter__(self) -> "Tracer":
        install(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children (and pass reports)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += end - start - child[index] - self.extra_child_s.get(index, 0.0)
        return totals

    def calls(self, name: str, outermost: bool = False) -> int:
        """Spans named ``name``; ``outermost`` skips those nested in a same-named span."""
        spans = self.spans
        return sum(
            1
            for span in spans
            if span[0] == name and not (outermost and span[3] >= 0 and spans[span[3]][0] == name)
        )

    def root_wall_s(self) -> float:
        return sum(end - start for name, start, end, _ in self.spans if name == ROOT)

    def write(self, path: Path) -> None:
        """All spans as JSON: a name table plus [name index, start, end, parent] rows."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(n, len(names)), s, e, p] for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": list(names), "spans": rows, "missing": self.missing}))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the sweep path (see README.md for the list)."""
    from repro.artifacts import providers
    from repro.artifacts.graph import Graph, Provider
    from repro.core import compile_cache, compiler, storage
    from repro.experiments import scheduler, sweep
    from repro.noise import batched, fastpath, program

    counts = tracer.counts

    def count(key: str) -> Callable[..., None]:
        def after(*_args, **_kwargs) -> None:
            counts[key] += 1

        return after

    # workloads, core, core.metrics, experiments.sweep: names the sweep engine looks up.
    tracer.wrap(sweep, "workload_by_name", "workloads.build")
    tracer.wrap(sweep, "evaluate_metrics", "core.metrics.eps")
    tracer.wrap(sweep, "evaluate_point", "experiments.sweep.evaluate_point",
                after=count("experiments.sweep.points"))

    def compiled(index, result, _token, *_args, **_kwargs) -> None:
        counts["core.compile.calls"] += 1
        counts["core.compile.ops_out"] += result.num_ops
        for metrics in result.pass_report.passes if result.pass_report else ():
            counts[f"core.pass.{metrics.name}_s"] += metrics.wall_time_s
            tracer.extra_child_s[index] += metrics.wall_time_s

    tracer.wrap(compiler.QuantumWaltzCompiler, "compile", "core.compile", after=compiled)

    # core.cache: memory/disk lookups and publications (counters come from CacheStats).
    for attr in ("get", "disk_get"):
        tracer.wrap(compile_cache.CompileCache, attr, "core.cache.get")
    for attr in ("put", "disk_put"):
        tracer.wrap(compile_cache.CompileCache, attr, "core.cache.put")

    # core.storage: the module attributes compile_cache and the writers reach.
    def wrote(_index, _result, _token, _path, data, *_args, **_kwargs) -> None:
        counts["core.storage.bytes_written"] += len(data)

    def read(_index, result, *_args, **_kwargs) -> None:
        counts["core.storage.bytes_read"] += len(result)

    tracer.wrap(storage, "atomic_write_bytes", "core.storage.write", after=wrote)
    tracer.wrap(storage, "read_bytes", "core.storage.read", after=read)
    tracer.wrap(storage, "durable_link", "core.storage.link")

    # noise.program
    def programmed(_index, result, *_args, **_kwargs) -> None:
        counts["noise.program.compiles"] += 1
        counts["noise.program.steps"] += len(result.steps)

    tracer.wrap(program, "compile_program", "noise.program.compile", after=programmed)

    # noise.kernel / noise.idle, in both executors' namespaces.
    def kernel_name(states, kernel, *_args, **_kwargs) -> str:
        return f"noise.kernel.{kernel.kind}"

    def kernel_bytes(_index, _result, _token, states, kernel, *_args, **_kwargs) -> None:
        # Computed from the block shape: every amplitude read once, written once.
        counts[f"noise.kernel.{kernel.kind}.bytes"] += 2 * states.shape[0] * states.shape[1] * AMPLITUDE_BYTES

    for module in (fastpath, batched):
        tracer.wrap(module, "apply_kernel_batch", kernel_name, after=kernel_bytes)
        tracer.wrap(module, "device_populations_batch", "noise.idle")
    tracer.wrap(fastpath, "no_jump_scales_batch", "noise.idle")

    # noise.fastpath and noise.batched
    tracer.wrap(fastpath, "prescan_trajectories", "noise.fastpath.prescan")
    tracer.wrap(fastpath, "run_fastpath_fidelities", "noise.fastpath.run")
    tracer.wrap(batched.BatchedTrajectoryEngine, "resume_trajectories", "noise.batched.resume")
    tracer.wrap(batched.BatchedTrajectoryEngine, "run_ideal", "noise.batched.ideal")

    # artifacts: the graph evaluator and every provider's build.
    def graph_before(graph, *_args, **_kwargs) -> dict[str, int]:
        return graph.stats.as_dict()

    def graph_after(_index, _result, before, graph, *_args, **_kwargs) -> None:
        for key, value in graph.stats.as_dict().items():
            counts[f"artifacts.graph.{key}"] += value - before[key]

    tracer.wrap(Graph, "compute_many", "artifacts.graph", after=graph_after, before=graph_before)
    for value in vars(providers).values():
        if isinstance(value, type) and issubclass(value, Provider) and "build" in vars(value):
            label = "figure" if value.name.startswith("figure") else value.name
            tracer.wrap(value, "build", f"artifacts.provider.{label}")

    # experiments.scheduler
    tracer.wrap(scheduler.LeaseCoordinator, "acquire", "experiments.scheduler.acquire",
                after=count("experiments.scheduler.acquires"))
    tracer.wrap(scheduler.LeaseCoordinator, "complete", "experiments.scheduler.complete")
    tracer.wrap(scheduler, "plan_job", "experiments.scheduler.plan")
    tracer.wrap(scheduler, "landed_rows", "experiments.scheduler.landed_rows")


def memcpy_gbps(llc_bytes: int, repeats: int = 5) -> tuple[float, int]:
    """Copy bandwidth (read + write) on an array 4x the last-level cache; (GB/s, bytes)."""
    import numpy as np

    size = 4 * llc_bytes
    source = np.ones(size, dtype=np.uint8)
    target = np.zeros_like(source)
    np.copyto(target, source)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(target, source)
        times.append(time.perf_counter() - start)
    return 2 * size / statistics.median(times) / 1e9, size


def last_level_cache_bytes(default: int = 32 * 1024 * 1024) -> int:
    """Largest CPU cache of cpu0 as reported by sysfs (``default`` if unreadable)."""
    sizes = []
    for path in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = path.read_text().strip()
        units = {"K": 1024, "M": 1024 * 1024}
        try:
            sizes.append(int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text))
        except (ValueError, IndexError):
            continue
    return max(sizes, default=default)


def layer_metrics(tracer: Tracer, delta: dict, memcpy: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (self times, counts, ratios)."""
    self_s = tracer.self_times()
    counts = tracer.counts
    metrics: dict[str, float] = {}

    def seconds(span: str, metric: str | None = None) -> None:
        metrics[metric or f"{span}_s"] = self_s.get(span, 0.0)

    seconds("workloads.build")
    metrics["core.compile.calls"] = counts["core.compile.calls"]
    seconds("core.compile")
    metrics["core.compile.ops_out"] = counts["core.compile.ops_out"]
    for name in PASSES:
        metrics[f"core.pass.{name}_s"] = counts[f"core.pass.{name}_s"]
    seconds("core.metrics.eps")

    cache = delta["cache"]
    for name in ("memory_hits", "disk_hits", "misses", "puts"):
        metrics[f"core.cache.{name}"] = cache[name]
    lookups = cache["memory_hits"] + cache["disk_hits"] + cache["misses"]
    metrics["core.cache.hit_frac"] = (cache["memory_hits"] + cache["disk_hits"]) / lookups if lookups else 0.0
    seconds("core.cache.get")
    seconds("core.cache.put")

    store = delta["storage"]
    for name in ("writes", "reads", "links", "retries", "quarantined"):
        metrics[f"core.storage.{name}"] = store[name]
    metrics["core.storage.bytes_written"] = counts["core.storage.bytes_written"]
    metrics["core.storage.bytes_read"] = counts["core.storage.bytes_read"]
    for name in ("write", "read", "link"):
        seconds(f"core.storage.{name}")

    metrics["noise.program.compiles"] = counts["noise.program.compiles"]
    metrics["noise.program.steps"] = counts["noise.program.steps"]
    seconds("noise.program.compile")

    for kind in KERNEL_KINDS:
        span = f"noise.kernel.{kind}"
        busy = self_s.get(span, 0.0)
        moved = counts[f"{span}.bytes"]
        gbps = moved / busy / 1e9 if busy > 0 else 0.0
        metrics[f"{span}.calls"] = tracer.calls(span)
        metrics[f"{span}.self_s"] = busy
        metrics[f"{span}.bytes"] = moved
        metrics[f"{span}.gbps"] = gbps
        metrics[f"{span}.roofline_frac"] = gbps / memcpy if memcpy > 0 else 0.0
    metrics["noise.idle.calls"] = tracer.calls("noise.idle", outermost=True)
    seconds("noise.idle")
    metrics["noise.memcpy_gbps"] = memcpy

    seconds("noise.fastpath.prescan")
    seconds("noise.fastpath.run")
    fast = delta["fastpath"]
    for name in (
        "trajectories", "clean", "deviated_idle", "deviated_gate", "records_built",
        "record_memory_hits", "record_disk_hits", "record_misses", "checkpoint_restores",
        "suffix_steps", "prefix_steps_reused",
    ):
        metrics[f"noise.fastpath.{name}"] = fast[name]
    trajectories = fast["trajectories"]
    metrics["noise.fastpath.builds_per_traj"] = fast["records_built"] / trajectories if trajectories else 0.0
    metrics["noise.fastpath.clean_frac"] = fast["clean"] / trajectories if trajectories else 0.0
    seconds("noise.batched.resume")
    seconds("noise.batched.ideal")

    for name in ("built", "memo_hits", "disk_hits"):
        metrics[f"artifacts.graph.{name}"] = counts[f"artifacts.graph.{name}"]
    seconds("artifacts.graph")
    for name in PROVIDERS:
        seconds(f"artifacts.provider.{name}")

    metrics["experiments.sweep.points"] = counts["experiments.sweep.points"]
    seconds("experiments.sweep.evaluate_point")
    metrics["experiments.scheduler.acquires"] = counts["experiments.scheduler.acquires"]
    for name in ("acquire", "complete", "plan", "landed_rows"):
        seconds(f"experiments.scheduler.{name}")

    wall = tracer.root_wall_s()
    metrics["trace.unattributed_frac"] = self_s.get(ROOT, 0.0) / wall if wall > 0 else 0.0
    return metrics
