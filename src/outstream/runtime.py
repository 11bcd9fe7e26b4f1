"""In-process dataflow: routing, slide scheduling, workers, and metrics.

A run is one loop over slides from the first object's.  Each pass routes
only that slide's arrivals (so memory follows the window, not the
stream), executes the per-partition processors (inline, on a thread
pool, or in one worker process per partition that gets each slide's
batch over its pipe), and either unions the partition reports
(value routing makes them disjoint and exact) or merges forwarded
metadata through the meta-window (full replication).  Reports are
deterministic for a fixed source and configuration regardless of worker
count or scheduling; wall-clock timings are measured per slide and kept
out of the deterministic content.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import OutlierReport, StreamObject, WindowConfig
from .partition import (GridSpec, RoutingDecision, build_grid,
                        build_vp_partitioner, grid_route, random_route, vp_route)
from .processors import (MetaWindow, MicroClusterProcessor,
                         SlicedWindowProcessor, WindowScanProcessor, make_batch)

ALGORITHMS = ("baseline", "naive", "advanced", "advanced-sliced", "pmcod")
PARTITIONERS = ("random", "grid", "vptree")

DEFAULT_SAMPLE_SIZE = 10_000


# ---------------------------------------------------------------------------
# Stream sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StreamSource:
    """Ordered object sequence: unique ids, finite coordinate rows, and integer ticks."""

    ids: np.ndarray
    values: np.ndarray
    ts: np.ndarray

    def __post_init__(self):
        vals = self.values
        if not (isinstance(vals, np.ndarray) and vals.ndim == 2
                and np.issubdtype(vals.dtype, np.number)):
            raise ValueError("values must be a 2-d numeric array, one row per object")
        if not (len(self.ids) == len(vals) == len(self.ts)):
            raise ValueError("ids, values and ts must have equal length")
        finite = np.isfinite(vals).all(axis=1)
        if not finite.all():
            i = int(finite.argmin())
            raise ValueError(f"row {i}: non-finite value {vals[i].tolist()}")
        _, first = np.unique(self.ids, return_index=True)
        if len(first) < len(self.ids):
            repeat = np.ones(len(self.ids), dtype=bool)
            repeat[first] = False
            i = int(repeat.argmax())
            raise ValueError(f"row {i}: id {self.ids[i]} repeats an earlier row's id")
        if len(self.ts) and np.any(np.diff(self.ts) < 0):
            raise ValueError("timestamps must be non-decreasing")

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    def rows(self, start: int, end: int) -> slice:
        """The rows whose ticks fall in [start, end)."""
        lo = int(np.searchsorted(self.ts, start, side="left"))
        hi = int(np.searchsorted(self.ts, end, side="left"))
        return slice(lo, hi)

    def slides(self, S: int, count: int | None = None) -> range:
        """``count`` slides (default: through the last object's) from ``ts[0] // S``."""
        first = int(self.ts[0]) // S if self.n else 0
        last = int(self.ts[-1]) // S if self.n else -1
        return range(first, last + 1 if count is None else first + count)


def assign_artificial_timestamps(values, w_count: int, s_count: int) -> StreamSource:
    """Count-window emulation: object ``i`` arrives at tick ``i // s_count``.

    Exactly ``s_count`` objects share each tick, one tick per slide, so a
    window of ``w_count / s_count`` ticks always holds ``w_count`` alive
    objects once filled.
    """
    if s_count <= 0 or w_count % s_count != 0:
        raise ValueError("slide count must divide window count")
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim == 1:
        vals = vals.reshape(-1, 1)
    n = len(vals)
    return StreamSource(ids=np.arange(n, dtype=np.int64), values=vals,
                        ts=np.arange(n, dtype=np.int64) // s_count)


def count_window_config(w_count: int, s_count: int, R: float, k: int,
                        dims: int, partitions: int = 1,
                        metric: str = "euclidean") -> WindowConfig:
    """Tick-domain window geometry matching `assign_artificial_timestamps`."""
    if s_count <= 0 or w_count % s_count != 0:
        raise ValueError("slide count must divide window count")
    return WindowConfig(W=w_count // s_count, S=1, R=R, k=k, dims=dims,
                        partitions=partitions, metric=metric)


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopologyConfig:
    """Which algorithm runs where, and how objects are routed to it.

    ``worker_backend`` picks the execution mechanism for the per-partition
    workers: ``"thread"`` (default, cheap) or ``"process"`` (true
    parallelism across cores; each worker process receives every slide's
    batch over its pipe and sends the partition output back).  Reports
    and counters are identical either way.  ``workers`` sizes the thread
    pool; the process backend always runs one process per partition, so
    it rejects ``workers``.
    """

    window: WindowConfig
    algorithm: str = "baseline"
    partitioner: str = "random"
    flavor_backend: str = "none"
    flavor_queue: str = "none"
    workers: int | None = None
    worker_backend: str = "thread"
    sample_size: int = DEFAULT_SAMPLE_SIZE
    partition_seed: int = 0
    validate: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.partitioner not in PARTITIONERS:
            raise ValueError(f"unknown partitioner {self.partitioner!r}; expected one of {PARTITIONERS}")
        if self.worker_backend not in ("thread", "process"):
            raise ValueError(f"unknown worker backend {self.worker_backend!r}")
        if self.algorithm == "baseline" and self.window.partitions != 1:
            raise ValueError("baseline runs single-partition: set partitions=1")
        if self.algorithm == "naive" and self.partitioner != "random":
            raise ValueError("naive replication requires the random partitioner")
        if self.algorithm in ("advanced-sliced", "pmcod") and self.partitioner == "random":
            raise ValueError(f"{self.algorithm} requires value-based routing (grid or vptree)")
        if self.algorithm != "pmcod" and (self.flavor_backend != "none"
                                          or self.flavor_queue != "none"):
            raise ValueError("backend/queue flavors apply to pmcod only")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.workers is not None and self.worker_backend == "process":
            raise ValueError("workers sizes the thread pool; the process "
                             "backend runs one process per partition")

    @property
    def effective_workers(self) -> int:
        return self.workers if self.workers is not None else self.window.partitions

    @property
    def needs_meta_window(self) -> bool:
        return self.algorithm == "naive" or (
            self.algorithm == "advanced" and self.partitioner == "random")


@dataclass
class RunMetrics:
    """Aggregates over a completed run (first slides excluded as warm-up)."""

    n_slides: int = 0
    warmup: int = 5
    mean_slide_ms: float = 0.0
    median_slide_ms: float = 0.0
    throughput_obj_s: float = 0.0
    replication_factor: float = 0.0
    outlier_fraction: float = 0.0


@dataclass
class RunResult:
    reports: list
    metrics: RunMetrics
    topology: TopologyConfig
    # The last slide's `PartitionOutput.counters` (running totals), summed.
    counters: dict = field(default_factory=dict)

    def digests(self) -> tuple:
        return tuple(r.digest() for r in self.reports)


# ---------------------------------------------------------------------------
# Routing / stream handler
# ---------------------------------------------------------------------------

def build_partition_spec(source: StreamSource, topo: TopologyConfig):
    """The topology's router, built from the source's first ``sample_size``
    objects; None for random routing.

    Raises:
        ValueError: if the source's dimensionality is not the window
            config's, or the sample cannot support the router.
    """
    cfg = topo.window
    if source.dims != cfg.dims:
        raise ValueError(f"source has {source.dims} dims, the window config {cfg.dims}")
    if topo.partitioner == "random":
        return None
    sample = source.values[: min(source.n, topo.sample_size)]
    if topo.partitioner == "grid":
        return build_grid(sample, cfg.partitions, cfg.R)
    return build_vp_partitioner(sample, cfg.partitions, cfg.R,
                                metric=cfg.metric, seed=topo.partition_seed)


def route(spec, oid: int, value, partitions: int) -> RoutingDecision:
    if spec is None:
        return random_route(oid, partitions)
    if isinstance(spec, GridSpec):
        return grid_route(spec, value)
    return vp_route(spec, value)


def stream_handler(source: StreamSource, rows: slice, spec, partitions: int):
    """Route one slide's rows: per-partition inboxes of fresh copies.

    Returns (inboxes, delivered) where ``inboxes[p]`` lists partition p's
    arrivals in stream order and ``delivered`` counts the copies made.
    """
    inboxes = [[] for _ in range(partitions)]
    delivered = 0
    for oid, row, t in zip(source.ids[rows].tolist(), source.values[rows].tolist(),
                           source.ts[rows].tolist()):
        value = tuple(row)
        decision = route(spec, oid, value, partitions)
        delivered += decision.copies
        inboxes[decision.owner].append(
            StreamObject(id=oid, value=value, t=t, flag=0, partition=decision.owner))
        for p in decision.replicas:
            inboxes[p].append(
                StreamObject(id=oid, value=value, t=t, flag=1, partition=decision.owner))
    return inboxes, delivered


def _make_processor(topo: TopologyConfig, partition: int):
    cfg = topo.window
    if topo.algorithm == "baseline":
        return WindowScanProcessor(cfg, partition, replicated=False)
    if topo.algorithm == "naive":
        return WindowScanProcessor(cfg, partition, replicated=True)
    if topo.algorithm == "advanced":
        return WindowScanProcessor(cfg, partition,
                                   replicated=(topo.partitioner == "random"))
    if topo.algorithm == "advanced-sliced":
        return SlicedWindowProcessor(cfg, partition)
    return MicroClusterProcessor(cfg, partition, backend=topo.flavor_backend,
                                 queue=topo.flavor_queue, validate=topo.validate)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _slide_outputs(j: int, pending: list) -> list:
    """Call each ``pending[p]()``; any backend's failure is raised naming j and p."""
    outputs = []
    for p, result in enumerate(pending):
        try:
            outputs.append(result())
        except Exception as exc:
            raise RuntimeError(f"worker failed at slide {j}, partition {p}: {exc}") from exc
    return outputs


def _process_worker_main(pipe, topo: TopologyConfig, partition: int) -> None:
    proc = _make_processor(topo, partition)
    while (batch := pipe.recv()) is not None:
        try:
            pipe.send((True, proc.process_slide(batch)))
        except Exception as exc:
            pipe.send((False, f"{type(exc).__name__}: {exc}"))


def _receive(pipe):
    try:
        ok, payload = pipe.recv()
    except (EOFError, OSError) as exc:
        raise ChildProcessError(f"worker process died ({exc!r})") from exc
    if not ok:
        raise ChildProcessError(payload)
    return payload


class _ProcessWorkers:
    """One long-lived process per partition.

    Each slide's batch travels out over the partition's pipe and the
    partition output travels back.
    """

    def __init__(self, topo: TopologyConfig):
        import multiprocessing as mp
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                             else "spawn")
        self.pipes = []
        self.procs = []
        for p in range(topo.window.partitions):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_process_worker_main,
                               args=(child, topo, p), daemon=True)
            proc.start()
            child.close()
            self.pipes.append(parent)
            self.procs.append(proc)

    def submit(self, batches: list) -> list:
        for pipe, batch in zip(self.pipes, batches):
            try:
                pipe.send(batch)
            except OSError:
                pass    # the worker is gone; receiving from it reports that
        return [partial(_receive, pipe) for pipe in self.pipes]

    def shutdown(self) -> None:
        for pipe in self.pipes:
            try:
                pipe.send(None)
                pipe.close()
            except OSError:
                pass
        for proc in self.procs:
            proc.join(timeout=5)


def run_topology(source: StreamSource, topo: TopologyConfig,
                 slides: int | None = None, warmup: int = 5) -> RunResult:
    """Run the topology slide by slide from the first object's; ``slides`` caps the count."""
    return run_routed(source, topo, build_partition_spec(source, topo), slides, warmup)


def run_routed(source: StreamSource, topo: TopologyConfig, spec,
               slides: int | None = None, warmup: int = 5) -> RunResult:
    """`run_topology` with the router ``spec`` from `build_partition_spec`."""
    cfg = topo.window
    meta = MetaWindow(cfg) if topo.needs_meta_window else None
    workers = None
    pool = None
    if topo.worker_backend == "process" and cfg.partitions > 1:
        workers = _ProcessWorkers(topo)
    else:
        processors = [_make_processor(topo, p) for p in range(cfg.partitions)]
        if topo.effective_workers > 1:
            pool = ThreadPoolExecutor(max_workers=topo.effective_workers)

    reports = []
    outputs: list = []
    try:
        for j in source.slides(cfg.S, slides):
            interval = cfg.interval(j)
            rows = source.rows(interval.end - cfg.S, interval.end)
            inboxes, delivered = stream_handler(source, rows, spec, cfg.partitions)
            batches = [make_batch(interval, inbox, cfg) for inbox in inboxes]
            t0 = time.perf_counter()
            if workers is not None:
                pending = workers.submit(batches)
            elif pool is not None:
                pending = [pool.submit(proc.process_slide, batch).result
                           for proc, batch in zip(processors, batches)]
            else:
                pending = [partial(proc.process_slide, batch)
                           for proc, batch in zip(processors, batches)]
            outputs = _slide_outputs(j, pending)
            if meta is not None:
                outliers = meta.merge_slide(interval, [o.forwards for o in outputs])
            else:
                outliers = set().union(*(o.outliers for o in outputs))
            wall = time.perf_counter() - t0
            reports.append(OutlierReport(
                interval=interval, outliers=frozenset(outliers),
                slide_wall_time=wall, arrivals=rows.stop - rows.start,
                delivered=delivered, alive=sum(o.alive for o in outputs)))
    finally:
        if pool is not None:
            pool.shutdown(wait=False)
        if workers is not None:
            workers.shutdown()

    counters: dict = {}
    for o in outputs:
        for key, val in o.counters.items():
            counters[key] = counters.get(key, 0) + val
    metrics = collect_metrics(reports, warmup=warmup)
    return RunResult(reports=reports, metrics=metrics, topology=topo,
                     counters=counters)


def collect_metrics(reports, warmup: int = 5) -> RunMetrics:
    """Mean/median slide time, sustained throughput, replication, outlier share."""
    if not reports:
        return RunMetrics(warmup=warmup)
    included = reports[warmup:] if len(reports) > warmup else list(reports)
    times_ms = [r.slide_wall_time * 1e3 for r in included]
    total_arrivals = sum(r.arrivals for r in reports)
    total_delivered = sum(r.delivered for r in reports)
    total_wall = sum(r.slide_wall_time for r in reports)
    fractions = [len(r.outliers) / r.alive for r in included if r.alive]
    return RunMetrics(
        n_slides=len(reports),
        warmup=warmup,
        mean_slide_ms=statistics.fmean(times_ms) if times_ms else 0.0,
        median_slide_ms=statistics.median(times_ms) if times_ms else 0.0,
        throughput_obj_s=total_arrivals / total_wall if total_wall > 0 else 0.0,
        replication_factor=total_delivered / total_arrivals if total_arrivals else 0.0,
        outlier_fraction=statistics.fmean(fractions) if fractions else 0.0,
    )
