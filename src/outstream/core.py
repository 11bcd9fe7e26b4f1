"""Core domain types and predicates for windowed distance-based outlier detection.

An object is an outlier for a window when it has fewer than ``k`` other
objects within distance ``R`` (closed ball, the object itself excluded).
Every algorithm in this package shares the metadata conventions defined
here: ``count_after`` counts neighbors from the same or a later slide,
``nn_before`` records arrival timestamps of neighbors from earlier slides.

Floating-point policy: neighbor membership is always decided by comparing
squared euclidean distances against ``R * R`` (or plain sums for the
manhattan metric), with summation running left to right over coordinates.
The scalar kernels (`sqdist`, `manhattan`) and the vectorized one
(`column_keys`, column sums, left to right, at any d) add the same terms
in the same order, as does the brute-force oracle, so engine and oracle
agree bit for bit.  No epsilons anywhere in the membership test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Vector = tuple[float, ...]

METRICS = ("euclidean", "manhattan")


# ---------------------------------------------------------------------------
# Distance kernels
# ---------------------------------------------------------------------------

def sqdist(a, b) -> float:
    """Squared euclidean distance, summed left to right."""
    s = 0.0
    for x, y in zip(a, b):
        d = x - y
        s += d * d
    return s


def manhattan(a, b) -> float:
    s = 0.0
    for x, y in zip(a, b):
        s += abs(x - y)
    return s


def distance(a, b, metric: str = "euclidean") -> float:
    """Metric distance between two coordinate vectors.

    Symmetric, zero iff ``a == b``, and satisfies the triangle inequality;
    the tree indexes rely on all three properties.

    Raises:
        ValueError: if the vectors differ in dimensionality or the metric
            name is unknown.
    """
    if len(a) != len(b):
        raise ValueError(f"dimensionality mismatch: {len(a)} vs {len(b)}")
    if metric == "euclidean":
        return math.sqrt(sqdist(a, b))
    if metric == "manhattan":
        return manhattan(a, b)
    raise ValueError(f"unknown metric {metric!r}")


def key_limit(radius: float, metric: str = "euclidean") -> float:
    """The largest comparison key (see `column_keys`) inside the closed ball."""
    return radius * radius if metric == "euclidean" else radius


def within(a, b, radius: float, metric: str = "euclidean") -> bool:
    """Closed-ball neighbor predicate.

    ``column_keys(...) <= key_limit(radius)`` decides the same, bit for bit.
    """
    if metric == "euclidean":
        return sqdist(a, b) <= radius * radius
    return manhattan(a, b) <= radius


def column_keys(cols: np.ndarray, center, metric: str = "euclidean") -> np.ndarray:
    """Comparison key of every point of ``cols`` (dims x n) to ``center``.

    The key is the squared euclidean distance, or the manhattan distance,
    accumulated one dimension at a time, left to right: column sums at any
    d, the same terms in the same order as `sqdist` and `manhattan`, so
    ``key <= key_limit(radius)`` is bit-identical to `within`.

    Raises:
        ValueError: if ``center`` and ``cols`` differ in dimensionality.
    """
    dims = len(center)
    if dims != len(cols):
        raise ValueError(f"dimensionality mismatch: {dims} vs {len(cols)}")
    euclidean = metric == "euclidean"
    acc = cols[0] - center[0]
    if euclidean:
        acc *= acc
    else:
        np.abs(acc, out=acc)
    for j in range(1, dims):
        t = cols[j] - center[j]
        if euclidean:
            t *= t
        else:
            np.abs(t, out=t)
        acc += t
    return acc


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class StreamObject:
    """A timestamped point plus the metadata the processors maintain.

    ``flag`` distinguishes the single owned copy of an object (0) from
    replicas delivered to other partitions (1).  Replicas provide context
    for neighbor counts but are never reported.
    """

    id: int
    value: Vector
    t: int
    flag: int = 0
    partition: int = 0
    count_after: int = 0
    nn_before: list = field(default_factory=list)
    evil: dict | None = None      # per-slide neighbor counts, time-slicing only
    mc_id: int | None = None      # micro-cluster membership, pMCOD only


@dataclass(frozen=True)
class WindowConfig:
    """Window geometry and outlier thresholds shared by every processor.

    ``W`` and ``S`` are extents in ticks.  ``W`` must be a positive integer
    multiple of ``S`` so that slides tile the window exactly; this also
    guarantees that objects from the same slide always expire together,
    which keeps ``count_after`` valid for an object's whole lifetime.
    """

    W: int
    S: int
    R: float
    k: int
    dims: int = 1
    partitions: int = 1
    metric: str = "euclidean"

    def __post_init__(self):
        if self.S <= 0 or self.W <= 0 or self.S > self.W:
            raise ValueError(f"need 0 < S <= W, got W={self.W} S={self.S}")
        if self.W % self.S != 0:
            raise ValueError(f"W must be an integer multiple of S, got W={self.W} S={self.S}")
        if self.R <= 0:
            raise ValueError(f"R must be positive, got {self.R}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.dims < 1:
            raise ValueError(f"dims must be >= 1, got {self.dims}")
        if self.partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {self.partitions}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")

    @property
    def slides_per_window(self) -> int:
        return self.W // self.S

    def interval(self, j: int) -> WindowInterval:
        """The window closing with slide ``j``, which covers ticks [j*S, (j+1)*S)."""
        end = (j + 1) * self.S
        return WindowInterval(start=end - self.W, end=end, slide_index=j)


@dataclass(frozen=True)
class WindowInterval:
    """Half-open tick range [start, end) covered by one window position."""

    start: int
    end: int
    slide_index: int


@dataclass(frozen=True)
class OutlierReport:
    """Per-slide result: the outlier id set plus bookkeeping counters."""

    interval: WindowInterval
    outliers: frozenset
    slide_wall_time: float = 0.0
    arrivals: int = 0
    delivered: int = 0
    alive: int = 0

    def digest(self) -> tuple:
        """Deterministic content of the report (timing excluded)."""
        return (self.interval.slide_index, self.interval.start, self.interval.end,
                tuple(sorted(self.outliers)), self.arrivals, self.delivered, self.alive)


# ---------------------------------------------------------------------------
# Status predicates
# ---------------------------------------------------------------------------

def prune_nn_before(nn_before, w_start) -> list:
    """Timestamps of preceding neighbors still alive at ``w_start``.

    Keeps exactly the entries ``t >= w_start``, order preserved.  Expired
    entries are filtered logically at check time; the stored list is never
    rewritten.
    """
    return [t for t in nn_before if t >= w_start]


def trim_nn_before(timestamps, k: int) -> list:
    """The ``k`` most recent preceding-neighbor timestamps, ascending.

    Lossless for the outlier predicate: preceding neighbors expire oldest
    first, so whenever a trimmed entry is still alive the kept ones all are,
    and the pruned size saturates at ``k``.
    """
    ts = sorted(timestamps)
    return ts[-k:] if len(ts) > k else ts


def is_outlier(o: StreamObject, w_start, k: int) -> bool:
    """True iff ``count_after`` plus alive preceding neighbors is below ``k``."""
    return o.count_after + len(prune_nn_before(o.nn_before, w_start)) < k


def is_safe_inlier(o: StreamObject, k: int) -> bool:
    """True iff the object can never again become an outlier.

    Succeeding neighbors outlive the object, so ``count_after >= k`` is
    permanent evidence of inlier status.
    """
    return o.count_after >= k
