"""Routing of stream objects to partitions with controlled replication.

Three schemes: random (owner by id, replicas everywhere), grid cells with
R-wide buffer zones, and VP-tree regions with ball-overlap replication.
The completeness contract shared by the value-based schemes: any two
objects within distance R of each other land together in at least one
partition (one of them owned there), so per-partition outlier decisions
are globally exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import distance
from .indexes import VPTree

# Widens buffer-zone membership on the replication side only, so rounding
# can only add a replica, never lose one.
_SLOP = 1e-9


@dataclass(frozen=True)
class RoutingDecision:
    """Owner partition (flag-0 copy) plus replica partitions (flag-1 copies)."""

    owner: int
    replicas: frozenset

    @property
    def copies(self) -> int:
        return 1 + len(self.replicas)


def random_route(oid: int, partitions: int) -> RoutingDecision:
    """Naive routing: owner by id modulo, replicate to everyone else."""
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    owner = oid % partitions
    return RoutingDecision(owner, frozenset(p for p in range(partitions) if p != owner))


# ---------------------------------------------------------------------------
# Grid partitioning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Per-dimension quantile cuts plus a flat cell-to-partition map.

    Cells are left-closed / right-open with unbounded edge cells, indexed
    row-major (dimension 0 slowest); partitions own cells round-robin.
    """

    cuts: tuple              # per dimension: tuple of strictly increasing cut points
    seg_counts: tuple        # per dimension: number of segments (len(cuts) + 1)
    partitions: int
    R: float

    @property
    def dims(self) -> int:
        return len(self.cuts)

    @property
    def n_cells(self) -> int:
        return math.prod(self.seg_counts)

    def cell_partition(self, cell: tuple) -> int:
        flat = 0
        for d in range(len(cell)):
            flat = flat * self.seg_counts[d] + cell[d]
        return flat % self.partitions


def build_grid(sample, partitions: int, R: float) -> GridSpec:
    """Cut the sampled value space into at least ``partitions`` cells.

    Dimensions are cut in order of decreasing sample spread, one extra
    segment at a time, until the cell count reaches the partition count;
    cut points sit at equal-frequency quantiles of the sample.
    """
    pts = np.asarray(sample, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    if len(pts) < partitions:
        raise ValueError(f"sample of {len(pts)} too small for {partitions} partitions")
    if R <= 0:
        raise ValueError("R must be positive")
    dims = pts.shape[1]
    spreads = pts.max(axis=0) - pts.min(axis=0)
    order = sorted(range(dims), key=lambda d: (-spreads[d], d))
    segs = [1] * dims
    i = 0
    while math.prod(segs) < partitions:
        d = order[i % dims]
        segs[d] += 1
        i += 1

    cuts = []
    for d in range(dims):
        m = segs[d]
        if m == 1:
            cuts.append(())
            continue
        qs = np.quantile(pts[:, d], [j / m for j in range(1, m)])
        if len(set(qs)) != m - 1 or spreads[d] == 0.0:
            raise ValueError(
                f"degenerate sample in dimension {d}: cannot place {m - 1} "
                f"distinct quantile cuts (spread={spreads[d]})")
        cuts.append(tuple(float(q) for q in qs))
    return GridSpec(cuts=tuple(cuts), seg_counts=tuple(segs),
                    partitions=partitions, R=R)


def grid_route(spec: GridSpec, value) -> RoutingDecision:
    """Owner cell plus replicas for every cell whose R-buffer covers ``value``."""
    if len(value) != spec.dims:
        raise ValueError(f"dimensionality mismatch: {len(value)} vs {spec.dims}")
    owner_cell = []
    ranges = []
    for d in range(spec.dims):
        cuts, v = spec.cuts[d], value[d]
        owner_cell.append(bisect_right(cuts, v))
        lo = bisect_left(cuts, v - spec.R - _SLOP)
        hi = bisect_right(cuts, v + spec.R + _SLOP)
        ranges.append(range(lo, hi + 1))
    owner = spec.cell_partition(tuple(owner_cell))
    replicas = set()
    for cell in product(*ranges):
        p = spec.cell_partition(cell)
        if p != owner:
            replicas.add(p)
    return RoutingDecision(owner, frozenset(replicas))


# ---------------------------------------------------------------------------
# VP-tree partitioning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VPPartitionSpec:
    """A built VP-tree with its level-l nodes mapped round-robin to partitions."""

    tree: VPTree
    level: int
    node_partition: tuple    # partition index per level-l node, left to right
    partitions: int
    R: float


def build_vp_partitioner(sample, partitions: int, R: float,
                         metric: str = "euclidean", seed: int = 0) -> VPPartitionSpec:
    """Build the routing tree at level ceil(log2(partitions)).

    Raises:
        ValueError: when the sample cannot support the required depth.
    """
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    level = max(0, math.ceil(math.log2(partitions))) if partitions > 1 else 0
    tree = VPTree(sample, metric=metric, seed=seed)
    nodes = tree.nodes_at_level(level)   # raises when too shallow
    assignment = tuple(i % partitions for i in range(len(nodes)))
    return VPPartitionSpec(tree=tree, level=level, node_partition=assignment,
                           partitions=partitions, R=R)


def vp_route(spec: VPPartitionSpec, value) -> RoutingDecision:
    """Descend to the owner region; replicate wherever the R-ball overlaps.

    The owner follows the plain threshold rule; the replica descent also
    enters the opposite child whenever the query ball of radius R crosses
    the split threshold, which is the minimal rule preserving pairwise
    completeness.
    """
    v = tuple(value)
    node, rank = spec.tree.root, 0
    for _ in range(spec.level):
        d = distance(v, node.vantage, spec.tree.metric)
        if d <= node.threshold:
            node, rank = node.inside, rank * 2
        else:
            node, rank = node.outside, rank * 2 + 1
    owner = spec.node_partition[rank]

    replicas = set()
    stack = [(spec.tree.root, 0, 0)]
    while stack:
        node, rank, lvl = stack.pop()
        if lvl == spec.level:
            p = spec.node_partition[rank]
            if p != owner:
                replicas.add(p)
            continue
        d = distance(v, node.vantage, spec.tree.metric)
        if d <= node.threshold + spec.R + _SLOP:
            stack.append((node.inside, rank * 2, lvl + 1))
        if d > node.threshold - spec.R - _SLOP:
            stack.append((node.outside, rank * 2 + 1, lvl + 1))
    return RoutingDecision(owner, frozenset(replicas))
