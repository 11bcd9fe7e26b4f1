"""The benchmark's workloads and the inputs each one makes from a seed.

Every workload streams a seeded three-component gaussian mixture
(`outstream.datasets`) through 4 partitions with ``workers=1``, with count
windows emulated by `assign_artificial_timestamps`: ``s`` objects share
each tick and a window holds ``w`` objects.  Each stream is ``windows``
windows long.  R was calibrated with `reference.py` so that about 1 % of
a full window is outliers at k = 50.
"""

from __future__ import annotations

from dataclasses import dataclass

PARTITIONS = 4
K = 50


@dataclass(frozen=True)
class Workload:
    algorithm: str
    partitioner: str
    dims: int
    w: int
    s: int
    windows: int
    R: float
    # Mixture weights of the generator's three diagonal components.
    weights: tuple = (0.33, 0.34, 0.33)

    @property
    def n(self) -> int:
        return self.w * self.windows


WORKLOADS = {
    # pmcod (backend `none`, no event queue): micro-cluster placement and
    # linear-scan pool queries; never touches an M-tree or the meta-window.
    # The micro-cluster layout a seed settles on persists, so the work per
    # round varies with the seed; that variation shrinks with W (15 % at
    # 2,500, 4-6 % at 5,000), not with the stream's length.  Two windows
    # keep a round near one second.
    "pmcod-grid-2d": Workload("pmcod", "grid", dims=2, w=5000, s=500, windows=2, R=0.95),
    # naive full replication: every object reaches all 4 partitions and
    # every slide merges through the meta-window.
    "naive-random-1d": Workload("naive", "random", dims=1, w=2000, s=200, windows=3, R=0.8),
    # advanced: one M-tree per partition, routed by a VP-tree built from the
    # stream's first objects.  Only the two outer components are drawn: with
    # the middle one too, the component that the VP-tree's root vantage falls
    # in decides the replication: seeds whose root sat in the middle one
    # routed 16 % more copies, 4 of seeds 101-110.  W = 600 keeps a round
    # under a second.
    "advanced-vptree-3d": Workload("advanced", "vptree", dims=3, w=600, s=60, windows=3,
                                   R=1.9, weights=(0.5, 0.0, 0.5)),
}


def make_inputs(wl: Workload, seed: int):
    """The workload's stream and topology for ``seed``; same seed, same inputs."""
    from outstream import (GaussianMixtureSpec, TopologyConfig,
                           assign_artificial_timestamps, count_window_config,
                           generate_gaussian_values)
    spec = GaussianMixtureSpec(dims=wl.dims, weights=wl.weights, seed=seed)
    values = generate_gaussian_values(spec, wl.n)
    source = assign_artificial_timestamps(values, wl.w, wl.s)
    cfg = count_window_config(wl.w, wl.s, R=wl.R, k=K, dims=wl.dims,
                              partitions=PARTITIONS)
    topo = TopologyConfig(window=cfg, algorithm=wl.algorithm,
                          partitioner=wl.partitioner, workers=1)
    return source, topo
