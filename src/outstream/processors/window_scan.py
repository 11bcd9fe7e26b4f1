"""Scan-and-count slide processors plus the meta-window aggregator.

One processor class covers three of the algorithm variants.  Every
partition keeps its window in a `outstream.indexes.LinearScanIndex`.  In
arrival order, each arrival queries it for its neighbours among the window
and the slide's earlier arrivals, is stored in it, and updates the
metadata; ``counters["range_queries"]`` counts one query per arrival.  The
variants differ in one knob, ``replicated``: full replication (every
partition sees every arrival, replicas are evicted after their slide,
results need the meta-window merge) versus value routing (replicas live
out their natural lifetime, each partition reports its owned outliers
directly).

The single-partition value-routed configuration is the baseline and
replicated is the naive parallel solution; advanced is value-routed under
grid and VP-tree routing and replicated under random routing.
"""

from __future__ import annotations

from collections import deque

from ..core import (WindowConfig, WindowInterval, is_outlier,
                    is_safe_inlier, prune_nn_before, trim_nn_before)
from ..indexes import LinearScanIndex
from .common import LocalMeta, PartitionOutput, SlideBatch, apply_arrival


class WindowScanProcessor:
    """Per-partition sliding window with per-arrival neighbor accounting."""

    def __init__(self, cfg: WindowConfig, partition: int, replicated: bool = False):
        self.cfg = cfg
        self.partition = partition
        self.replicated = replicated
        self.objs: dict = {}
        self.index = LinearScanIndex(cfg.dims, cfg.metric)
        self._expiry_queue: deque = deque()   # (t, id) of objects that expire by time
        self._po: set = set()                 # flag-0 ids not yet safe
        self._alive = 0                       # flag-0 objects in ``objs``
        self.counters = {"range_queries": 0}

    # -- helpers -------------------------------------------------------------

    def _drop(self, oid) -> None:
        if self.objs.pop(oid).flag == 0:
            self._alive -= 1
        self.index.remove(oid)
        self._po.discard(oid)

    # -- slide step ----------------------------------------------------------

    def process_slide(self, batch: SlideBatch) -> PartitionOutput:
        cfg = self.cfg
        while self._expiry_queue and self._expiry_queue[0][0] < batch.expiry:
            self._drop(self._expiry_queue.popleft()[1])

        index = self.index
        self.counters["range_queries"] += len(batch.arrivals)
        for o in batch.arrivals:
            neighbors = index.query_payloads(o.value, cfg.R)
            index.add(o.id, o.value, o)
            apply_arrival(o, neighbors, batch.slide_start, cfg.k, self.replicated)
            self.objs[o.id] = o
            if o.flag == 0 or not self.replicated:
                self._expiry_queue.append((o.t, o.id))
            if o.flag == 0:
                self._po.add(o.id)
                self._alive += 1

        if self.replicated:
            forwards = [LocalMeta(o.id, o.partition, o.t, o.flag,
                                  o.count_after, tuple(o.nn_before))
                        for o in self.objs.values() if o.count_after < cfg.k]
            for o in batch.arrivals:
                if o.flag:
                    self._drop(o.id)
            return PartitionOutput(forwards=forwards, alive=self._alive,
                                   counters=dict(self.counters))

        outliers = set()
        for oid in list(self._po):
            o = self.objs[oid]
            if is_safe_inlier(o, cfg.k):
                self._po.discard(oid)
            elif is_outlier(o, batch.expiry, cfg.k):
                outliers.add(oid)
        return PartitionOutput(outliers=outliers, alive=self._alive,
                               counters=dict(self.counters))


class MetaWindow:
    """Tumbling aggregator that merges per-partition metadata each slide.

    Holds the merged global metadata of every non-safe owned object: the
    preceding-neighbor list is fused from all partitions at arrival time
    (replicas only ever see an object during its arrival slide), while the
    succeeding-neighbor count is refreshed every slide from the owner copy,
    which observes every later arrival under full replication.  An object
    whose owner stops forwarding it has expired or become a safe inlier
    and is dropped.
    """

    def __init__(self, cfg: WindowConfig):
        self.cfg = cfg
        self._entries: dict = {}   # id -> [t, count_after, nn_before tuple]

    def merge_slide(self, interval: WindowInterval,
                    forwards_by_partition: list) -> set:
        if len(forwards_by_partition) != self.cfg.partitions:
            raise RuntimeError(
                f"meta-window barrier violated at slide {interval.slide_index}: "
                f"{len(forwards_by_partition)} of {self.cfg.partitions} partitions reported")
        cfg = self.cfg
        w_start = interval.start
        groups: dict = {}
        for part in forwards_by_partition:
            for rec in part:
                groups.setdefault(rec.id, []).append(rec)

        refreshed = set()
        for oid, recs in groups.items():
            owner_rec = next((r for r in recs if r.flag == 0), None)
            if owner_rec is None:
                continue   # already safe at its owner, never becomes an outlier
            refreshed.add(oid)
            entry = self._entries.get(oid)
            if entry is None:
                merged = []
                total = 0
                for r in recs:
                    merged.extend(r.nn_before)
                    total += r.count_after
                self._entries[oid] = [owner_rec.t, total,
                                      tuple(trim_nn_before(merged, cfg.k))]
            else:
                entry[1] = owner_rec.count_after

        stale = [oid for oid in self._entries if oid not in refreshed]
        for oid in stale:
            del self._entries[oid]

        outliers = set()
        for oid, (t, count_after, nn_before) in self._entries.items():
            if count_after + len(prune_nn_before(nn_before, w_start)) < cfg.k:
                outliers.add(oid)
        return outliers
