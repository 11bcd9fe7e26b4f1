"""Micro-cluster slide processor with pluggable neighbor-search backends.

Active points in a partition live either in a micro-cluster (a ball of
radius R/2 around a recorded center, holding at least k+1 points, whose
members are inliers by construction) or in the potential-outlier pool.
The pool keeps every non-cluster point, including safe inliers, because
later arrivals must still count them as neighbors; safe entries are
simply excluded from evaluation, the event queue, and reports.

Neighbor-search backends differ only in which index holds which points;
all are queried through the one protocol of `outstream.indexes`:

* ``full-mtree``: one metric tree over every point in the window.
* ``none``: linear scans over the pool, the cluster centers, and the
  members of every cluster (one scan for all of them).
* ``po-mtree``: a metric tree over the pool; centers and members scanned.
* ``dual-mtree``: trees over both the pool and the cluster centers.

A cluster is its center and the set of its member ids.  A point that
joins no cluster finds its member neighbors with one range query, which
`column_keys` (or the window tree) decides exactly as `within` does.

The optional event queue re-checks an unsafe inlier exactly when its
oldest alive preceding neighbor expires; enabling it changes internal
work only, never the reported outlier sets.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections import deque

from ..core import (StreamObject, WindowConfig, is_outlier, key_limit,
                    prune_nn_before, trim_nn_before, within)
from ..indexes import LinearScanIndex, MTree
from .common import PartitionOutput, SlideBatch

BACKENDS = ("full-mtree", "none", "po-mtree", "dual-mtree")
QUEUE_FLAVORS = ("none", "heap", "ordered")


class EventQueue:
    """Priority queue of (re-check tick, object id), earliest first.

    The re-check tick is the arrival timestamp of the object's oldest
    alive preceding neighbor.  ``drain`` pops every entry strictly older
    than the new window start.  The heap flavor invalidates lazily; the
    ordered flavor keeps a sorted list with exact removal.
    """

    def __init__(self, flavor: str = "heap"):
        if flavor not in ("heap", "ordered"):
            raise ValueError(f"unknown event queue flavor {flavor!r}")
        self.flavor = flavor
        self._keys: dict = {}
        self._heap: list = []
        self._sorted: list = []

    def __len__(self) -> int:
        return len(self._keys)

    def insert(self, oid, key) -> None:
        """Add or re-key an entry."""
        old = self._keys.get(oid)
        if old == key:
            return
        if self.flavor == "ordered" and old is not None:
            del self._sorted[bisect_left(self._sorted, (old, oid))]
        self._keys[oid] = key
        if self.flavor == "heap":
            heapq.heappush(self._heap, (key, oid))
        else:
            insort(self._sorted, (key, oid))

    def discard(self, oid) -> None:
        old = self._keys.pop(oid, None)
        if old is not None and self.flavor == "ordered":
            del self._sorted[bisect_left(self._sorted, (old, oid))]

    def drain(self, w_start) -> list:
        """Pop and return ids whose re-check tick precedes ``w_start``."""
        out = []
        if self.flavor == "heap":
            while self._heap and self._heap[0][0] < w_start:
                key, oid = heapq.heappop(self._heap)
                if self._keys.get(oid) == key:
                    del self._keys[oid]
                    out.append(oid)
        else:
            cut = bisect_left(self._sorted, (w_start,))
            out = [oid for _, oid in self._sorted[:cut]]
            del self._sorted[:cut]
            for oid in out:
                del self._keys[oid]
        return out


class _Cluster:
    __slots__ = ("center", "members")

    def __init__(self, center):
        self.center = tuple(center)
        self.members: set = set()   # ids; coordinates live in the indexes


def select_neighbor_backend(flavor: str) -> dict:
    """Structure plan for a backend flavor (which indexes exist)."""
    if flavor not in BACKENDS:
        raise ValueError(f"unknown backend flavor {flavor!r}; expected one of {BACKENDS}")
    return {
        "window_tree": flavor == "full-mtree",
        "pool_tree": flavor in ("po-mtree", "dual-mtree"),
        "center_tree": flavor == "dual-mtree",
    }


class MicroClusterProcessor:
    """Per-partition micro-cluster maintenance and outlier reporting."""

    def __init__(self, cfg: WindowConfig, partition: int,
                 backend: str = "none", queue: str = "none",
                 validate: bool = False):
        plan = select_neighbor_backend(backend)
        if queue not in QUEUE_FLAVORS:
            raise ValueError(f"unknown queue flavor {queue!r}; expected one of {QUEUE_FLAVORS}")
        self.cfg = cfg
        self.partition = partition
        self.backend = backend
        self.validate = validate
        self.objs: dict = {}
        self.pool: dict = {}        # non-cluster points, safe inliers included
        self.clusters: dict = {}
        self._next_cid = 0
        self._expiry: deque = deque()   # (t, id) in arrival order
        self._alive = 0                 # flag-0 objects in ``objs``
        self.window_tree = MTree(metric=cfg.metric) if plan["window_tree"] else None
        self.pool_index = (MTree(metric=cfg.metric) if plan["pool_tree"]
                           else None if plan["window_tree"]
                           else LinearScanIndex(cfg.dims, cfg.metric))
        self.center_index = (MTree(metric=cfg.metric) if plan["center_tree"]
                             else LinearScanIndex(cfg.dims, cfg.metric))
        # every cluster member; the window tree answers member queries itself
        self.member_index = (None if plan["window_tree"]
                             else LinearScanIndex(cfg.dims, cfg.metric))
        self.equeue = EventQueue(queue) if queue != "none" else None
        self._prev_outliers: set = set()
        self.counters = {"range_queries": 0}

    # -- backend query helpers ------------------------------------------------

    def _centers_within(self, value, radius) -> list:
        """(cid, comparison key) for clusters whose center is within radius."""
        self.counters["range_queries"] += 1
        return self.center_index.query_comparable(value, radius)

    def _pool_within(self, value, radius) -> list:
        """Pool points within radius."""
        self.counters["range_queries"] += 1
        if self.window_tree is None:
            return self.pool_index.query_payloads(value, radius)
        return [o for o in self.window_tree.query_payloads(value, radius)
                if o.mc_id is None]

    def _neighbors_within(self, value, radius) -> tuple:
        """(point, comparison key) pairs of the pool points within radius,
        and the cluster members within radius.

        The window tree answers both from one query, split by ``mc_id``;
        otherwise one pool query and one member-scan query do.
        """
        self.counters["range_queries"] += 1
        if self.window_tree is not None:
            pool_hits, members = [], []
            for e in self.window_tree.query_comparable(value, radius):
                if e[0].mc_id is None:
                    pool_hits.append(e)
                else:
                    members.append(e[0])
            return pool_hits, members
        return (self.pool_index.query_comparable(value, radius),
                self.member_index.query_payloads(value, radius))

    # -- structure transitions -------------------------------------------------

    def _pool_add(self, o: StreamObject) -> None:
        self.pool[o.id] = o
        if self.pool_index is not None:
            self.pool_index.add(o.id, o.value, payload=o)

    def _pool_remove(self, oid) -> None:
        del self.pool[oid]
        if self.pool_index is not None:
            self.pool_index.remove(oid)
        if self.equeue is not None:
            self.equeue.discard(oid)

    def _join(self, cid: int, o: StreamObject) -> None:
        if o.id in self.pool:
            self._pool_remove(o.id)
        o.mc_id = cid
        self.clusters[cid].members.add(o.id)
        if self.member_index is not None:
            self.member_index.add(o.id, o.value, payload=o)

    def _form_cluster(self, o: StreamObject, close: list) -> None:
        cid = self._next_cid
        self._next_cid += 1
        cluster = _Cluster(o.value)
        self.clusters[cid] = cluster
        self.center_index.add(cid, cluster.center)
        self._join(cid, o)
        for r in close:
            self._join(cid, r)

    # -- the arrival / re-processing pipeline ----------------------------------

    def _place(self, o: StreamObject, touched: set | None,
               update_neighbors: bool) -> bool:
        """Route one point through the cluster/pool pipeline.

        Returns True when the point ends up in the pool.  With
        ``update_neighbors`` unset (dissolved members re-entering) the
        point's own metadata is recomputed but no other object's counters
        move: its earlier arrival already counted it everywhere.  Ids of
        the unsafe pool points whose counters moved go to ``touched``
        unless it is None.

        The center query at R/2 returns the clusters the point may join;
        it joins the one with the nearest center.  A point that joins none
        gets its pool and member neighbors from `_neighbors_within`, and
        the pool query's keys decide the R/2 neighborhood for cluster
        formation; (a-b)**2 == (b-a)**2 in IEEE arithmetic, so this equals
        `within` on every pair.
        """
        cfg = self.cfg
        half = cfg.R / 2
        half_key = key_limit(half, cfg.metric)
        cand = self._centers_within(o.value, half)
        if cand:
            best = min(cand, key=lambda e: (e[1], e[0]))
            if update_neighbors:
                self._count_arrival(self._pool_within(o.value, cfg.R), touched, cfg.k)
            self._join(best[0], o)
            return False

        pool_hits, members = self._neighbors_within(o.value, cfg.R)
        others = [c for c, _ in pool_hits if c is not o]
        if update_neighbors:
            self._count_arrival(others, touched, cfg.k)
        own_slide_start = (o.t // cfg.S) * cfg.S
        ts = [c.t for c in others] + [c.t for c in members]
        before = [t for t in ts if t < own_slide_start]
        o.count_after = len(ts) - len(before)
        o.nn_before = trim_nn_before(before, cfg.k)

        close = [c for c, key in pool_hits if key <= half_key and c is not o]
        if len(close) >= cfg.k:
            self._form_cluster(o, close)
            return False
        if o.id not in self.pool:
            self._pool_add(o)
        return True

    @staticmethod
    def _count_arrival(pool_hits: list, touched: set | None, k: int) -> None:
        """Count an arrival as a succeeding neighbor of each of its pool hits.

        A fresh arrival is never in the pool itself, so every hit counts.
        Only hits that were unsafe before this count go to ``touched``: a
        safe inlier is never in the event queue, so it needs no re-check.
        """
        if touched is None:
            for c in pool_hits:
                c.count_after += 1
            return
        for c in pool_hits:
            c.count_after += 1
            if c.count_after <= k:
                touched.add(c.id)

    # -- slide step --------------------------------------------------------------

    def process_slide(self, batch: SlideBatch) -> PartitionOutput:
        cfg = self.cfg
        drained = self.equeue.drain(batch.expiry) if self.equeue is not None else []

        shrunk = set()
        while self._expiry and self._expiry[0][0] < batch.expiry:
            _, oid = self._expiry.popleft()
            o = self.objs.pop(oid)
            if o.flag == 0:
                self._alive -= 1
            if o.mc_id is not None:
                self.clusters[o.mc_id].members.remove(oid)
                if self.member_index is not None:
                    self.member_index.remove(oid)
                shrunk.add(o.mc_id)
            else:
                self._pool_remove(oid)
            if self.window_tree is not None:
                self.window_tree.remove(oid)

        dissolved: list = []
        for cid in sorted(shrunk):
            cluster = self.clusters[cid]
            if len(cluster.members) >= cfg.k + 1:
                continue
            del self.clusters[cid]
            self.center_index.remove(cid)
            for oid in cluster.members:
                o = self.objs[oid]
                o.mc_id = None
                if self.member_index is not None:
                    self.member_index.remove(oid)
                self._pool_add(o)
                dissolved.append(o)
        dissolved.sort(key=lambda o: (o.t, o.id))

        touched = set() if self.equeue is not None else None
        fresh_pool: list = []
        for o in batch.arrivals:
            in_pool = self._place(o, touched, update_neighbors=True)
            self.objs[o.id] = o
            if o.flag == 0:
                self._alive += 1
            self._expiry.append((o.t, o.id))
            if self.window_tree is not None:
                self.window_tree.add(o.id, o.value, payload=o)
            if in_pool and o.flag == 0:
                fresh_pool.append(o.id)

        for o in dissolved:
            if o.id not in self.pool:
                continue   # absorbed into a cluster formed earlier this slide
            if self._place(o, touched, update_neighbors=False) and o.flag == 0:
                fresh_pool.append(o.id)

        outliers = set()
        if self.equeue is None:
            for oid, o in self.pool.items():
                if o.flag != 0 or o.count_after >= cfg.k:
                    continue
                if is_outlier(o, batch.expiry, cfg.k):
                    outliers.add(oid)
        else:
            check = set(drained)
            check.update(self._prev_outliers)
            check.update(fresh_pool)
            check.update(touched)
            for oid in check:
                o = self.pool.get(oid)
                if o is None or o.flag != 0:
                    continue
                if o.count_after >= cfg.k:
                    self.equeue.discard(oid)
                    continue
                # `is_outlier`, keeping the pruned list for the re-check key
                alive_prec = prune_nn_before(o.nn_before, batch.expiry)
                if o.count_after + len(alive_prec) < cfg.k:
                    outliers.add(oid)
                    self.equeue.discard(oid)
                else:
                    self.equeue.insert(oid, alive_prec[0])
            self._prev_outliers = set(outliers)

        if self.validate:
            self._check_invariants(batch)
        return PartitionOutput(outliers=outliers, alive=self._alive,
                               counters=dict(self.counters))

    # -- invariants (validation mode) ---------------------------------------------

    def _check_invariants(self, batch: SlideBatch) -> None:
        cfg = self.cfg
        half = cfg.R / 2
        member_ids = set()
        for cid, cluster in self.clusters.items():
            ids = cluster.members
            assert len(ids) >= cfg.k + 1, f"cluster {cid} below k+1 members"
            for oid in ids:
                o = self.objs[oid]
                assert o.mc_id == cid, "member/cluster id mismatch"
                assert within(o.value, cluster.center, half, cfg.metric), \
                    f"member {oid} outside R/2 of cluster {cid} center"
            member_ids.update(ids)
        pool_ids = set(self.pool)
        assert not (member_ids & pool_ids), "pool and clusters overlap"
        assert member_ids | pool_ids == set(self.objs), \
            "clusters plus pool do not cover the active points"
        for name, index, ids in (("member scan", self.member_index, member_ids),
                                 ("pool index", self.pool_index, pool_ids)):
            if index is not None:
                assert len(index) == len(ids) and all(oid in index for oid in ids), \
                    f"{name} out of step with its points"
        assert self._alive == sum(1 for o in self.objs.values() if o.flag == 0), \
            "running alive count out of step"
