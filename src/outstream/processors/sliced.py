"""Time-sliced slide processor: one linear-scan store per alive slide.

In arrival order, every arrival queries its own slide's store for the
same-slide neighbors that arrived earlier, is stored there, counts those
and walks preceding slides newest-first, stopping as soon as k neighbors
are known (minimal probing); backward and forward probes are
single-centre queries.  Neighbor counts per preceding slide live in the
object's ``evil`` map; counts from the object's own and succeeding slides
live in ``count_after``.  Succeeding-slide knowledge can be partial: newcomers
probing backwards report themselves to the residents they find, and a
resident that later drops below k extends forward one slide at a time,
replacing the partial tally of each newly searched slide with the exact
one.  Preceding slides that were never probed are always older than every
alive slide by the time they could matter, so backward knowledge is
complete for alive data.  Each slide store carries the object's
`_SliceRec` as its payload, so a hit reaches its object and tallies
without a further lookup.
"""

from __future__ import annotations

from ..core import StreamObject, WindowConfig
from ..indexes import LinearScanIndex
from .common import PartitionOutput, SlideBatch


class _SliceRec:
    __slots__ = ("obj", "succ", "frontier")

    def __init__(self, obj: StreamObject, frontier: int):
        self.obj = obj
        self.succ = {}          # succeeding slide -> tally folded into count_after
        self.frontier = frontier  # newest slide whose tally is exact


class SlicedWindowProcessor:
    """Per-partition sliding window split into per-slide scan stores."""

    def __init__(self, cfg: WindowConfig, partition: int):
        self.cfg = cfg
        self.partition = partition
        self.stores: dict = {}      # slide index -> LinearScanIndex
        self.objs: dict = {}        # id -> _SliceRec
        self.triggers: dict = {}    # slide index -> ids that counted neighbors there
        self.unresolved: set = set()
        self.counters = {"backward_probes": 0, "forward_probes": 0}

    def _status(self, o: StreamObject, oldest_alive: int) -> int:
        extra = 0
        for j, cnt in o.evil.items():
            if j >= oldest_alive:
                extra += cnt
        return o.count_after + extra

    def process_slide(self, batch: SlideBatch) -> PartitionOutput:
        cfg = self.cfg
        u = batch.interval.slide_index
        oldest_alive = u - cfg.slides_per_window + 1
        expiring = u - cfg.slides_per_window

        candidates = set(self.unresolved)
        if expiring in self.stores:
            for oid in self.stores.pop(expiring).ids():
                del self.objs[oid]
                self.unresolved.discard(oid)
                candidates.discard(oid)
            for oid in self.triggers.pop(expiring, ()):
                rec = self.objs.get(oid)
                if rec is not None:
                    rec.obj.evil.pop(expiring, None)
                    if rec.obj.flag == 0:
                        candidates.add(oid)

        store = LinearScanIndex(cfg.dims, cfg.metric)
        self.stores[u] = store
        for o in batch.arrivals:
            rec = _SliceRec(o, frontier=u)
            found = store.query_payloads(o.value, cfg.R)
            store.add(o.id, o.value, rec)
            o.evil = {}
            for nrec in found:
                nrec.obj.count_after += 1   # same-slide neighbors count both ways
            o.count_after += len(found)
            if o.flag == 0:
                st = o.count_after
                j = u - 1
                while st < cfg.k and j in self.stores:
                    hits = self.stores[j].query_payloads(o.value, cfg.R)
                    self.counters["backward_probes"] += 1
                    if hits:
                        o.evil[j] = len(hits)
                        self.triggers.setdefault(j, []).append(o.id)
                        for nrec in hits:
                            nrec.obj.count_after += 1
                            nrec.succ[u] = nrec.succ.get(u, 0) + 1
                        st += len(hits)
                    j -= 1
            self.objs[o.id] = rec

        for oid in candidates:
            rec = self.objs[oid]     # expired ids already left the candidates
            o = rec.obj
            if o.flag != 0 or o.count_after >= cfg.k:
                continue
            st = self._status(o, oldest_alive)
            while st < cfg.k and rec.frontier < u:
                f = rec.frontier + 1
                full = len(self.stores[f].query_ids(o.value, cfg.R))
                self.counters["forward_probes"] += 1
                gain = full - rec.succ.get(f, 0)
                o.count_after += gain
                st += gain
                rec.succ[f] = full
                rec.frontier = f

        outliers = set()
        unresolved = set()
        alive = 0
        for oid, rec in self.objs.items():
            o = rec.obj
            if o.flag != 0:
                continue
            alive += 1
            if o.count_after >= cfg.k:
                continue
            if self._status(o, oldest_alive) < cfg.k:
                outliers.add(oid)
                unresolved.add(oid)
        self.unresolved = unresolved
        return PartitionOutput(outliers=outliers, alive=alive,
                               counters=dict(self.counters))
