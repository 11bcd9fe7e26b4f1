"""Metric-space indexes: linear-scan reference, M-tree, and VP-tree.

All indexes answer the same closed-ball range query and must return the
same id sets; the linear scan is the reference implementation the other
two are tested against.  Tree pruning bounds carry a tiny conservative
slop so floating-point rounding of triangle-inequality arithmetic can
only widen a search, never drop a qualifying point; membership itself is
decided by the exact shared predicate from `outstream.core`.

`LinearScanIndex` and `MTree` share one protocol: ``add(oid, value,
payload=None)`` (the payload defaults to the id), ``remove(oid)``, and the
range queries ``query_ids``, ``query_payloads`` and ``query_comparable``,
whose (payload, key) pairs carry `sqdist` (euclidean) or `manhattan` bit
for bit, so a key compared with `key_limit` decides as `within` does.  A
point or centre of another dimensionality raises ``ValueError``; the
M-tree takes its dimensionality from its first point.  Neither promises
an order of hits: the scan returns them in slot order, and ``remove``
moves the last stored point into the freed slot; the M-tree returns them
in tree order.  The pure-Python M-tree lost to the scan on every stream
measured, so it serves only pMCOD's tree backends.

The linear scan stores coordinates column-major and answers every query
with `outstream.core.column_keys`: column sums, left to right, at any d,
so its keys equal `sqdist` and `manhattan` and its decisions equal
`within`, bit for bit.  The VP-tree's build distances come from the same
kernel, square-rooted for the euclidean metric.

The trees store coordinates as tuples of Python floats and convert query
centres the same way: `float` of a ``numpy.float64`` is exact, so this
changes no distance or decision, it only keeps the pure-Python kernels off
the slower numpy scalar arithmetic.
"""

from __future__ import annotations

import numpy as np

from .core import column_keys, distance, key_limit, manhattan, sqdist, within

# Pruning tolerance (conservative side only, see module docstring).
_SLOP = 1e-9


def _as_point(value, dims) -> tuple:
    """``value`` as a tuple of Python floats, checked against ``dims``."""
    point = tuple(map(float, value))
    if len(point) != dims:
        raise ValueError(f"dimensionality mismatch: {len(point)} vs {dims}")
    return point


class LinearScanIndex:
    """Dense column-major store of the live points, with vectorized range queries.

    Coordinates are kept as ``dims x capacity`` so that every query is one
    `column_keys` pass, one dimension at a time, over the first ``_n``
    columns.  ``remove`` moves the last point into the freed slot.
    """

    def __init__(self, dims: int, metric: str = "euclidean"):
        self.dims = dims
        self.metric = metric
        self._cols = np.empty((dims, 32), dtype=np.float64)
        self._ids: list = []
        self._payloads: list = []
        self._slot_of: dict = {}
        self._n = 0          # points stored = columns in use

    def __len__(self) -> int:
        return self._n

    def __contains__(self, oid) -> bool:
        return oid in self._slot_of

    def add(self, oid, value, payload=None) -> None:
        if oid in self._slot_of:
            raise ValueError(f"id {oid!r} already present")
        if len(value) != self.dims:
            raise ValueError(f"dimensionality mismatch: {len(value)} vs {self.dims}")
        if self._n == self._cols.shape[1]:
            self._grow()
        self._cols[:, self._n] = value
        self._ids.append(oid)
        self._payloads.append(oid if payload is None else payload)
        self._slot_of[oid] = self._n
        self._n += 1

    def remove(self, oid) -> None:
        slot = self._slot_of.pop(oid, None)
        if slot is None:
            raise ValueError(f"id {oid!r} not present")
        self._n -= 1
        moved, payload = self._ids.pop(), self._payloads.pop()
        if slot < self._n:
            self._cols[:, slot] = self._cols[:, self._n]
            self._ids[slot] = moved
            self._payloads[slot] = payload
            self._slot_of[moved] = slot

    def ids(self) -> list:
        return list(self._ids)

    def _grow(self):
        cols = np.empty((self.dims, 2 * self._cols.shape[1]), dtype=np.float64)
        cols[:, : self._n] = self._cols[:, : self._n]
        self._cols = cols

    def _hits(self, center, radius) -> tuple:
        """Slots within ``radius`` of ``center`` (ascending), and all keys."""
        keys = column_keys(self._cols[:, : self._n], center, self.metric)
        return (keys <= key_limit(radius, self.metric)).nonzero()[0], keys

    def query_ids(self, center, radius) -> list:
        """Ids of stored points within ``radius`` of ``center`` (slot order)."""
        ids = self._ids
        return [ids[s] for s in self._hits(center, radius)[0].tolist()]

    def query_payloads(self, center, radius) -> list:
        payloads = self._payloads
        return [payloads[s] for s in self._hits(center, radius)[0].tolist()]

    def query_comparable(self, center, radius) -> list:
        """(payload, comparison key) pairs for hits, in slot order."""
        slots, keys = self._hits(center, radius)
        payloads = self._payloads
        return list(zip([payloads[s] for s in slots.tolist()], keys[slots].tolist()))


# ---------------------------------------------------------------------------
# M-tree
# ---------------------------------------------------------------------------

class _MNode:
    __slots__ = ("leaf", "parent", "ids", "points", "radii", "children", "pdists")

    def __init__(self, leaf: bool, parent=None):
        self.leaf = leaf
        self.parent = parent
        self.ids = []        # leaf only
        self.points = []     # leaf: points; internal: routing pivots
        self.radii = []      # internal only: covering radii
        self.children = []   # internal only
        self.pdists = []     # distance of each entry to this node's parent pivot


class MTree:
    """Dynamic metric tree supporting insert, remove, and range queries.

    Promotion picks the two entries with maximum pairwise distance among a
    bounded candidate sample; the split assigns each entry to the nearer
    promoted pivot (generalized hyperplane).  Removal only forgets: a
    node left empty is unlinked from its parent, level by level up the
    tree, and a root left with a single internal child collapses into it.
    Covering radii never shrink, so every pruning bound stays valid.
    """

    def __init__(self, metric: str = "euclidean", capacity: int = 25):
        if capacity < 4:
            raise ValueError("capacity must be at least 4")
        self.metric = metric
        self.capacity = capacity
        self.dims = None     # set by the first point
        self._root = _MNode(leaf=True)
        self._leaf_of: dict = {}
        self._payload_of: dict = {}
        self._point_of: dict = {}

    def __len__(self) -> int:
        return len(self._leaf_of)

    def __contains__(self, oid) -> bool:
        return oid in self._leaf_of

    def _dist(self, a, b) -> float:
        return distance(a, b, self.metric)

    # -- insertion ----------------------------------------------------------

    def add(self, oid, value, payload=None) -> None:
        if oid in self._leaf_of:
            raise ValueError(f"id {oid!r} already present")
        if self.dims is None:
            self.dims = len(value)
        value = _as_point(value, self.dims)
        self._payload_of[oid] = oid if payload is None else payload
        self._point_of[oid] = value
        node, pdist = self._root, 0.0
        while not node.leaf:
            dists = [self._dist(value, p) for p in node.points]
            fitting = [i for i, d in enumerate(dists) if d <= node.radii[i]]
            if fitting:
                best = min(fitting, key=lambda i: dists[i])
            else:
                best = min(range(len(dists)), key=lambda i: dists[i] - node.radii[i])
                node.radii[best] = dists[best]
            node, pdist = node.children[best], dists[best]
        node.ids.append(oid)
        node.points.append(value)
        node.pdists.append(pdist)
        self._leaf_of[oid] = node
        if len(node.points) > self.capacity:
            self._split(node)

    def _promote(self, points) -> tuple:
        n = len(points)
        cand = range(n) if n <= 16 else [int(i) for i in np.linspace(0, n - 1, 16)]
        best, pair = -1.0, (0, min(1, n - 1))
        for ai, a in enumerate(cand):
            for b in list(cand)[ai + 1:]:
                d = self._dist(points[a], points[b])
                if d > best:
                    best, pair = d, (a, b)
        return pair

    def _split(self, node: _MNode) -> None:
        i1, i2 = self._promote(node.points)
        p1, p2 = node.points[i1], node.points[i2]
        g1, g2 = [], []
        for i, pt in enumerate(node.points):
            d1, d2 = self._dist(pt, p1), self._dist(pt, p2)
            if i == i2 or (i != i1 and d2 < d1):
                g2.append((i, d2))
            else:
                g1.append((i, d1))

        def make(group, pivot):
            child = _MNode(leaf=node.leaf, parent=node.parent)
            radius = 0.0
            for i, d in group:
                child.points.append(node.points[i])
                child.pdists.append(d)
                if node.leaf:
                    child.ids.append(node.ids[i])
                    self._leaf_of[node.ids[i]] = child
                    radius = max(radius, d)
                else:
                    child.radii.append(node.radii[i])
                    child.children.append(node.children[i])
                    node.children[i].parent = child
                    radius = max(radius, d + node.radii[i])
            return child, pivot, radius

        c1, p1, r1 = make(g1, p1)
        c2, p2, r2 = make(g2, p2)
        parent = node.parent
        if parent is None:
            root = _MNode(leaf=False)
            root.points = [p1, p2]
            root.radii = [r1, r2]
            root.children = [c1, c2]
            root.pdists = [0.0, 0.0]
            c1.parent = c2.parent = root
            self._root = root
            return
        idx = parent.children.index(node)
        gp_pivot = None
        if parent.parent is not None:
            gidx = parent.parent.children.index(parent)
            gp_pivot = parent.parent.points[gidx]
        parent.points[idx] = p1
        parent.radii[idx] = r1
        parent.children[idx] = c1
        parent.pdists[idx] = self._dist(p1, gp_pivot) if gp_pivot is not None else 0.0
        parent.points.append(p2)
        parent.radii.append(r2)
        parent.children.append(c2)
        parent.pdists.append(self._dist(p2, gp_pivot) if gp_pivot is not None else 0.0)
        c1.parent = c2.parent = parent
        if len(parent.points) > self.capacity:
            self._split(parent)

    # -- removal ------------------------------------------------------------

    def remove(self, oid) -> None:
        node = self._leaf_of.pop(oid, None)
        if node is None:
            raise ValueError(f"id {oid!r} not present")
        del self._payload_of[oid]
        del self._point_of[oid]
        i = node.ids.index(oid)
        node.ids.pop(i)
        node.points.pop(i)
        node.pdists.pop(i)
        while not node.points and node.parent is not None:
            parent = node.parent
            i = parent.children.index(node)
            parent.points.pop(i)
            parent.radii.pop(i)
            parent.children.pop(i)
            parent.pdists.pop(i)
            node = parent
        root = self._root
        if not root.points:
            self._root = _MNode(leaf=True)
        elif len(root.children) == 1 and not root.children[0].leaf:
            self._root = root.children[0]
            self._root.parent = None
            self._root.pdists = [0.0] * len(self._root.points)

    # -- queries ------------------------------------------------------------

    def query_ids(self, center, radius) -> list:
        """Ids of stored points within ``radius`` of ``center`` (tree order)."""
        out: list = []
        if self._leaf_of:
            self._search(self._root, _as_point(center, self.dims), float(radius), None, out)
        return out

    def query_payloads(self, center, radius) -> list:
        payload_of = self._payload_of
        return [payload_of[i] for i in self.query_ids(center, radius)]

    def query_comparable(self, center, radius) -> list:
        """(payload, comparison key) pairs for hits, in tree order."""
        hits = self.query_ids(center, radius)
        center = tuple(map(float, center))
        key = sqdist if self.metric == "euclidean" else manhattan
        payload_of, point_of = self._payload_of, self._point_of
        return [(payload_of[i], key(center, point_of[i])) for i in hits]

    def _search(self, node, center, radius, d_parent, out) -> None:
        if node.leaf:
            for i, pt in enumerate(node.points):
                if d_parent is not None and abs(d_parent - node.pdists[i]) > radius + _SLOP:
                    continue
                if within(pt, center, radius, self.metric):
                    out.append(node.ids[i])
            return
        for i, pivot in enumerate(node.points):
            bound = radius + node.radii[i] + _SLOP
            if d_parent is not None and abs(d_parent - node.pdists[i]) > bound:
                continue
            d = self._dist(center, pivot)
            if d <= bound:
                self._search(node.children[i], center, radius, d, out)

    # -- introspection (tests) ----------------------------------------------

    def check_invariants(self) -> None:
        """Verify covering radii (pointwise) and leaf membership bookkeeping."""
        seen = set()

        def collect(node) -> list:
            if node.leaf:
                for oid in node.ids:
                    assert self._leaf_of[oid] is node
                    seen.add(oid)
                return list(node.points)
            pts = []
            for i, child in enumerate(node.children):
                sub = collect(child)
                for pt in sub:
                    d = self._dist(pt, node.points[i])
                    assert d <= node.radii[i] + 1e-9 + 1e-12 * d, "covering radius violated"
                pts.extend(sub)
            return pts

        collect(self._root)
        assert seen == set(self._leaf_of), "leaf map out of sync"


# ---------------------------------------------------------------------------
# VP-tree
# ---------------------------------------------------------------------------

class _VPNode:
    __slots__ = ("vantage", "threshold", "inside", "outside", "ids", "points", "level")

    def __init__(self, level: int):
        self.vantage = None
        self.threshold = 0.0
        self.inside = None
        self.outside = None
        self.ids = None
        self.points = None
        self.level = level

    @property
    def is_leaf(self) -> bool:
        return self.inside is None


class VPTree:
    """Bulk-built vantage-point tree over a fixed sample.

    Vantage points are drawn with a seeded generator from the node's own
    points; the split threshold is the lower median distance and ties go
    to the inside child, so every split is non-trivial on distinct data.
    Points are only stored at the leaves; internal nodes route.
    """

    def __init__(self, points, ids=None, metric: str = "euclidean", seed: int = 0):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if len(pts) == 0:
            raise ValueError("cannot build a VP-tree from an empty sample")
        self.metric = metric
        self._points = pts
        self._ids = list(range(len(pts))) if ids is None else list(ids)
        rng = np.random.default_rng(seed)
        self.root = self._build(np.arange(len(pts)), rng, 0)
        self.depth = self._max_level(self.root)

    def __len__(self) -> int:
        return len(self._points)

    def _dists(self, idx: np.ndarray, vantage: np.ndarray) -> np.ndarray:
        keys = column_keys(self._points[idx].T, vantage, self.metric)
        return np.sqrt(keys, out=keys) if self.metric == "euclidean" else keys

    def _rows(self, idx: np.ndarray) -> list:
        return [tuple(row) for row in self._points[idx].tolist()]

    def _build(self, idx: np.ndarray, rng, level: int) -> _VPNode:
        node = _VPNode(level)
        if len(idx) == 1:
            node.ids = [self._ids[idx[0]]]
            node.points = self._rows(idx)
            return node
        vi = idx[rng.integers(len(idx))]
        vantage = self._points[vi]
        d = self._dists(idx, vantage)
        thr = float(np.partition(d, (len(d) - 1) // 2)[(len(d) - 1) // 2])
        inside = idx[d <= thr]
        outside = idx[d > thr]
        if len(outside) == 0:     # duplicate-heavy node, cannot split further
            node.ids = [self._ids[i] for i in idx]
            node.points = self._rows(idx)
            return node
        node.vantage = tuple(vantage.tolist())
        node.threshold = thr
        node.inside = self._build(inside, rng, level + 1)
        node.outside = self._build(outside, rng, level + 1)
        return node

    def _max_level(self, node) -> int:
        if node.is_leaf:
            return node.level
        return max(self._max_level(node.inside), self._max_level(node.outside))

    def query_ids(self, center, radius) -> list:
        c = _as_point(center, self._points.shape[1])
        radius = float(radius)
        out: list = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for oid, pt in zip(node.ids, node.points):
                    if within(pt, c, radius, self.metric):
                        out.append(oid)
                continue
            d = distance(c, node.vantage, self.metric)
            if d > node.threshold - radius - _SLOP:
                stack.append(node.outside)
            if d <= node.threshold + radius + _SLOP:
                stack.append(node.inside)
        return out

    def nodes_at_level(self, level: int) -> list:
        """The ``2**level`` subtrees at ``level``, left to right (inside first).

        Raises:
            ValueError: if any branch bottoms out above ``level``.
        """
        if level < 0:
            raise ValueError("level must be >= 0")
        nodes = [self.root]
        for _ in range(level):
            nxt = []
            for node in nodes:
                if node.is_leaf:
                    raise ValueError(
                        f"tree too shallow for level {level}; grow the build sample")
                nxt.append(node.inside)
                nxt.append(node.outside)
            nodes = nxt
        return nodes

    def leaf_ids(self, node=None) -> list:
        """All point ids stored under ``node`` (default: whole tree)."""
        node = node or self.root
        if node.is_leaf:
            return list(node.ids)
        return self.leaf_ids(node.inside) + self.leaf_ids(node.outside)


def range_query(index, center, radius) -> set:
    """Uniform closed-ball range query over any of the three index types."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return set(index.query_ids(center, radius))
