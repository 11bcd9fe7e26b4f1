import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outstream import LinearScanIndex, MTree, VPTree, range_query
from outstream.core import column_keys, distance, key_limit, manhattan, sqdist, within


def fill(index, points, payload=False):
    for i, p in enumerate(points):
        if payload:
            index.add(i, tuple(p), payload=i)
        else:
            index.add(i, tuple(p))
    return index


def mtree_nodes(tree):
    stack, count = [tree._root], 0
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


class TestLinearScan:
    def test_basic_range(self):
        idx = fill(LinearScanIndex(1), [(0.0,), (0.4,), (0.9,)])
        assert range_query(idx, (0.0,), 0.45) == {0, 1}

    def test_duplicate_id_rejected(self):
        idx = fill(LinearScanIndex(1), [(0.0,)])
        with pytest.raises(ValueError):
            idx.add(0, (1.0,))

    def test_remove_absent_rejected(self):
        with pytest.raises(ValueError):
            LinearScanIndex(1).remove(7)

    @pytest.mark.parametrize("point", [(1.0,), (1.0, 2.0, 3.0)])
    def test_point_of_another_dimensionality_rejected(self, point):
        idx = LinearScanIndex(2)
        with pytest.raises(ValueError, match="dimensionality"):
            idx.add(5, point)
        assert len(idx) == 0 and idx.query_ids((1.0, 1.0), 10.0) == []

    def test_centre_dimensionality_mismatch_rejected(self):
        for idx in (LinearScanIndex(2), fill(LinearScanIndex(2), [(0.0, 0.0)])):
            for query in (idx.query_ids, idx.query_payloads, idx.query_comparable):
                for center in ((0.0,), (0.0, 0.0, 0.0)):
                    with pytest.raises(ValueError, match="dimensionality"):
                        query(center, 1.0)

    def test_compaction_keeps_survivors(self):
        idx = LinearScanIndex(1)
        for i in range(500):
            idx.add(i, (float(i),))
        for i in range(0, 500, 2):
            idx.remove(i)
        assert len(idx) == 250
        assert range_query(idx, (100.0,), 4.0) == {97, 99, 101, 103}


class TestMTree:
    def test_insert_then_range(self):
        tree = fill(MTree(), [(0.0,), (1.0,), (2.0,), (5.0,)])
        assert range_query(tree, (1.0,), 1.0) == {0, 1, 2}

    def test_empty_tree(self):
        assert range_query(MTree(), (3.0,), 100.0) == set()

    def test_centre_dimensionality_mismatch_rejected(self):
        tree = fill(MTree(), [(0.0, 0.0), (0.0, 5.0), (3.0, 9.0)])
        for query in (tree.query_ids, tree.query_payloads, tree.query_comparable):
            for center in ((0.0,), (0.0, 0.0, 0.0)):
                with pytest.raises(ValueError, match="dimensionality"):
                    query(center, 1.0)

    @pytest.mark.parametrize("point", [(1.0,), (1.0, 2.0, 3.0)])
    def test_point_of_another_dimensionality_rejected(self, point):
        tree = fill(MTree(), [(0.0, 0.0), (0.0, 5.0)])
        with pytest.raises(ValueError, match="dimensionality"):
            tree.add(5, point)
        assert 5 not in tree and len(tree) == 2
        assert sorted(tree.query_payloads((0.0, 0.0), 10.0)) == [0, 1]
        tree.check_invariants()

    def test_random_points_match_linear_scan(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(0, 1, size=(200, 2))
        tree = fill(MTree(capacity=8), pts)
        ref = fill(LinearScanIndex(2), pts)
        for q in rng.normal(0, 1, size=(50, 2)):
            for r in (0.05, 0.3, 1.0):
                assert range_query(tree, tuple(q), r) == range_query(ref, tuple(q), r)
        tree.check_invariants()

    def test_remove_basic(self):
        tree = fill(MTree(), [(0.0,), (1.0,), (2.0,)])
        tree.remove(1)
        assert range_query(tree, (1.0,), 0.5) == set()

    def test_repeated_insert_remove_is_clean(self):
        tree = MTree(capacity=4)
        for _ in range(10):
            tree.add(42, (3.0,))
            tree.remove(42)
        assert range_query(tree, (3.0,), 10.0) == set()
        tree.add(42, (3.0,))
        assert range_query(tree, (3.0,), 0.0) == {42}

    def test_remove_absent_rejected(self):
        with pytest.raises(ValueError):
            MTree().remove(5)

    def test_duplicate_id_rejected(self):
        tree = fill(MTree(), [(0.0,)])
        with pytest.raises(ValueError):
            tree.add(0, (9.0,))

    def test_interleaved_inserts_and_removals_match_linear_scan(self):
        rng = np.random.default_rng(9)
        tree, ref = MTree(capacity=6), LinearScanIndex(2)
        live = []
        for step in range(1500):
            if live and rng.random() < 0.4:
                pick = live.pop(int(rng.integers(len(live))))
                tree.remove(pick)
                ref.remove(pick)
            else:
                pt = tuple(rng.normal(0, 1, size=2))
                tree.add(step, pt)
                ref.add(step, pt)
                live.append(step)
            if step % 100 == 0:
                q = tuple(rng.normal(0, 1, size=2))
                assert range_query(tree, q, 0.5) == range_query(ref, q, 0.5)
        assert len(tree) == len(ref) == len(live)
        tree.check_invariants()

    def test_sliding_window_turnover_keeps_the_tree_lean_and_exact(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(0, 1, size=(20_000, 3))
        window = 1_000
        tree, ref = MTree(), LinearScanIndex(3)
        for i, pt in enumerate(pts):
            if i >= window:
                tree.remove(i - window)
                ref.remove(i - window)
            tree.add(i, tuple(pt))
            ref.add(i, tuple(pt))
            if (i + 1) % window == 0:
                tree.check_invariants()
                assert mtree_nodes(tree) <= len(tree)
                for q in rng.normal(0, 1, size=(10, 3)):
                    for r in (0.2, 0.6):
                        assert range_query(tree, tuple(q), r) == range_query(ref, tuple(q), r)

    def test_removing_every_entry_leaves_one_empty_leaf(self):
        rng = np.random.default_rng(4)
        tree = fill(MTree(capacity=4), rng.normal(0, 1, size=(300, 2)))
        for n, oid in enumerate(rng.permutation(300).tolist()):
            tree.remove(oid)
            if n % 50 == 0:
                tree.check_invariants()
        assert len(tree) == 0 and mtree_nodes(tree) == 1
        assert range_query(tree, (0.0, 0.0), 100.0) == set()

    def test_radius_zero_returns_exact_duplicates(self):
        tree = fill(MTree(), [(1.0, 2.0), (1.0, 2.0 + 1e-12), (3.0, 4.0)])
        assert range_query(tree, (1.0, 2.0), 0.0) == {0}

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
                    min_size=1, max_size=60),
           st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
           st.floats(0, 50))
    def test_property_equivalence_with_linear_scan(self, pts, q, r):
        tree = fill(MTree(capacity=5), pts)
        ref = fill(LinearScanIndex(2), pts)
        assert range_query(tree, q, r) == range_query(ref, q, r)


class TestVPTree:
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_build_distances_come_from_the_column_kernel(self, metric):
        # equal to the scalar metric at any d; at d <= 7, where numpy sums a
        # row left to right, also equal to the row-wise sums
        for dims in range(1, 11):
            pts = np.random.default_rng(dims).normal(0, 1, size=(60, dims))
            tree = VPTree(pts, metric=metric)
            got = tree._dists(np.arange(60), pts[7]).tolist()
            assert got == [distance(p, pts[7].tolist(), metric) for p in pts.tolist()]
            if dims <= 7:
                diff = pts - pts[7]
                rows = (np.sqrt((diff * diff).sum(axis=1)) if metric == "euclidean"
                        else np.abs(diff).sum(axis=1))
                assert got == rows.tolist()

    def test_eight_distinct_points_reach_level_two(self):
        tree = VPTree([(float(i),) for i in range(8)], seed=3)
        nodes = tree.nodes_at_level(2)
        assert len(nodes) == 4
        assert tree.depth == 3    # ceil(log2(8)) levels below the root

    def test_single_point_single_leaf(self):
        tree = VPTree([(1.0,)])
        assert tree.root.is_leaf
        assert tree.depth == 0

    def test_duplicate_heavy_sample_still_builds(self):
        tree = VPTree([(2.0,)] * 16)
        assert tree.root.is_leaf          # ties all fall inside, no split possible
        assert sorted(tree.leaf_ids()) == list(range(16))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            VPTree([])

    def test_sixteen_partitions_need_level_four(self):
        rng = np.random.default_rng(0)
        tree = VPTree(rng.normal(0, 1, size=(600, 1)), seed=1)
        assert len(tree.nodes_at_level(4)) == 16

    def test_level_one_is_the_root_split(self):
        rng = np.random.default_rng(0)
        tree = VPTree(rng.normal(0, 1, size=(64, 1)))
        assert len(tree.nodes_at_level(1)) == 2

    def test_level_beyond_depth_rejected(self):
        tree = VPTree([(0.0,), (1.0,)])
        with pytest.raises(ValueError):
            tree.nodes_at_level(tree.depth + 1)

    def test_routing_invariant_on_every_root_to_leaf_path(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(0, 1, size=(300, 2))
        tree = VPTree(pts, seed=7)

        def walk(node, idx_set):
            if node.is_leaf:
                for oid in node.ids:
                    assert oid in idx_set
                return
            inside, outside = set(), set()
            for oid in idx_set:
                d = distance(tuple(pts[oid]), tuple(node.vantage))
                (inside if d <= node.threshold else outside).add(oid)
            walk(node.inside, inside)
            walk(node.outside, outside)

        walk(tree.root, set(range(len(pts))))

    def test_range_queries_match_linear_scan(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(0, 1, size=(400, 3))
        tree = VPTree(pts, seed=2)
        ref = fill(LinearScanIndex(3), pts)
        for q in rng.normal(0, 1, size=(40, 3)):
            for r in (0.1, 0.6, 2.0):
                assert range_query(tree, tuple(q), r) == range_query(ref, tuple(q), r)

    def test_centre_dimensionality_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VPTree([(0.0, 1.0)]).query_ids((0.0,), 1.0)

    def test_all_points_reachable(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(0, 1, size=(257, 2))
        tree = VPTree(pts)
        assert sorted(tree.leaf_ids()) == list(range(257))


def test_three_way_equivalence_manhattan():
    rng = np.random.default_rng(12)
    pts = rng.normal(0, 1, size=(150, 2))
    tree = fill(MTree(metric="manhattan", capacity=6), pts)
    vpt = VPTree(pts, metric="manhattan", seed=0)
    ref = fill(LinearScanIndex(2, metric="manhattan"), pts)
    for q in rng.normal(0, 1, size=(30, 2)):
        for r in (0.2, 0.8):
            want = range_query(ref, tuple(q), r)
            assert range_query(tree, tuple(q), r) == want
            assert range_query(vpt, tuple(q), r) == want


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        range_query(LinearScanIndex(1), (0.0,), -1.0)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_numpy_rows_and_centres_match_float_tuples(metric):
    rng = np.random.default_rng(21)
    pts = rng.normal(0, 1, size=(300, 3))
    mtree, ref = MTree(metric=metric, capacity=6), LinearScanIndex(3, metric=metric)
    for i, row in enumerate(pts):          # ndarray rows, not tuples
        mtree.add(i, row)
        ref.add(i, row)
    vpt = VPTree(pts, metric=metric, seed=4)
    assert all(type(x) is float for x in vpt.root.vantage)
    for c in rng.normal(0, 1, size=(40, 3)):
        r = np.float64(rng.uniform(0.1, 1.5))
        for center in (c, tuple(c), tuple(c.tolist())):
            want = range_query(ref, center, r)
            assert range_query(mtree, center, r) == want
            assert range_query(vpt, center, r) == want
    mtree.check_invariants()


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("dims", [1, 2, 3, 9])
def test_points_exactly_on_the_radius_agree_everywhere(dims, metric):
    # integer coordinates and radii: every distance and R*R are exact, so
    # many points sit exactly on the closed ball's boundary
    rng = np.random.default_rng(dims)
    pts = [tuple(map(float, row)) for row in rng.integers(-3, 4, size=(600, dims))]
    cols = np.array(pts).T
    key = sqdist if metric == "euclidean" else manhattan
    for idx in (LinearScanIndex(dims, metric=metric), MTree(metric=metric)):
        # neither index promises an order of hits
        for i, p in enumerate(pts):
            idx.add(i, p, payload=("obj", i))
        live = set(range(len(pts)))

        def check():
            on_edge = 0
            for center in pts[:25]:
                for radius in (0.0, 1.0, 2.0, 3.0):
                    want = sorted(i for i in live if within(pts[i], center, radius, metric))
                    on_edge += sum(distance(pts[i], center, metric) == radius for i in want)
                    mask = column_keys(cols, center, metric) <= key_limit(radius, metric)
                    assert sorted(i for i in live if mask[i]) == want
                    assert sorted(idx.query_ids(center, radius)) == want
                    assert (sorted(idx.query_payloads(center, radius))
                            == [("obj", i) for i in want])
                    got = idx.query_comparable(center, radius)
                    assert sorted(got) == [(("obj", i), key(center, pts[i])) for i in want]
                    assert all(type(k) is float for _, k in got)
            assert on_edge > 0

        def drop(ids):
            for i in ids:
                idx.remove(i)
                live.remove(i)

        check()
        drop(range(0, 600, 11))
        check()
        drop([i for i in range(1, 600, 2) if i in live])
        assert len(idx) == len(live)
        check()
        idx.add(1, pts[1], payload=("obj", 1))   # a removed id comes back
        live.add(1)
        check()


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("dims", [1, 2, 3])
def test_scan_matches_brute_force_through_removals_in_any_order(dims, metric):
    # pMCOD's pool pattern: adds, removals in any order, removed ids added
    # back, the last row removed, and the store emptied and refilled; the
    # reference is `within` over a dict of the live points
    rng = np.random.default_rng(40 + dims)
    key = sqdist if metric == "euclidean" else manhattan
    idx, live, removed = LinearScanIndex(dims, metric=metric), {}, set()
    centers = [tuple(map(float, row)) for row in rng.integers(-3, 4, size=(4, dims))]
    hits = 0

    def check():
        nonlocal hits
        assert len(idx) == len(live)
        assert sorted(idx.ids()) == sorted(live)
        assert all(oid in idx for oid in live)
        assert not any(oid in idx for oid in removed)
        for center in centers:
            for radius in (0.0, 1.0, 2.0):
                want = sorted(i for i, p in live.items() if within(p, center, radius, metric))
                hits += len(want)
                assert sorted(idx.query_ids(center, radius)) == want
                assert sorted(idx.query_payloads(center, radius)) == [("obj", i) for i in want]
                assert (sorted(idx.query_comparable(center, radius))
                        == [(("obj", i), key(center, live[i])) for i in want])

    def add(oid):
        removed.discard(oid)
        live[oid] = tuple(map(float, rng.integers(-3, 4, size=dims)))
        idx.add(oid, live[oid], payload=("obj", oid))
        check()

    def remove(oid):
        idx.remove(oid)
        del live[oid]
        removed.add(oid)
        check()

    check()
    for oid in range(60):
        add(oid)
    fresh = 60
    for _ in range(200):
        if removed and rng.random() < 0.3:
            add(sorted(removed)[int(rng.integers(len(removed)))])
        elif live and rng.random() < 0.5:
            remove(list(live)[int(rng.integers(len(live)))])
        else:
            add(fresh)
            fresh += 1
    add(fresh)
    remove(fresh)                  # the last row: nothing moves
    for oid in rng.permutation(list(live)).tolist():
        remove(oid)
    assert len(idx) == 0
    add(7)
    assert hits > 0


def on_grid(rng, n, dims):
    # small integer coordinates: exact distances, many duplicates and many
    # points exactly on the radius
    return [tuple(map(float, row)) for row in rng.integers(-3, 4, size=(n, dims))]


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("dims", [1, 2, 3, 9])
@pytest.mark.parametrize("stored, batch", [(0, 1), (0, 60), (300, 1), (300, 60)])
def test_add_batch_matches_the_sequential_loop(metric, dims, stored, batch):
    # A slide's batch of arrivals as the window-scan and sliced processors
    # add it: each arrival queries the store, then joins it, so it sees the
    # stored rows and the earlier arrivals of its batch.  The reference is
    # `within` over a dict of the live points, grown one arrival at a time.
    rng = np.random.default_rng(dims * 1000 + stored + batch)
    pts = on_grid(rng, stored + batch, dims)
    new = range(stored, stored + batch)
    hits = 0
    for radius in (0.0, 2.0, 2.0 * dims):
        idx, live = LinearScanIndex(dims, metric=metric), {}
        for i in range(stored):
            idx.add(i, pts[i], payload=("obj", i))
            live[i] = pts[i]
        for i in range(0, stored, 7):
            idx.remove(i)
            del live[i]
        for i in new:
            want = sorted(("obj", j) for j, p in live.items()
                          if within(p, pts[i], radius, metric))
            assert sorted(idx.query_payloads(pts[i], radius)) == want
            idx.add(i, pts[i], payload=("obj", i))
            live[i] = pts[i]
            hits += len(want)
        assert len(idx) == len(live)
        for c in pts[:20]:
            assert sorted(idx.query_ids(c, 1.0)) == sorted(
                j for j, p in live.items() if within(p, c, 1.0, metric))
    assert hits > 0 or stored + batch == 1


def test_payload_queries_fall_back_to_ids_without_payloads():
    for index in (LinearScanIndex(2), MTree()):
        idx = fill(index, [(0.0, 0.0), (3.0, 4.0), (6.0, 8.0)])
        assert sorted(idx.query_payloads((0.0, 0.0), 5.0)) == [0, 1]
        assert sorted(idx.query_comparable((0.0, 0.0), 5.0)) == [(0, 0.0), (1, 25.0)]
