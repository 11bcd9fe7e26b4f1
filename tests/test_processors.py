import numpy as np
import pytest

from outstream import (EventQueue, MicroClusterProcessor, StreamObject,
                       TopologyConfig, WindowConfig,
                       assign_artificial_timestamps, brute_force_oracle,
                       build_grid, check_against_oracle, count_window_config,
                       grid_route, run_topology, select_neighbor_backend)
from outstream.processors import (SlicedWindowProcessor, WindowScanProcessor,
                                  make_batch, microcluster)

from conftest import clustered_values, run_exact


def batch(j, cfg, arrivals):
    return make_batch(cfg.interval(j), arrivals, cfg)


def sobj(oid, value, t, flag=0, partition=0):
    return StreamObject(id=oid, value=(float(value),), t=t, flag=flag,
                        partition=partition)


class TestBaseline:
    def test_spec_window_example(self):
        vals = np.array([0.0, 0.1, 0.2, 10.0]).reshape(-1, 1)
        src = assign_artificial_timestamps(vals, 4, 4)
        cfg = count_window_config(4, 4, R=0.5, k=2, dims=1, partitions=1)
        res = run_topology(src, TopologyConfig(window=cfg, algorithm="baseline"))
        assert [set(r.outliers) for r in res.reports] == [{3}]

    def test_empty_window(self):
        cfg = WindowConfig(W=4, S=1, R=0.5, k=2)
        proc = WindowScanProcessor(cfg, 0)
        out = proc.process_slide(batch(0, cfg, []))
        assert out.outliers == set() and out.alive == 0

    def test_all_identical_points_no_outliers(self):
        vals = np.zeros((12, 1))
        src = assign_artificial_timestamps(vals, 6, 3)
        cfg = count_window_config(6, 3, R=0.5, k=3, dims=1, partitions=1)
        res = run_topology(src, TopologyConfig(window=cfg, algorithm="baseline"))
        assert all(not r.outliers for r in res.reports[1:])


class TestNaive:
    def test_single_partition_matches_baseline(self, small_stream):
        a = run_exact(small_stream, 60, 12, 0.5, 3, "baseline", "random", 1)
        b = run_exact(small_stream, 60, 12, 0.5, 3, "naive", "random", 1)
        assert a.digests() == b.digests()

    def test_locally_safe_objects_not_forwarded(self):
        cfg = WindowConfig(W=4, S=1, R=0.5, k=2, partitions=2)
        proc = WindowScanProcessor(cfg, 0, index="linear", replicated=True)
        arrivals = [sobj(0, 1.0, 0), sobj(2, 1.1, 0), sobj(4, 1.2, 0),
                    sobj(6, 50.0, 0)]
        out = proc.process_slide(batch(0, cfg, arrivals))
        forwarded = {m.id for m in out.forwards}
        assert forwarded == {6}   # the clustered three are safe locally

    def test_cross_partition_merge_finds_both_neighbors(self):
        # a and o in partition 0, b in partition 1; o neighbors both, a and b
        # are not neighbors of each other
        vals = np.array([0.0, 0.8, 0.4, 100.0]).reshape(-1, 1)
        src = assign_artificial_timestamps(vals, 4, 2)
        cfg = count_window_config(4, 2, R=0.45, k=2, dims=1, partitions=2)
        res = run_topology(src, TopologyConfig(window=cfg, algorithm="naive",
                                               partitioner="random"))
        assert set(res.reports[1].outliers) == {0, 1, 3}
        oracle = brute_force_oracle(vals, 0.45, 2)
        assert set(res.reports[1].outliers) == oracle

    def test_merge_missing_partition_contribution_is_a_barrier_error(self):
        from outstream import MetaWindow
        cfg = WindowConfig(W=4, S=1, R=0.5, k=2, partitions=3)
        meta = MetaWindow(cfg)
        with pytest.raises(RuntimeError, match="barrier"):
            meta.merge_slide(cfg.interval(0), [[], []])

    def test_randomized_stream_matches_oracle(self):
        vals = clustered_values(31, 500, 1)
        run_exact(vals, 100, 20, 0.5, 3, "naive", "random", 4)


class TestAdvanced:
    def grid_pair(self):
        cfg = WindowConfig(W=4, S=1, R=0.45, k=1, dims=1, partitions=2)
        sample = np.linspace(0, 10, 101).reshape(-1, 1)
        spec = build_grid(sample, partitions=2, R=0.45)
        return cfg, spec

    def test_replica_is_context_but_not_subject(self):
        cfg, spec = self.grid_pair()
        procs = [WindowScanProcessor(cfg, p, index="mtree", replicated=False)
                 for p in range(2)]
        a = grid_route(spec, (4.8,))     # owner cell 0, replicated into cell 1
        b = grid_route(spec, (5.1,))     # interior of cell 1
        p_a, p_b = a.owner, b.owner
        assert p_a != p_b and a.replicas == {p_b}
        arrivals = {
            p_a: [sobj(0, 4.8, 0, flag=0, partition=p_a)],
            p_b: [sobj(0, 4.8, 0, flag=1, partition=p_a),
                  sobj(1, 5.1, 0, flag=0, partition=p_b)],
        }
        outs = {p: procs[p].process_slide(batch(0, cfg, arrivals[p]))
                for p in range(2)}
        # the replica made object 1 an inlier in its home partition
        # (same slide, so it lands in count_after)
        assert procs[p_b].objs[1].count_after == 1
        assert procs[p_b].objs[1].nn_before == []
        assert outs[p_b].outliers == set()
        # object 0 is evaluated only by its owner partition
        assert outs[p_a].outliers == {0}   # nothing near it in partition p_a
        assert outs[p_a].alive == 1 and outs[p_b].alive == 1

    def test_huge_radius_means_no_outliers(self):
        vals = clustered_values(5, 200, 1)
        res = run_exact(vals, 50, 10, 1000.0, 3, "advanced", "grid", 4)
        full = [r for r in res.reports if r.alive >= 50]
        assert full and all(not r.outliers for r in full)
        assert all(r.delivered == 4 * r.arrivals for r in res.reports)

    @pytest.mark.parametrize("partitioner", ["random", "grid", "vptree"])
    def test_equivalence_across_partitioners(self, small_stream, partitioner):
        base = run_exact(small_stream, 60, 12, 0.5, 3, "baseline", "random", 1)
        adv = run_exact(small_stream, 60, 12, 0.5, 3, "advanced", partitioner, 3)
        assert [r.outliers for r in adv.reports] == [r.outliers for r in base.reports]


class TestSliced:
    def test_matches_oracle(self, small_stream):
        run_exact(small_stream, 60, 12, 0.5, 3, "advanced-sliced", "grid", 3)
        run_exact(small_stream, 60, 12, 0.5, 3, "advanced-sliced", "vptree", 3)

    def test_minimal_probing_skips_older_slides(self):
        cfg = WindowConfig(W=4, S=1, R=0.5, k=1, dims=1, partitions=1)
        proc = SlicedWindowProcessor(cfg, 0)
        proc.process_slide(batch(0, cfg, [sobj(0, 0.0, 0), sobj(1, 0.1, 0)]))
        assert proc.counters["backward_probes"] == 0   # nothing older exists
        proc.process_slide(batch(1, cfg, [sobj(2, 0.0, 1), sobj(3, 0.1, 1)]))
        # first slide-1 arrival probes backwards once, the second finds k
        # neighbors in its own slide and never touches older slides
        assert proc.counters["backward_probes"] == 1

    def test_expiring_slide_with_empty_trigger_list_causes_no_reprocessing(self):
        cfg = WindowConfig(W=2, S=1, R=0.5, k=1, dims=1, partitions=1)
        proc = SlicedWindowProcessor(cfg, 0)
        proc.process_slide(batch(0, cfg, [sobj(0, 100.0, 0), sobj(1, 100.1, 0)]))
        proc.process_slide(batch(1, cfg, [sobj(2, 0.0, 1), sobj(3, 0.1, 1)]))
        assert proc.triggers.get(0) is None   # nobody counted slide-0 neighbors
        out = proc.process_slide(batch(2, cfg, [sobj(4, 0.0, 2), sobj(5, 0.1, 2)]))
        assert proc.counters["forward_probes"] == 0
        assert out.outliers == set()

    def test_trigger_reprocessing_restores_exactness(self):
        # object supported only by an expiring slide must re-probe forward
        vals = clustered_values(43, 400, 2, scatter=0.25)
        run_exact(vals, 80, 16, 0.7, 4, "advanced-sliced", "grid", 3)


class TestEventQueue:
    def test_threshold_pop(self):
        q = EventQueue("heap")
        q.insert(10, 3)
        q.insert(11, 9)
        assert q.drain(5) == [10]
        assert len(q) == 1

    def test_empty_drain(self):
        assert EventQueue("ordered").drain(100) == []

    @pytest.mark.parametrize("flavor", ["heap", "ordered"])
    def test_rekey_and_discard(self, flavor):
        q = EventQueue(flavor)
        q.insert(1, 5)
        q.insert(1, 9)          # re-key
        assert q.drain(6) == []  # old key must not fire
        q.insert(2, 3)
        q.discard(2)
        assert q.drain(100) == [1]

    def test_flavors_agree_under_random_ops(self):
        rng = np.random.default_rng(0)
        a, b = EventQueue("heap"), EventQueue("ordered")
        for step in range(400):
            op = rng.random()
            oid = int(rng.integers(0, 40))
            if op < 0.6:
                key = int(rng.integers(0, 1000))
                a.insert(oid, key)
                b.insert(oid, key)
            elif op < 0.8:
                a.discard(oid)
                b.discard(oid)
            else:
                thr = int(rng.integers(0, 1000))
                assert sorted(a.drain(thr)) == sorted(b.drain(thr))
        assert sorted(a.drain(10**9)) == sorted(b.drain(10**9))


class TestMicroCluster:
    def make(self, R=1.0, k=2, W=4, S=1, backend="none", queue="none"):
        cfg = WindowConfig(W=W, S=S, R=R, k=k, dims=1, partitions=1)
        return cfg, MicroClusterProcessor(cfg, 0, backend=backend, queue=queue,
                                          validate=True)

    def test_formation_example(self):
        cfg, proc = self.make(R=1.0, k=2)
        out = proc.process_slide(batch(0, cfg, [sobj(0, 0.0, 0), sobj(1, 0.1, 0),
                                                sobj(2, 0.2, 0)]))
        assert len(proc.clusters) == 1
        cluster = next(iter(proc.clusters.values()))
        assert len(cluster.members) == 3
        assert not proc.pool
        assert out.outliers == set()

    def test_dissolution_reprocesses_members(self):
        cfg, proc = self.make(R=1.0, k=2, W=2, S=1)
        proc.process_slide(batch(0, cfg, [sobj(0, 0.0, 0), sobj(1, 0.1, 0),
                                          sobj(2, 0.2, 0)]))
        proc.process_slide(batch(1, cfg, [sobj(3, 0.15, 1)]))   # joins the cluster
        assert len(next(iter(proc.clusters.values())).members) == 4
        out = proc.process_slide(batch(2, cfg, [sobj(4, 50.0, 2)]))
        # founders expired together; the survivor cannot hold a cluster alone
        assert not proc.clusters
        assert set(proc.pool) == {3, 4}
        assert out.outliers == {3, 4}

    def test_backend_plans(self):
        assert select_neighbor_backend("full-mtree")["window_tree"]
        assert select_neighbor_backend("dual-mtree")["center_tree"]
        assert not select_neighbor_backend("none")["pool_tree"]
        with pytest.raises(ValueError):
            select_neighbor_backend("bsp")

    @pytest.mark.parametrize("backend", ["full-mtree", "none", "po-mtree", "dual-mtree"])
    def test_flavor_equivalence(self, small_stream, backend):
        base = run_exact(small_stream, 60, 12, 0.5, 3, "pmcod", "grid", 3)
        other = run_exact(small_stream, 60, 12, 0.5, 3, "pmcod", "grid", 3,
                          flavor_backend=backend)
        assert base.digests() == other.digests()

    @pytest.mark.parametrize("queue", ["heap", "ordered"])
    def test_event_queue_neutrality(self, small_stream, queue):
        base = run_exact(small_stream, 60, 12, 0.5, 3, "pmcod", "vptree", 3)
        other = run_exact(small_stream, 60, 12, 0.5, 3, "pmcod", "vptree", 3,
                          flavor_queue=queue)
        assert base.digests() == other.digests()

    def test_replica_never_reported_even_when_locally_sparse(self):
        cfg = WindowConfig(W=4, S=1, R=0.45, k=1, dims=1, partitions=2)
        proc = MicroClusterProcessor(cfg, 1, backend="none", validate=True)
        # a replica landing alone in this partition's buffer zone
        out = proc.process_slide(batch(0, cfg, [sobj(0, 4.8, 0, flag=1, partition=0)]))
        assert out.outliers == set()
        assert out.alive == 0

    def test_cluster_members_skip_metadata_updates(self):
        cfg, proc = self.make(R=1.0, k=2)
        proc.process_slide(batch(0, cfg, [sobj(0, 0.0, 0), sobj(1, 0.1, 0),
                                          sobj(2, 0.2, 0), sobj(3, 20.0, 0)]))
        assert set(proc.pool) == {3}
        proc.process_slide(batch(1, cfg, [sobj(4, 0.05, 1)]))
        member = proc.objs[4]
        assert member.mc_id is not None
        assert member.count_after == 0 and member.nn_before == []


class TestCrossVariantEquivalence:
    def test_all_variants_agree_on_one_stream(self):
        vals = clustered_values(77, 480, 2, scatter=0.2)
        runs = [
            run_exact(vals, 80, 20, 0.8, 4, "baseline", "random", 1),
            run_exact(vals, 80, 20, 0.8, 4, "naive", "random", 4),
            run_exact(vals, 80, 20, 0.8, 4, "advanced", "random", 4),
            run_exact(vals, 80, 20, 0.8, 4, "advanced", "grid", 4),
            run_exact(vals, 80, 20, 0.8, 4, "advanced-sliced", "vptree", 4),
            run_exact(vals, 80, 20, 0.8, 4, "pmcod", "grid", 4),
        ]
        sets = [[r.outliers for r in run.reports] for run in runs]
        assert all(s == sets[0] for s in sets[1:])


def test_pmcod_linear_placement_needs_no_scalar_within(monkeypatch):
    """Backend ``none`` decides every R/2 test from its scans' own keys."""
    def refuse(*args, **kwargs):
        raise AssertionError("scalar within called during placement")

    vals = clustered_values(31, 600, 2, scatter=0.15)
    src = assign_artificial_timestamps(vals, 120, 20)
    cfg = count_window_config(120, 20, R=0.6, k=4, dims=2, partitions=3)

    def run(backend):
        return run_topology(src, TopologyConfig(
            window=cfg, algorithm="pmcod", partitioner="grid",
            flavor_backend=backend, sample_size=300, workers=1))

    reference = run("full-mtree")
    monkeypatch.setattr(microcluster, "within", refuse)
    linear = run("none")
    assert linear.digests() == reference.digests()
    assert not check_against_oracle(linear.reports, src, cfg)
    assert any(r.outliers for r in linear.reports)
