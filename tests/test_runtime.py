import os
import tracemalloc

import numpy as np
import pytest

from outstream import (StreamSource, TopologyConfig, WindowConfig,
                       assign_artificial_timestamps, check_against_oracle,
                       collect_metrics, count_window_config, run_topology)
from outstream.core import OutlierReport, WindowInterval
from outstream.processors import WindowScanProcessor
from outstream.runtime import build_partition_spec, stream_handler

from conftest import clustered_values, run_exact


class TestArtificialTimestamps:
    def test_direct_construction(self):
        src = assign_artificial_timestamps(np.arange(10.0), 4, 2)
        assert src.ts.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
        assert count_window_config(4, 2, R=1.0, k=1, dims=1).W == 2

    def test_tumbling_special_case(self):
        src = assign_artificial_timestamps(np.arange(6.0), 3, 3)
        assert src.ts.tolist() == [0, 0, 0, 1, 1, 1]
        assert count_window_config(3, 3, R=1.0, k=1, dims=1).W == 1

    def test_slide_must_divide_window(self):
        with pytest.raises(ValueError):
            assign_artificial_timestamps(np.arange(10.0), 10, 3)

    def test_full_windows_hold_exactly_w_objects(self):
        vals = clustered_values(1, 2000, 1)
        src = assign_artificial_timestamps(vals, 100, 5)
        cfg = count_window_config(100, 5, R=0.4, k=2, dims=1, partitions=1)
        topo = TopologyConfig(window=cfg, algorithm="baseline")
        res = run_topology(src, topo)
        assert len(res.reports) == 400
        for j, r in enumerate(res.reports):
            assert r.alive == min((j + 1) * 5, 100)

    def test_timestamps_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            StreamSource(ids=np.array([0, 1]), values=np.zeros((2, 1)),
                         ts=np.array([5, 3]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected_naming_the_row(self, bad):
        vals = np.zeros((5, 2))
        vals[3, 1] = bad
        with pytest.raises(ValueError, match="row 3"):
            StreamSource(ids=np.arange(5), values=vals, ts=np.arange(5))

    def test_duplicate_ids_rejected_naming_the_first_repeat(self):
        ids = np.arange(200)
        ids[50] = 49
        ids[120] = 7
        with pytest.raises(ValueError, match=r"row 50: id 49 repeats"):
            StreamSource(ids=ids, values=np.zeros((200, 1)), ts=np.arange(200) // 10)

    @pytest.mark.parametrize("vals", [np.zeros(4), np.zeros((4, 1, 1)),
                                      [[0.0]] * 4, np.array([["a"]] * 4)])
    def test_values_must_be_a_2d_numeric_array(self, vals):
        with pytest.raises(ValueError, match="2-d numeric"):
            StreamSource(ids=np.arange(4), values=vals, ts=np.arange(4))

    def test_native_time_windows_with_multi_tick_slides(self):
        # slides span several ticks; same-slide objects still expire together
        rng = np.random.default_rng(6)
        n = 300
        vals = rng.normal(0, 1, size=(n, 1))
        ts = np.sort(rng.integers(0, 48, size=n))
        src = StreamSource(ids=np.arange(n), values=vals, ts=ts)
        for alg, part, P in [("baseline", "random", 1), ("pmcod", "grid", 2),
                             ("advanced-sliced", "grid", 2)]:
            cfg = WindowConfig(W=16, S=4, R=0.3, k=3, dims=1, partitions=P)
            topo = TopologyConfig(window=cfg, algorithm=alg, partitioner=part,
                                  sample_size=300, validate=True)
            res = run_topology(src, topo)
            assert len(res.reports) == 12
            assert not check_against_oracle(res.reports, src, cfg)


class TestTopologyConfig:
    def cfg(self, partitions=4):
        return WindowConfig(W=10, S=5, R=1.0, k=2, partitions=partitions)

    def test_baseline_is_single_partition(self):
        with pytest.raises(ValueError, match="single-partition"):
            TopologyConfig(window=self.cfg(4), algorithm="baseline")

    def test_naive_requires_random(self):
        with pytest.raises(ValueError, match="random"):
            TopologyConfig(window=self.cfg(), algorithm="naive", partitioner="grid")

    def test_pmcod_requires_value_routing(self):
        with pytest.raises(ValueError, match="value-based"):
            TopologyConfig(window=self.cfg(), algorithm="pmcod", partitioner="random")

    def test_sliced_requires_value_routing(self):
        with pytest.raises(ValueError, match="value-based"):
            TopologyConfig(window=self.cfg(), algorithm="advanced-sliced",
                           partitioner="random")

    def test_flavors_are_pmcod_only(self):
        with pytest.raises(ValueError, match="pmcod"):
            TopologyConfig(window=self.cfg(), algorithm="advanced",
                           partitioner="grid", flavor_backend="full-mtree")

    def test_process_backend_rejects_workers(self):
        with pytest.raises(ValueError, match="one process per partition"):
            TopologyConfig(window=self.cfg(), algorithm="naive", workers=2,
                           worker_backend="process")

    def test_meta_window_paths(self):
        naive = TopologyConfig(window=self.cfg(), algorithm="naive")
        assert naive.needs_meta_window
        adv = TopologyConfig(window=self.cfg(), algorithm="advanced",
                             partitioner="random")
        assert adv.needs_meta_window
        grid = TopologyConfig(window=self.cfg(), algorithm="advanced",
                              partitioner="grid")
        assert not grid.needs_meta_window


def route_slide(src, topo, j):
    """Slide ``j``'s rows and what `stream_handler` makes of them."""
    cfg = topo.window
    interval = cfg.interval(j)
    rows = src.rows(interval.end - cfg.S, interval.end)
    return rows, stream_handler(src, rows, build_partition_spec(src, topo),
                                cfg.partitions)


class TestStreamHandler:
    def test_naive_replicates_everywhere(self):
        vals = clustered_values(2, 40, 1)
        src = assign_artificial_timestamps(vals, 20, 10)
        cfg = count_window_config(20, 10, R=0.4, k=2, dims=1, partitions=4)
        topo = TopologyConfig(window=cfg, algorithm="naive")
        rows, (inboxes, delivered) = route_slide(src, topo, 1)
        slide_ids = src.ids[rows].tolist()
        assert slide_ids == list(range(10, 20))
        assert delivered == 4 * len(slide_ids)
        for inbox in inboxes:
            assert [o.id for o in inbox] == slide_ids
        owned = sorted(o.id for inbox in inboxes for o in inbox if o.flag == 0)
        assert owned == slide_ids

    def test_grid_interior_point_single_copy(self):
        vals = np.concatenate([np.linspace(0, 10, 99), [2.0]]).reshape(-1, 1)
        src = assign_artificial_timestamps(vals, 100, 100)
        cfg = count_window_config(100, 100, R=0.2, k=2, dims=1, partitions=2)
        topo = TopologyConfig(window=cfg, algorithm="advanced", partitioner="grid",
                              sample_size=100)
        _, (inboxes, _) = route_slide(src, topo, 0)
        copies = sum(1 for p in range(2) for o in inboxes[p] if o.id == 99)
        assert copies == 1

    def test_per_partition_order_is_by_timestamp(self):
        # multi-tick slides, so each inbox holds several distinct ticks
        rng = np.random.default_rng(3)
        n = 120
        src = StreamSource(ids=np.arange(n), values=clustered_values(3, n, 1),
                           ts=np.sort(rng.integers(0, 48, size=n)))
        cfg = WindowConfig(W=16, S=4, R=0.4, k=2, dims=1, partitions=3)
        topo = TopologyConfig(window=cfg, algorithm="naive")
        for j in src.slides(cfg.S):
            end = cfg.interval(j).end
            rows, (inboxes, _) = route_slide(src, topo, j)
            for inbox in inboxes:
                ts = [o.t for o in inbox]
                assert len(ts) == rows.stop - rows.start
                assert ts == sorted(ts)
                assert all(end - cfg.S <= t < end for t in ts)


class TestRunTopology:
    @pytest.mark.parametrize("algorithm, partitioner, partitions", [
        ("baseline", "random", 1), ("naive", "random", 2),
        ("advanced", "random", 2), ("pmcod", "grid", 2)])
    def test_dims_mismatch_rejected(self, algorithm, partitioner, partitions):
        src = assign_artificial_timestamps(np.zeros((40, 2)), 20, 10)
        cfg = count_window_config(20, 10, R=0.5, k=2, dims=1, partitions=partitions)
        topo = TopologyConfig(window=cfg, algorithm=algorithm,
                              partitioner=partitioner, sample_size=40)
        with pytest.raises(ValueError, match="2 dims"):
            run_topology(src, topo)

    def test_identical_reports_across_runs_and_worker_counts(self, small_stream):
        digests = []
        for workers in (1, 2, 8, 2):
            src = assign_artificial_timestamps(small_stream, 60, 12)
            cfg = count_window_config(60, 12, R=0.5, k=3, dims=1, partitions=4)
            topo = TopologyConfig(window=cfg, algorithm="pmcod", partitioner="grid",
                                  workers=workers, sample_size=300)
            digests.append(run_topology(src, topo).digests())
        assert all(d == digests[0] for d in digests)

    def test_single_partition_degenerates_to_baseline(self, small_stream):
        base = run_exact(small_stream, 60, 12, 0.5, 3, "baseline", "random", 1)
        for alg, part in [("naive", "random"), ("advanced", "grid"),
                          ("advanced-sliced", "grid"), ("pmcod", "grid")]:
            other = run_exact(small_stream, 60, 12, 0.5, 3, alg, part, 1)
            assert [r.outliers for r in other.reports] == \
                   [r.outliers for r in base.reports]

    def test_process_backend_matches_thread_backend(self, small_stream):
        digests = []
        for backend in ("thread", "process"):
            src = assign_artificial_timestamps(small_stream, 60, 12)
            cfg = count_window_config(60, 12, R=0.5, k=3, dims=1, partitions=3)
            topo = TopologyConfig(window=cfg, algorithm="pmcod", partitioner="grid",
                                  worker_backend=backend, sample_size=300)
            digests.append(run_topology(src, topo).digests())
        assert digests[0] == digests[1]

    def test_process_backend_surfaces_worker_failures(self, monkeypatch):
        # fork-based workers inherit the patched method
        vals = clustered_values(4, 40, 1)
        src = assign_artificial_timestamps(vals, 20, 10)
        cfg = count_window_config(20, 10, R=0.4, k=2, dims=1, partitions=2)
        topo = TopologyConfig(window=cfg, algorithm="naive",
                              worker_backend="process")

        def boom(self, batch):
            raise ValueError("injected fault")

        monkeypatch.setattr(WindowScanProcessor, "process_slide", boom)
        with pytest.raises(RuntimeError, match=r"slide 0, partition [01]"):
            run_topology(src, topo)

    def test_process_backend_reports_dead_worker(self, monkeypatch):
        # a worker that exits inside process_slide closes its pipe mid-slide
        vals = clustered_values(4, 60, 1)
        src = assign_artificial_timestamps(vals, 20, 10)
        cfg = count_window_config(20, 10, R=0.4, k=2, dims=1, partitions=2)
        topo = TopologyConfig(window=cfg, algorithm="naive",
                              worker_backend="process")
        parent = os.getpid()
        original = WindowScanProcessor.process_slide

        def die(self, batch):
            if os.getpid() != parent and self.partition == 1 \
                    and batch.interval.slide_index == 2:
                os._exit(3)
            return original(self, batch)

        monkeypatch.setattr(WindowScanProcessor, "process_slide", die)
        with pytest.raises(RuntimeError, match=r"slide 2, partition 1: worker process died"):
            run_topology(src, topo)

    def test_process_backend_counters_match_thread_backend(self, small_stream):
        counters = []
        for backend in ("thread", "process"):
            src = assign_artificial_timestamps(small_stream, 60, 12)
            cfg = count_window_config(60, 12, R=0.5, k=3, dims=1, partitions=3)
            topo = TopologyConfig(window=cfg, algorithm="pmcod", partitioner="grid",
                                  worker_backend=backend, sample_size=300)
            counters.append(run_topology(src, topo).counters)
        assert counters[0]["range_queries"] > 0
        assert counters[0] == counters[1]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("algorithm, partitioner", [
        ("naive", "random"), ("advanced", "random"), ("advanced", "grid")])
    def test_window_scan_queries_once_per_delivered_copy(self, small_stream, algorithm,
                                                         partitioner, backend):
        src = assign_artificial_timestamps(small_stream, 60, 12)
        cfg = count_window_config(60, 12, R=0.5, k=3, dims=1, partitions=3)
        topo = TopologyConfig(window=cfg, algorithm=algorithm, partitioner=partitioner,
                              worker_backend=backend, sample_size=300)
        res = run_topology(src, topo)
        assert res.counters == {
            "range_queries": sum(r.delivered for r in res.reports)}

    @pytest.mark.parametrize("algorithm, partitioner, partitions, backend", [
        ("baseline", "random", 1, "thread"),
        ("pmcod", "grid", 2, "thread"),
        ("pmcod", "grid", 2, "process")])
    def test_epoch_millisecond_ticks(self, algorithm, partitioner, partitions,
                                     backend):
        # slides start at the first object's, not at tick 0
        n = 3000
        src = StreamSource(ids=np.arange(n), values=clustered_values(5, n, 2),
                           ts=1_700_000_000_000 + np.arange(n))
        cfg = WindowConfig(W=1000, S=100, R=0.3, k=4, dims=2, partitions=partitions)
        topo = TopologyConfig(window=cfg, algorithm=algorithm, partitioner=partitioner,
                              worker_backend=backend, validate=True)
        res = run_topology(src, topo)
        assert len(res.reports) == 30
        assert res.reports[0].interval == cfg.interval(17_000_000_000)
        assert sum(r.arrivals for r in res.reports) == n
        assert any(r.outliers for r in res.reports)
        assert not check_against_oracle(res.reports, src, cfg)

    def test_memory_follows_the_window(self):
        # tripling the stream adds only the per-slide reports, not routed copies
        def peak_bytes(n):
            src = assign_artificial_timestamps(clustered_values(7, n, 1), 100, 50)
            cfg = count_window_config(100, 50, R=0.4, k=3, dims=1)
            topo = TopologyConfig(window=cfg, algorithm="baseline")
            tracemalloc.start()
            try:
                run_topology(src, topo)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        per_object = (peak_bytes(15_000) - peak_bytes(5_000)) / 10_000
        assert per_object < 100, f"{per_object:.0f} bytes per stream object"

    def test_worker_failure_names_slide_and_partition(self, monkeypatch):
        vals = clustered_values(4, 40, 1)
        src = assign_artificial_timestamps(vals, 20, 10)
        cfg = count_window_config(20, 10, R=0.4, k=2, dims=1, partitions=2)
        topo = TopologyConfig(window=cfg, algorithm="naive", workers=2)

        def boom(self, batch):
            raise ValueError("injected fault")

        monkeypatch.setattr(WindowScanProcessor, "process_slide", boom)
        with pytest.raises(RuntimeError, match=r"slide 0, partition [01]"):
            run_topology(src, topo)


class TestMetrics:
    def report(self, j, wall, outliers=0, alive=100, arrivals=10):
        return OutlierReport(interval=WindowInterval(j, j + 1, j),
                             outliers=frozenset(range(outliers)),
                             slide_wall_time=wall, arrivals=arrivals,
                             delivered=arrivals * 2, alive=alive)

    def test_constant_slide_times(self):
        reports = [self.report(j, 0.010) for j in range(12)]
        m = collect_metrics(reports, warmup=5)
        assert m.mean_slide_ms == pytest.approx(10.0)
        assert m.median_slide_ms == pytest.approx(10.0)

    def test_throughput_arithmetic(self):
        # 200 slides x 500 arrivals in 10 seconds of processing
        reports = [self.report(j, 0.05, arrivals=500) for j in range(200)]
        m = collect_metrics(reports)
        assert m.throughput_obj_s == pytest.approx(10_000.0)

    def test_replication_factor(self):
        reports = [self.report(j, 0.01) for j in range(8)]
        assert collect_metrics(reports).replication_factor == pytest.approx(2.0)

    def test_outlier_fraction(self):
        reports = [self.report(j, 0.01, outliers=2) for j in range(10)]
        assert collect_metrics(reports).outlier_fraction == pytest.approx(0.02)

    def test_warmup_exclusion(self):
        reports = ([self.report(j, 1.0) for j in range(5)]
                   + [self.report(5 + j, 0.001) for j in range(5)])
        m = collect_metrics(reports, warmup=5)
        assert m.mean_slide_ms == pytest.approx(1.0)


class TestStreamSourceSlides:
    def test_slides_start_at_the_first_objects_slide(self):
        src = StreamSource(ids=np.arange(4), values=np.zeros((4, 1)),
                           ts=np.array([23, 24, 31, 47]))
        assert src.slides(5) == range(4, 10)
        assert src.slides(5, 3) == range(4, 7)
        assert src.rows(25, 35) == slice(2, 3)

    def test_empty_stream_has_no_slides(self):
        src = StreamSource(ids=np.arange(0), values=np.zeros((0, 1)),
                           ts=np.arange(0))
        assert src.slides(5) == range(0)
        assert src.slides(5, 2) == range(0, 2)
