"""Tests of the benchmark's own reference and checks.

    PYTHONPATH=src python3 -m pytest -q streambench/test_check.py
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from outstream import (OutlierReport, TopologyConfig, WindowInterval,  # noqa: E402
                       assign_artificial_timestamps, count_window_config,
                       generate_gaussian_values, GaussianMixtureSpec, run_topology)
from layers import PER_LAYER_UNITS, Tracer  # noqa: E402
from reference import Checker, Shape, check_report, expected_reports  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402

SHAPE = Shape(w=200, s=40, R=0.6, k=10)


def _stream(dims=2, seed=5, windows=3):
    values = generate_gaussian_values(GaussianMixtureSpec(dims=dims, seed=seed),
                                      SHAPE.w * windows)
    return assign_artificial_timestamps(values, SHAPE.w, SHAPE.s)


def _report(exp, outliers):
    return OutlierReport(interval=WindowInterval(exp.start, exp.end, exp.end - 1),
                         outliers=frozenset(outliers), arrivals=exp.arrivals,
                         alive=exp.alive)


def test_reference_matches_brute_force_loop():
    src = _stream(windows=2)
    expected = expected_reports(src.ids, src.values, src.ts, SHAPE)
    rr = SHAPE.R * SHAPE.R
    for exp in expected:
        window = [i for i in range(len(src.ids)) if exp.start <= src.ts[i] < exp.end]
        loop = set()
        for i in window:
            count = 0
            for j in window:
                if j == i:
                    continue
                s = 0.0
                for a, b in zip(src.values[i].tolist(), src.values[j].tolist()):
                    s += (a - b) * (a - b)
                count += s <= rr
            if count < SHAPE.k:
                loop.add(int(src.ids[i]))
        assert exp.outliers == loop
        assert exp.alive == len(window)


def test_checker_catches_one_outlier_removed_and_one_added():
    src = _stream()
    expected = expected_reports(src.ids, src.values, src.ts, SHAPE)
    exp = next(e for e in expected if e.outliers and e.window_ids - e.outliers)
    assert check_report(_report(exp, exp.outliers), exp) == []

    dropped = min(exp.outliers)
    added = min(exp.window_ids - exp.outliers)
    corrupt = _report(exp, (exp.outliers - {dropped}) | {added})
    faults = check_report(corrupt, exp)
    assert any("missed" in f and str(dropped) in f for f in faults)
    assert any("reported inliers" in f and str(added) in f for f in faults)

    checker = Checker([exp])
    checker.check_round([corrupt])
    assert (checker.attempted, checker.failed) == (1, 1)


def test_checker_catches_wrong_counts_and_changed_rounds():
    src = _stream()
    expected = expected_reports(src.ids, src.values, src.ts, SHAPE)
    exp = expected[-1]
    good = replace(_report(exp, exp.outliers), delivered=4 * exp.arrivals)
    assert check_report(good, exp, copies_per_arrival=4) == []
    assert check_report(replace(good, alive=exp.alive + 1), exp)
    assert check_report(replace(good, arrivals=exp.arrivals - 1), exp)
    assert check_report(replace(good, delivered=good.delivered - 1), exp, 4)
    stray = max(src.ids) + 1
    assert any("outside the window" in f
               for f in check_report(replace(good, outliers=exp.outliers | {stray}), exp))

    checker = Checker([exp, exp])
    checker.check_round([good, good])
    assert checker.failed == 0
    other = replace(good, delivered=good.delivered + 1)
    checker.check_round([good, other])
    assert (checker.attempted, checker.failed) == (4, 1)


def test_traced_run_passes_checks_and_counts_every_copy():
    src = _stream(dims=1)
    cfg = count_window_config(SHAPE.w, SHAPE.s, R=SHAPE.R, k=SHAPE.k, dims=1, partitions=4)
    checker = Checker(expected_reports(src.ids, src.values, src.ts, SHAPE), 4)
    topo = TopologyConfig(window=cfg, algorithm="naive", partitioner="random", workers=1)
    tracer = Tracer()
    with tracer.installed():
        import outstream
        result = outstream.run_topology(src, topo)
    checker.check_round(result.reports)
    assert checker.failed == 0 and checker.attempted == len(result.reports)
    metrics = tracer.metrics()
    assert metrics["partition.copies"] == sum(r.delivered for r in result.reports)
    assert metrics["partition.route_calls"] == src.n
    assert metrics["processors.forwards"] > 0
    assert outstream.run_topology is run_topology   # wrappers were taken out again


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
