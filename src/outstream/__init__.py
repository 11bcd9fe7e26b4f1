"""Parallel continuous distance-based outlier detection over sliding windows.

A library of exact streaming outlier detectors sharing one partitioned
sliding-window runtime: a single-partition baseline, a fully replicated
naive parallel variant, linear-scan variants with value-based
partitioning (grid or VP-tree regions, with and without per-slide time
slicing), and a micro-cluster variant with pluggable neighbor-search
backends and event queues.  A brute-force oracle provides ground truth
for every configuration.
"""

from .core import (OutlierReport, StreamObject, WindowConfig, WindowInterval,
                   distance, is_outlier, is_safe_inlier, prune_nn_before,
                   trim_nn_before, within)
from .datasets import (DEFAULT_GAUSSIAN, DatasetSpec, GaussianMixtureSpec,
                       generate_gaussian_values, read_csv_stream, read_csv_values)
from .indexes import LinearScanIndex, MTree, VPTree, range_query
from .oracle import (brute_force_oracle, check_against_oracle, first_safe_slides,
                     neighbor_counts, oracle_report_sets, oracle_slide_analysis)
from .partition import (GridSpec, RoutingDecision, VPPartitionSpec, build_grid,
                        build_vp_partitioner, grid_route, random_route, vp_route)
from .processors import (EventQueue, MetaWindow, MicroClusterProcessor,
                         SlicedWindowProcessor, WindowScanProcessor,
                         select_neighbor_backend)
from .runtime import (RunMetrics, RunResult, StreamSource, TopologyConfig,
                      assign_artificial_timestamps, collect_metrics,
                      count_window_config, run_topology)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_GAUSSIAN", "DatasetSpec", "EventQueue", "GaussianMixtureSpec",
    "GridSpec", "LinearScanIndex", "MTree", "MetaWindow",
    "MicroClusterProcessor", "OutlierReport", "RoutingDecision", "RunMetrics",
    "RunResult", "SlicedWindowProcessor", "StreamObject", "StreamSource",
    "TopologyConfig", "VPPartitionSpec", "VPTree", "WindowConfig",
    "WindowInterval", "WindowScanProcessor", "assign_artificial_timestamps",
    "brute_force_oracle", "build_grid", "build_vp_partitioner",
    "check_against_oracle", "collect_metrics", "count_window_config",
    "distance", "first_safe_slides", "generate_gaussian_values", "grid_route",
    "is_outlier", "is_safe_inlier", "neighbor_counts", "oracle_report_sets",
    "oracle_slide_analysis", "prune_nn_before", "random_route", "range_query",
    "read_csv_stream", "read_csv_values", "run_topology",
    "select_neighbor_backend", "trim_nn_before", "vp_route", "within",
]
