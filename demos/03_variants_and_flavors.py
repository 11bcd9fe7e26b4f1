"""Every detector variant produces the same outliers; only the cost differs.

The same seeded gaussian stream runs through the naive replicated
solution, the advanced variants (with and without per-slide time
slicing), and the micro-cluster detector in its four neighbor-search
flavors.  All report sequences are identical; the table shows what each
one paid per slide.
"""

from outstream import (GaussianMixtureSpec, TopologyConfig,
                       assign_artificial_timestamps, count_window_config,
                       generate_gaussian_values, run_topology)

W, S_COUNT, R, K, PARTITIONS = 4_000, 400, 0.28, 20, 4
values = generate_gaussian_values(GaussianMixtureSpec(dims=1, seed=11), 8_000)

configs = [
    ("naive (full replication)", "naive", "random", {}),
    ("advanced (scan, meta-window)", "advanced", "random", {}),
    ("advanced (scan, grid)", "advanced", "grid", {}),
    ("advanced + time slicing", "advanced-sliced", "grid", {}),
    ("pmcod full-mtree", "pmcod", "grid", {"flavor_backend": "full-mtree"}),
    ("pmcod plain scans", "pmcod", "grid", {}),
    ("pmcod po-mtree", "pmcod", "grid", {"flavor_backend": "po-mtree"}),
    ("pmcod dual-mtree + heap queue", "pmcod", "grid",
     {"flavor_backend": "dual-mtree", "flavor_queue": "heap"}),
]

baseline_sets = None
print(f"{'variant':34s} {'mean ms/slide':>13s} {'outlier %':>10s}")
for label, algorithm, partitioner, flavors in configs:
    src = assign_artificial_timestamps(values, W, S_COUNT)
    cfg = count_window_config(W, S_COUNT, R=R, k=K, dims=1,
                              partitions=PARTITIONS)
    topo = TopologyConfig(window=cfg, algorithm=algorithm,
                          partitioner=partitioner, workers=1, **flavors)
    res = run_topology(src, topo)
    sets = [r.outliers for r in res.reports]
    if baseline_sets is None:
        baseline_sets = sets
    agree = "ok" if sets == baseline_sets else "MISMATCH"
    print(f"{label:34s} {res.metrics.mean_slide_ms:13.2f} "
          f"{100 * res.metrics.outlier_fraction:9.2f}%  {agree}")

print("\nall variants reported identical outlier sets per slide")
