"""A small benchmark sweep over slide sizes, with verified results.

Mirrors what the command line does, in library form: for each slide size
the micro-cluster detector and the naive solution process the same
stream; per-slide outlier sets are verified against the oracle and the
aggregate metrics are printed one row per run.

The CLI equivalent of one of these rows:

    outstream --algorithm pmcod --partitioning grid --W 4000 --S 10% \
        --R 0.28 --k 20 --partitions 4 --gaussian --seed 2 \
        --slides 18 --verify --out /tmp/sweep_10pct
"""

from outstream import (GaussianMixtureSpec, TopologyConfig,
                       assign_artificial_timestamps, check_against_oracle,
                       count_window_config, generate_gaussian_values,
                       run_topology)

W, R, K, PARTITIONS, SLIDES = 4_000, 0.28, 20, 4, 18

print(f"{'slide':>6s} {'algorithm':>10s} {'mean ms':>9s} {'median ms':>10s} "
      f"{'objs/s':>9s} {'repl':>6s} {'outl %':>7s}")
for s_pct in (5, 10, 20, 50):
    s_count = W * s_pct // 100
    values = generate_gaussian_values(GaussianMixtureSpec(dims=1, seed=2),
                                      SLIDES * s_count)
    for algorithm, partitioner in (("pmcod", "grid"), ("naive", "random")):
        src = assign_artificial_timestamps(values, W, s_count)
        cfg = count_window_config(W, s_count, R=R, k=K, dims=1,
                                  partitions=PARTITIONS)
        topo = TopologyConfig(window=cfg, algorithm=algorithm,
                              partitioner=partitioner, workers=1)
        res = run_topology(src, topo)
        problems = check_against_oracle(res.reports, src, cfg)
        assert not problems, problems[:2]
        m = res.metrics
        print(f"{s_pct:5d}% {algorithm:>10s} {m.mean_slide_ms:9.2f} "
              f"{m.median_slide_ms:10.2f} {m.throughput_obj_s:9.0f} "
              f"{m.replication_factor:6.2f} {100 * m.outlier_fraction:6.2f}%")

print("\nevery run verified against the brute-force oracle")
