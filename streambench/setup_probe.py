"""One cold set-up, run as its own process: import outstream, build the partitioner.

    python3 streambench/setup_probe.py <workload> <seed>

The caller times this process from its start to its exit.  It builds the
partitioner from the same sample `outstream.run_topology` would take
(the stream's first ``sample_size`` objects); random routing builds none.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import outstream  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def main(name: str, seed: int) -> None:
    source, topo = make_inputs(WORKLOADS[name], seed)
    cfg = topo.window
    sample = source.values[: min(source.n, topo.sample_size)]
    if topo.partitioner == "grid":
        outstream.build_grid(sample, cfg.partitions, cfg.R)
    elif topo.partitioner == "vptree":
        outstream.build_vp_partitioner(sample, cfg.partitions, cfg.R,
                                       metric=cfg.metric, seed=topo.partition_seed)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
