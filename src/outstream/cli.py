"""Benchmark command line.

Exit codes: 0 success, 1 oracle verification mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .bench import RunRecord, write_run_record
from .datasets import (DatasetSpec, GaussianMixtureSpec, generate_gaussian_values,
                       read_csv_values)
from .oracle import check_against_oracle
from .runtime import (ALGORITHMS, PARTITIONERS, TopologyConfig,
                      assign_artificial_timestamps, build_partition_spec,
                      count_window_config, run_routed)
from .processors import BACKENDS, QUEUE_FLAVORS


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="outstream",
        description="Parallel continuous distance-based outlier detection benchmark")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="pmcod")
    p.add_argument("--partitioning", choices=PARTITIONERS, default="grid")
    p.add_argument("--W", type=int, required=True,
                   help="window size as an object count")
    p.add_argument("--S", required=True,
                   help="slide as an object count or a percentage like 10%%")
    p.add_argument("--R", type=float, required=True, help="distance threshold")
    p.add_argument("--k", type=int, required=True, help="neighbor count threshold")
    p.add_argument("--dims", type=int, default=None,
                   help="dimensionality (gaussian source; checked against datasets)")
    p.add_argument("--columns", default=None,
                   help="comma-separated column indexes to read from the dataset")
    p.add_argument("--normalize", action="store_true",
                   help="min-max normalize each selected dimension")
    p.add_argument("--partitions", type=int, default=None,
                   help="partition count (default 16; baseline defaults to 1)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker threads (default: one per partition)")
    p.add_argument("--flavor-backend", choices=BACKENDS, default="none",
                   help="pmcod neighbor-search backend")
    p.add_argument("--flavor-queue", choices=QUEUE_FLAVORS, default="none",
                   help="pmcod event queue flavor")
    p.add_argument("--slicing", choices=("on", "off"), default="off",
                   help="one index per slide (advanced algorithm only)")
    p.add_argument("--dataset", default=None, help="CSV file to stream")
    p.add_argument("--gaussian", action="store_true",
                   help="use the bundled gaussian mixture generator")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slides", type=int, default=200,
                   help="number of slides to run (default 200)")
    p.add_argument("--sample-size", type=int, default=10_000,
                   help="objects used to build value partitioners")
    p.add_argument("--verify", action="store_true",
                   help="check every slide against the brute-force oracle")
    p.add_argument("--out", default=None,
                   help="output path prefix for the run record files")
    return p


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def parse_slide(spec: str, w_count: int) -> int:
    if spec.endswith("%"):
        pct = float(spec[:-1])
        if not 0 < pct <= 100:
            raise ValueError(f"slide percentage out of range: {spec}")
        s = round(w_count * pct / 100)
    else:
        s = int(spec)
    if s <= 0:
        raise ValueError(f"slide must be positive, got {spec}")
    return s


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if (args.dataset is None) == (not args.gaussian):
        return _usage_error("exactly one of --dataset or --gaussian is required")
    try:
        s_count = parse_slide(args.S, args.W)
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.W % s_count != 0:
        return _usage_error(
            f"window must be an integer multiple of the slide: W={args.W} S={s_count}")

    partitions = args.partitions
    if partitions is None:
        partitions = 1 if args.algorithm == "baseline" else 16

    algorithm = args.algorithm
    if args.slicing == "on":
        if algorithm not in ("advanced", "advanced-sliced"):
            return _usage_error("--slicing on applies to the advanced algorithm only")
        algorithm = "advanced-sliced"

    n = args.slides * s_count
    if args.dataset is not None:
        columns = None
        if args.columns is not None:
            try:
                columns = tuple(int(c) for c in args.columns.split(","))
            except ValueError:
                return _usage_error(f"bad --columns value: {args.columns!r}")
        spec = DatasetSpec(path=args.dataset, delimiter=",", columns=columns,
                           normalize=args.normalize)
        try:
            values = read_csv_values(spec)
        except (OSError, ValueError) as exc:
            return _usage_error(str(exc))
        if args.dims is not None and values.shape[1] != args.dims:
            return _usage_error(
                f"--dims {args.dims} does not match dataset width {values.shape[1]}")
        values = values[:n]
        if len(values) < n:
            print(f"note: dataset holds {len(values)} rows; "
                  f"running {len(values) // s_count} slides", file=sys.stderr)
    else:
        dims = args.dims if args.dims is not None else 1
        values = generate_gaussian_values(GaussianMixtureSpec(dims=dims, seed=args.seed), n)

    try:
        source = assign_artificial_timestamps(values, args.W, s_count)
        cfg = count_window_config(args.W, s_count, args.R, args.k,
                                  dims=values.shape[1], partitions=partitions)
        topo = TopologyConfig(window=cfg, algorithm=algorithm,
                              partitioner=args.partitioning,
                              flavor_backend=args.flavor_backend,
                              flavor_queue=args.flavor_queue,
                              workers=args.workers,
                              sample_size=args.sample_size,
                              partition_seed=args.seed)
    except ValueError as exc:
        return _usage_error(str(exc))
    try:
        spec = build_partition_spec(source, topo)
    except ValueError as exc:     # e.g. a degenerate sample for the grid or VP-tree
        return _usage_error(str(exc))

    result = run_routed(source, topo, spec)
    config_echo = {
        "algorithm": algorithm, "partitioning": args.partitioning,
        "W": args.W, "S": s_count, "R": args.R, "k": args.k,
        "dims": values.shape[1], "partitions": partitions,
        "workers": topo.effective_workers, "flavor_backend": args.flavor_backend,
        "flavor_queue": args.flavor_queue, "seed": args.seed,
        "slides": len(result.reports),
        "source": args.dataset if args.dataset else "gaussian",
    }
    record = RunRecord.from_result(result, config_echo)
    if args.out:
        paths = write_run_record(record, args.out)
        print(f"wrote {paths[0]} and {paths[1]}")
    print(record.summary_line())

    if args.verify:
        problems = check_against_oracle(result.reports, source, cfg)
        if problems:
            for p in problems[:5]:
                print(f"verification mismatch at slide {p['slide']}: "
                      f"missing={p['missing'][:10]} spurious={p['spurious'][:10]}",
                      file=sys.stderr)
            print(f"verification failed on {len(problems)} slides", file=sys.stderr)
            return 1
        print(f"verified {len(result.reports)} slides against the brute-force oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
