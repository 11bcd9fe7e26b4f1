"""Paper-style throughput ratios: pmcod against naive and against advanced, one stream.

    python3 streambench/ratios.py [--seed 1] [--rounds 5]

The three workloads of `run.py` differ in shape, so their throughputs do
not divide into the paper's ratios.  This script runs pmcod (grid),
advanced (grid) and naive (random) on one stream, the `naive-random-1d`
shape (1-d, window 2,000, slide 200, three windows, R = 0.8, k = 50,
4 partitions, ``workers=1``), interleaves their rounds, and prints each
one's fastest-round throughput and the two ratios.  Reports are checked
against `reference.py` like in `run.py`.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from run import import_program, make_checker
from workloads import WORKLOADS, make_inputs

CONFIGS = (("pmcod", "grid"), ("naive", "random"), ("advanced", "grid"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    outstream = import_program()
    if outstream is None:
        return 2
    base = WORKLOADS["naive-random-1d"]
    runs = {}
    for algorithm, partitioner in CONFIGS:
        wl = replace(base, algorithm=algorithm, partitioner=partitioner)
        source, topo = make_inputs(wl, args.seed)
        runs[algorithm] = (source, topo, make_checker(wl, source), [])
    for _ in range(args.rounds):
        for source, topo, checker, times in runs.values():
            t0 = time.perf_counter()
            result = outstream.run_topology(source, topo)
            times.append(time.perf_counter() - t0)
            checker.check_round(result.reports)
    tput = {}
    for algorithm, (source, _, checker, times) in runs.items():
        tput[algorithm] = source.n / min(times)
        print(f"{algorithm:9s} {tput[algorithm]:10.1f} obj/s  "
              f"slides failed {checker.failed}/{checker.attempted}")
    print(f"pmcod/naive {tput['pmcod'] / tput['naive']:.2f}x  "
          f"pmcod/advanced {tput['pmcod'] / tput['advanced']:.2f}x")
    return 0 if all(c.failed == 0 for _, _, c, _ in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
