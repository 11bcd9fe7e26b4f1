"""Run one benchmark workload through `outstream.run_topology` and print its metrics.

    python3 streambench/run.py --workload pmcod-grid-2d --seed 1 --seconds 36 --trace 0

Run from anywhere inside a source checkout: the program is imported from
the checkout's ``src`` directory.  With ``--trace 0`` the run is:

1. one cold set-up: a fresh process that imports outstream and builds the
   workload's partitioner (`setup_probe.py`), timed from its start to its
   exit, is ``setup_s``;
2. one untimed warm-up round; the process's peak resident set size after
   it is ``peak_mem_mb``;
3. timed rounds, each one whole `run_topology` call, for ``--seconds``
   seconds and at least ten rounds; ``throughput_obj_s`` is the stream's
   object count over the fastest round's wall time.

With ``--trace 1`` the rounds run under `layers.Tracer` instead and the
per-layer metrics of the fastest traced round after the first are printed;
that round's spans go to ``streambench/out/``.

Every slide of every round is checked against `reference.py`.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from reference import Checker, Shape, expected_reports  # noqa: E402
from layers import COUNTS, PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import K, PARTITIONS, WORKLOADS, make_inputs  # noqa: E402

END_TO_END_UNITS = {"throughput_obj_s": "obj/s", "setup_s": "s", "peak_mem_mb": "MB"}

MIN_ROUNDS = 10
MIN_TRACED_ROUNDS = 3
# Stop starting rounds after this long, whatever --seconds says.
HARD_STOP_S = 150.0


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_program():
    """`outstream` from this checkout's ``src``, or None when it is not there."""
    try:
        import outstream
    except ImportError as exc:
        log(f"cannot import outstream from {SRC}: {exc}")
        return None
    if not Path(outstream.__file__).resolve().is_relative_to(SRC):
        log(f"outstream came from {outstream.__file__}, not from {SRC}")
        return None
    return outstream


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_probe(name: str, seed: int) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def make_checker(wl, source) -> Checker:
    expected = expected_reports(source.ids, source.values, source.ts,
                                Shape(wl.w, wl.s, wl.R, K))
    return Checker(expected, PARTITIONS if wl.algorithm == "naive" else None)


def timed_run(outstream, name, seed, seconds, wl, source, topo):
    setup_s = setup_probe(name, seed)
    warm = outstream.run_topology(source, topo)
    # Read before the reference is computed, whose temporaries would
    # otherwise set the peak.  The whole process is counted, not the growth
    # during the round: pymalloc takes memory from the system in 1 MiB
    # arenas, so a growth of a few MB jumped by one arena from seed to seed.
    peak_mem_mb = peak_rss_mb()
    checker = make_checker(wl, source)
    checker.check_round(warm.reports)

    rounds: list = []
    inner: list = []     # the program's own RunMetrics.throughput_obj_s per round
    started = time.monotonic()
    while ((len(rounds) < MIN_ROUNDS or time.monotonic() - started < seconds)
           and time.monotonic() - started < HARD_STOP_S):
        t0 = time.perf_counter()
        result = outstream.run_topology(source, topo)
        rounds.append(time.perf_counter() - t0)
        inner.append(result.metrics.throughput_obj_s)
        checker.check_round(result.reports)
    log("round s: " + " ".join(f"{t:.4f}" for t in rounds))
    log(f"setup s: {setup_s:.4f}")
    fastest = rounds.index(min(rounds))
    log(f"fastest round: {source.n / rounds[fastest]:.1f} obj/s timed around run_topology, "
        f"{inner[fastest]:.1f} obj/s by RunMetrics.throughput_obj_s")
    return checker, {
        "throughput_obj_s": source.n / min(rounds),
        "setup_s": setup_s,
        "peak_mem_mb": peak_mem_mb,
    }


def traced_run(outstream, name, seed, seconds, wl, source, topo):
    checker = make_checker(wl, source)
    tracer = Tracer()
    best = None
    first_counts = None
    started = time.monotonic()
    with tracer.installed():
        n = 0
        while ((n < MIN_TRACED_ROUNDS or time.monotonic() - started < seconds)
               and time.monotonic() - started < HARD_STOP_S):
            tracer.reset()
            result = outstream.run_topology(source, topo)
            n += 1
            checker.check_round(result.reports)
            metrics = tracer.metrics()
            counts = {c: metrics[c] for c in COUNTS}
            delivered = sum(r.delivered for r in result.reports)
            if counts["partition.copies"] != delivered:
                checker.run_faults.append(f"round {n}: partition.copies "
                                          f"{counts['partition.copies']} != delivered {delivered}")
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                checker.run_faults.append(f"round {n}: counts {counts} != round 1 {first_counts}")
            if n > 1 and (best is None or metrics["trace.round_s"] < best["trace.round_s"]):
                best = metrics
                out = HERE / "out"
                out.mkdir(exist_ok=True)
                tracer.write_spans(out / f"spans-{name}-seed{seed}.csv")
    log(f"traced rounds: {n}")
    return checker, best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    outstream = import_program()
    if outstream is None:
        return 2
    wl = WORKLOADS[args.workload]
    source, topo = make_inputs(wl, args.seed)
    run = traced_run if args.trace else timed_run
    checker, values = run(outstream, args.workload, args.seed, args.seconds,
                          wl, source, topo)
    for j, faults in checker.faults:
        log(f"slide {j}: {'; '.join(faults)}")
    for fault in checker.run_faults:
        log(fault)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": checker.failed == 0 and not checker.run_faults,
                      "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
