"""Spans and counts at the program's layer boundaries, recorded from outside.

`Tracer.installed` swaps wrappers in for the public functions and methods
of `outstream.partition`, `outstream.runtime`, `outstream.processors` and
`outstream.indexes` for the length of a ``with`` block, at the names the
program looks them up by (for example ``outstream.runtime.grid_route``, the
name `run_topology` calls), and puts the originals back afterwards.  Each
wrapped call becomes a span ``[name, start, end, parent]`` kept in memory;
`Tracer.metrics` turns one round's spans and counts into the per-layer
metrics, and `Tracer.write_spans` saves them.

A span's self time is its duration minus the durations of its direct
child spans.  The span stack is one per tracer, so parents are right only
when the program runs on one thread, as every workload does (``workers=1``).
"""

from __future__ import annotations

import contextlib
import csv
import time
from collections import defaultdict

# Per-layer metric name -> unit, in the order they are reported.
PER_LAYER_UNITS = {
    "partition.build_s": "s",
    "partition.route_s": "s",
    "partition.route_calls": "count",
    "partition.copies": "count",
    "runtime.stream_handler_s": "s",
    "runtime.make_batch_s": "s",
    "runtime.loop_s": "s",
    "processors.process_slide_s": "s",
    "processors.within_calls": "count",
    "processors.partition_ms_max": "ms",
    "processors.merge_s": "s",
    "processors.forwards": "count",
    "indexes.linear.queries": "count",
    "indexes.linear.query_s": "s",
    "indexes.linear.rows_scanned": "count",
    "indexes.linear.hits": "count",
    "indexes.linear.update_s": "s",
    "indexes.mtree.queries": "count",
    "indexes.mtree.query_s": "s",
    "indexes.mtree.hits": "count",
    "indexes.mtree.update_s": "s",
    "trace.round_s": "s",
}

# The counts among them; these repeat exactly from round to round.
COUNTS = tuple(name for name, unit in PER_LAYER_UNITS.items() if unit == "count")


class Tracer:
    """Records one round at a time; call `reset` before each round."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._slide_ms_max: dict = {}

    # -- wrapping --------------------------------------------------------------

    def _traced(self, name, orig, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            stack = self._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, span[2] - span[1])
            return result
        return traced

    def _counted(self, key, orig):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return orig(*args, **kwargs)
        return counted

    def _add(self, key, amount) -> None:
        self.counts[key] += amount

    @contextlib.contextmanager
    def installed(self):
        import outstream
        from outstream import indexes, processors, runtime
        from outstream.processors import microcluster

        def on_route(args, decision, _dur):
            self._add("partition.route_calls", 1)
            self._add("partition.copies", decision.copies)

        def on_slide(args, _out, dur):
            j = args[1].interval.slide_index
            self._slide_ms_max[j] = max(self._slide_ms_max.get(j, 0.0), dur * 1e3)

        def on_merge(args):
            self._add("processors.forwards", sum(len(f) for f in args[2]))

        def on_linear_query(args):
            self._add("indexes.linear.queries", 1)
            self._add("indexes.linear.rows_scanned", args[0]._n)

        def on_linear_hits(args, hits, _dur):
            self._add("indexes.linear.hits", len(hits))

        def on_mtree_query(args, hits, _dur):
            self._add("indexes.mtree.queries", 1)
            self._add("indexes.mtree.hits", len(hits))

        plan = [
            (outstream, "run_topology", "runtime.run_topology", None, None),
            (runtime, "stream_handler", "runtime.stream_handler", None, None),
            (runtime, "make_batch", "runtime.make_batch", None, None),
            (runtime, "build_grid", "partition.build", None, None),
            (runtime, "build_vp_partitioner", "partition.build", None, None),
            (runtime, "random_route", "partition.route", None, on_route),
            (runtime, "grid_route", "partition.route", None, on_route),
            (runtime, "vp_route", "partition.route", None, on_route),
            (processors.MetaWindow, "merge_slide", "processors.merge_slide", on_merge, None),
            (indexes.MTree, "query_ids", "indexes.mtree.query", None, on_mtree_query),
            (indexes.MTree, "add", "indexes.mtree.update", None, None),
            (indexes.MTree, "remove", "indexes.mtree.update", None, None),
            (indexes.LinearScanIndex, "add", "indexes.linear.update", None, None),
            (indexes.LinearScanIndex, "remove", "indexes.linear.update", None, None),
        ]
        for cls in (processors.MicroClusterProcessor, processors.WindowScanProcessor,
                    processors.SlicedWindowProcessor):
            plan.append((cls, "process_slide", "processors.process_slide", None, on_slide))
        for method in ("query_ids", "query_payloads", "query_comparable"):
            plan.append((indexes.LinearScanIndex, method, "indexes.linear.query",
                         on_linear_query, on_linear_hits))

        saved = [(microcluster, "within", microcluster.within)]
        microcluster.within = self._counted("processors.within_calls", microcluster.within)
        try:
            for owner, attr, name, before, after in plan:
                orig = vars(owner)[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._traced(name, orig, before, after))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the round recorded since the last `reset`."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        slides = self._slide_ms_max
        values = {
            "partition.build_s": total["partition.build"],
            "partition.route_s": own["partition.route"],
            "runtime.stream_handler_s": own["runtime.stream_handler"],
            "runtime.make_batch_s": total["runtime.make_batch"],
            "runtime.loop_s": own["runtime.run_topology"],
            "processors.process_slide_s": own["processors.process_slide"],
            "processors.partition_ms_max": (sum(slides.values()) / len(slides)
                                            if slides else 0.0),
            "processors.merge_s": total["processors.merge_slide"],
            "indexes.linear.query_s": total["indexes.linear.query"],
            "indexes.linear.update_s": own["indexes.linear.update"],
            "indexes.mtree.query_s": total["indexes.mtree.query"],
            "indexes.mtree.update_s": own["indexes.mtree.update"],
            "trace.round_s": total["runtime.run_topology"],
        }
        values.update(self.counts)
        return {name: values[name] for name in PER_LAYER_UNITS}

    def write_spans(self, path) -> None:
        """Spans as CSV rows: index, name, start and end in seconds, parent index."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start_s", "end_s", "parent"))
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow((i, name, f"{start - t0:.7f}", f"{end - t0:.7f}", parent))
