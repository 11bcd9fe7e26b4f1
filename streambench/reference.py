"""Outlier reference and report checks, written apart from `outstream.oracle`.

The reference applies the documented predicate to the raw stream: an
object in a window is an outlier when fewer than ``k`` other objects of
that window lie within R of it, where "within" means the squared
euclidean distance, summed over coordinates from left to right, is at
most ``R * R``.  It works slide block against slide block with numpy, so
one pass over the stream gives, for every object, its neighbour count in
every slide; a window's count is then a sum over the window's slides.

The checks here use only the stream (ids, coordinates, ticks) and the
window shape; they import nothing from the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Rows per block when comparing one slide's objects with later slides; it
# bounds the temporaries to a few tens of megabytes.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class Shape:
    """A count-emulated window: ``w`` objects, ``s`` per slide, one tick each."""

    w: int
    s: int
    R: float
    k: int

    @property
    def slides_per_window(self) -> int:
        return self.w // self.s


def _within(a: np.ndarray, b: np.ndarray, rr: float) -> np.ndarray:
    """Pairwise closed-ball test, rows of ``a`` against rows of ``b``."""
    diff = a[:, None, 0] - b[None, :, 0]
    acc = diff * diff
    for d in range(1, a.shape[1]):
        diff = a[:, None, d] - b[None, :, d]
        acc = acc + diff * diff
    return acc <= rr


def slide_neighbour_counts(values: np.ndarray, shape: Shape) -> np.ndarray:
    """``counts[i, s]``: objects of slide ``s`` within R of object ``i``.

    Only slides that can share a window with object ``i`` are filled in;
    the object itself is never counted.
    """
    n = len(values)
    n_slides = n // shape.s
    span = shape.slides_per_window
    rr = shape.R * shape.R
    counts = np.zeros((n, n_slides), dtype=np.int32)
    for s in range(n_slides):
        lo = s * shape.s
        col_end = min(n_slides, s + span) * shape.s
        cols = values[lo:col_end]
        for r0 in range(lo, lo + shape.s, _BLOCK_ROWS):
            r1 = min(r0 + _BLOCK_ROWS, lo + shape.s)
            hit = _within(values[r0:r1], cols, rr)
            hit[np.arange(r1 - r0), np.arange(r0 - lo, r1 - lo)] = False
            # row side: objects r0..r1 gain neighbours in every column slide
            for t in range(s, min(n_slides, s + span)):
                a = (t - s) * shape.s
                counts[r0:r1, t] += hit[:, a:a + shape.s].sum(axis=1, dtype=np.int32)
            # column side, later slides only: the same pair seen from the other end
            counts[lo + shape.s:col_end, s] += hit[:, shape.s:].sum(axis=0, dtype=np.int32)
    return counts


@dataclass(frozen=True)
class Expected:
    """What every report of slide ``j`` must say, from the stream alone."""

    start: int
    end: int
    arrivals: int
    alive: int
    window_ids: frozenset
    outliers: frozenset


def expected_reports(ids: np.ndarray, values: np.ndarray, ts: np.ndarray,
                     shape: Shape) -> list:
    """One `Expected` per slide; window ``j`` covers ticks ``[j+1-W, j+1)``.

    ``W`` here is the window in slides (ticks), and object ``i`` must sit at
    tick ``i // shape.s``, as `assign_artificial_timestamps` places it.
    """
    counts = slide_neighbour_counts(values, shape)
    span = shape.slides_per_window
    n_slides = len(values) // shape.s
    out = []
    for j in range(n_slides):
        start, end = j + 1 - span, j + 1
        lo = int(np.searchsorted(ts, start, side="left"))
        hi = int(np.searchsorted(ts, end, side="left"))
        first = max(start, 0)
        in_window = counts[lo:hi, first:end].sum(axis=1)
        out.append(Expected(
            start=start, end=end,
            arrivals=int(np.count_nonzero(ts == j)),
            alive=hi - lo,
            window_ids=frozenset(ids[lo:hi].tolist()),
            outliers=frozenset(ids[lo:hi][in_window < shape.k].tolist())))
    return out


def check_report(report, exp: Expected, copies_per_arrival: int | None = None) -> list:
    """Every way ``report`` disagrees with ``exp``; empty when it is right."""
    faults = []
    iv = report.interval
    if (iv.start, iv.end) != (exp.start, exp.end):
        faults.append(f"interval [{iv.start}, {iv.end}) != [{exp.start}, {exp.end})")
    if report.arrivals != exp.arrivals:
        faults.append(f"arrivals {report.arrivals} != {exp.arrivals}")
    if report.alive != exp.alive:
        faults.append(f"alive {report.alive} != {exp.alive}")
    stray = report.outliers - exp.window_ids
    if stray:
        faults.append(f"outlier ids outside the window: {sorted(stray)[:5]}")
    missing = exp.outliers - report.outliers
    extra = report.outliers - exp.outliers
    if missing:
        faults.append(f"missed outliers: {sorted(missing)[:5]}")
    if extra:
        faults.append(f"reported inliers as outliers: {sorted(extra)[:5]}")
    if copies_per_arrival is not None and report.delivered != copies_per_arrival * exp.arrivals:
        faults.append(f"delivered {report.delivered} != "
                      f"{copies_per_arrival} x {exp.arrivals} arrivals")
    return faults


def signature(report) -> tuple:
    """A report's content, timing left out."""
    iv = report.interval
    return (iv.start, iv.end, tuple(sorted(report.outliers)),
            report.arrivals, report.delivered, report.alive)


class Checker:
    """Checks each round's reports against the reference and the first round.

    Every slide of every round is one attempted operation; a slide fails
    when any check on its report fails.
    """

    def __init__(self, expected: list, copies_per_arrival: int | None = None):
        self.expected = expected
        self.copies_per_arrival = copies_per_arrival
        self.first: list | None = None
        self.attempted = 0
        self.failed = 0
        self.faults: list = []       # (slide, reasons), first few only
        self.run_faults: list = []   # faults of the run as a whole

    def check_round(self, reports: list) -> None:
        sigs = [signature(r) for r in reports]
        if self.first is None:
            self.first = sigs
        for j, exp in enumerate(self.expected):
            self.attempted += 1
            if len(reports) != len(self.expected):
                faults = [f"{len(reports)} reports for {len(self.expected)} slides"]
            else:
                faults = check_report(reports[j], exp, self.copies_per_arrival)
                if sigs[j] != self.first[j]:
                    faults.append("differs from the first round's report")
            if faults:
                self.failed += 1
                if len(self.faults) < 10:
                    self.faults.append((j, faults))
