"""Brute-force ground truth for every equivalence test.

The oracle recomputes each window from the raw source, independently of
any processor state, using the same closed-ball predicate and the same
floating-point kernels as the engine (squared euclidean terms accumulated
dimension by dimension, left to right, as `outstream.core.column_keys`
does), so agreement is exact rather than approximate.
"""

from __future__ import annotations

import numpy as np

from .core import WindowConfig, WindowInterval
from .runtime import StreamSource

_CHUNK_CELLS = 4_000_000   # rows x cols per pairwise block


def _hits_block(X: np.ndarray, lo: int, hi: int, R: float, metric: str) -> np.ndarray:
    """Closed-ball adjacency of rows lo:hi against all rows (self included)."""
    acc = None
    for j in range(X.shape[1]):
        t = X[lo:hi, j, None] - X[None, :, j]
        if metric == "euclidean":
            t *= t
        else:
            np.abs(t, out=t)
        acc = t if acc is None else acc + t
    return acc <= (R * R if metric == "euclidean" else R)


def neighbor_counts(values: np.ndarray, R: float,
                    metric: str = "euclidean") -> np.ndarray:
    """Number of closed-ball neighbors of every row (self excluded)."""
    X = np.asarray(values, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    n = len(X)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    counts = np.empty(n, dtype=np.int64)
    rows = max(1, _CHUNK_CELLS // max(1, n))
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        counts[lo:hi] = _hits_block(X, lo, hi, R, metric).sum(axis=1) - 1
    return counts


def brute_force_oracle(values, R: float, k: int, ids=None,
                       metric: str = "euclidean") -> set:
    """Ids of objects with fewer than ``k`` neighbors within ``R``."""
    X = np.asarray(values, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if ids is None:
        ids = range(len(X))
    ids = list(ids)
    if k <= 0:
        return set()
    counts = neighbor_counts(X, R, metric)
    return {ids[i] for i in np.flatnonzero(counts < k)}


def oracle_slide_analysis(source: StreamSource, cfg: WindowConfig,
                          n_slides: int) -> tuple:
    """One pairwise pass per slide: outlier sets plus safe-inlier onset.

    Returns ``(report_sets, first_safe)`` where ``report_sets[j]`` is the
    exact outlier id set of slide ``j`` and ``first_safe[oid]`` is the
    earliest slide at which the object holds k same-or-later-slide
    neighbors.  Succeeding neighbors never expire before the object does,
    so from that slide on the object can never be an outlier again.
    """
    report_sets: list = []
    first_safe: dict = {}
    for j in range(n_slides):
        interval = WindowInterval(start=(j + 1) * cfg.S - cfg.W,
                                  end=(j + 1) * cfg.S, slide_index=j)
        rows = source.window_rows(interval)
        X = source.values[rows]
        ids = source.ids[rows]
        n = len(X)
        if n == 0:
            report_sets.append(set())
            continue
        slide_of = source.ts[rows] // cfg.S
        group_start = np.searchsorted(slide_of, slide_of, side="left")
        counts = np.empty(n, dtype=np.int64)
        succ = np.empty(n, dtype=np.int64)
        step = max(1, _CHUNK_CELLS // max(1, n))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            hits = _hits_block(X, lo, hi, cfg.R, cfg.metric)
            counts[lo:hi] = hits.sum(axis=1) - 1
            r = lo
            while r < hi:
                b = group_start[r]
                g_end = min(hi, int(np.searchsorted(slide_of, slide_of[r], side="right")))
                succ[r:g_end] = hits[r - lo:g_end - lo, b:].sum(axis=1) - 1
                r = g_end
        report_sets.append({int(ids[i]) for i in np.flatnonzero(counts < cfg.k)})
        for i in np.flatnonzero(succ >= cfg.k):
            oid = int(ids[i])
            if oid not in first_safe:
                first_safe[oid] = j
    return report_sets, first_safe


def oracle_report_sets(source: StreamSource, cfg: WindowConfig,
                       n_slides: int) -> list:
    """Per-slide outlier id sets straight from the raw stream."""
    return oracle_slide_analysis(source, cfg, n_slides)[0]


def first_safe_slides(source: StreamSource, cfg: WindowConfig,
                      n_slides: int) -> dict:
    """Earliest slide at which each object holds k same-or-later neighbors."""
    return oracle_slide_analysis(source, cfg, n_slides)[1]


def check_against_oracle(reports, source: StreamSource, cfg: WindowConfig) -> list:
    """Compare engine reports to the oracle; returns mismatch descriptions."""
    expected = oracle_report_sets(source, cfg, len(reports))
    problems = []
    for rep, want in zip(reports, expected):
        got = set(rep.outliers)
        if got != want:
            problems.append({
                "slide": rep.interval.slide_index,
                "missing": sorted(want - got),
                "spurious": sorted(got - want),
            })
    return problems
