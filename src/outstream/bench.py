"""Benchmark result records: one summary row plus per-slide lines, CSV."""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

from .runtime import RunMetrics, RunResult


@dataclass(frozen=True)
class SlideStat:
    slide_index: int
    start: int
    end: int
    arrivals: int
    delivered: int
    alive: int
    outliers: int
    wall_ms: float


@dataclass(frozen=True)
class RunRecord:
    """Config echo, aggregate metrics, and per-slide counters for one run."""

    config: tuple          # ordered (key, value-string) pairs
    metrics: RunMetrics
    slides: tuple

    @classmethod
    def from_result(cls, result: RunResult, config: dict) -> "RunRecord":
        slides = tuple(
            SlideStat(slide_index=r.interval.slide_index, start=r.interval.start,
                      end=r.interval.end, arrivals=r.arrivals, delivered=r.delivered,
                      alive=r.alive, outliers=len(r.outliers),
                      wall_ms=r.slide_wall_time * 1e3)
            for r in result.reports)
        return cls(config=tuple((str(k), str(v)) for k, v in config.items()),
                   metrics=result.metrics, slides=slides)

    def summary_line(self) -> str:
        m = self.metrics
        return (f"slides={m.n_slides} mean_slide_ms={m.mean_slide_ms:.3f} "
                f"median_slide_ms={m.median_slide_ms:.3f} "
                f"throughput_obj_s={m.throughput_obj_s:.1f} "
                f"replication_factor={m.replication_factor:.3f} "
                f"outlier_pct={100 * m.outlier_fraction:.3f}")


def _names(cls) -> list:
    return [f.name for f in fields(cls)]


def _cells(obj) -> list:
    """Each field of ``obj`` as its ``repr``, which parses back exactly."""
    return [repr(getattr(obj, name)) for name in _names(obj)]


def _parse(cls, cells: dict):
    """``cls`` from its fields' cells, each parsed by the field's type."""
    return cls(**{f.name: (int if f.type in (int, "int") else float)(cells[f.name])
                  for f in fields(cls)})


def write_run_record(record: RunRecord, prefix: str) -> tuple:
    """Write ``<prefix>.summary.csv`` and ``<prefix>.slides.csv``."""
    summary_path = f"{prefix}.summary.csv"
    slides_path = f"{prefix}.slides.csv"
    keys = [k for k, _ in record.config]
    with open(summary_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(keys + _names(RunMetrics))
        w.writerow([v for _, v in record.config] + _cells(record.metrics))
    with open(slides_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_names(SlideStat))
        w.writerows(_cells(s) for s in record.slides)
    return summary_path, slides_path


def load_run_record(prefix: str) -> RunRecord:
    """Parse files written by `write_run_record` back into an equal record."""
    with open(f"{prefix}.summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, values = rows[0], rows[1]
    n_cfg = len(header) - len(fields(RunMetrics))
    config = tuple(zip(header[:n_cfg], values[:n_cfg]))
    metrics = _parse(RunMetrics, dict(zip(header[n_cfg:], values[n_cfg:])))
    with open(f"{prefix}.slides.csv", newline="") as fh:
        slides = tuple(_parse(SlideStat, row) for row in csv.DictReader(fh))
    return RunRecord(config=config, metrics=metrics, slides=slides)
