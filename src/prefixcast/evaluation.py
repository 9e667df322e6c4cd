"""Scoring of selection runs against ground-truth hourly volumes.

Coverage is the fraction of an hour's total volume carried by the set
predicted for that hour; churn counts how much the set changed between
consecutive hours.  Summaries use the six-number boxplot convention with
percentiles computed by linear interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dynamism import CoreProfile
from .selectors import SelectionRun
from .trace import HourlyTraceMatrix, Prefix

__all__ = [
    "BoxplotSummary",
    "EvaluationReport",
    "BurstinessCoveragePoints",
    "hourly_coverage",
    "churn",
    "boxplot_summary",
    "oracle_topk",
    "evaluate_run",
    "bi_vs_coverage",
]


def hourly_coverage(
    selected: Iterable[Prefix], m: HourlyTraceMatrix, hour: int
) -> float:
    """Fraction of hour ``hour``'s volume carried by the selected set.

    A zero-volume hour counts as fully covered (1.0) so that weekly
    summaries are not distorted by dead hours.  Selected prefixes absent
    from the matrix contribute nothing.
    """
    total = m.total(hour)
    if total <= 0:
        return 1.0
    covered = 0.0
    col = m.values[:, hour - 1]
    for prefix in sorted(set(selected), key=lambda p: p.text):
        if prefix in m:
            covered += float(col[m.index_of(prefix)])
    return covered / float(total)


def churn(prev: Iterable[Prefix], new: Iterable[Prefix]) -> int:
    """Size of the symmetric difference between two selected sets."""
    return len(set(prev) ^ set(new))


@dataclass(frozen=True)
class BoxplotSummary:
    """Six-number summary: min, p25, median, mean, p75, max."""

    minimum: float
    p25: float
    median: float
    mean: float
    p75: float
    maximum: float

    def as_dict(self) -> dict:
        return {
            "min": self.minimum,
            "p25": self.p25,
            "median": self.median,
            "mean": self.mean,
            "p75": self.p75,
            "max": self.maximum,
        }


def boxplot_summary(series: Sequence[float] | np.ndarray) -> BoxplotSummary:
    """Summarize a non-empty series; percentiles by linear interpolation."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty series")
    return BoxplotSummary(
        minimum=float(arr.min()),
        p25=float(np.percentile(arr, 25)),
        median=float(np.median(arr)),
        mean=float(arr.mean()),
        p75=float(np.percentile(arr, 75)),
        maximum=float(arr.max()),
    )


def oracle_topk(m: HourlyTraceMatrix, hour: int, k: int) -> np.ndarray:
    """Row indices of the same-hour top-k prefixes by true volume.

    The hindsight benchmark: no selector can cover more of hour ``hour``
    with k prefixes.  Uses the standard tie-break (volume descending,
    text ascending) and never selects zero-volume prefixes.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 1 <= hour <= m.bin_count:
        raise ValueError(f"hour {hour} outside [1, {m.bin_count}]")
    col = m.values[:, hour - 1]
    order = np.argsort(-col, kind="stable")
    order = order[col[order] > 0]
    return order[:k]


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Coverage/churn series of one run plus their boxplot summaries."""

    method: str
    window: int
    size: int
    threshold: float
    hours: np.ndarray          # (T,) evaluated 1-based hours
    coverage: np.ndarray       # (T,)
    churn: np.ndarray          # (T-1,) between consecutive predicted sets
    coverage_summary: BoxplotSummary
    churn_summary: BoxplotSummary | None  # None with a single predicted hour

    def __post_init__(self) -> None:
        for arr in (self.hours, self.coverage, self.churn):
            arr.setflags(write=False)


def evaluate_run(run: SelectionRun, m: HourlyTraceMatrix) -> EvaluationReport:
    """Score one selection run against the matrix it predicted."""
    if run.prefixes != m.prefixes:
        raise ValueError("run and matrix cover different prefix sets")

    coverage = np.empty(run.hours.size, dtype=np.float64)
    for pos, hour in enumerate(run.hours):
        total = float(m.totals[hour - 1])
        if total <= 0:
            coverage[pos] = 1.0
        else:
            # picks are rank-ordered, so this sum order is deterministic
            coverage[pos] = float(m.values[run.picks[pos], hour - 1].sum()) / total

    churn_series = np.empty(max(run.hours.size - 1, 0), dtype=np.int64)
    for pos in range(1, run.hours.size):
        prev = set(run.picks[pos - 1].tolist())
        new = set(run.picks[pos].tolist())
        churn_series[pos - 1] = len(prev ^ new)

    return EvaluationReport(
        method=run.config.method,
        window=run.config.window,
        size=run.config.size,
        threshold=run.threshold,
        hours=run.hours.copy(),
        coverage=coverage,
        churn=churn_series,
        coverage_summary=boxplot_summary(coverage),
        churn_summary=boxplot_summary(churn_series) if churn_series.size else None,
    )


@dataclass(frozen=True)
class BurstinessCoveragePoints:
    """Paired points relating burstiness to coverage across traces.

    ``mean_points`` pairs each trace's mean hourly burstiness index with
    its mean coverage; ``worst_points`` pairs the max index with the
    minimum coverage.
    """

    mean_points: tuple[tuple[float, float], ...]
    worst_points: tuple[tuple[float, float], ...]


def bi_vs_coverage(
    pairs: Sequence[tuple[EvaluationReport, CoreProfile]],
) -> BurstinessCoveragePoints:
    """Relate burstiness to achieved coverage across several traces.

    Each pair is the core-volume selector's report for a trace plus that
    trace's core profile.  Emits plot-ready point series, no fitting.
    """
    mean_points = []
    worst_points = []
    for report, profile in pairs:
        if report.method != "core_volume":
            raise ValueError(
                f"expected core_volume reports, got {report.method!r}"
            )
        mean_points.append((float(profile.bi.mean()), float(report.coverage.mean())))
        worst_points.append((float(profile.bi.max()), float(report.coverage.min())))
    return BurstinessCoveragePoints(
        mean_points=tuple(mean_points), worst_points=tuple(worst_points)
    )
