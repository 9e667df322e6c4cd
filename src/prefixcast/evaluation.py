"""Scoring of selection runs against ground-truth hourly volumes.

Coverage is the fraction of an hour's total volume carried by the set
predicted for that hour; churn counts how much the set changed between
consecutive hours.  Summaries use the six-number boxplot convention with
percentiles computed by linear interpolation, read off one sorted copy.

``evaluate_run`` scores every hour at once from the run's (hours,
prefixes) bool pick mask, exactly: coverage divides an int64 sum of picked
volumes by the hour's total, and churn is ``|A| + |B| - 2|A & B|``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ._record import Record
from .trace import HourlyTraceMatrix, Prefix

if TYPE_CHECKING:  # selectors imports dynamism, which imports this module
    from .selectors import SelectionRun

__all__ = [
    "BoxplotSummary",
    "EvaluationReport",
    "hourly_coverage",
    "boxplot_summary",
    "sorted_percentile",
    "sorted_median",
    "oracle_topk",
    "evaluate_run",
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
    for prefix in sorted(set(selected)):
        if prefix in m:
            covered += float(col[m.index_of(prefix)])
    return covered / float(total)


class BoxplotSummary(Record):
    """Six-number summary: min, p25, median, mean, p75, max."""

    min: float
    p25: float
    median: float
    mean: float
    p75: float
    max: float


def sorted_percentile(s: np.ndarray, q: float) -> float:
    """``np.percentile(s, q)`` (method "linear") of a sorted, non-empty,
    NaN-free float64 array, bit for bit: the value at index ``(n-1)(q/100)``,
    interpolated by numpy's two-sided lerp."""
    index = (s.size - 1) * (q / 100)
    i = int(index)
    if i >= s.size - 1:
        return float(s[-1])
    a, b = s[i : i + 2].tolist()
    g = index - i
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def sorted_median(s: np.ndarray) -> float:
    """``np.median(s)`` of a sorted, non-empty, NaN-free float64 array, bit
    for bit (percentile 50 can round differently)."""
    half = s.size // 2
    if s.size % 2:
        return float(s[half])
    a, b = s[half - 1 : half + 1].tolist()
    return (a + b) / 2


def boxplot_summary(series: Sequence[float] | np.ndarray) -> BoxplotSummary:
    """Summarize a non-empty series: percentiles by linear interpolation,
    read off one sorted copy, and the mean over the series as given."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty series")
    s = np.sort(arr)
    return BoxplotSummary(
        min=float(arr.min()),
        p25=sorted_percentile(s, 25),
        median=sorted_median(s),
        mean=float(arr.mean()),
        p75=sorted_percentile(s, 75),
        max=float(arr.max()),
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


class EvaluationReport(Record, eq=False):
    """Coverage/churn series of one run plus their boxplot summaries; the
    core threshold stays on the run (``SelectionRun.threshold``)."""

    method: str
    window: int
    size: int
    hours: np.ndarray          # (T,) evaluated 1-based hours
    coverage: np.ndarray       # (T,)
    churn: np.ndarray          # (T-1,) between consecutive predicted sets
    coverage_summary: BoxplotSummary
    churn_summary: BoxplotSummary | None  # None with a single predicted hour


def evaluate_run(run: SelectionRun, m: HourlyTraceMatrix) -> EvaluationReport:
    """Score one selection run against the matrix it predicted, from the
    run's pick mask alone: no rank is read."""
    if run.prefixes != m.prefixes:
        raise ValueError("run and matrix cover different prefix sets")

    # an int64 sum of picked volumes is exact: it never exceeds the total
    cols = slice(run.hours[0] - 1, run.hours[-1])
    covered = m.values[:, cols].sum(axis=0, where=run.mask.T)
    totals = m.totals[cols]
    coverage = np.divide(covered, totals, out=np.ones(run.hours.size), where=totals > 0)

    # |A ^ B| = |A| + |B| - 2|A & B|, in integers
    counts = run.mask.sum(axis=1)
    churn_series = counts[1:] + counts[:-1] - 2 * (run.mask[1:] & run.mask[:-1]).sum(axis=1)

    return EvaluationReport(
        method=run.config.method,
        window=run.config.window,
        size=run.config.size,
        hours=run.hours.copy(),
        coverage=coverage,
        churn=churn_series,
        coverage_summary=boxplot_summary(coverage),
        churn_summary=boxplot_summary(churn_series) if churn_series.size else None,
    )

