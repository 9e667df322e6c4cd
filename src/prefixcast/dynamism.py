"""Traffic dynamism metrics over an hourly trace matrix.

Four views of how concentrated and how volatile per-prefix traffic is:

* hourly volume variability (coefficient of variation of a series),
* hourly *cores*: the smallest top-ranked prefix set covering a target
  share of an hour's volume, plus per-prefix core presence intensity,
* a burstiness score that flags prefixes carrying a large hourly share
  while rarely sitting in the core, and its per-hour aggregate index,
* concentration curves (ranked shares and their CDF) with a Zipf
  reference overlay.

All functions are pure with respect to an immutable matrix and safe to
run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .trace import HourlyTraceMatrix, Prefix, zipf_shares

__all__ = [
    "CoreProfile",
    "ConcentrationCurve",
    "VolumeBinStat",
    "coefficient_of_variation",
    "core_set",
    "compute_core_profile",
    "core_presence_intensity",
    "burstiness_score",
    "burstiness_index",
    "concentration_curve",
    "prefix_shares_and_cv",
    "cv_vs_volume_bins",
    "icp_vs_volume_bins",
    "core_summary",
    "burstiness_summary",
]

DEFAULT_CORE_THRESHOLD = 0.95

# Reference Zipf overlay parameters for concentration curves.
ZIPF_REF_N = 100_000
ZIPF_REF_S = 1.0


def coefficient_of_variation(series: Sequence[float] | np.ndarray) -> float:
    """Population standard deviation over mean of a volume series.

    A large value means the hourly volume swings widely around its mean
    and is hard to anticipate.  For a series of length n the maximum is
    ``sqrt(n-1)``, attained when all traffic falls in a single bin.

    Parameters
    ----------
    series : array-like
        Hourly volumes; at least two entries, not all zero.

    Returns
    -------
    float
        Non-negative variation coefficient (divide-by-N convention).
    """
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("series must be 1-D with at least 2 entries")
    mean = arr.mean()
    if mean == 0:
        raise ValueError("coefficient of variation undefined for all-zero series")
    return float(arr.std() / mean)


def _core_cutoff(sorted_volumes: np.ndarray, threshold: float) -> int:
    """Number of leading entries of a descending volume vector needed to
    reach ``threshold`` of its total; 0 when the total is zero."""
    cum = np.cumsum(sorted_volumes)
    total = cum[-1] if cum.size else 0
    if total <= 0:
        return 0
    return int(np.searchsorted(cum, threshold * float(total), side="left")) + 1


def core_set(
    hour_volumes: Mapping[Prefix, float],
    threshold: float = DEFAULT_CORE_THRESHOLD,
) -> set[Prefix]:
    """Smallest top-ranked prefix set covering ``threshold`` of an hour.

    Prefixes are ranked by volume descending with ties broken by
    canonical text ascending; the result is the shortest prefix of that
    ordering whose cumulative volume reaches ``threshold`` times the
    hour's total.  An hour with zero total yields the empty set.
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    if not hour_volumes:
        return set()
    items = sorted(hour_volumes.items(), key=lambda kv: (-kv[1], kv[0].text))
    volumes = np.array([v for _, v in items], dtype=np.float64)
    k = _core_cutoff(volumes, threshold)
    return {p for p, _ in items[:k]}


@dataclass(frozen=True, eq=False)
class CoreProfile:
    """Per-hour cores and the presence/burstiness series derived from them.

    Arrays are aligned with ``prefixes`` (rows) and 1-based hours
    (columns).  ``icp`` is the presence intensity over the full window;
    it is also the intensity used inside the burstiness scores.
    """

    threshold: float
    prefixes: tuple[Prefix, ...]
    cp: np.ndarray          # (n, H) uint8 core membership
    icp: np.ndarray         # (n,) presence intensity over the window
    beta: np.ndarray        # (n, H) burstiness scores
    bi: np.ndarray          # (H,) per-hour burstiness index
    core_sizes: np.ndarray  # (H,) int

    def __post_init__(self) -> None:
        for arr in (self.cp, self.icp, self.beta, self.bi, self.core_sizes):
            arr.setflags(write=False)
        object.__setattr__(
            self, "_index", {p: i for i, p in enumerate(self.prefixes)}
        )

    @property
    def hours(self) -> int:
        return self.cp.shape[1]

    def index_of(self, prefix: Prefix) -> int:
        return self._index[prefix]

    def core(self, h: int) -> set[Prefix]:
        """The core set of hour h."""
        col = self.cp[:, self._col(h)]
        return {self.prefixes[i] for i in np.flatnonzero(col)}

    def presence(self, prefix: Prefix) -> np.ndarray:
        """0/1 core-presence series of one prefix."""
        return self.cp[self._index[prefix]]

    def intensity(self, prefix: Prefix) -> float:
        """Full-window core presence intensity of one prefix."""
        return float(self.icp[self._index[prefix]])

    def _col(self, h: int) -> int:
        if not 1 <= h <= self.hours:
            raise ValueError(f"hour {h} outside [1, {self.hours}]")
        return h - 1


def compute_core_profile(
    m: HourlyTraceMatrix, threshold: float = DEFAULT_CORE_THRESHOLD
) -> CoreProfile:
    """Compute hourly cores, presence intensity, and burstiness series.

    Parameters
    ----------
    m : HourlyTraceMatrix
    threshold : float
        Core volume share target in (0, 1], 0.95 by default.

    Returns
    -------
    CoreProfile
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")

    values = m.values
    n, hours = values.shape
    # Rows are in text order, so a stable sort on -volume reproduces the
    # (volume desc, text asc) ranking rule per column.
    order = np.argsort(-values, axis=0, kind="stable")
    cp = np.zeros((n, hours), dtype=np.uint8)
    for j in range(hours):
        col_order = order[:, j]
        k = _core_cutoff(values[col_order, j].astype(np.float64), threshold)
        cp[col_order[:k], j] = 1

    icp = cp.mean(axis=1)

    totals = m.totals.astype(np.float64)
    vp = np.zeros_like(values, dtype=np.float64)
    np.divide(100.0 * values, totals[None, :], out=vp, where=totals[None, :] > 0)

    amplify = np.zeros(n, dtype=np.float64)
    inside = icp > 0
    amplify[inside] = -np.log(icp[inside])
    beta = amplify[:, None] * vp
    bi = (beta * cp).sum(axis=0)

    return CoreProfile(
        threshold=threshold,
        prefixes=m.prefixes,
        cp=cp,
        icp=icp,
        beta=beta,
        bi=bi,
        core_sizes=cp.sum(axis=0, dtype=np.int64),
    )


def core_presence_intensity(cp_series: Sequence[int] | np.ndarray) -> float:
    """Mean of a 0/1 core-presence series over its window."""
    arr = np.asarray(cp_series)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("cp series must be 1-D and non-empty")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("cp series entries must be 0 or 1")
    return float(arr.mean())


def burstiness_score(presence_intensity: float, volume_pct: float) -> float:
    """Burstiness score of one prefix at one hour.

    ``-log(intensity) * volume_pct`` for intensity in (0, 1), and 0 when
    the intensity is 0 or 1 or the hourly volume percentage is 0.  The
    log term amplifies the contribution of prefixes that rarely sit in
    the core while carrying a large share of the hour.

    Parameters
    ----------
    presence_intensity : float
        Core presence intensity over the window, in [0, 1].
    volume_pct : float
        The prefix's share of the hour's volume, in percent (0-100).
    """
    if not 0 <= presence_intensity <= 1:
        raise ValueError("presence_intensity must be in [0, 1]")
    if not 0 <= volume_pct <= 100:
        raise ValueError("volume_pct must be in [0, 100]")
    if presence_intensity == 0 or volume_pct == 0:
        return 0.0
    return -math.log(presence_intensity) * volume_pct


def burstiness_index(profile: CoreProfile, m: HourlyTraceMatrix, hour: int) -> float:
    """Sum of burstiness scores over the core members of one hour.

    Uses the profile's full-window presence intensities and the hour's
    volume percentages from the matrix; an empty core yields 0.
    """
    if profile.prefixes != m.prefixes:
        raise ValueError("profile and matrix cover different prefix sets")
    if not 1 <= hour <= m.bin_count:
        raise ValueError(f"hour {hour} outside [1, {m.bin_count}]")
    col = m.values[:, hour - 1].astype(np.float64)
    total = float(m.totals[hour - 1])
    if total <= 0:
        return 0.0
    members = np.flatnonzero(profile.cp[:, hour - 1])
    out = 0.0
    for i in members:
        out += burstiness_score(float(profile.icp[i]), 100.0 * col[i] / total)
    return out


@dataclass(frozen=True, eq=False)
class ConcentrationCurve:
    """Ranked volume shares over a span, their CDF, and a Zipf overlay."""

    span: str
    shares: np.ndarray       # descending share per rank, active prefixes only
    cdf: np.ndarray          # cumulative shares
    zipf_overlay: np.ndarray  # reference f(k, s=1, N=1e5) per rank

    def __post_init__(self) -> None:
        for arr in (self.shares, self.cdf, self.zipf_overlay):
            arr.setflags(write=False)


def _span_hours(m: HourlyTraceMatrix, span) -> tuple[str, list[int]]:
    bins = m.grid.bin_count
    if isinstance(span, str):
        if span == "week":
            return "week", list(range(1, bins + 1))
        kind, _, arg = span.partition(":")
        if kind in ("hour", "day") and arg:
            span = (kind, int(arg))
        else:
            raise ValueError(f"bad span {span!r}; use 'week', 'hour:H' or 'day:H0'")
    kind, h = span
    if kind == "hour":
        if not 1 <= h <= bins:
            raise ValueError(f"hour {h} outside grid")
        return f"hour:{h}", [h]
    if kind == "day":
        if not 1 <= h <= bins - 23:
            raise ValueError(f"day starting at hour {h} does not fit in the grid")
        return f"day:{h}", list(range(h, h + 24))
    raise ValueError(f"bad span kind {kind!r}")


def concentration_curve(m: HourlyTraceMatrix, span="week") -> ConcentrationCurve:
    """Ranked per-prefix volume shares over a span, plus CDF and overlay.

    ``span`` is ``"week"`` (the whole grid), ``("hour", h)`` /
    ``"hour:h"`` for one bin, or ``("day", h0)`` / ``"day:h0"`` for the
    24 bins starting at h0.  Only prefixes active inside the span appear.
    """
    label, hours = _span_hours(m, span)
    cols = [h - 1 for h in hours]
    weights = m.values[:, cols].sum(axis=1).astype(np.float64)
    total = float(weights.sum())
    if total <= 0:
        raise ValueError(f"zero-volume span {label}")
    active = weights > 0
    shares = np.sort(weights[active])[::-1] / total
    cdf = np.cumsum(shares)
    if abs(cdf[-1] - 1.0) > 1e-9:
        raise AssertionError(f"concentration CDF ends at {cdf[-1]!r}")

    ref = zipf_shares(ZIPF_REF_N, ZIPF_REF_S)
    overlay = np.zeros(shares.size, dtype=np.float64)
    take = min(shares.size, ZIPF_REF_N)
    overlay[:take] = ref[:take]
    return ConcentrationCurve(span=label, shares=shares, cdf=cdf, zipf_overlay=overlay)


@dataclass(frozen=True)
class VolumeBinStat:
    """Summary of a per-prefix statistic inside one weekly-share bin."""

    label: str
    lo_pct: float
    hi_pct: float
    count: int
    mean: float | None
    median: float | None
    p25: float | None
    p75: float | None


# Weekly volume-share decades, in percent.  Shares below the first edge
# land in an explicit underflow bin; the top bin is closed so a
# single-prefix trace (share 100%) still has a home.
_BIN_EDGES_PCT = [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0]


def prefix_shares_and_cv(m: HourlyTraceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-prefix weekly volume share in percent of the window's total, and
    the coefficient of variation of each hourly series (divide-by-N)."""
    shares_pct = 100.0 * m.values.sum(axis=1).astype(np.float64) / float(m.totals.sum())
    values = m.values.astype(np.float64)
    return shares_pct, values.std(axis=1) / values.mean(axis=1)


def _share_bins(shares_pct: np.ndarray, stat: np.ndarray) -> list[VolumeBinStat]:
    out = []
    edges = [(0.0, _BIN_EDGES_PCT[0], f"<{_BIN_EDGES_PCT[0]:g}")]
    for lo, hi in zip(_BIN_EDGES_PCT[:-1], _BIN_EDGES_PCT[1:]):
        edges.append((lo, hi, f"[{lo:g},{hi:g})"))
    for i, (lo, hi, label) in enumerate(edges):
        if i == len(edges) - 1:
            mask = (shares_pct >= lo) & (shares_pct <= hi)
        else:
            mask = (shares_pct >= lo) & (shares_pct < hi) if i else (shares_pct < hi)
        vals = stat[mask]
        if vals.size:
            out.append(
                VolumeBinStat(
                    label=label,
                    lo_pct=lo,
                    hi_pct=hi,
                    count=int(vals.size),
                    mean=float(vals.mean()),
                    median=float(np.median(vals)),
                    p25=float(np.percentile(vals, 25)),
                    p75=float(np.percentile(vals, 75)),
                )
            )
        else:
            out.append(
                VolumeBinStat(
                    label=label, lo_pct=lo, hi_pct=hi, count=0,
                    mean=None, median=None, p25=None, p75=None,
                )
            )
    return out


def cv_vs_volume_bins(m: HourlyTraceMatrix) -> list[VolumeBinStat]:
    """Coefficient-of-variation stats grouped by weekly share decade."""
    if m.bin_count < 2:
        raise ValueError("need at least 2 bins for coefficient of variation")
    return _share_bins(*prefix_shares_and_cv(m))


def icp_vs_volume_bins(
    m: HourlyTraceMatrix, profile: CoreProfile
) -> list[VolumeBinStat]:
    """Core-presence-intensity stats grouped by weekly share decade."""
    if profile.prefixes != m.prefixes:
        raise ValueError("profile and matrix cover different prefix sets")
    shares_pct, _ = prefix_shares_and_cv(m)
    return _share_bins(shares_pct, profile.icp)


def core_summary(profile: CoreProfile, m: HourlyTraceMatrix) -> dict:
    """Core statistics: average size, average percentage of the hourly
    active prefix count, and maximum size."""
    active = m.active_counts()
    avg_active = float(active.mean())
    avg_size = float(profile.core_sizes.mean())
    return {
        "avg_core_size": avg_size,
        "avg_core_pct_of_active": 100.0 * avg_size / avg_active if avg_active else 0.0,
        "max_core_size": int(profile.core_sizes.max()),
    }


def burstiness_summary(profile: CoreProfile) -> dict:
    """Burstiness statistics: mean and max of the hourly index, plus the
    largest single per-prefix score seen in any hour."""
    return {
        "mean_bi": float(profile.bi.mean()),
        "max_bi": float(profile.bi.max()),
        "max_beta": float(profile.beta.max()),
    }
