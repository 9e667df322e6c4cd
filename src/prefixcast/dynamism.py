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
run concurrently.  ``compute_core_profile`` cuts every hour's core from
one float64 running sum per hour of its volumes sorted by value.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .evaluation import boxplot_summary
from .trace import HourlyTraceMatrix, Prefix

__all__ = [
    "CoreProfile",
    "ConcentrationCurve",
    "VolumeBinStat",
    "check_threshold",
    "compute_core_profile",
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
# the float64 sum of the reference's ZIPF_REF_N weights, k ** -ZIPF_REF_S, as
# zipf_shares sums them: a curve's overlay computes only the ranks it fills
_ZIPF_REF_TOTAL = 12.090146129863431


class CoreProfile(Record, eq=False):
    """Per-hour cores and the presence/burstiness series derived from them.

    Arrays are aligned with ``prefixes`` (rows) and 1-based hours
    (columns).  ``icp`` is the presence intensity over the full window.
    A prefix's burstiness score at an hour is ``-log(icp)`` times its
    share of the hour's volume in percent, and 0 where ``icp`` is 0 or
    the hour carries no volume; ``max_beta`` is the largest score over
    every (prefix, hour), and ``bi`` sums each hour's core members' scores.
    """

    threshold: float
    prefixes: tuple[Prefix, ...]
    cp: np.ndarray          # (n, H) uint8 core membership
    icp: np.ndarray         # (n,) presence intensity over the window
    max_beta: float         # largest burstiness score
    bi: np.ndarray          # (H,) per-hour burstiness index
    core_sizes: np.ndarray  # (H,) int


def keep_lowest_ties(better: np.ndarray, tied: np.ndarray, size) -> np.ndarray:
    """``better`` plus each hour's lowest-row ``tied`` entries, up to
    ``size`` entries in all (a scalar or one per hour).  The (hours, rows)
    bool arrays mark the entries ranked above and at the hour's cut-off key,
    rows in text order, so every core and top K is the set a stable sort by
    (key, text) cuts.  Set in ``better`` and returned; ``tied`` is spent."""
    room = size - better.sum(axis=1)
    over = np.flatnonzero(tied.sum(axis=1) > room)
    tied[over] &= np.cumsum(tied[over], axis=1, dtype=np.int32) <= room[over, None]
    return np.logical_or(better, tied, out=better)


def check_threshold(threshold: float) -> None:
    """Refuse a core volume share target outside (0, 1]."""
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")


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
    check_threshold(threshold)

    values = m.values
    n, hours = values.shape
    # Under the (volume desc, text asc) ranking rule, a core is the run
    # below threshold x total plus the entry reaching it; none at total 0.
    # The run's sums need only each hour's volumes in descending order.
    desc = values.T.copy()
    desc.sort(axis=1)
    desc = desc[:, ::-1]
    cum = desc.astype(np.float64)
    np.cumsum(cum, axis=1, out=cum)
    total = cum[:, -1]
    cutoff = np.where(total > 0, (cum < threshold * total[:, None]).sum(axis=1) + 1, 0)
    # each hour's cutoff-th largest volume (its smallest, 0, at total 0):
    # the core holds every larger volume and, of the volumes equal to it,
    # the lowest rows (texts) up to the cutoff
    kth = desc[np.arange(hours), cutoff - 1]
    del desc, cum  # the float stages below need the memory
    cp = values > kth
    keep_lowest_ties(cp.T, (values == kth).T, cutoff)
    cp = cp.view(np.uint8)

    icp = cp.mean(axis=1)

    amplify = np.zeros(n, dtype=np.float64)
    inside = icp > 0
    amplify[inside] = -np.log(icp[inside])

    # one buffer, in place: volume percent (a zero-total hour holds only
    # zeros), then the burstiness scores, then their core-masked terms
    totals = m.totals.astype(np.float64)
    buf = np.multiply(values, 100.0, dtype=np.float64)
    np.divide(buf, totals, out=buf, where=totals > 0)
    buf *= amplify[:, None]
    # not max(initial=0.0): that can flip the sign of a zero maximum
    max_beta = float(buf.max())
    buf *= cp
    bi = buf.sum(axis=0)

    return CoreProfile(
        threshold=threshold,
        prefixes=m.prefixes,
        cp=cp,
        icp=icp,
        max_beta=max_beta,
        bi=bi,
        core_sizes=cutoff,
    )


class ConcentrationCurve(Record, eq=False):
    """Ranked volume shares over a span, their CDF, and a Zipf overlay."""

    span: str
    shares: np.ndarray       # descending share per rank, active prefixes only
    cdf: np.ndarray          # cumulative shares
    zipf_overlay: np.ndarray  # reference f(k, s=1, N=1e5) per rank


def _span_columns(m: HourlyTraceMatrix, span: str) -> tuple[str, slice]:
    bins = m.grid.bin_count
    if span == "week":
        return "week", slice(0, bins)
    kind, _, arg = span.partition(":")
    bad = f"bad span {span!r}; use 'week', 'hour:H' or 'day:H0'"
    if kind not in ("hour", "day"):
        raise ValueError(bad)
    try:
        h = int(arg)
    except ValueError:
        raise ValueError(bad) from None
    if kind == "hour":
        if not 1 <= h <= bins:
            raise ValueError(f"hour {h} outside grid")
        return f"hour:{h}", slice(h - 1, h)
    if not 1 <= h <= bins - 23:
        raise ValueError(f"day starting at hour {h} does not fit in the grid")
    return f"day:{h}", slice(h - 1, h + 23)


def concentration_curve(m: HourlyTraceMatrix, span: str = "week") -> ConcentrationCurve:
    """Ranked per-prefix volume shares over a span, plus CDF and overlay.

    ``span`` is ``"week"`` (the whole grid), ``"hour:h"`` for one bin, or
    ``"day:h0"`` for the 24 bins starting at h0.  Only prefixes active
    inside the span appear.
    """
    label, cols = _span_columns(m, span)
    weights = m.values[:, cols].sum(axis=1, dtype=np.float64)
    total = float(weights.sum())
    if total <= 0:
        raise ValueError(f"zero-volume span {label}")
    active = weights > 0
    shares = np.sort(weights[active])[::-1] / total
    cdf = np.cumsum(shares)
    if abs(cdf[-1] - 1.0) > 1e-9:
        raise AssertionError(f"concentration CDF ends at {cdf[-1]!r}")

    overlay = np.zeros(shares.size, dtype=np.float64)
    take = min(shares.size, ZIPF_REF_N)
    overlay[:take] = np.arange(1, take + 1, dtype=np.float64) ** -ZIPF_REF_S / _ZIPF_REF_TOTAL
    return ConcentrationCurve(span=label, shares=shares, cdf=cdf, zipf_overlay=overlay)


class VolumeBinStat(Record):
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
    the coefficient of variation of each hourly series (divide-by-N).
    Needs at least 2 bins."""
    if m.bin_count < 2:
        raise ValueError("need at least 2 bins for coefficient of variation")
    shares_pct = 100.0 * m.values.sum(axis=1, dtype=np.float64) / m.totals.sum(dtype=np.float64)
    values = m.values.astype(np.float64)
    return shares_pct, values.std(axis=1) / values.mean(axis=1)


def _share_bins(shares_pct: np.ndarray, stat: np.ndarray) -> list[VolumeBinStat]:
    # bin i holds the shares in [edges[i-1], edges[i]), and the top bin 100% too
    which = np.searchsorted(_BIN_EDGES_PCT, shares_pct, side="right")
    which[shares_pct == _BIN_EDGES_PCT[-1]] -= 1
    out = []
    for i, (lo, hi) in enumerate(zip([0.0, *_BIN_EDGES_PCT], _BIN_EDGES_PCT)):
        vals = stat[which == i]
        box = boxplot_summary(vals) if vals.size else None
        quartiles = (box.mean, box.median, box.p25, box.p75) if box else (None,) * 4
        close = "]" if hi == _BIN_EDGES_PCT[-1] else ")"
        out.append(VolumeBinStat(f"[{lo:g},{hi:g}{close}" if i else f"<{hi:g}", lo, hi,
                                 int(vals.size), *quartiles))
    return out


def cv_vs_volume_bins(shares_pct: np.ndarray, cv: np.ndarray) -> list[VolumeBinStat]:
    """Coefficient-of-variation stats grouped by weekly share decade, from
    the two arrays ``prefix_shares_and_cv`` returns."""
    return _share_bins(shares_pct, cv)


def icp_vs_volume_bins(shares_pct: np.ndarray, icp: np.ndarray) -> list[VolumeBinStat]:
    """Core-presence-intensity stats grouped by weekly share decade, from
    ``prefix_shares_and_cv``'s shares and a profile's ``icp``."""
    return _share_bins(shares_pct, icp)


def core_summary(profile: CoreProfile, m: HourlyTraceMatrix) -> dict:
    """Core statistics: average size, average percentage of the hourly
    active prefix count, and maximum size."""
    avg_size = float(profile.core_sizes.mean())
    return {
        "avg_core_size": avg_size,
        "avg_core_pct_of_active": 100.0 * avg_size / float(m.active_counts().mean()),
        "max_core_size": int(profile.core_sizes.max()),
    }


def burstiness_summary(profile: CoreProfile) -> dict:
    """Burstiness statistics: mean and max of the hourly index, plus the
    largest single per-prefix score seen in any hour."""
    return {
        "mean_bi": float(profile.bi.mean()),
        "max_bi": float(profile.bi.max()),
        "max_beta": profile.max_beta,
    }
