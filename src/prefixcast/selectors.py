"""Predictive prefix selection from sliding-window history.

Each selector scores every candidate prefix for the coming hour using
only the last L hours of data, then keeps the top K by score (ties broken
by canonical prefix text).  Three window metrics are provided -- mean
volume, core presence intensity, and core-masked mean volume -- plus a
classic GM(1,1) grey-model forecast as a comparison baseline.

``run_selection`` is one whole-week array pass per configuration: a
(prefixes, hours) score array, then one (hours, prefixes) mask of each
hour's top K positive scores: the set a stable sort of the hour by score
and text would cut.  Ranks are computed only where they are read.  The
window metrics equal the hour-by-hour loop exactly (the same sequential
running sums, elementwise float operations and stable tie order).
GM(1,1) fits every window at once: the 2x2 least-squares fit (J. Deng,
1982) is solved in closed form from centred sums, merged from
block-anchored running moments by the pairwise update of Chan, Golub &
LeVeque (1983), so it agrees with a per-window fit up to rounding, not
bit for bit.  ``gm11_fit`` and ``gm11_forecast`` fit one series with
``lstsq``; they are the scalar reference the whole-week pass is tested
against.  ``save_selection`` and ``load_selection`` write and read a run
as a selection CSV; the CLI only names the file.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import trace
from ._record import Record
from .dynamism import CoreProfile, keep_lowest_ties

__all__ = [
    "METHODS",
    "SELECTION_HEADER",
    "WINDOW_GRID",
    "SelectorConfig",
    "SelectionRun",
    "load_selection",
    "save_selection",
    "gm11_fit",
    "gm11_forecast",
    "run_selection",
    "max_core_size",
]

METHODS = ("mean_volume", "core_presence", "core_volume", "gm11")

# Canonical history windows (hours) used by the evaluation grids.
WINDOW_GRID = (1, 12, 24, 168)

# GM(1,1) needs a handful of points for a meaningful exponential fit;
# shorter windows fall back to the window mean.
GM11_MIN_POINTS = 4

# Cells per row chunk of the GM(1,1) pass; bounds its temporaries.
GM11_CHUNK_CELLS = 1 << 14

class SelectorConfig(Record):
    """One selector configuration: method, history window L, set size K."""

    method: str
    window: int
    size: int

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")


def gm11_fit(series: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Least-squares development coefficients (a, b) of a GM(1,1) model.

    The cumulated series x1 is formed, the background values
    ``z1(k) = 0.5*(x1(k) + x1(k-1))`` are paired with the raw values, and
    ``x0(k) + a*z1(k) = b`` is solved for (a, b) by least squares.

    Raises
    ------
    ValueError
        If the series is shorter than ``GM11_MIN_POINTS`` or the design
        matrix is rank-deficient (all background values equal).
    """
    x0 = np.asarray(series, dtype=np.float64)
    if x0.ndim != 1 or x0.size < GM11_MIN_POINTS:
        raise ValueError(f"GM(1,1) needs at least {GM11_MIN_POINTS} points")
    x1 = np.cumsum(x0)
    z1 = 0.5 * (x1[1:] + x1[:-1])
    design = np.column_stack([-z1, np.ones_like(z1)])
    sol, _, rank, _ = np.linalg.lstsq(design, x0[1:], rcond=None)
    if rank < 2:
        raise ValueError("degenerate GM(1,1) fit: constant background series")
    return float(sol[0]), float(sol[1])


def gm11_forecast(series: Sequence[float] | np.ndarray) -> float:
    """Forecast the next value of a non-negative series with GM(1,1).

    Follows the standard construction: fit (a, b) on the cumulated
    series, then extrapolate one step and difference back, clamping the
    result at zero.  Series shorter than ``GM11_MIN_POINTS``, degenerate
    fits and non-finite forecasts fall back to the window mean.

    This is the scalar reference (one ``lstsq`` fit per call) for
    ``run_selection``'s whole-week pass.
    """
    x0 = np.asarray(series, dtype=np.float64)
    if x0.ndim != 1:
        raise ValueError("series must be 1-D")
    if x0.size < GM11_MIN_POINTS:
        return float(x0.mean()) if x0.size else 0.0
    try:
        a, b = gm11_fit(x0)
    except ValueError:
        return float(x0.mean())
    if abs(a) < 1e-12:
        # a -> 0 limit of the forecast formula
        return max(b, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        value = (x0[0] - b / a) * -np.expm1(a) * np.exp(-a * x0.size)
    if not np.isfinite(value):
        return float(x0.mean())
    return max(float(value), 0.0)


def _gm11_scores(
    values: np.ndarray, active: np.ndarray, lo: np.ndarray
) -> tuple[np.ndarray, int]:
    """GM(1,1) forecasts of every (prefix, window) and the active fallback count.

    ``active`` marks the windows with a positive sum.  Window ``j`` (bins
    ``lo[j] .. j``) fits ``y(p) = values[p]`` against
    the background ``z(p)`` at points ``p = lo+1 .. j``.  The points are
    cut into blocks of the longest window's length, with running moments
    taken forward from each block's first point and backward from its
    last; a window merges the suffix of one block with the prefix of the
    next.  Both anchors lie inside the window, so no sum outgrows it.
    ``lstsq``'s rank test is explicit: the design ``[-z, 1]`` is rank
    deficient when ``sqrt(det) <= eps * max(m, 2) * lambda_max`` of its
    Gram matrix.  Rank-deficient fits, non-finite forecasts and windows
    shorter than ``GM11_MIN_POINTS`` fall back to the window mean;
    ``|a| < 1e-12`` uses ``b``.  Inactive windows score 0.
    """
    n, hours = values.shape
    span = np.arange(1, hours) - lo
    first = int(np.count_nonzero(span < GM11_MIN_POINTS))   # short windows lead
    ends = np.arange(first, hours - 1)                     # fitted windows' last points
    lo_f = lo[first:]
    m = (ends - lo_f).astype(np.float64)                   # points per fitted window
    width = int(m.max(initial=1))                          # block length
    blocks = -(-(hours - 2) // width)
    k_b = (ends - 1) % width + 1.0           # points in the last block's prefix
    k_a = m - k_b                            # points in the previous block's suffix
    at_a = (lo_f // width, lo_f % width)
    at_b = ((ends - 1) // width, (ends - 1) % width)
    score = np.empty(active.shape)

    def fit(rows: slice) -> int:
        """Score the windows of ``rows``; return their active fallbacks."""
        v, live = values[rows], active[rows]
        fallbacks = int(np.count_nonzero(live[:, :first]))
        score[rows, :first] = sum(   # short windows' sums, in window order
            np.where(k < span[:first], v[:, np.minimum(lo[:first] + k, hours - 1)], 0.0)
            for k in range(GM11_MIN_POINTS - 1)
        ) / span[:first]
        if not ends.size:
            return fallbacks

        # y and the step h(p) = z(p) - z(p-1) = (y(p-1) + y(p)) / 2, in blocks
        pts = np.zeros((2, len(v), blocks * width))
        pts[0, :, :hours - 2] = v[:, 1:-1]
        pts[1, :, :hours - 2] = 0.5 * (v[:, :-2] + v[:, 1:-1])
        y, h = pts.reshape(2, len(v), blocks, width)
        # running dz, dy, dz*dz, dz*dy, forward and backward; backward sums at a
        # block's first point read 0, as a window starting there is all prefix
        fwd = _running_moments(h[..., 1:], y - y[..., :1])
        bwd = _running_moments(-h[..., :0:-1], y[..., ::-1] - y[..., -1:])[..., ::-1]
        bwd[..., 0] = 0.0
        # merge suffix a and prefix b (Chan, Golub & LeVeque's pairwise update)
        s_a, s_b = bwd[:, :, at_a[0], at_a[1]], fwd[:, :, at_b[0], at_b[1]]
        y_a, y_b, h_b = y[:, at_a[0], -1], y[:, at_b[0], 0], h[:, at_b[0], 0]
        mean_a, mean_b = s_a[:2] / np.maximum(k_a, 1.0), s_b[:2] / k_b
        delta = np.stack([h_b, y_b - y_a]) + mean_b - mean_a
        s_zz, s_zy = (
            s_a[2:] - s_a[0] * mean_a + s_b[2:] - s_b[0] * mean_b
            + (k_a * k_b / m) * delta[0] * delta
        )
        x_lo, y_sum_a = v[:, lo_f], k_a * y_a + s_a[1]
        y_sum = y_sum_a + k_b * y_b + s_b[1]
        z_bar = x_lo + y_sum_a + 0.5 * y_b + (s_a[0] + s_b[0] - k_a * h_b) / m

        # Gram matrix [[sum z^2, -sum z], [-sum z, m]]: trace and determinant
        det = m * s_zz
        tr = s_zz + m * z_bar * z_bar + m
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lam_max = 0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))
            full_rank = np.sqrt(det) > np.finfo(np.float64).eps * np.maximum(m, 2.0) * lam_max
            a = -s_zy / s_zz
            b = y_sum / m + a * z_bar
            forecast = (x_lo - b / a) * -np.expm1(a) * np.exp(-a * (m + 1))
        forecast = np.where(np.abs(a) < 1e-12, b, forecast)
        fallback = ~full_rank | ~np.isfinite(forecast)
        fallbacks += int(np.count_nonzero(fallback & live[:, first:]))
        mean = (x_lo + y_sum) / (m + 1)     # the fallback: the window mean
        score[rows, first:] = np.where(fallback, mean, np.maximum(forecast, 0.0))
        return fallbacks

    # one call per chunk, so no chunk's temporaries outlive it
    step = max(1, GM11_CHUNK_CELLS // hours)
    fallbacks = sum(fit(slice(r0, r0 + step)) for r0 in range(0, n, step))
    score[~active] = 0.0
    return score, fallbacks


def _running_moments(steps: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Running sums along the last axis of dz, dy, dz*dz and dz*dy, in one
    (4, *dy.shape) array summed in place: dz starts at 0 and rises by
    ``steps``, one fewer than ``dy``'s points."""
    out = np.empty((4, *dy.shape))
    out[0, ..., 0] = 0.0
    np.cumsum(steps, axis=-1, out=out[0, ..., 1:])
    out[1] = dy
    np.multiply(out[:1], out[:2], out=out[2:])
    return np.cumsum(out, axis=-1, out=out)


class SelectionRun(Record, eq=False):
    """Selections of one configuration, one mask row per predicted hour.

    Row ``i`` of ``mask`` is hour ``hours[i] = i + 2``, whose set was
    predicted from data in hours ``< hours[i]`` only: the first hour has no
    history, so ``hours`` runs ``2 .. T + 1`` and follows from the mask.
    ``mask[i, r]`` is True where row ``r`` of ``prefixes`` was picked for
    ``hours[i]``.  Ranks are computed only when read: ``picks[i]`` and
    ``scores[i]`` rank hour ``i``'s picks by (score desc, text asc).
    Warm-up and shortfall follow from the mask and the configuration.
    ``threshold`` is the core volume share the run was made with, in (0, 1].
    """

    config: SelectorConfig
    threshold: float
    prefixes: tuple[trace.Prefix, ...]
    mask: np.ndarray             # (T, prefixes) bool, read-only: the picked cells
    picked_scores: np.ndarray    # their scores in the mask's row-major order, read-only
    gm11_fallbacks: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        if self.mask.shape != (len(self.mask), len(self.prefixes)) or (
            self.picked_scores.shape != (np.count_nonzero(self.mask),)
        ):
            raise ValueError("mask must be (hours, prefixes), with one picked score per pick")

    @cached_property
    def hours(self) -> np.ndarray:
        """(T,) the predicted 1-based hours ``2 .. T + 1``, read-only."""
        hours = np.arange(2, len(self.mask) + 2)
        hours.setflags(write=False)
        return hours

    @property
    def warmup(self) -> np.ndarray:
        """(T,) True where the window was shorter than L: fewer than L hours
        precede the predicted hour."""
        return self.hours - 1 < self.config.window

    @property
    def shortfall(self) -> np.ndarray:
        """(T,) True where fewer than K candidates scored > 0."""
        return self.mask.sum(axis=1) < self.config.size

    @cached_property
    def _ranked(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        pos, rows = np.divmod(np.flatnonzero(self.mask), self.mask.shape[1])
        order, _ = _rank_picks(pos, self.picked_scores)
        ends = np.cumsum(self.mask.sum(axis=1))[:-1]
        return tuple(np.split(arr, ends) for arr in (rows[order], self.picked_scores[order]))

    @property
    def picks(self) -> list[np.ndarray]:
        """Per hour: the picked rows, ranked by score desc, then row (text) asc."""
        return self._ranked[0]

    @property
    def scores(self) -> list[np.ndarray]:
        """Per hour: the scores aligned with ``picks``."""
        return self._ranked[1]


def _rank_picks(hours: np.ndarray, scores: np.ndarray):
    """Rank picks given in a mask's row-major order (hours, then rows,
    ascending) by (score desc, row asc), as ``save_selection`` writes them:
    the ranking order, and each ranked pick's 1-based rank in its hour."""
    # each score's place among the distinct ones, desc (NaNs last, as one), keyed
    # under its hour; the stable sort keeps rows asc on a tie
    distinct, dense = np.unique(-scores, return_inverse=True)
    order = np.argsort(hours * len(distinct) + dense, kind="stable")
    # each hour's ranked picks fill the places its picks held
    return order, np.arange(hours.size) - np.searchsorted(hours, hours) + 1


SELECTION_HEADER = ["hour", "rank", "prefix", "score", "method", "L", "K"]


def save_selection(run: SelectionRun, path: str | Path) -> None:
    """Write ``run`` as one unquoted ``hour,rank,prefix,score,method,L,K``
    line per pick, in ``picks`` order: canonical prefixes and method names
    never need quoting.  ``trace.write_rows`` writes the lines a block of
    whole hours (at most ``trace.WRITE_BLOCK`` picks, or one hour) at a
    time, so the text of the whole run is never held.  Each distinct hour,
    rank and prefix is formatted once, and each block's distinct scores
    (by their bits: ``-0.0`` is not ``0.0``) once per block."""
    cfg = run.config
    counts = run.mask.sum(axis=1)
    bounds = np.concatenate([[0], np.cumsum(counts)])  # hour i's picks: bounds[i]:bounds[i + 1]
    most = int(counts.max())
    step = max(1, trace.WRITE_BLOCK // max(1, most))
    hour_texts = np.array(list(map(str, run.hours.tolist())), dtype=object)
    rank_texts = np.array(list(map(str, range(most + 1))), dtype=object)
    prefix_texts = np.array(run.prefixes, dtype=object)
    tail = f",{cfg.method},{cfg.window},{cfg.size}"

    def blocks():
        for h0 in range(0, counts.size, step):
            lo, hi = bounds[h0], bounds[min(h0 + step, counts.size)]
            pos, rows = np.divmod(np.flatnonzero(run.mask[h0:h0 + step]), len(run.prefixes))
            order, rank = _rank_picks(pos, scores := run.picked_scores[lo:hi])
            bits, score_codes = np.unique(scores[order].view(np.int64), return_inverse=True)
            score_texts = np.array([repr(v) + tail for v in bits.view(np.float64).tolist()],
                                   dtype=object)
            yield [hour_texts[h0 + pos].tolist(), rank_texts[rank].tolist(),
                   prefix_texts[rows[order]].tolist(), score_texts[score_codes].tolist()]

    trace.write_rows(path, SELECTION_HEADER, blocks())


def load_selection(path: str | Path, m: trace.HourlyTraceMatrix, threshold: float) -> SelectionRun:
    """The run in a selection file as ``save_selection`` writes it, made
    against ``m``.  Rows are read by ``trace.read_rows`` and parsed from
    their byte offsets: hour and rank (plain decimal int64) in bulk, each
    distinct prefix text once, and each score by ``float()``.  Every row
    must repeat line 2's method, L and K bytes, which are parsed once.  A
    field that does not parse, an hour outside ``2 .. bins``, a prefix
    ``m`` does not hold or holds twice in an hour, a pick beyond an hour's
    K or a rank other than ``_rank_picks`` gives is a ValueError naming its line."""
    rows = trace.read_rows(path, SELECTION_HEADER)
    hour = rows.ints(0, "hour")
    if (outside := np.flatnonzero((hour < 2) | (hour > m.bin_count))).size:
        i = outside[0]
        raise rows.error(i, f"hour {hour[i]} outside the matrix grid; "
                            "selection was made against a different matrix")
    rank = rows.ints(1, "rank")

    def row_of(text: str) -> int:
        # a text the matrix holds is canonical; only another one is parsed
        canonical = text if text in m._index else trace.Prefix.parse(text)
        if canonical not in m._index:
            raise ValueError(f"prefix {canonical} not in matrix")
        return m._index[canonical]

    matrix_rows, codes = rows.parse(*rows.field(2), row_of)
    index = np.array(matrix_rows, dtype=np.int64)[codes]
    # each row's method,L,K bytes against line 2's, all rows at once
    lo, hi = rows.field(4)[0], rows.ends
    first = rows.raw[lo[0]:hi[0]]
    buf = np.frombuffer(rows.raw, np.uint8)
    tails = np.lib.stride_tricks.sliding_window_view(buf, len(first))
    same = (hi - lo == len(first)) & (
        tails[np.minimum(lo, len(tails) - 1)] == np.frombuffer(first, np.uint8)
    ).all(axis=1)
    if not same.all():
        raise rows.error(int(np.argmin(same)), "mixed selector configurations")

    def config_of(text: str) -> SelectorConfig:
        method, window, size = text.split(",")
        return SelectorConfig(method, int(window), int(size))

    (config,), _ = rows.parse(lo[:1], hi[:1], config_of)
    score = rows.floats(3)
    if (unpickable := np.flatnonzero(~(np.isfinite(score) & (score > 0)))).size:
        i = unpickable[0]
        raise rows.error(i, f"score {rows.text(i, 3)!r} is not finite and > 0")

    # a prefix written two ways has one matrix index, so it is caught too
    cells = (hour - 2) * len(m) + index
    by_cell = np.argsort(cells)
    if (twice := np.flatnonzero(np.diff(cells[by_cell]) == 0)).size:
        i = np.maximum(by_cell[twice], by_cell[twice + 1]).min()  # the first repeat in the file
        raise rows.error(i, f"duplicate prefix {m.prefixes[index[i]]} in hour {hour[i]}")

    # each row's rank must be the one save_selection writes for its pick
    order, ranked = _rank_picks(hour[by_cell], score[by_cell])
    want = np.empty_like(ranked)
    want[by_cell[order]] = ranked
    if (over := np.flatnonzero(want > config.size)).size:
        raise rows.error(over[0], f"hour {hour[over[0]]}: more than K={config.size} picks")
    if (wrong := np.flatnonzero(rank != want)).size:
        i = wrong[0]
        raise rows.error(i, f"hour {hour[i]}: {m.prefixes[index[i]]} has rank {rank[i]}, but "
                            f"(score desc, prefix text asc) ranks it {want[i]}")
    mask = np.zeros((m.bin_count - 1, len(m)), dtype=bool)
    mask.reshape(-1)[cells] = True
    return SelectionRun(config=config, threshold=threshold, prefixes=m.prefixes,
                        mask=mask, picked_scores=score[by_cell])


def run_selection(
    m: trace.HourlyTraceMatrix, profile: CoreProfile, config: SelectorConfig
) -> SelectionRun:
    """Score and select prefixes for every predictable hour of a trace.

    For target hour t the window is hours ``max(1, t-L) .. t-1``; the
    first hour has no history and is skipped.  Short early windows shrink
    to the available history and are flagged as warm-up.  Candidates are
    prefixes active in the window (mean_volume, gm11) or present in at
    least one window core (core_presence, core_volume); only candidates
    with positive score are selectable.

    Returns
    -------
    SelectionRun
    """
    if profile.prefixes != m.prefixes:
        raise ValueError("profile and matrix cover different prefix sets")
    hours_total = m.bin_count
    if hours_total < 2:
        raise ValueError("need at least 2 bins to select predictively")

    L, K = config.window, config.size
    # column j predicts hour j+2 from bins lo .. hi-1 (0-based)
    hi = np.arange(1, hours_total)
    lo = np.maximum(0, hi - L)

    # every window sum is a difference of one float64 running sum per row
    if config.method in ("mean_volume", "gm11"):
        series = m.values
    elif config.method == "core_presence":
        series = profile.cp
    else:
        series = np.where(profile.cp, m.values, 0)
    cum = np.zeros((len(m), hours_total), dtype=np.float64)
    np.cumsum(series[:, :-1], axis=1, dtype=np.float64, out=cum[:, 1:])
    # cum[:, lo] is column 0, which holds 0.0, until the window is L long
    window_sums = cum[:, 1:].copy()
    if L < hours_total - 1:
        window_sums[:, L:] -= cum[:, 1:hours_total - L]
    del cum

    fallbacks = 0
    if config.method == "gm11":
        active = window_sums > 0
        del window_sums
        score, fallbacks = _gm11_scores(m.values, active, lo)
    else:
        score = window_sums
        score /= hi - lo

    mask = _top_k(score, K)
    return SelectionRun(
        config=config,
        threshold=profile.threshold,
        prefixes=m.prefixes,
        mask=mask,
        picked_scores=np.negative(score.T[mask]),  # -(-s) is s exactly
        gm11_fallbacks=fallbacks,
    )


def _top_k(score: np.ndarray, size: int) -> np.ndarray:
    """The (hours, prefixes) bool mask of each hour's ``size`` highest
    positive scores in a (prefixes, hours) score array, which becomes the
    ranking key in place: ``-score`` where it is positive, inf elsewhere.

    score > 0 alone marks the candidates (a positive masked sum needs a
    core hour).  ``np.partition`` finds the hour's K-th key (C. A. R.
    Hoare, "Find", 1961), and ``keep_lowest_ties`` cuts the hour there, as
    a stable sort by (score desc, text asc) would.  Nothing is sorted:
    ranks are computed only where read.
    """
    selectable = score.T > 0
    key = score.T
    np.negative(key, out=key)
    key[~selectable] = np.inf
    size = min(size, key.shape[1])
    # a copied column, so the partitioned array is freed at once
    kth = np.partition(key, size - 1, axis=1)[:, [size - 1]]
    top = keep_lowest_ties(key < kth, key == kth, size)
    # a K-th key of inf ties the unselectable rows too; the mask reuses selectable
    return np.logical_and(selectable, top, out=selectable)


def max_core_size(profile: CoreProfile) -> int:
    """Largest hourly core size over the window; the default selection size."""
    return int(profile.core_sizes.max())
