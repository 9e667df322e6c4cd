"""Predictive prefix selection from sliding-window history.

Each selector scores every candidate prefix for the coming hour using
only the last L hours of data, then keeps the top K by score (ties broken
by canonical prefix text).  Three window metrics are provided -- mean
volume, core presence intensity, and core-masked mean volume -- plus a
classic GM(1,1) grey-model forecast as a comparison baseline.

``run_selection`` is one whole-week array pass per configuration: a
(prefixes, hours) score array, then one stable argsort of every hour's
negated positive scores, cut at K and at the hour's positive count.  It
equals the hour-by-hour loop exactly (the same sequential running sums,
elementwise float operations and stable tie order); picks within an hour
are distinct.  Only GM(1,1) runs hour by hour, for all candidates of an
hour at once (``gm11_forecast_rows``): the 2x2 least-squares fit is
solved in closed form from centred sums, and the rank test that ``lstsq``
would apply is an explicit rule on the singular-value ratio of the 2x2
Gram matrix.
``gm11_fit`` and ``gm11_forecast`` fit one series with ``lstsq``; they
are the scalar reference the batched path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamism import CoreProfile
from .trace import HourlyTraceMatrix, Prefix

__all__ = [
    "METHODS",
    "WINDOW_GRID",
    "SelectorConfig",
    "SelectionRun",
    "mean_volume_score",
    "core_volume_score",
    "gm11_fit",
    "gm11_forecast",
    "gm11_forecast_rows",
    "run_selection",
    "max_core_size",
]

METHODS = ("mean_volume", "core_presence", "core_volume", "gm11")

# Canonical history windows (hours) used by the evaluation grids.
WINDOW_GRID = (1, 12, 24, 168)

# GM(1,1) needs a handful of points for a meaningful exponential fit;
# shorter windows fall back to the window mean.
GM11_MIN_POINTS = 4


@dataclass(frozen=True)
class SelectorConfig:
    """One selector configuration: method, history window L, set size K."""

    method: str
    window: int
    size: int

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.size < 1:
            raise ValueError("size must be >= 1")


def mean_volume_score(volumes: Sequence[float] | np.ndarray) -> float:
    """Mean hourly volume over the history window."""
    arr = np.asarray(volumes, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("window must be 1-D and non-empty")
    return float(arr.mean())


def core_volume_score(
    cp_window: Sequence[int] | np.ndarray, volumes: Sequence[float] | np.ndarray
) -> float:
    """Mean core-masked hourly volume over the history window.

    Combines volume and presence: hours where the prefix sat outside the
    core contribute zero.  Callers restrict candidates to prefixes with
    at least one core appearance in the window; everything else scores 0
    here and is never selected.
    """
    cp = np.asarray(cp_window)
    arr = np.asarray(volumes, dtype=np.float64)
    if cp.shape != arr.shape or cp.ndim != 1 or cp.size < 1:
        raise ValueError("cp and volume windows must be 1-D, non-empty, aligned")
    if not np.isin(cp, (0, 1)).all():
        raise ValueError("cp window entries must be 0 or 1")
    return float((cp * arr).mean())


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

    This is the scalar reference (one ``lstsq`` fit per call);
    ``run_selection`` uses the batched ``gm11_forecast_rows``.
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


def gm11_forecast_rows(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-step GM(1,1) forecasts for every row of a (rows, span) block.

    The batched form of ``gm11_forecast``: the 2x2 least-squares problem
    ``x0(k) + a*z1(k) = b`` is solved in closed form from centred sums,
    ``a = -S_zy / S_zz`` and ``b = mean(y) + a*mean(z)``, for all rows at
    once.  ``lstsq``'s rank test becomes an explicit rule: the design
    ``[-z1, 1]`` over m points is rank-deficient when
    ``s_min <= eps * max(m, 2) * s_max``, where the singular-value ratio
    ``s_min / s_max = sqrt(det) / lambda_max`` follows from the 2x2 Gram
    matrix (``det = m * S_zz``).  Rank-deficient rows, non-finite
    forecasts and windows shorter than ``GM11_MIN_POINTS`` fall back to
    the row mean; ``|a| < 1e-12`` uses ``b``.  Every reduction runs along
    a row, so a row's forecast does not depend on the other rows of the
    block: selections stay free of look-ahead through the candidate set.

    Returns
    -------
    (forecasts, used_fallback)
        Two arrays with one entry per row.
    """
    x0 = np.asarray(windows, dtype=np.float64)
    if x0.ndim != 2 or x0.shape[1] < 1:
        raise ValueError("windows must be a 2-D block with at least one column")
    span = x0.shape[1]
    mean = x0.mean(axis=1)
    if span < GM11_MIN_POINTS:
        return mean, np.ones(len(x0), dtype=bool)

    x1 = np.cumsum(x0, axis=1)
    z = 0.5 * (x1[:, 1:] + x1[:, :-1])
    y = x0[:, 1:]
    m = span - 1
    z_bar = z.mean(axis=1)
    y_bar = y.mean(axis=1)
    dz = z - z_bar[:, None]
    s_zz = (dz * dz).sum(axis=1)
    s_zy = (dz * (y - y_bar[:, None])).sum(axis=1)

    # Gram matrix [[sum z^2, -sum z], [-sum z, m]]: trace and determinant
    det = m * s_zz
    trace = s_zz + m * z_bar * z_bar + m
    lam_max = 0.5 * (trace + np.sqrt(np.maximum(trace * trace - 4.0 * det, 0.0)))
    full_rank = np.sqrt(det) > np.finfo(np.float64).eps * max(m, 2) * lam_max

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = -s_zy / s_zz
        b = y_bar + a * z_bar
        forecast = (x0[:, 0] - b / a) * -np.expm1(a) * np.exp(-a * span)
    forecast = np.where(np.abs(a) < 1e-12, b, forecast)
    fallback = ~full_rank | ~np.isfinite(forecast)
    return np.where(fallback, mean, np.maximum(forecast, 0.0)), fallback


@dataclass(frozen=True, eq=False)
class SelectionRun:
    """Selections of one configuration, one entry per predicted hour.

    ``hours`` is a run of consecutive 1-based hours; ``hours[i]`` is the
    hour whose set was predicted from data in hours ``< hours[i]`` only.
    ``picks[i]`` holds row indices into ``prefixes`` ordered by rank;
    ``scores[i]`` the matching scores.  Warm-up and shortfall follow from
    these and the configuration.  ``threshold`` is the core volume share
    the run was made with, in (0, 1].
    """

    config: SelectorConfig
    threshold: float
    prefixes: tuple[Prefix, ...]
    hours: np.ndarray            # (T,) predicted 1-based hours
    picks: list[np.ndarray]      # per hour: ranked row indices
    scores: list[np.ndarray]     # per hour: scores aligned with picks
    gm11_fallbacks: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self.hours.setflags(write=False)

    @property
    def warmup(self) -> np.ndarray:
        """(T,) True where the window was shorter than L: fewer than L hours
        precede the predicted hour."""
        return self.hours - 1 < self.config.window

    @property
    def shortfall(self) -> np.ndarray:
        """(T,) True where fewer than K candidates scored > 0."""
        return np.array([p.size < self.config.size for p in self.picks], dtype=bool)

    def _pos(self, hour: int) -> int:
        pos = int(hour) - int(self.hours[0])
        if not 0 <= pos < len(self.hours):
            raise ValueError(f"hour {hour} not in selection range")
        return pos

    def selected(self, hour: int) -> list[tuple[Prefix, float]]:
        """Ranked (prefix, score) pairs predicted for one hour."""
        pos = self._pos(hour)
        return [
            (self.prefixes[i], float(s))
            for i, s in zip(self.picks[pos], self.scores[pos])
        ]

    def selected_set(self, hour: int) -> set[Prefix]:
        return {self.prefixes[i] for i in self.picks[self._pos(hour)]}


def run_selection(
    m: HourlyTraceMatrix, profile: CoreProfile, config: SelectorConfig
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
    target_hours = np.arange(2, hours_total + 1, dtype=np.int64)
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
    window_sums = cum[:, 1:] - cum[:, lo]

    fallbacks = 0
    if config.method == "gm11":
        score = np.zeros(window_sums.shape)
        # the one per-hour step: forecast the hour's active rows
        for j, active in enumerate(window_sums.T > 0):
            rows = np.flatnonzero(active)
            score[rows, j], fell_back = gm11_forecast_rows(m.values[rows, lo[j]:hi[j]])
            fallbacks += int(fell_back.sum())
    else:
        score = window_sums / (hi - lo)

    # score > 0 alone marks the candidates (a positive masked sum needs a core
    # hour); rows are in text order, so a stable sort on -score breaks ties by text
    selectable = score.T > 0
    key = np.where(selectable, -score.T, np.inf)
    order = np.argsort(key, axis=1, kind="stable")[:, :K]
    kept = np.arange(order.shape[1]) < selectable.sum(axis=1)[:, None]
    bounds = np.cumsum(kept.sum(axis=1))[:-1]
    picks = np.split(order[kept], bounds)
    scores = np.split(np.take_along_axis(score.T, order, axis=1)[kept], bounds)

    return SelectionRun(
        config=config,
        threshold=profile.threshold,
        prefixes=m.prefixes,
        hours=target_hours,
        picks=picks,
        scores=scores,
        gm11_fallbacks=fallbacks,
    )


def max_core_size(profile: CoreProfile) -> int:
    """Largest hourly core size over the window; the default selection size."""
    if profile.core_sizes.size == 0:
        raise ValueError("profile covers no hours")
    largest = int(profile.core_sizes.max())
    if largest < 1:
        raise ValueError("degenerate trace: every hourly core is empty")
    return largest
