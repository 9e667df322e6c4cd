"""Transit RTT comparison and dynamic route-selection simulation.

A probe log holds RTT samples as a dense (probing round, prefix,
transit) cube.  Per round, each transit's quality is the mean over
probed prefixes of its RTT divided by the best RTT any transit achieved
for that prefix in the same round -- 1.0 means best-everywhere.  On top
of the physical transits, a virtual "dynamic" transit is simulated: per
prefix it uses whichever transit had the smallest RTT in the previous
round, which quantifies the gain available to a route decision engine.

Each log's per-prefix best RTT and every physical transit's normalized
RTT table are built once, on first use, and kept in the log; the series
and the dynamic simulation read them from there.

No live probing happens here; logs are ingested from CSV or generated
synthetically with a seeded model.  A generated log's sidecar is written
and checked beside it.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import trace
from ._record import Record
from .evaluation import BoxplotSummary, boxplot_summary, sorted_percentile

__all__ = [
    "ProbeLog",
    "ProbeScheduleSpec",
    "RegimeSwitch",
    "RttModel",
    "NpSummary",
    "NpSeries",
    "DynamicRouteResult",
    "DYNAMIC_LABEL",
    "np_series",
    "simulate_dynamic_selection",
    "generate_probe_log",
    "np_summary",
    "rank_transits",
    "save_probe_log",
    "load_probe_log",
]

PROBE_CSV_HEADER = ("tick", "prefix", "transit", "rtt_ms")

# File name of a probe log's sidecar, beside the log's CSV.
PROBE_META_NAME = "probe_meta.json"

# Label of the simulated last-round-best virtual transit in outputs.
DYNAMIC_LABEL = "dynamic"

# Most probing rounds a schedule may allow; it bounds the array of round gaps.
MAX_PROBE_ROUNDS = 1_000_000

# Most probes (rounds x pairs) a generated log may hold; each of the
# generator's (round, pair) float64 arrays then stays under 80 MB.
MAX_PROBES = 10_000_000

# Floor of every synthetic RTT in ms, so noise never makes one 0 or negative.
MIN_RTT = 0.1

class _DuplicateSample(ValueError):
    """A second sample for one (tick, prefix, transit); ``sample`` is its
    position in ``rtt``."""

    def __init__(self, message: str, sample: int):
        super().__init__(message)
        self.sample = sample


class ProbeLog:
    """Immutable RTT store: a float64 cube indexed by (tick, prefix, transit).

    ``cube`` holds the RTT in ms, or NaN where the probe was lost or never
    sent; the bool ``probed`` mask tells the two apart (False = never
    probed).  The axes ``ticks``, ``prefixes`` (by text) and ``transits``
    are the sorted unions seen across all samples, lost ones included.
    At most one sample may exist per (tick, prefix, transit).  A generated
    log has its round start times in ``tick_times``; a loaded one has None.
    A transit label must read back from a probe CSV as itself: an empty
    one, one holding ``,``, ``"``, CR or LF, or one with surrounding
    whitespace is refused.

    The private ``_np`` slot memoizes the normalized RTT tables of the
    physical transits (see ``_physical_np``): None until first used, then
    read-only arrays that callers never see.
    """

    __slots__ = ("ticks", "prefixes", "transits", "tick_times", "cube", "probed", "_np")

    def __init__(self, ticks, prefixes, transits, rtt: np.ndarray,
                 tick_times: Sequence[float] | None = None):
        """Scatter sample ``i`` (RTT ``rtt[i]``, NaN = lost) into the cube.  Each
        axis comes as ``(keys, codes)``: sample ``i`` has key ``keys[codes[i]]``."""
        if rtt.size == 0:
            raise ValueError("empty probe log")
        axes, index = [], []
        for keys, codes in (ticks, prefixes, transits):
            axes.append(tuple(sorted(set(keys))))
            pos = {label: i for i, label in enumerate(axes[-1])}
            index.append(np.array([pos[k] for k in keys], np.intp)[codes])
        self.ticks, self.prefixes, self.transits = axes
        for label in self.transits:
            if not label or label != label.strip() or any(c in label for c in ',"\r\n'):
                raise ValueError(f"transit label {label!r} would not read back from a probe CSV")
        shape = tuple(map(len, axes))
        flat = np.ravel_multi_index(index, shape).ravel()
        probed = np.zeros(math.prod(shape), dtype=bool)
        probed[flat] = True
        if np.count_nonzero(probed) != flat.size:
            first = np.zeros(flat.size, dtype=bool)
            first[np.unique(flat, return_index=True)[1]] = True
            repeat = int(np.argmax(~first))
            cell = np.unravel_index(flat[repeat], shape)
            raise _DuplicateSample(
                f"duplicate sample for {tuple(a[i] for a, i in zip(axes, cell))}", repeat
            )
        cube = np.full(probed.size, np.nan)
        cube[flat] = rtt.ravel()
        self.tick_times = tuple(tick_times) if tick_times is not None else None
        self.cube, self.probed = cube.reshape(shape), probed.reshape(shape)
        self.cube.flags.writeable = self.probed.flags.writeable = False
        self._np = None


def _np_table(rtt: np.ndarray, best: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-round normalized RTT of each column of ``rtt`` (tick, prefix, column)
    against ``best`` (tick, prefix, 1), the physical transits' per-prefix best
    RTT: the (tick, column) means over prefixes with a sample (NaN if none)
    and their counts.  Each column's mean adds the same ratios in the same
    order whatever other columns ``rtt`` holds."""
    ratio = rtt / best
    present = ~np.isnan(ratio)
    # add.accumulate adds prefix by prefix like a scalar loop would; sum()
    # adds pairwise along a contiguous axis, which changes the last bits
    totals = np.where(present, ratio, 0.0).cumsum(axis=1)[:, -1]
    included = present.sum(axis=1)
    values = np.divide(totals, included, out=np.full(totals.shape, np.nan), where=included > 0)
    return values, included


def _physical_np(log: ProbeLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The log's per-prefix best RTT (tick, prefix, 1) and every physical
    transit's NP means and counts (tick, transit), built by one
    ``_np_table`` call on first use and kept read-only in ``log._np``."""
    if log._np is None:
        best = np.fmin.reduce(log.cube, axis=2, keepdims=True)
        log._np = (best, *_np_table(log.cube, best))
        for table in log._np:
            table.flags.writeable = False
    return log._np


def _gaps(values: np.ndarray) -> tuple[float | None, ...]:
    gaps = values.tolist()
    for i in np.flatnonzero(np.isnan(values)).tolist():
        gaps[i] = None
    return tuple(gaps)


class NpSeries(Record):
    """Per-round normalized RTT of one transit; None entries are gaps."""

    transit: str
    ticks: tuple[int, ...]
    values: tuple[float | None, ...]
    included: tuple[int, ...]

    def clean(self) -> list[float]:
        return [v for v in self.values if v is not None]


def np_series(log: ProbeLog, transit: str) -> NpSeries:
    """Normalized RTT series of one transit over all probing rounds."""
    if transit not in log.transits:
        raise ValueError(f"unknown transit {transit!r}")
    column = log.transits.index(transit)
    _, values, included = _physical_np(log)
    return NpSeries(
        transit=transit, ticks=log.ticks, values=_gaps(values[:, column]),
        included=tuple(included[:, column].tolist()),
    )


def _last_round_best(rtt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the smallest RTT along the last axis (ties: lowest label),
    and where no RTT is present along it at all."""
    lost = np.isnan(rtt)
    return np.where(lost, np.inf, rtt).argmin(axis=-1), lost.all(axis=-1)


class DynamicRouteResult(NpSeries):
    """Normalized RTT series of the simulated last-round-best transit."""

    excluded_missing: tuple[int, ...]  # chosen transit had no current sample


def simulate_dynamic_selection(log: ProbeLog, seed: int = 0) -> DynamicRouteResult:
    """Simulate a per-prefix dynamic route selection over the log.

    At every round after the first, each prefix is routed via the transit
    that measured the smallest RTT in the previous round (random when no
    previous data exists).  The virtual transit's RTT for the prefix is
    the chosen transit's actual sample at the current round; its
    normalized RTT is computed against the physical transits' per-prefix
    best, so physical values are unchanged by the simulation.  Prefixes
    whose chosen transit has no current sample are excluded and counted.
    """
    if len(log.ticks) < 2:
        raise ValueError("dynamic selection needs at least 2 probing rounds")
    choice, blind = _last_round_best(log.cube[:-1])
    # one batched draw equals a scalar draw per history-less prefix in tick-major order
    choice[blind] = np.random.default_rng(seed).integers(len(log.transits), size=blind.sum())
    own = np.take_along_axis(log.cube[1:], choice[:, :, None], axis=2)
    values, included = _np_table(own, _physical_np(log)[0][1:])
    return DynamicRouteResult(
        transit=DYNAMIC_LABEL,
        ticks=log.ticks[1:],
        values=_gaps(values[:, 0]),
        included=tuple(included[:, 0].tolist()),
        excluded_missing=tuple(np.isnan(own[:, :, 0]).sum(axis=1).tolist()),
    )


class ProbeScheduleSpec(Record):
    """Probing round schedule: mean interval with uniform jitter.

    Rounds start at time 0 and stop before ``duration`` seconds; with
    jitter j each inter-round gap is uniform on
    ``[mean*(1-j), mean*(1+j)]``.  A schedule whose round count may
    exceed ``MAX_PROBE_ROUNDS`` (``duration / (mean*(1-j))``) is refused.
    """

    mean_interval: float = 240.0
    jitter: float = 0.30
    duration: float = 86400.0
    seed: int = 0

    def __post_init__(self) -> None:
        # each test is written so that NaN fails it
        for name in ("mean_interval", "duration"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        if self.duration / (self.mean_interval * (1.0 - self.jitter)) > MAX_PROBE_ROUNDS:
            raise ValueError(f"duration / (mean_interval * (1 - jitter)) allows more than "
                             f"{MAX_PROBE_ROUNDS} probing rounds")


class RegimeSwitch(Record):
    """RTT degradation episode: multiply one transit's RTT, for every
    prefix, on rounds ``start_tick <= t < end_tick``."""

    transit: str
    start_tick: int
    end_tick: int
    multiplier: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.multiplier) and self.multiplier > 0):
            raise ValueError(f"multiplier must be finite and > 0, got {self.multiplier}")
        if self.end_tick <= self.start_tick:
            raise ValueError("end_tick must be > start_tick")


class RttModel(Record):
    """Synthetic RTT model per (prefix, transit) pair.

    ``base_rtt`` maps every probed (prefix, transit) pair to its baseline
    RTT in ms.  Gaussian noise (std ``noise_std``) is added per probe and
    the result clamped at ``MIN_RTT``.  Each probe is lost with the one
    probability ``loss_prob``; lost probes appear in the log without an
    RTT value.  Each regime switch must name one of ``base_rtt``'s transits.
    """

    base_rtt: Mapping[tuple[trace.Prefix, str], float]
    noise_std: float = 0.0
    loss_prob: float = 0.0
    regime_switches: tuple[RegimeSwitch, ...] = ()

    def __post_init__(self) -> None:
        if not self.base_rtt:
            raise ValueError("base_rtt must not be empty")
        # each test is written so that NaN fails it
        for pair, value in self.base_rtt.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"base RTT for {pair} must be finite and > 0, got {value}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not 0 <= self.loss_prob <= 1:
            raise ValueError(f"loss probability {self.loss_prob} outside [0, 1]")
        known = sorted({transit for _, transit in self.base_rtt})
        for sw in self.regime_switches:
            if sw.transit not in known:
                raise ValueError(f"regime switch transit {sw.transit!r} is not one of "
                                 f"the transits {known}")


def generate_probe_log(schedule: ProbeScheduleSpec, model: RttModel) -> ProbeLog:
    """Generate a seed-deterministic synthetic probe log.

    The schedule fixes the probing rounds; every known (prefix, transit)
    pair is probed each round, subject to the model's loss probability.
    One generator makes three array draws, in this order: every round
    gap, every probe's loss uniform, every probe's noise, the last two
    in (round, pair) order with pairs sorted by (prefix text, transit).
    A schedule and model that may give more than ``MAX_PROBES`` probes
    are refused before any draw.
    """
    lo = schedule.mean_interval * (1.0 - schedule.jitter)
    hi = schedule.mean_interval * (1.0 + schedule.jitter)
    # that many gaps sum past duration (a rounded last sum may fall just
    # short, and then no later round would start before duration), and
    # cumsum adds them in order, so the times equal a loop's running sum
    gap_count = int(schedule.duration // lo) + 1
    if gap_count * len(model.base_rtt) > MAX_PROBES:
        raise ValueError(f"{gap_count} probing rounds x {len(model.base_rtt)} (prefix, transit) "
                         f"pairs allow more than {MAX_PROBES} probes")
    rng = np.random.default_rng(schedule.seed)
    gaps = rng.uniform(lo, hi, gap_count)
    times = np.concatenate(([0.0], np.cumsum(gaps)))
    times = times[: np.searchsorted(times, schedule.duration)]

    pairs = sorted(model.base_rtt)
    shape = (len(times), len(pairs))
    lost = model.loss_prob > rng.random(shape)
    noise = rng.normal(0.0, model.noise_std, shape)
    rtt = np.tile(np.array([model.base_rtt[pair] for pair in pairs], np.float64), (len(times), 1))
    # one multiplication per switch, in order: a product rounds differently
    for sw in model.regime_switches:
        hit = [t == sw.transit for _, t in pairs]
        rtt[max(sw.start_tick, 0) : max(sw.end_tick, 0), hit] *= sw.multiplier
    rtt = np.where(lost, np.nan, np.maximum(rtt + noise, MIN_RTT))
    codes = np.arange(len(pairs))
    return ProbeLog(
        (range(len(times)), np.arange(len(times))[:, None]), ([p for p, _ in pairs], codes),
        ([t for _, t in pairs], codes), rtt, times.tolist(),
    )


class NpSummary(BoxplotSummary):
    """Boxplot summary with 5th/95th percentile whiskers."""

    p5: float
    p95: float


def np_summary(values: Sequence[float]) -> NpSummary:
    """Summarize a normalized-RTT series (gaps must be filtered out)."""
    s = np.sort(np.asarray(values, dtype=np.float64))
    return NpSummary(**boxplot_summary(values)._asdict(),
                     p5=sorted_percentile(s, 5), p95=sorted_percentile(s, 95))


def rank_transits(
    log: ProbeLog, include_dynamic: bool = True, seed: int = 0
) -> list[tuple[str, NpSummary]]:
    """Summaries per transit, ordered by mean normalized RTT ascending.

    With ``include_dynamic`` the simulated last-round-best transit is
    ranked alongside the physical ones under the ``dynamic`` label.
    """
    series = [np_series(log, transit) for transit in log.transits]
    if include_dynamic and len(log.ticks) >= 2:
        series.append(simulate_dynamic_selection(log, seed=seed))
    entries = [(s.transit, np_summary(clean)) for s in series if (clean := s.clean())]
    entries.sort(key=lambda item: (item[1].mean, item[0]))
    return entries


def save_probe_log(log: ProbeLog, path: str | Path,
                   schedule: ProbeScheduleSpec | None = None) -> None:
    """Write a probe log as unquoted `tick,prefix,transit,rtt_ms` CSV lines
    in cube order, an empty RTT field for a lost probe.  Canonical prefixes
    never need quoting, and ``ProbeLog`` refuses a label that would.  Given
    the ``schedule`` that made the log, the sidecar beside ``path`` gets its
    fields and the log's ``transits``, prefix and tick counts and tick times.

    ``trace.write_rows`` writes ``trace.WRITE_BLOCK`` probes at a time, their
    tick and ``prefix,transit`` texts made once per tick and pair."""
    if schedule is not None and log.tick_times is None:
        raise ValueError("a log without round start times was not generated from a schedule")
    heads = np.array(list(map(str, log.ticks)), dtype=object)
    pairs = np.array([f"{prefix},{transit}"
                      for prefix in log.prefixes for transit in log.transits], dtype=object)
    cells = np.flatnonzero(log.probed)  # in cube order

    def blocks():
        for start in range(0, cells.size, trace.WRITE_BLOCK):
            block = cells[start:start + trace.WRITE_BLOCK]
            tick, pair = np.divmod(block, len(pairs))
            # a lost probe's RTT is NaN, and its field is empty
            rtts = ["" if v != v else repr(v) for v in log.cube.ravel()[block].tolist()]
            yield heads[tick].tolist(), pairs[pair].tolist(), rtts

    trace.write_rows(path, PROBE_CSV_HEADER, blocks())
    if schedule is not None:
        meta = {"transits": list(log.transits), "prefix_count": len(log.prefixes),
                "ticks": len(log.ticks), "tick_times": list(log.tick_times)}
        trace.write_json(Path(path).with_name(PROBE_META_NAME), {**schedule._asdict(), **meta})


def load_probe_log(path: str | Path) -> ProbeLog:
    """Read a probe log written by ``save_probe_log`` (or any external
    prober emitting the same format), without round start times.  Rows
    are read by ``trace.read_rows`` below the exact ``PROBE_CSV_HEADER``,
    each one unquoted four-field line, and parsed from their byte offsets:
    ticks (plain decimal int64) in bulk, each distinct ``prefix,transit``
    text once, and each RTT by ``float()``.  A field that does not parse,
    an RTT that is not finite and > 0, or a second row for one (tick,
    prefix, transit) raises ValueError naming the CSV line; a transit label
    ``ProbeLog`` refuses (one with spaces around it, say) raises one naming
    the CSV.  A sidecar beside ``path`` is read first, if there is one, by
    ``read_sidecar`` (``ticks`` and ``prefix_count`` must be JSON integers),
    and it must agree with the log on ticks (one finite ``tick_times`` entry
    each), transits and prefix count; else ValueError naming the sidecar."""
    meta_path = Path(path).with_name(PROBE_META_NAME)
    meta = trace.read_sidecar(meta_path, ("ticks", "prefix_count")) if meta_path.exists() else None
    rows = trace.read_rows(path, PROBE_CSV_HEADER)
    # a blank field, or one of spaces, is a loss
    rtt = rows.floats(3, lambda text: float(text) if text.strip() else math.nan)
    lo, hi = rows.field(3)
    for i in np.flatnonzero(~(np.isfinite(rtt) & (rtt > 0)) & (hi > lo)).tolist():
        if text := rows.text(i, 3).strip():
            raise rows.error(i, f"rtt_ms must be finite and > 0, not {text!r}")
    ticks, tick_codes = np.unique(rows.ints(0, "tick"), return_inverse=True)

    def pair(text: str) -> tuple[trace.Prefix, str]:
        prefix, transit = text.split(",")
        return trace.Prefix.parse(prefix), transit

    (lo, _), (_, hi) = rows.field(1), rows.field(2)
    pairs, pair_codes = rows.parse(lo, hi, pair)
    try:
        log = ProbeLog((ticks.tolist(), tick_codes), ([p for p, _ in pairs], pair_codes),
                       ([t for _, t in pairs], pair_codes), rtt)
    except _DuplicateSample as exc:
        raise rows.error(exc.sample, str(exc)) from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if meta is None:
        return log
    times = meta.get("tick_times")
    if not (isinstance(times, list) and len(times) == meta["ticks"] == len(log.ticks)
            and all(type(t) in (int, float) and math.isfinite(t) for t in times)):
        raise ValueError(f"{meta_path}: ticks and tick_times must give one finite start "
                         f"time to each of the {len(log.ticks)} probing rounds in {path}")
    for key, value in (("transits", list(log.transits)), ("prefix_count", len(log.prefixes))):
        claimed = meta.get(key)
        if (sorted(claimed, key=str) if isinstance(claimed, list) else claimed) != value:
            raise ValueError(f"{meta_path}: {key} is {meta.get(key)!r}, but {path} has {value!r}")
    return log
