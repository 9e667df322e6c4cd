"""Transit RTT comparison and dynamic route-selection simulation.

A probe log holds RTT samples as a dense (probing round, prefix,
transit) cube.  Per round, each transit's quality is the mean over
probed prefixes of its RTT divided by the best RTT any transit achieved
for that prefix in the same round -- 1.0 means best-everywhere.  On top
of the physical transits, a virtual "dynamic" transit is simulated: per
prefix it uses whichever transit had the smallest RTT in the previous
round, which quantifies the gain available to a route decision engine.

No live probing happens here; logs are ingested from CSV or generated
synthetically with a seeded model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .evaluation import BoxplotSummary, boxplot_summary
from .trace import Prefix

__all__ = [
    "ProbeSample",
    "ProbeLog",
    "ProbeScheduleSpec",
    "RegimeSwitch",
    "RttModel",
    "NpSummary",
    "NpSeries",
    "DynamicRouteResult",
    "DYNAMIC_LABEL",
    "normalized_performance",
    "np_series",
    "pick_last_round_best",
    "simulate_dynamic_selection",
    "generate_probe_log",
    "np_summary",
    "rank_transits",
    "save_probe_log",
    "load_probe_log",
]

PROBE_CSV_HEADER = ("tick", "prefix", "transit", "rtt_ms")

# Label of the simulated last-round-best virtual transit in outputs.
DYNAMIC_LABEL = "dynamic"


@dataclass(frozen=True)
class ProbeSample:
    """One probe result; ``rtt`` is None when the probe got no answer."""

    tick: int
    prefix: Prefix
    transit: str
    rtt: float | None

    def __post_init__(self) -> None:
        if self.rtt is not None and not (math.isfinite(self.rtt) and self.rtt > 0):
            raise ValueError(f"rtt must be finite and > 0 ms, got {self.rtt}")


class ProbeLog:
    """Immutable RTT store: a float64 cube indexed by (tick, prefix, transit).

    ``cube`` holds the RTT in ms, or NaN where the probe was lost or never
    sent; the bool ``probed`` mask tells the two apart (False = never
    probed).  The axes ``ticks``, ``prefixes`` (by text) and ``transits``
    are the sorted unions seen across all samples, lost ones included.
    At most one sample may exist per (tick, prefix, transit).
    """

    __slots__ = ("ticks", "prefixes", "transits", "tick_times", "cube", "probed", "_pos")

    def __init__(self, samples: Iterable[ProbeSample], tick_times: Sequence[float] | None = None):
        samples = list(samples)
        rtt = np.array([np.nan if s.rtt is None else s.rtt for s in samples], np.float64)
        keys = [[getattr(s, field) for s in samples] for field in ("tick", "prefix", "transit")]
        self._fill(*((column, slice(None)) for column in keys), rtt, tick_times)

    def _fill(self, ticks, prefixes, transits, rtt, tick_times) -> "ProbeLog":
        """Scatter sample ``i`` (RTT ``rtt[i]``, NaN = lost) into the cube.  Each
        axis comes as ``(keys, codes)``: sample ``i`` has key ``keys[codes[i]]``."""
        if rtt.size == 0:
            raise ValueError("empty probe log")
        axes, index, self._pos = [], [], []
        orders = (None, attrgetter("text"), None)
        for (keys, codes), order in zip((ticks, prefixes, transits), orders):
            axes.append(tuple(sorted(set(keys), key=order)))
            self._pos.append({label: i for i, label in enumerate(axes[-1])})
            index.append(np.array([self._pos[-1][k] for k in keys], np.intp)[codes])
        self.ticks, self.prefixes, self.transits = axes
        shape = tuple(map(len, axes))
        if tick_times is not None and len(tick_times) != shape[0]:
            raise ValueError(f"{len(tick_times)} tick_times for {shape[0]} probing rounds")
        flat = np.ravel_multi_index(index, shape).ravel()
        probed = np.zeros(math.prod(shape), dtype=bool)
        probed[flat] = True
        if np.count_nonzero(probed) != flat.size:
            cell = np.unravel_index(np.argmax(np.bincount(flat) > 1), shape)
            raise ValueError(f"duplicate sample for {tuple(a[i] for a, i in zip(axes, cell))}")
        cube = np.full(probed.size, np.nan)
        cube[flat] = rtt.ravel()
        self.tick_times = tuple(tick_times) if tick_times is not None else None
        self.cube, self.probed = cube.reshape(shape), probed.reshape(shape)
        self.cube.flags.writeable = self.probed.flags.writeable = False
        return self

    def rtt(self, tick: int, prefix: Prefix, transit: str) -> float | None:
        """RTT of one probe; None when it was lost or is not in the log."""
        cell = tuple(pos.get(k) for pos, k in zip(self._pos, (tick, prefix, transit)))
        value = np.nan if None in cell else self.cube[cell]
        return None if np.isnan(value) else float(value)

    def previous_tick(self, tick: int) -> int | None:
        """The probing round before ``tick``, or None at the first round."""
        pos = self._pos[0].get(tick)
        if pos is None:
            raise ValueError(f"tick {tick} not in log")
        return self.ticks[pos - 1] if pos > 0 else None

    def _columns(self) -> tuple[list, list, list, list]:
        """Tick, prefix, transit and RTT (None = lost) of each probe, in cube order."""
        t, p, r = np.nonzero(self.probed)
        return (
            list(map(self.ticks.__getitem__, t.tolist())),
            list(map(self.prefixes.__getitem__, p.tolist())),
            list(map(self.transits.__getitem__, r.tolist())),
            _gaps(self.cube[self.probed]),
        )

    def samples(self) -> Iterable[ProbeSample]:
        """All samples (including losses) in deterministic order."""
        return map(ProbeSample, *self._columns())


def _np_table(rtt: np.ndarray, physical: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-round normalized RTT of each column of ``rtt`` (tick, prefix, column)
    against the per-prefix best of ``physical`` (tick, prefix, transit): the
    (tick, column) means over prefixes with a sample (NaN if none) and their counts."""
    ratio = rtt / np.fmin.reduce(physical, axis=2, keepdims=True)
    present = ~np.isnan(ratio)
    # add.accumulate adds prefix by prefix like a scalar loop would; sum()
    # adds pairwise along a contiguous axis, which changes the last bits
    totals = np.where(present, ratio, 0.0).cumsum(axis=1)[:, -1]
    included = present.sum(axis=1)
    values = np.divide(totals, included, out=np.full(totals.shape, np.nan), where=included > 0)
    return values, included


def _gaps(values: np.ndarray) -> tuple[float | None, ...]:
    return tuple(None if math.isnan(v) else v for v in values.tolist())


def normalized_performance(log: ProbeLog, transit: str, tick: int) -> float | None:
    """Normalized RTT of one transit at one probing round.

    Mean over probed prefixes of the transit's RTT divided by the best
    RTT among all transits for the same prefix at the same round; >= 1,
    with 1 meaning the transit was best for every included prefix.
    Prefixes with no sample for this transit at this round are excluded.
    Returns None when no prefix could be included (a gap).
    """
    series = np_series(log, transit)
    return series.values[series.ticks.index(tick)]


@dataclass(frozen=True)
class NpSeries:
    """Per-round normalized RTT of one transit; None entries are gaps."""

    transit: str
    ticks: tuple[int, ...]
    values: tuple[float | None, ...]
    included: tuple[int, ...]

    def clean(self) -> list[float]:
        return [v for v in self.values if v is not None]


def np_series(log: ProbeLog, transit: str) -> NpSeries:
    """Normalized RTT series of one transit over all probing rounds."""
    column = log._pos[2].get(transit)
    if column is None:
        raise ValueError(f"unknown transit {transit!r}")
    values, included = _np_table(log.cube, log.cube)
    return NpSeries(
        transit=transit, ticks=log.ticks, values=_gaps(values[:, column]),
        included=tuple(included[:, column].tolist()),
    )


def _last_round_best(rtt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the smallest RTT along the last axis (ties: lowest label),
    and where no RTT is present along it at all."""
    lost = np.isnan(rtt)
    return np.where(lost, np.inf, rtt).argmin(axis=-1), lost.all(axis=-1)


def pick_last_round_best(
    log: ProbeLog, prefix: Prefix, tick: int, rng: np.random.Generator
) -> str:
    """Transit with the smallest RTT for ``prefix`` in the previous round.

    Ties break by transit label ascending.  When the previous round has
    no sample for the prefix (or ``tick`` is the first round), a
    uniformly random transit is drawn from ``rng``.
    """
    prev, row = log.previous_tick(tick), log._pos[1].get(prefix)
    if prev is not None and row is not None:
        choice, blind = _last_round_best(log.cube[log._pos[0][prev], row])
        if not blind:
            return log.transits[int(choice)]
    return log.transits[int(rng.integers(len(log.transits)))]


@dataclass(frozen=True)
class DynamicRouteResult(NpSeries):
    """Normalized RTT series of the simulated last-round-best transit."""

    excluded_missing: tuple[int, ...]  # chosen transit had no current sample
    seed: int


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
    values, included = _np_table(own, log.cube[1:])
    return DynamicRouteResult(
        transit=DYNAMIC_LABEL,
        ticks=log.ticks[1:],
        values=_gaps(values[:, 0]),
        included=tuple(included[:, 0].tolist()),
        excluded_missing=tuple(np.isnan(own[:, :, 0]).sum(axis=1).tolist()),
        seed=seed,
    )


@dataclass(frozen=True)
class ProbeScheduleSpec:
    """Probing round schedule: mean interval with uniform jitter.

    Rounds start at time 0 and stop before ``duration`` seconds; with
    jitter j each inter-round gap is uniform on
    ``[mean*(1-j), mean*(1+j)]``.
    """

    mean_interval: float = 240.0
    jitter: float = 0.30
    duration: float = 86400.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mean_interval <= 0:
            raise ValueError("mean_interval must be > 0")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")


@dataclass(frozen=True)
class RegimeSwitch:
    """RTT degradation episode: multiply one transit's RTT on rounds
    ``start_tick <= t < end_tick`` (optionally only for some prefixes)."""

    transit: str
    start_tick: int
    end_tick: int
    multiplier: float
    prefixes: tuple[Prefix, ...] | None = None

    def __post_init__(self) -> None:
        if self.multiplier <= 0:
            raise ValueError("multiplier must be > 0")
        if self.end_tick <= self.start_tick:
            raise ValueError("end_tick must be > start_tick")


@dataclass(frozen=True)
class RttModel:
    """Synthetic RTT model per (prefix, transit) pair.

    ``base_rtt`` maps every probed (prefix, transit) pair to its baseline
    RTT in ms.  Gaussian noise (std ``noise_std``) is added per probe and
    the result clamped at ``min_rtt``.  ``loss_prob`` is either a global
    float or a per-pair mapping; lost probes appear in the log without an
    RTT value.
    """

    base_rtt: Mapping[tuple[Prefix, str], float]
    noise_std: float = 0.0
    loss_prob: float | Mapping[tuple[Prefix, str], float] = 0.0
    regime_switches: tuple[RegimeSwitch, ...] = ()
    min_rtt: float = 0.1

    def __post_init__(self) -> None:
        if not self.base_rtt:
            raise ValueError("base_rtt must not be empty")
        for pair, value in self.base_rtt.items():
            if value <= 0:
                raise ValueError(f"base RTT for {pair} must be > 0")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.min_rtt <= 0:
            raise ValueError("min_rtt must be > 0")
        per_pair = not isinstance(self.loss_prob, (int, float))
        for p in self.loss_prob.values() if per_pair else [self.loss_prob]:
            if not 0 <= p <= 1:
                raise ValueError(f"loss probability {p} outside [0, 1]")


def generate_probe_log(schedule: ProbeScheduleSpec, model: RttModel) -> ProbeLog:
    """Generate a seed-deterministic synthetic probe log.

    The schedule fixes the probing rounds; every known (prefix, transit)
    pair is probed each round, subject to the model's loss probability.
    """
    rng = np.random.default_rng(schedule.seed)
    lo = schedule.mean_interval * (1.0 - schedule.jitter)
    hi = schedule.mean_interval * (1.0 + schedule.jitter)

    times = [0.0]
    while True:
        gap = rng.uniform(lo, hi) if schedule.jitter > 0 else schedule.mean_interval
        nxt = times[-1] + gap
        if nxt >= schedule.duration:
            break
        times.append(nxt)

    pairs = sorted(model.base_rtt, key=lambda pt: (pt[0].text, pt[1]))
    prob = model.loss_prob
    losses = [prob if isinstance(prob, (int, float)) else prob.get(pair, 0.0) for pair in pairs]
    # per probe in (tick, pair) order: a uniform for loss (random() draws what
    # uniform() would, faster), then a normal if answered; NaN marks a loss
    noise = [
        np.nan if loss > rng.random()
        else rng.normal(0.0, model.noise_std) if model.noise_std > 0 else 0.0
        for _ in times for loss in losses
    ]
    rtt = np.tile(np.array([model.base_rtt[pair] for pair in pairs], np.float64), (len(times), 1))
    # one multiplication per switch, in order: a product rounds differently
    for sw in model.regime_switches:
        hit = [t == sw.transit and (sw.prefixes is None or p in sw.prefixes) for p, t in pairs]
        rtt[max(sw.start_tick, 0) : max(sw.end_tick, 0), hit] *= sw.multiplier
    rtt = np.maximum(rtt + np.reshape(noise, rtt.shape), model.min_rtt)
    codes = np.arange(len(pairs))
    return ProbeLog.__new__(ProbeLog)._fill(
        (range(len(times)), np.arange(len(times))[:, None]), ([p for p, _ in pairs], codes),
        ([t for _, t in pairs], codes), rtt, times,
    )


@dataclass(frozen=True)
class NpSummary(BoxplotSummary):
    """Boxplot summary with 5th/95th percentile whiskers."""

    p5: float
    p95: float

    def as_dict(self) -> dict:
        return {**super().as_dict(), "p5": self.p5, "p95": self.p95}


def np_summary(values: Sequence[float]) -> NpSummary:
    """Summarize a normalized-RTT series (gaps must be filtered out)."""
    arr = np.asarray(values, dtype=np.float64)
    return NpSummary(
        **vars(boxplot_summary(arr)),
        p5=float(np.percentile(arr, 5)),
        p95=float(np.percentile(arr, 95)),
    )


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
    entries = [(s.transit, np_summary(s.clean())) for s in series if s.clean()]
    entries.sort(key=lambda item: (item[1].mean, item[0]))
    return entries


def save_probe_log(log: ProbeLog, path: str | Path) -> None:
    """Write a probe log as `tick,prefix,transit,rtt_ms` CSV (empty = loss)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PROBE_CSV_HEADER)
        ticks, prefixes, transits, rtts = log._columns()
        writer.writerows(zip(
            ticks, [prefix.text for prefix in prefixes], transits,
            ["" if rtt is None else repr(rtt) for rtt in rtts],
        ))


def _parse_column(column: Sequence[str], parse, path, lines) -> tuple[list, np.ndarray]:
    """Parse each distinct text of a CSV column once: the parsed values,
    and each row's index into them; errors name the row's line."""
    codes = dict.fromkeys(column)
    parsed = []
    for code, text in enumerate(codes):
        codes[text] = code
        try:
            parsed.append(parse(text))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lines[column.index(text)]}: {exc}") from None
    return parsed, np.fromiter(map(codes.__getitem__, column), np.intp, len(column))


def load_probe_log(path: str | Path, tick_times: Sequence[float] | None = None) -> ProbeLog:
    """Read a probe log written by ``save_probe_log`` (or any external
    prober emitting the same format); ``tick_times`` restores the round
    start times that the CSV does not carry.  A malformed row, or an RTT
    that is not finite and > 0, raises ValueError naming the CSV line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(c.strip().lower() for c in header) != PROBE_CSV_HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(PROBE_CSV_HEADER)!r}, got {header!r}"
            )
        rows = [(reader.line_num, *row) for row in reader if row]
    if set(map(len, rows)) - {5}:
        line, *row = next(row for row in rows if len(row) != 5)
        raise ValueError(f"{path}: line {line}: bad probe row {row!r}")
    lines, ticks, prefixes, transits, texts = list(zip(*rows)) or [()] * 5
    parsed, codes = _parse_column(
        texts, lambda text: float(text) if text.strip() else None, path, lines
    )
    rtt = np.array(parsed, np.float64)[codes]  # None (a loss) becomes NaN
    answered = np.array([v is not None for v in parsed], bool)[codes]
    bad = answered & ~(np.isfinite(rtt) & (rtt > 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{path}: line {lines[i]}: rtt_ms must be finite and > 0, not {texts[i]!r}")
    axes = zip((ticks, prefixes, transits), (int, Prefix.parse, str.strip))
    columns = [_parse_column(column, parse, path, lines) for column, parse in axes]
    return ProbeLog.__new__(ProbeLog)._fill(*columns, rtt, tick_times)
