"""Per-element helpers the tests use beside the package's array paths.

The package computes each quantity once, over whole arrays.  These are
the per-element views the tests read results through, and the scalar
definitions they check the arrays against.
"""

import csv
import io
import math

import numpy as np

from prefixcast.rttsim import ProbeLog


def probe_log(rows) -> ProbeLog:
    """A probe log from ``(tick, prefix, transit, rtt)`` rows; an ``rtt``
    of None is a lost probe."""
    ticks, prefixes, transits, rtts = list(zip(*rows)) or [()] * 4
    rtt = np.array([np.nan if v is None else v for v in rtts], np.float64)
    every = slice(None)
    return ProbeLog((ticks, every), (prefixes, every), (transits, every), rtt)


def probe_rtt(log: ProbeLog, tick, prefix, transit) -> float | None:
    """RTT of one probe; None when it was lost or is not in the log."""
    try:
        cell = (log.ticks.index(tick), log.prefixes.index(prefix), log.transits.index(transit))
    except ValueError:
        return None
    value = float(log.cube[cell])
    return None if math.isnan(value) else value


def probe_rows(log: ProbeLog) -> list[tuple]:
    """Every probe, lost ones included, as a ``(tick, prefix, transit,
    rtt or None)`` row, in cube order."""
    cells, rtts = np.argwhere(log.probed).tolist(), log.cube[log.probed].tolist()
    return [
        (log.ticks[t], log.prefixes[p], log.transits[r], None if math.isnan(v) else v)
        for (t, p, r), v in zip(cells, rtts)
    ]


def csv_text(rows) -> str:
    """The text ``csv.writer`` writes for ``rows``, one newline-ended line
    each: the writers that join fields themselves must give these bytes."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def burstiness_score(icp: float, volume_pct: float) -> float:
    """Burstiness score of one prefix at one hour: ``-log(icp)`` times the
    prefix's share of the hour in percent, 0 when either is 0."""
    if icp == 0 or volume_pct == 0:
        return 0.0
    return -math.log(icp) * volume_pct


def picked(run, hour: int) -> list[tuple]:
    """Ranked ``(prefix, score)`` pairs a selection run predicted for one hour."""
    pos = hour - int(run.hours[0])
    return [(run.prefixes[i], s) for i, s in zip(run.picks[pos].tolist(), run.scores[pos].tolist())]


def picked_set(run, hour: int) -> set:
    """The prefixes a selection run predicted for one hour."""
    return {prefix for prefix, _ in picked(run, hour)}
