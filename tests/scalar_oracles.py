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
from prefixcast.selectors import SelectionRun
from prefixcast.trace import HourlyTraceMatrix, IngestSummary, Prefix

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


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


def csv_field(value) -> str:
    """One value as the stage CSV writers format it: an int in decimal, a
    float as its ``repr``, None as an empty field, a string as it is."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv_rows(path, header, rows) -> None:
    """A stage CSV written a row at a time through ``csv.writer``: the
    oracle for the bytes of ``cli._write_csv``, which writes by column."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([csv_field(v) if not isinstance(v, str) else v for v in row])


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


def selection_run(config, prefixes, hours, threshold=0.95) -> SelectionRun:
    """A selection run predicting hours 2, 3, ... from one list of distinct
    ``(row, score)`` picks per hour, in any order."""
    mask = np.zeros((len(hours), len(prefixes)), dtype=bool)
    scores = np.zeros(mask.shape)
    for pos, picks in enumerate(hours):
        for row, score in picks:
            mask[pos, row], scores[pos, row] = True, score
    return SelectionRun(
        config=config,
        threshold=threshold,
        prefixes=tuple(prefixes),
        mask=mask,
        picked_scores=scores[mask],
    )


def picked_set(run, hour: int) -> set:
    """The prefixes a selection run predicted for one hour."""
    return {prefix for prefix, _ in picked(run, hour)}


def parse_records(records) -> list[tuple]:
    """Flow records parsed one by one, in input order: ``(timestamp,
    Prefix, volume, None)`` for a well-formed ``(timestamp, prefix, bytes)``
    field tuple, ``(None, None, volume, reason)`` for a malformed one,
    whose volume is None unless its bytes field parsed to a count >= 0.
    A timestamp or volume outside the int64 range is malformed."""
    rows = []
    for rec in records:
        volume = None
        try:
            if len(rec) != 3:
                raise ValueError(f"expected 3 fields, got {len(rec)}")
            if (parsed := int(rec[2])) < 0:
                raise ValueError(f"negative volume {parsed}")
            volume = parsed
            if volume > INT64_MAX:
                raise ValueError(f"volume {volume} exceeds the int64 range")
            ts = int(rec[0])
            if not INT64_MIN <= ts <= INT64_MAX:
                raise ValueError(f"timestamp {ts} is outside the int64 range")
            prefix = Prefix.parse(rec[1])
        except ValueError as exc:
            rows.append((None, None, volume, f"{tuple(rec)!r} ({exc})"))
            continue
        rows.append((ts, prefix, volume, None))
    return rows


def bin_records(records, grid, errors="count"):
    """``trace.bin_records`` one record at a time: the per-record rule its
    column pass must agree with, on the field tuples of a flow CSV."""
    records = parse_records(records)
    codes: dict[Prefix, int] = {}
    cells, volumes = [], []
    bytes_binned = bytes_rejected = 0
    for read, (ts, prefix, volume, reason) in enumerate(records, start=1):
        if reason is not None or not grid.start <= ts < grid.end:
            if errors == "raise":
                raise ValueError((f"malformed record: {reason}" if reason is not None
                                  else f"out-of-range record: timestamp {ts}")
                                 + f" at record {read}")
            bytes_rejected += volume or 0
            continue
        bytes_binned += volume
        if bytes_binned > INT64_MAX:
            raise ValueError(f"binned volume reaches {bytes_binned} bytes at record {read}, "
                             "beyond the int64 range")
        code = codes.setdefault(prefix, len(codes))
        cells.append(code * grid.bin_count + (ts - grid.start) // 3600)
        volumes.append(volume)
    malformed = sum(reason is not None for *_, reason in records)
    if not any(volumes):
        raise ValueError(f"no active prefixes: {len(records)} records read, {len(cells)} binned "
                         f"with zero volume, {malformed} malformed, "
                         f"{len(records) - len(cells) - malformed} off the grid")
    values = np.zeros((len(codes), grid.bin_count), dtype=np.int64)
    np.add.at(values.reshape(-1), np.array(cells, dtype=np.intp), np.array(volumes, np.int64))
    matrix = HourlyTraceMatrix(grid, list(codes), values)
    return matrix, IngestSummary(
        records_read=len(records),
        records_binned=len(cells),
        rejected_malformed=malformed,
        rejected_out_of_range=len(records) - len(cells) - malformed,
        bytes_binned=bytes_binned,
        bytes_rejected=bytes_rejected,
        active_prefixes=len(matrix),
    )


def argsort_top_k(score, size):
    """Each hour's picks and scores from an (hours, prefixes) score array,
    by one stable argsort of every hour's negated positive scores, cut at
    ``size`` and at the hour's positive count: the order
    ``selectors._top_k`` must reproduce."""
    selectable = score > 0
    key = np.where(selectable, -score, np.inf)
    order = np.argsort(key, axis=1, kind="stable")[:, :size]
    kept = np.arange(order.shape[1]) < selectable.sum(axis=1)[:, None]
    bounds = np.cumsum(kept.sum(axis=1))[:-1]
    picks = np.split(order[kept], bounds)
    scores = np.split(np.take_along_axis(score, order, axis=1)[kept], bounds)
    return picks, scores
