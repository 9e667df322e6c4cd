"""Per-prefix hourly traffic traces: data model, ingestion, synthesis.

Traffic volumes are byte counts accumulated into one-hour time bins
(``BIN_SECONDS``).  A trace is held as an immutable matrix with one
row per prefix that was ever active inside the window, rows ordered by
canonical prefix text.  Bins (hours) are addressed 1-based everywhere in
this package.
"""

from __future__ import annotations

import ipaddress
import json
import math
import re
from collections import defaultdict
from contextlib import suppress
from itertools import chain, count, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ._record import Record

__all__ = [
    "Prefix",
    "BIN_SECONDS",
    "TimeGrid",
    "HourlyTraceMatrix",
    "IngestSummary",
    "RecordBlock",
    "BurstSpec",
    "SyntheticTraceSpec",
    "bin_records",
    "zipf_shares",
    "synthetic_prefix",
    "synthesize_trace",
    "iter_trace_csv",
    "save_matrix",
    "load_matrix",
    "Rows",
    "read_rows",
    "write_rows",
    "json_int",
    "read_json",
    "read_sidecar",
    "write_json",
]

TRACE_CSV_HEADER = ("timestamp", "prefix", "bytes")

# Every grid bins by the hour; matrix sidecars record it as "bin_seconds".
BIN_SECONDS = 3600

# Timestamps and binned volumes are int64; a record or a running total
# outside this range would wrap.
_INT64_MAX = int(np.iinfo(np.int64).max)
_INT64_MIN = int(np.iinfo(np.int64).min)

# Flow CSV lines read and parsed per block: ingest holds one block's text
# at a time, beside the parsed columns.
TRACE_BLOCK_LINES = 1 << 16

# Hand-off rows whose field texts ``Rows.texts`` slices out, or whose matrix
# cells ``_plain_ints`` reads, at a time.  The matrix reader's text is a
# whole row, about 1 KB at 168 hours, so a block of those stays near 256 KB.
_TEXT_BLOCK = 1 << 8

# Rows (matrix rows, picks or probes) a writer hands ``write_rows`` per block.
WRITE_BLOCK = 1 << 12

# Bytes that ``np.loadtxt`` skips around an int cell: "+" and the ASCII
# whitespace of ``str.isspace``.  It skips non-ASCII whitespace too.
_LOADTXT_SKIPS = b"+ \t\v\f\x1c\x1d\x1e\x1f"

# Dotted-quad CIDR text in ASCII digits without leading zeros, as
# ``str(ipaddress.ip_network(...))`` writes it; ``Prefix.parse`` bounds
# the numbers.
_NUMBER = "(0|[1-9][0-9]{0,2})"
_DOTTED_CIDR = re.compile(rf"{_NUMBER}\.{_NUMBER}\.{_NUMBER}\.{_NUMBER}/{_NUMBER}")
# IPv6 CIDR text of lower-case hex groups without leading zeros, at most
# one "::" and no dotted tail or zone; ``Prefix.parse`` keeps it only when
# it equals the RFC 5952 text of its eight groups, whose runs of zero
# groups ``_ZERO_RUN`` finds.  Both are compiled by ``re`` on first use,
# so a process that parses no IPv6 text never pays for it.
_HEXTETS = "(?:0|[1-9a-f][0-9a-f]{0,3})(?::(?:0|[1-9a-f][0-9a-f]{0,3}))*"
_HEX_CIDR = rf"((?:{_HEXTETS})?(?:::(?:{_HEXTETS})?)?)/{_NUMBER}"
_ZERO_RUN = r"(?:^|:)0(?::0)+(?::|$)"


class Prefix(str):
    """A BGP prefix key: canonical IPv4 or IPv6 CIDR text.

    A prefix is the ``str`` of its canonical text, so it equals, hashes
    and sorts as that text; there is no aggregation or longest-prefix-match
    logic anywhere in the package.  Text order is the tie-break rule used
    by every ranking operation.  ``parse`` is the way to a canonical text.
    """

    __slots__ = ()

    @property
    def text(self) -> str:
        """The canonical text: the prefix itself."""
        return self

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse and canonicalize a CIDR string.

        Raises ValueError when the text is not a valid network; host bits
        below the mask length must be zero ("10.0.0.1/8" is rejected).
        Text that is already canonical IPv4 CIDR, or canonical IPv6 CIDR
        (RFC 5952: lower-case hex without leading zeros, the longest run of
        two or more zero groups, the leftmost on a tie, written ``::``), is
        checked without ``ipaddress``; any other text goes through it.
        """
        if isinstance(text, str) and (match := _DOTTED_CIDR.fullmatch(text)):
            a, b, c, d, length = map(int, match.groups())
            # no octet above 255, and no host bit set below the mask
            if max(a, b, c, d) <= 255 and length <= 32 and (
                ((a << 24 | b << 16 | c << 8 | d) << length) & 0xFFFFFFFF == 0
            ):
                return cls(text)
        if isinstance(text, str) and (match := re.fullmatch(_HEX_CIDR, text)):
            left, gap, right = match[1].partition("::")
            head, tail = left.split(":") if left else [], right.split(":") if right else []
            words = head + ["0"] * (8 - len(head) - len(tail)) + tail if gap else head
            if len(words) == 8:
                plain = ":".join(words)
                # the longest run of zero groups, the leftmost on a tie
                runs = re.finditer(_ZERO_RUN, plain)
                run = max(runs, key=lambda r: r[0].count("0"), default=None)
                canonical = plain if run is None else f"{plain[:run.start()]}::{plain[run.end():]}"
                length = int(match[2])
                # newer Pythons print an IPv4-mapped address with a dotted tail
                if canonical == match[1] and not canonical.startswith("::ffff:") and (
                    length <= 128
                    and int(("{:0>4}" * 8).format(*words), 16) << length & (1 << 128) - 1 == 0
                ):
                    return cls(text)
        net = ipaddress.ip_network(str(text).strip(), strict=True)
        return cls(str(net))


class TimeGrid(Record):
    """Hourly binning grid: an hour-aligned start and a bin count.

    Bin indices are 1-based: bin h covers
    ``[start + (h-1)*BIN_SECONDS, start + h*BIN_SECONDS)``; a week is the
    default 168 bins.  The start, the end and the span ``end - start``
    all lie in the int64 range, so int64 timestamps bin without wrapping.
    """

    start: int
    bin_count: int = 168

    def __post_init__(self) -> None:
        if self.bin_count <= 0:
            raise ValueError("bin_count must be positive")
        if self.start % BIN_SECONDS != 0:
            raise ValueError(f"grid start {self.start} is not aligned to an hour")
        if not (_INT64_MIN <= self.start and self.end <= _INT64_MAX
                and self.end - self.start <= _INT64_MAX):
            raise ValueError(f"grid [{self.start}, {self.end}) leaves the int64 range")

    @property
    def end(self) -> int:
        """Exclusive end timestamp of the grid."""
        return self.start + BIN_SECONDS * self.bin_count

    def hours(self) -> range:
        """All 1-based bin indices."""
        return range(1, self.bin_count + 1)


class HourlyTraceMatrix:
    """Immutable per-prefix byte-count matrix with per-bin totals.

    Built from prefixes and a (prefixes, bins) integer array, stored as
    int64 in canonical prefix text order.  All-zero rows are dropped, so
    every stored prefix was active at least once.  Only hourly totals are
    bounded to int64, so sum across hours in float64.
    """

    __slots__ = ("grid", "prefixes", "values", "totals", "_index")

    def __init__(self, grid: TimeGrid, prefixes: Sequence[Prefix], values):
        values = np.asarray(values)
        if values.dtype.kind not in "iu" or not np.can_cast(values.dtype, np.int64):
            raise ValueError(f"volumes must be int64 byte counts, got a {values.dtype} array")
        if values.shape != (len(prefixes), grid.bin_count):
            raise ValueError(f"values have shape {values.shape}, "
                             f"expected ({len(prefixes)}, {grid.bin_count})")
        texts = np.array(prefixes, dtype=str)
        order = np.argsort(texts, kind="stable")
        repeated = np.flatnonzero(texts[order[1:]] == texts[order[:-1]])
        if repeated.size:
            raise ValueError(f"duplicate row for {texts[order[repeated[0]]]}")
        order = order[values.any(axis=1)[order]]
        if not order.size:
            raise ValueError("no active prefixes")

        values = values[order].astype(np.int64, copy=False)
        prefixes = tuple(prefixes[i] for i in order.tolist())
        negative = (values < 0).any(axis=1)
        if negative.any():
            raise ValueError(f"negative volume in series for {prefixes[negative.argmax()]}")
        values.setflags(write=False)
        # an int64 sum wraps silently; a float sum is within a factor 2 of
        # the exact one, so only hours near 2^63 need an exact Python sum
        near = np.flatnonzero(values.sum(axis=0, dtype=np.float64) >= 2.0**62)
        over = [h for h in near if sum(values[:, h].tolist()) > _INT64_MAX]
        if over:
            raise ValueError(f"total of hour {over[0] + 1} exceeds the int64 range")
        totals = values.sum(axis=0)
        totals.setflags(write=False)

        self.grid = grid
        self.prefixes: tuple[Prefix, ...] = prefixes
        self.values = values
        self.totals = totals
        self._index = {p: i for i, p in enumerate(prefixes)}

    def __len__(self) -> int:
        return len(self.prefixes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._index

    @property
    def bin_count(self) -> int:
        return self.grid.bin_count

    def index_of(self, prefix: Prefix) -> int:
        return self._index[prefix]

    def series(self, prefix: Prefix) -> np.ndarray:
        """Hourly volume series v(P) for one prefix (read-only view)."""
        return self.values[self._index[prefix]]

    def total(self, h: int) -> int:
        """Total volume of bin h."""
        if not 1 <= h <= self.grid.bin_count:
            raise ValueError(f"hour {h} outside [1, {self.grid.bin_count}]")
        return self.totals[h - 1].item()

    def active_counts(self) -> np.ndarray:
        """Number of prefixes with nonzero volume, per bin."""
        return (self.values > 0).sum(axis=0)


class IngestSummary(Record):
    """Tally of an ingestion run; volume is conserved exactly:
    bytes_binned + bytes_rejected equals the sum of all non-negative
    parseable record volumes."""

    records_read: int
    records_binned: int
    rejected_malformed: int
    rejected_out_of_range: int
    bytes_binned: int
    bytes_rejected: int
    active_prefixes: int

    @property
    def records_rejected(self) -> int:
        return self.rejected_malformed + self.rejected_out_of_range


class RecordBlock(Record, eq=False):
    """One block of flow CSV records as columns, in file order.

    ``codes`` index ``prefixes``, the distinct canonical prefixes of the
    whole file: one list shared by all its blocks, which grows as later
    blocks are read.  ``malformed`` flags the records whose fields do not
    parse; ``reasons`` holds their messages by position in the block, and
    ``malformed_bytes`` the sum of their volumes that parsed to a count
    >= 0.  Elsewhere ``timestamps`` and ``volumes`` (both int64) and
    ``codes`` hold the record.
    """

    timestamps: np.ndarray
    volumes: np.ndarray
    codes: np.ndarray
    malformed: np.ndarray
    reasons: dict[int, str]
    malformed_bytes: int
    prefixes: list[Prefix]


class _PrefixTable:
    """The distinct prefix texts of one flow CSV: each is parsed once, and
    texts of one canonical prefix share its code."""

    def __init__(self) -> None:
        self.prefixes: list[Prefix] = []
        self.codes: dict[bytes, int] = {}  # -1 for a text that does not parse
        self.errors: dict[bytes, str] = {}
        self._canonical: dict[str, int] = {}

    def add(self, text: bytes) -> None:
        try:
            prefix = Prefix.parse(text.decode())
        except ValueError as exc:
            self.codes[text], self.errors[text] = -1, str(exc)
            return
        code = self._canonical.setdefault(prefix, len(self.prefixes))
        if code == len(self.prefixes):
            self.prefixes.append(prefix)
        self.codes[text] = code

    def code(self, text: bytes) -> int:
        if text not in self.codes:
            self.add(text)
        if self.codes[text] < 0:
            raise ValueError(self.errors[text])
        return self.codes[text]


def _parse_fields(fields: list[str], table: _PrefixTable):
    """``(timestamp, volume, code, reason)`` of one record's fields: integer
    fields, a prefix, a timestamp within the int64 range, and a volume that
    is >= 0 and within it.
    A malformed record has a reason, and its volume is None unless its
    bytes field parsed to a count >= 0."""
    volume: int | None = None
    try:
        if len(fields) != 3:
            raise ValueError(f"expected 3 fields, got {len(fields)}")
        if (parsed := int(fields[2])) < 0:
            raise ValueError(f"negative volume {parsed}")
        volume = parsed  # only now, so a negative volume's bytes are not counted
        if volume > _INT64_MAX:
            raise ValueError(f"volume {volume} exceeds the int64 range")
        if not _INT64_MIN <= (timestamp := int(fields[0])) <= _INT64_MAX:
            raise ValueError(f"timestamp {timestamp} is outside the int64 range")
        code = table.code(fields[1].encode())
    except ValueError as exc:
        return None, volume, -1, f"{tuple(fields)!r} ({exc})"
    return timestamp, volume, code, None


def _plain_ints(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Which fields ``buf[lo:hi]`` (offset arrays of one shape) are a plain
    decimal int64: 1 to 19 ASCII digits after an optional ``-``, in the
    int64 range.  Also their int64 values, which mean nothing elsewhere."""
    # an empty last field of a file with no final newline starts at its end
    minus = (hi > lo) & (buf[np.minimum(lo, buf.size - 1)] == ord("-"))
    width = hi - lo - minus
    plain = (width >= 1) & (width <= 19)
    width[~plain] = 0
    values = np.zeros(hi.shape, np.uint64)  # 19 digits fit uint64
    for k in range(int(width.max(initial=0))):
        # the k-th byte from the right where the field has one; bytes below "0" wrap past 9
        has = k < width
        digit = buf[np.where(has, hi - 1 - k, 0)] - ord("0")
        plain &= (digit <= 9) | ~has
        values += np.where(has, digit, 0).astype(np.uint64) * np.uint64(10**k)
    # -2^63 is an int64 too; negation wraps uint64 to int64's bits
    plain &= values <= np.uint64(_INT64_MAX) + minus
    return plain, np.negative(values, out=values, where=minus).view(np.int64)


def _line_fields(buf: np.ndarray):
    """Where the non-blank lines of the CSV text ``buf`` (uint8) lie, from
    one newline scan and one comma scan: each line's 0-based index in the
    text, its start and end offsets, the offset of every comma in the text,
    and each line's first comma (an index into those) and comma count.  The
    last line needs no final newline."""
    ends = np.flatnonzero(buf == ord("\n"))
    if not buf.size or buf[-1] != ord("\n"):
        ends = np.append(ends, buf.size)
    starts = np.concatenate(([0], ends[:-1] + 1))
    lines = np.flatnonzero(ends > starts)  # a blank line is no row
    starts, ends = starts[lines], ends[lines]
    # the comma offsets are the largest array; below 2 GiB they fit int32
    commas = np.flatnonzero(buf == ord(",")).astype(np.int32 if buf.size < 2**31 else np.int64)
    first = np.searchsorted(commas, starts)
    return lines, starts, ends, commas, first, np.searchsorted(commas, ends) - first


def _parse_block(raw: bytes, table: _PrefixTable) -> RecordBlock:
    """The records in ``raw``, whole UTF-8 lines of a flow CSV, as columns.

    Plain decimal int64 fields parse in bulk, and each distinct prefix text
    once; only the records where either fails, or whose volume is negative,
    go through ``_parse_fields``, which applies ``int()`` and formats the
    reason.  A record that passes either way fits int64 in every column.
    """
    buf = np.frombuffer(raw, np.uint8)
    _, starts, ends, commas, first, n_commas = _line_fields(buf)
    three = np.flatnonzero(n_commas == 2)
    c1, c2 = commas[first[three]], commas[first[three] + 1]

    n = len(starts)
    timestamps, volumes = np.zeros(n, np.int64), np.zeros(n, np.int64)
    codes, clean = np.zeros(n, np.intp), np.zeros(n, bool)
    plain_ts, timestamps[three] = _plain_ints(buf, starts[three], c1)
    plain_vol, volumes[three] = _plain_ints(buf, c2 + 1, ends[three])
    texts = [raw[a:b] for a, b in zip((c1 + 1).tolist(), c2.tolist())]
    for new in set(texts).difference(table.codes):
        table.add(new)
    codes[three] = np.fromiter(map(table.codes.__getitem__, texts), np.intp, len(texts))
    clean[three] = plain_ts & plain_vol & (volumes[three] >= 0) & (codes[three] >= 0)

    reasons: dict[int, str] = {}
    malformed_bytes = 0
    for i in np.flatnonzero(~clean).tolist():
        # bytes that are not UTF-8 read as escapes, which no field parses
        fields = raw[starts[i]:ends[i]].decode(errors="backslashreplace").split(",")
        timestamp, volume, code, reason = _parse_fields(fields, table)
        if reason is not None:
            reasons[i] = reason
            malformed_bytes += volume or 0
            continue
        timestamps[i], volumes[i], codes[i] = timestamp, volume, code
    malformed = np.zeros(n, bool)
    malformed[list(reasons)] = True
    return RecordBlock(timestamps, volumes, codes, malformed, reasons, malformed_bytes,
                       table.prefixes)


def _grid_bins(timestamps: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Each int64 timestamp's 0-based bin on ``grid``, or -1 outside it;
    the grid's span fits int64, so no offset from its start wraps."""
    inside = (timestamps >= grid.start) & (timestamps < grid.end)
    bins = np.full(len(timestamps), -1, np.intp)
    bins[inside] = (timestamps[inside] - grid.start) // BIN_SECONDS
    return bins


def _exact_sum(volumes: np.ndarray) -> int:
    """Sum of fewer than 2^31 int64 volumes >= 0, exact: the high and low
    32-bit halves are summed apart, so no int64 sum can wrap."""
    return (int((volumes >> 32).sum()) << 32) + int((volumes & 0xFFFFFFFF).sum())


def bin_records(
    blocks: Iterable[RecordBlock],
    grid: TimeGrid,
    errors: str = "count",
) -> tuple[HourlyTraceMatrix, IngestSummary]:
    """Fold the record blocks of a flow CSV into an hourly matrix.

    Parameters
    ----------
    blocks : iterable of RecordBlock
        What ``iter_trace_csv`` yields for one file.
    grid : TimeGrid
        Target binning grid; records outside it are out-of-range.
    errors : str
        ``"count"`` (default) skips bad records and tallies them in the
        summary; ``"raise"`` aborts on the first bad record.

    Returns
    -------
    (HourlyTraceMatrix, IngestSummary)

    Raises
    ------
    ValueError
        On the first bad record with ``errors="raise"``, when the binned
        volume would exceed the int64 range (naming the record where it
        does), or when no active prefix remains after binning (with the
        tallies).  A single record volume above that range is malformed.
    """
    if errors not in ("count", "raise"):
        raise ValueError(f"unknown errors policy {errors!r}")

    prefixes: list[Prefix] = []
    # each block is folded in as it arrives; the rows grow by doubling
    values = np.zeros((0, grid.bin_count), dtype=np.int64)
    read = binned = malformed = bytes_binned = bytes_rejected = 0
    for block in blocks:
        prefixes = block.prefixes
        if len(prefixes) > len(values):
            grown = np.zeros((max(len(prefixes), 2 * len(values)), grid.bin_count), np.int64)
            grown[:len(values)] = values
            values = grown
        bins = _grid_bins(block.timestamps, grid)
        bins[block.malformed] = -1
        rejected = np.flatnonzero(bins < 0)
        # under "raise", only the records before the first bad one are binned
        stop = int(rejected[0]) if errors == "raise" and rejected.size else len(bins)
        take = np.flatnonzero(bins[:stop] >= 0)
        kept = block.volumes[take]
        total = _exact_sum(kept)
        if bytes_binned + total > _INT64_MAX:
            # every cell and total is at most bytes_binned, so none can wrap
            for i, volume in zip(take.tolist(), kept.tolist()):
                bytes_binned += volume
                if bytes_binned > _INT64_MAX:
                    raise ValueError(
                        f"binned volume reaches {bytes_binned} bytes at record "
                        f"{read + i + 1}, beyond the int64 range"
                    )
        if stop < len(bins):
            raise ValueError(f"malformed record: {block.reasons[stop]}" if block.malformed[stop]
                             else f"out-of-range record: timestamp {block.timestamps[stop]}")
        bytes_binned += total
        out_of_range = rejected[~block.malformed[rejected]]
        bytes_rejected += block.malformed_bytes + _exact_sum(block.volumes[out_of_range])
        # np.bincount would sum float64 weights, rounding cells above 2^53
        np.add.at(values.reshape(-1), block.codes[take] * grid.bin_count + bins[take], kept)
        read += len(bins)
        binned += len(take)
        malformed += len(block.reasons)

    if not bytes_binned:  # volumes are >= 0, so no cell is positive
        raise ValueError(f"no active prefixes: {read} records read, {binned} binned with zero "
                         f"volume, {malformed} malformed, {read - binned - malformed} off the grid")
    matrix = HourlyTraceMatrix(grid, prefixes, values[:len(prefixes)])
    summary = IngestSummary(
        records_read=read,
        records_binned=binned,
        rejected_malformed=malformed,
        rejected_out_of_range=read - binned - malformed,
        bytes_binned=bytes_binned,
        bytes_rejected=bytes_rejected,
        active_prefixes=len(matrix),
    )
    return matrix, summary


def zipf_shares(n: int, s: float) -> np.ndarray:
    """Zipf share vector: the k-th most popular of n elements gets
    ``(1/k^s) / sum_{i=1..n} 1/i^s``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not s > 0:
        raise ValueError("s must be > 0")
    weights = np.arange(1, n + 1, dtype=np.float64) ** -s
    return weights / weights.sum()


# Synthetic prefixes are carved out of 10.0.0.0/8 as /24s, which caps the
# generator at 65536 prefixes; plenty for desk-scale experiments.
MAX_SYNTH_PREFIXES = 65536


def synthetic_prefix(rank: int) -> Prefix:
    """Deterministic prefix assigned to Zipf rank ``rank`` (1-based)."""
    if not 1 <= rank <= MAX_SYNTH_PREFIXES:
        raise ValueError(f"rank {rank} outside [1, {MAX_SYNTH_PREFIXES}]")
    k = rank - 1
    return Prefix(f"10.{k // 256}.{k % 256}.0/24")


class BurstSpec(Record):
    """One injected burst: multiply the rank-th prefix's volume at one hour."""

    rank: int
    hour: int
    multiplier: float

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("burst rank must be >= 1")
        if self.hour < 1:
            raise ValueError("burst hour must be >= 1")
        if not (math.isfinite(self.multiplier) and self.multiplier >= 1):
            raise ValueError(f"burst multiplier must be finite and >= 1, got {self.multiplier}")


class SyntheticTraceSpec(Record):
    """Parameters for a synthetic Zipf-shaped trace.

    Rank k receives the per-bin expected share ``zipf_shares(N, s)[k-1]``,
    modulated by a sinusoidal diurnal factor (period 24 bins), optional
    mean-preserving lognormal noise per cell, and burst multipliers.  The
    seed fully determines the output.
    """

    prefix_count: int
    zipf_s: float = 1.0
    hourly_volume: float = 1e9
    diurnal_amplitude: float = 0.0
    noise: float = 0.0
    bursts: tuple[BurstSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.prefix_count <= MAX_SYNTH_PREFIXES:
            raise ValueError(f"prefix_count must be in [1, {MAX_SYNTH_PREFIXES}]")
        # each test is written so that NaN fails it
        for name in ("zipf_s", "hourly_volume"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError(f"diurnal_amplitude must be in [0, 1), got {self.diurnal_amplitude}")
        # the lognormal's mean parameter is -noise**2 / 2, so its square must be finite too
        if not (math.isfinite(self.noise * self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be >= 0 with a finite square, got {self.noise}")
        object.__setattr__(self, "bursts", tuple(self.bursts))


def synthesize_trace(spec: SyntheticTraceSpec, grid: TimeGrid) -> HourlyTraceMatrix:
    """Generate a deterministic synthetic trace on the given grid, in whole
    bytes; a cell of 2^63 or more, or NaN, raises ValueError."""
    for b in spec.bursts:
        if b.rank > spec.prefix_count:
            raise ValueError(f"burst rank {b.rank} exceeds prefix_count")
        if b.hour > grid.bin_count:
            raise ValueError(f"burst hour {b.hour} exceeds bin_count")

    shares = zipf_shares(spec.prefix_count, spec.zipf_s)
    hours = np.arange(grid.bin_count, dtype=np.float64)
    diurnal = 1.0 + spec.diurnal_amplitude * np.sin(2.0 * math.pi * hours / 24.0)
    # finite parameters can still overflow a cell to inf, which noise that
    # underflows to 0 turns into nan; the cell test below reports either
    with np.errstate(over="ignore", invalid="ignore"):
        values = spec.hourly_volume * shares[:, None] * diurnal[None, :]
        if spec.noise > 0:
            rng = np.random.default_rng(spec.seed)
            # lognormal with mean 1 so expected shares stay Zipf
            values = values * rng.lognormal(
                mean=-0.5 * spec.noise**2, sigma=spec.noise, size=values.shape
            )
        for b in spec.bursts:
            values[b.rank - 1, b.hour - 1] *= b.multiplier
    values = np.rint(values)
    # an out-of-range cast to int64 only warns; the negated test catches NaN
    beyond = np.argwhere(~(values < 2.0**63))
    if beyond.size:
        row, col = beyond[0].tolist()
        raise ValueError(f"synthetic volume of {synthetic_prefix(row + 1)} at hour {col + 1} "
                         f"is {values[row, col]:.6g} bytes, beyond the int64 range")

    prefixes = [synthetic_prefix(k) for k in range(1, spec.prefix_count + 1)]
    return HourlyTraceMatrix(grid, prefixes, values.astype(np.int64))


def iter_trace_csv(path: str | Path) -> Iterator[RecordBlock]:
    """Yield the records of a `timestamp,prefix,bytes` CSV as column
    blocks of up to ``TRACE_BLOCK_LINES`` lines, for ``bin_records``.

    The header row is required (matched after trimming and lower-casing
    its fields) and checked by the call, before any block is asked for;
    blank lines are skipped.  Fields are split at every comma, so a quoted
    field is a malformed record, not a CSV quote.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        first = fh.readline()
    header = first.rstrip("\n").split(",") if first else None
    if header is None or tuple(c.strip().lower() for c in header) != TRACE_CSV_HEADER:
        raise ValueError(f"{path}: expected header {','.join(TRACE_CSV_HEADER)!r}, got {header!r}")
    return _record_blocks(path)


def _record_blocks(path: str | Path) -> Iterator[RecordBlock]:
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        fh.readline()
        table = _PrefixTable()
        while raw := "".join(islice(fh, TRACE_BLOCK_LINES)).encode(errors="surrogateescape"):
            yield _parse_block(raw, table)


class Rows(Record, eq=False):
    """The rows of a hand-off CSV as byte offsets into its text ``raw``.

    Row ``i`` is line ``lines[i]`` of the file at ``path``; it spans
    ``raw[starts[i]:ends[i]]``, and ``commas[i]`` holds the offsets of its
    commas, one fewer than its fields.  No field is copied out of ``raw``
    until a reader asks for it.
    """

    path: str | Path
    raw: bytes
    lines: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    commas: np.ndarray  # (rows, fields - 1)

    def field(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The start and end offsets of field ``k`` in every row."""
        lo = self.starts if k == 0 else self.commas[:, k - 1] + 1
        hi = self.ends if k == self.commas.shape[1] else self.commas[:, k]
        return lo, hi

    def texts(self, lo: np.ndarray, hi: np.ndarray) -> Iterator[bytes]:
        """``raw[lo[i]:hi[i]]`` for each row ``i``, in order.  A block of
        ``_TEXT_BLOCK`` rows is sliced at a time, by one list comprehension
        over their offsets as Python ints, so only one block's texts are
        held at once."""
        raw, step = self.raw, _TEXT_BLOCK
        return chain.from_iterable(
            [raw[a:b] for a, b in zip(lo[i:i + step].tolist(), hi[i:i + step].tolist())]
            for i in range(0, len(lo), step)
        )

    def text(self, i: int, k: int | None = None) -> str:
        """Field ``k`` of row ``i``, or the whole row, as text."""
        row = self.raw[self.starts[i]:self.ends[i]].decode()
        return row if k is None else row.split(",")[k]

    def error(self, i: int, message: str) -> ValueError:
        return ValueError(f"{self.path}: line {self.lines[i]}: {message}")

    def parse(self, lo: np.ndarray, hi: np.ndarray, parse: Callable) -> tuple[list, np.ndarray]:
        """Each distinct text ``raw[lo[i]:hi[i]]``, decoded, parsed once by
        ``parse``: the values, and each row's index into them.  A ValueError
        it raises is raised again by ``error`` at the first row of its text."""
        codes = defaultdict(count().__next__)  # a new text gets the next code
        index = np.fromiter(map(codes.__getitem__, self.texts(lo, hi)), np.intp)
        parsed = []
        for code, text in enumerate(codes):
            try:
                parsed.append(parse(text.decode()))
            except ValueError as exc:
                raise self.error(int(np.argmax(index == code)), str(exc)) from None
        return parsed, index

    def ints(self, k: int, name: str) -> np.ndarray:
        """Field ``k`` of every row as int64, where it is a plain decimal
        int64 (``_plain_ints``).  Any other text is a ValueError
        naming its line and the field's ``name``."""
        plain, values = _plain_ints(np.frombuffer(self.raw, np.uint8), *self.field(k))
        if not plain.all():
            i = int(np.argmin(plain))
            raise self.error(i, f"invalid literal for {name}: {self.text(i, k)!r} is not "
                                "a plain decimal int64")
        return values

    def floats(self, k: int, parse: Callable[[str], float] = float) -> np.ndarray:
        """Field ``k`` of every row by ``float()``, NaN where it is empty.
        If ``float()`` refuses a field, each distinct text is parsed once
        by ``parse`` instead, which names the line of a ValueError."""
        lo, hi = self.field(k)
        values = np.full(len(lo), np.nan)
        full = np.flatnonzero(hi > lo)
        try:
            values[full] = np.fromiter(map(float, self.texts(lo[full], hi[full])),
                                       np.float64, len(full))
        except ValueError:
            parsed, codes = self.parse(lo, hi, parse)
            values = np.array(parsed, np.float64)[codes]
        return values


def read_rows(path: str | Path, header: Sequence[str]) -> Rows:
    """The rows of the hand-off CSV at ``path`` (a matrix, selection or
    probe file), read once as bytes: a first line of the ``header`` fields
    joined by commas, then one unquoted line of as many fields per row.
    CRLF and lone CR line ends read as LF, and blank lines are skipped.  One
    newline scan and one comma scan give each row's line number and field
    offsets; no field is split into a string.  Bytes that are not UTF-8,
    another first line, no rows, or a row that is not ``len(header)``
    unquoted fields raise ValueError naming the file or the line."""
    text, width = ",".join(header), len(header)
    with open(path, "rb") as fh:
        raw = fh.read()
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not raw.isascii():
        try:
            raw.decode()
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{path}: line {line}: not UTF-8 text "
                             f"(byte 0x{raw[exc.start]:02x})") from None
    end = raw.find(b"\n")
    got = raw[:end if end >= 0 else None].decode()
    if got != text:
        raise ValueError(f"{path}: expected header {text!r}, got {got!r}")
    buf = np.frombuffer(raw, np.uint8)
    lines, starts, ends, commas, first, n_commas = _line_fields(buf)
    # the header is line 0, and it is not blank
    lines, starts, ends, first = lines[1:] + 1, starts[1:], ends[1:], first[1:]
    if not lines.size:
        raise ValueError(f"{path}: no rows")
    bad = n_commas[1:] != width - 1
    if b'"' in raw or bad.any():
        bad[np.searchsorted(ends, np.flatnonzero(buf == ord('"')))] = True
        i = int(np.argmax(bad))
        row = raw[starts[i]:ends[i]].decode()
        raise ValueError(f"{path}: line {lines[i]}: bad row {row.split(',')!r}")
    # every comma below the header lies in a row, and each row has width - 1
    return Rows(path, raw, lines, starts, ends, commas[first[0]:].reshape(-1, width - 1))


def write_rows(path: str | Path, header: Sequence[str], blocks: Iterable[Sequence[list]]) -> None:
    """Write what ``read_rows`` reads: the ``header`` fields joined by commas, then the
    rows of each block (one list of field texts per column, all of one length), one line
    each, joined and written once per block.  A caller quotes any field that needs it."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            width, rows = 2 * len(columns), len(columns[0])
            parts = [","] * (width * rows)  # each field, then a comma or the line end
            for k, column in enumerate(columns):
                parts[2 * k::width] = column
            parts[width - 1::width] = ["\n"] * rows
            fh.write("".join(parts))


def json_int(key: str, value) -> int:
    """``value`` when it is a JSON integer, else a ValueError naming ``key``:
    a bool, a float or null is refused, not truncated or cast."""
    if type(value) is not int:
        raise ValueError(f"{key} must be a JSON integer, got {json.dumps(value)}")
    return value


def read_json(path: str | Path):
    """The JSON value in the file at ``path``; text that does not decode
    is a ValueError naming the file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None


def read_sidecar(path: str | Path, int_keys: Iterable[str]) -> dict:
    """The JSON object in the sidecar at ``path``, each of whose ``int_keys``
    holds a JSON integer; anything else is a ValueError naming the sidecar."""
    meta = read_json(path)
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: expected a JSON object, got {json.dumps(meta)}")
    try:
        for key in int_keys:
            json_int(key, meta.get(key))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return meta


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as strict JSON with sorted keys, a two-space indent
    and a final newline: a NaN or infinity in it is a ValueError raised
    before the file is opened."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _matrix_header(grid: TimeGrid) -> list[str]:
    return ["prefix", *(f"h{h}" for h in grid.hours())]


def save_matrix(m: HourlyTraceMatrix, csv_path: str | Path) -> None:
    """Persist a matrix as columnar CSV `prefix,h1,...,hN` plus a JSON
    sidecar beside it (`<name>.json`) holding the grid.  Cells are plain
    decimal int64, a row's formatted by one ``%d`` template, ``WRITE_BLOCK``
    rows at a time; canonical prefixes and int cells never need quoting."""
    csv_path = Path(csv_path)
    cells, step = ",".join(["%d"] * m.grid.bin_count), WRITE_BLOCK
    write_rows(csv_path, _matrix_header(m.grid), (
        [m.prefixes[r:r + step], [cells % tuple(row) for row in m.values[r:r + step].tolist()]]
        for r in range(0, len(m), step)
    ))
    write_json(csv_path.with_suffix(".json"), {**m.grid._asdict(), "bin_seconds": BIN_SECONDS})


def load_matrix(csv_path: str | Path) -> HourlyTraceMatrix:
    """Load a matrix written by ``save_matrix``.

    Rows are read by ``read_rows``: below the exact ``prefix,h1,...,hN``
    header, each is one prefix and N plain decimal int64 cells.  The faster
    ``np.loadtxt`` reads a text with no byte it would skip; ``_plain_ints``
    decides any other text, and a cell ``np.loadtxt`` refuses.  A missing
    sidecar, one that is not JSON or not a JSON object, a grid field that
    is not a JSON integer, a ``bin_seconds`` other than ``BIN_SECONDS``,
    and a ``dtype`` other than ``"int"`` raise ValueError naming the
    sidecar.  A prefix or cell that does not parse raises ValueError naming
    the line (and, for a cell, the prefix and hour); a ``HourlyTraceMatrix``
    error is raised again naming the CSV.
    """
    csv_path = Path(csv_path)
    meta_path = csv_path.with_suffix(".json")
    try:
        meta = read_sidecar(meta_path, ("start", "bin_seconds", "bin_count"))
    except FileNotFoundError:
        raise ValueError(f"missing matrix sidecar {meta_path}, which ingest and synth "
                         f"write beside {csv_path.name}") from None
    try:
        if meta["bin_seconds"] != BIN_SECONDS:
            raise ValueError(f"bin_seconds is {meta['bin_seconds']}, but every grid bins by "
                             f"the hour ({BIN_SECONDS})")
        grid = TimeGrid(meta["start"], meta["bin_count"])
        if (kind := meta.get("dtype", "int")) != "int":
            raise ValueError(f"unknown dtype {kind!r}; cells are int64 bytes, "
                             "so re-run synth to rewrite a float matrix")
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None

    rows = read_rows(csv_path, _matrix_header(grid))
    parsed, codes = rows.parse(*rows.field(0), Prefix.parse)
    prefixes = [parsed[code] for code in codes.tolist()]
    values = None
    if rows.raw.isascii() and not any(byte in rows.raw for byte in _LOADTXT_SKIPS):
        # usecols skips the prefix column, so no copy of the cell text is made
        with suppress(ValueError):
            values = np.loadtxt(map(bytes.decode, rows.texts(rows.starts, rows.ends)),
                                delimiter=",", dtype=np.int64, comments=None,
                                usecols=range(1, grid.bin_count + 1), ndmin=2)
    if values is None:
        buf, values = np.frombuffer(rows.raw, np.uint8), np.empty(rows.commas.shape, np.int64)
        for r in range(0, len(prefixes), _TEXT_BLOCK):
            commas = rows.commas[r:r + _TEXT_BLOCK]  # a cell ends at a comma or its row's end
            ends = np.column_stack((commas[:, 1:], rows.ends[r:r + len(commas)]))
            plain, values[r:r + len(commas)] = _plain_ints(buf, commas + 1, ends)
            if not plain.all():
                i, h = divmod(int(np.argmin(plain)), grid.bin_count)
                raise rows.error(r + i, f"bad row for {prefixes[r + i]!r}: h{h + 1} is "
                                        f"{rows.text(r + i, h + 1)!r}, not a plain decimal int64")
    del rows  # the text and its offsets, so the matrix's copies do not sit beside them
    try:
        return HourlyTraceMatrix(grid, prefixes, values)
    except ValueError as exc:
        raise ValueError(f"{csv_path}: {exc}") from None
