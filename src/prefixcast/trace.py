"""Per-prefix hourly traffic traces: data model, ingestion, synthesis.

Traffic volumes are byte counts accumulated into fixed-length time bins
(one hour by default).  A trace is held as an immutable matrix with one
row per prefix that was ever active inside the window, rows ordered by
canonical prefix text.  Bins (hours) are addressed 1-based everywhere in
this package.
"""

from __future__ import annotations

import csv
import ipaddress
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Prefix",
    "TraceRecord",
    "TimeGrid",
    "HourlyTraceMatrix",
    "IngestSummary",
    "BurstSpec",
    "SyntheticTraceSpec",
    "bin_records",
    "weekly_volume_fraction",
    "zipf_shares",
    "synthetic_prefix",
    "synthesize_trace",
    "iter_trace_csv",
    "save_matrix",
    "load_matrix",
    "parse_column",
]

TRACE_CSV_HEADER = ("timestamp", "prefix", "bytes")

# Binned volumes are int64; a record or a running total above this would wrap.
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, order=True)
class Prefix:
    """A BGP prefix key: canonical CIDR text plus address family (4 or 6).

    Two prefixes are equal iff their canonical texts are equal; there is
    no aggregation or longest-prefix-match logic anywhere in the package.
    Ordering is lexicographic on the canonical text, which is the
    tie-break rule used by every ranking operation.
    """

    text: str
    family: int

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse and canonicalize a CIDR string.

        Raises ValueError when the text is not a valid network; host bits
        below the mask length must be zero ("10.0.0.1/8" is rejected).
        """
        net = ipaddress.ip_network(str(text).strip(), strict=True)
        return cls(text=str(net), family=net.version)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class TraceRecord:
    """One raw flow record: epoch seconds, prefix, non-negative byte count."""

    timestamp: int
    prefix: Prefix
    volume: int

    def __post_init__(self) -> None:
        if self.volume < 0:
            raise ValueError(f"record volume must be >= 0, got {self.volume}")


@dataclass(frozen=True)
class TimeGrid:
    """Binning grid: aligned start, bin length in seconds, bin count.

    Bin indices are 1-based: bin h covers
    ``[start + (h-1)*bin_seconds, start + h*bin_seconds)``.
    A full week at the default hourly resolution is 168 bins.
    """

    start: int
    bin_seconds: int = 3600
    bin_count: int = 168

    def __post_init__(self) -> None:
        if self.bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        if self.bin_count <= 0:
            raise ValueError("bin_count must be positive")
        if self.start % self.bin_seconds != 0:
            raise ValueError(
                f"grid start {self.start} is not aligned to a "
                f"{self.bin_seconds}s bin boundary"
            )

    @property
    def end(self) -> int:
        """Exclusive end timestamp of the grid."""
        return self.start + self.bin_seconds * self.bin_count

    def bin_of(self, timestamp: int) -> int:
        """1-based bin index for a timestamp inside the grid."""
        if not self.start <= timestamp < self.end:
            raise ValueError(f"timestamp {timestamp} outside grid [{self.start}, {self.end})")
        return (timestamp - self.start) // self.bin_seconds + 1

    def hours(self) -> range:
        """All 1-based bin indices."""
        return range(1, self.bin_count + 1)


class HourlyTraceMatrix:
    """Immutable per-prefix binned volume matrix with per-bin totals.

    Built from prefixes and a (prefixes, bins) array; rows are stored in
    canonical prefix text order.  All-zero rows are dropped, so every
    stored prefix was active at least once.  An empty matrix or a prefix
    listed twice raises.  An integer array is stored as int64 (binned
    real traces, exact totals), any other as float64 (synthetic traces).
    """

    __slots__ = ("grid", "prefixes", "values", "totals", "_index")

    def __init__(self, grid: TimeGrid, prefixes: Sequence[Prefix], values):
        values = np.asarray(values)
        if values.shape != (len(prefixes), grid.bin_count):
            raise ValueError(f"values have shape {values.shape}, "
                             f"expected ({len(prefixes)}, {grid.bin_count})")
        texts = np.array([p.text for p in prefixes], dtype=str)
        order = np.argsort(texts, kind="stable")
        repeated = np.flatnonzero(texts[order[1:]] == texts[order[:-1]])
        if repeated.size:
            raise ValueError(f"duplicate row for {texts[order[repeated[0]]]}")
        order = order[values.any(axis=1)[order]]
        if not order.size:
            raise ValueError("no active prefixes")

        dtype = np.int64 if np.issubdtype(values.dtype, np.integer) else np.float64
        values = values[order].astype(dtype, copy=False)
        prefixes = tuple(prefixes[i] for i in order.tolist())
        # NaN fails every comparison, so test for the valid range, not
        # against it; all-zero rows are already dropped, so a bad cell
        # always sits in a kept row
        valid = np.isfinite(values) & (values >= 0)
        if not valid.all():
            bad = int(np.flatnonzero(~valid.all(axis=1))[0])
            kind = "negative" if (values[bad] < 0).any() else "non-finite"
            raise ValueError(f"{kind} volume in series for {prefixes[bad]}")
        values.setflags(write=False)
        # cells are finite and >= 0, so a total can only leave the dtype's
        # range: float64 overflows to inf, int64 wraps without a warning
        with np.errstate(over="ignore"):
            totals = values.sum(axis=0, dtype=np.float64)
        if dtype is np.int64:
            # a float sum is within a factor 2 of the exact one, so only
            # hours near the limit need the exact Python-int sum
            near = np.flatnonzero(totals >= 2.0**62)
            over = [h for h in near if sum(values[:, h].tolist()) > _INT64_MAX]
            totals = values.sum(axis=0)
        else:
            over = np.flatnonzero(~np.isfinite(totals))
        if len(over):
            raise ValueError(
                f"total of hour {over[0] + 1} exceeds the {values.dtype} range"
            )
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

    def hour(self, h: int) -> dict[Prefix, float]:
        """Per-prefix volumes of bin h as a mapping (copies)."""
        col = self.values[:, self._col(h)]
        return {p: col[i].item() for i, p in enumerate(self.prefixes)}

    def total(self, h: int) -> float:
        """Total volume of bin h."""
        return self.totals[self._col(h)].item()

    def active_counts(self) -> np.ndarray:
        """Number of prefixes with nonzero volume, per bin."""
        return (self.values > 0).sum(axis=0)

    def _col(self, h: int) -> int:
        if not 1 <= h <= self.grid.bin_count:
            raise ValueError(f"hour {h} outside [1, {self.grid.bin_count}]")
        return h - 1


@dataclass(frozen=True)
class IngestSummary:
    """Tally of an ingestion run; volume is conserved exactly:
    bytes_binned + bytes_rejected equals the sum of all parseable record
    volumes (unparseable volumes cannot be counted)."""

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


def bin_records(
    records: Iterable[TraceRecord | tuple],
    grid: TimeGrid,
    errors: str = "count",
) -> tuple[HourlyTraceMatrix, IngestSummary]:
    """Fold a stream of raw records into an hourly matrix.

    Parameters
    ----------
    records : iterable
        ``TraceRecord`` instances or raw ``(timestamp, prefix, bytes)``
        triples (e.g. CSV rows).  Raw fields are parsed here so that the
        reject policy applies uniformly.
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
        volume would exceed the int64 range, or when no active prefix
        remains after binning.  A single record volume above that range
        is a malformed record.
    """
    if errors not in ("count", "raise"):
        raise ValueError(f"unknown errors policy {errors!r}")

    codes: dict[Prefix, int] = {}
    prefix_cache: dict[str, Prefix] = {}
    cells, volumes = [], []  # flat cell index and volume per binned record
    read = binned = malformed = out_of_range = 0
    bytes_binned = bytes_rejected = 0

    def _bad(kind: str, detail: str, volume: int | None) -> None:
        nonlocal malformed, out_of_range, bytes_rejected
        if errors == "raise":
            raise ValueError(f"{kind} record: {detail}")
        if kind == "malformed":
            malformed += 1
        else:
            out_of_range += 1
        if volume is not None:
            bytes_rejected += volume

    for rec in records:
        read += 1
        volume: int | None = None
        try:
            if isinstance(rec, TraceRecord):
                ts, prefix, volume = rec.timestamp, rec.prefix, rec.volume
            else:
                if len(rec) != 3:
                    raise ValueError(f"expected 3 fields, got {len(rec)}")
                volume = int(rec[2])
                if volume < 0:
                    raise ValueError(f"negative volume {volume}")
                if volume > _INT64_MAX:
                    raise ValueError(f"volume {volume} exceeds the int64 range")
                ts = int(rec[0])
                text = rec[1]
                prefix = prefix_cache.get(text)
                if prefix is None:
                    prefix = Prefix.parse(text)
                    prefix_cache[text] = prefix
        except (ValueError, TypeError) as exc:
            _bad("malformed", f"{rec!r} ({exc})", volume)
            continue

        if not grid.start <= ts < grid.end:
            _bad("out-of-range", f"timestamp {ts}", volume)
            continue

        bytes_binned += volume
        # every cell and total is at most bytes_binned, so none can wrap
        if bytes_binned > _INT64_MAX:
            raise ValueError(
                f"binned volume reaches {bytes_binned} bytes at record {read}, "
                "beyond the int64 range"
            )
        code = codes.setdefault(prefix, len(codes))
        cells.append(code * grid.bin_count + (ts - grid.start) // grid.bin_seconds)
        volumes.append(volume)
        binned += 1

    # np.bincount would sum float64 weights, rounding cells above 2^53
    values = np.zeros((len(codes), grid.bin_count), dtype=np.int64)
    np.add.at(values.reshape(-1), np.array(cells, dtype=np.intp), np.array(volumes, dtype=np.int64))
    matrix = HourlyTraceMatrix(grid, list(codes), values)
    summary = IngestSummary(
        records_read=read,
        records_binned=binned,
        rejected_malformed=malformed,
        rejected_out_of_range=out_of_range,
        bytes_binned=bytes_binned,
        bytes_rejected=bytes_rejected,
        active_prefixes=len(matrix),
    )
    return matrix, summary


def weekly_volume_fraction(m: HourlyTraceMatrix, prefix: Prefix) -> float:
    """Fraction of the window's total volume carried by one prefix."""
    total = float(m.totals.sum())
    if total <= 0:
        raise ValueError("degenerate trace: zero total volume")
    return float(m.series(prefix).sum()) / total


def zipf_shares(n: int, s: float) -> np.ndarray:
    """Zipf share vector: the k-th most popular of n elements gets
    ``(1/k^s) / sum_{i=1..n} 1/i^s``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if s <= 0:
        raise ValueError("s must be > 0")
    weights = np.arange(1, n + 1, dtype=np.float64) ** -s
    return weights / weights.sum()


# Synthetic prefixes are carved out of 10.0.0.0/8 as /24s, which caps the
# generator at 65536 prefixes; plenty for desk-scale experiments.
_MAX_SYNTH_PREFIXES = 65536


def synthetic_prefix(rank: int) -> Prefix:
    """Deterministic prefix assigned to Zipf rank ``rank`` (1-based)."""
    if not 1 <= rank <= _MAX_SYNTH_PREFIXES:
        raise ValueError(f"rank {rank} outside [1, {_MAX_SYNTH_PREFIXES}]")
    k = rank - 1
    return Prefix(text=f"10.{k // 256}.{k % 256}.0/24", family=4)


@dataclass(frozen=True)
class BurstSpec:
    """One injected burst: multiply the rank-th prefix's volume at one hour."""

    rank: int
    hour: int
    multiplier: float

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("burst rank must be >= 1")
        if self.hour < 1:
            raise ValueError("burst hour must be >= 1")
        if self.multiplier < 1:
            raise ValueError("burst multiplier must be >= 1")


@dataclass(frozen=True)
class SyntheticTraceSpec:
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
        if not 1 <= self.prefix_count <= _MAX_SYNTH_PREFIXES:
            raise ValueError(f"prefix_count must be in [1, {_MAX_SYNTH_PREFIXES}]")
        if self.zipf_s <= 0:
            raise ValueError("zipf_s must be > 0")
        if self.hourly_volume <= 0:
            raise ValueError("hourly_volume must be > 0")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        object.__setattr__(self, "bursts", tuple(self.bursts))


def synthesize_trace(spec: SyntheticTraceSpec, grid: TimeGrid) -> HourlyTraceMatrix:
    """Generate a deterministic synthetic trace on the given grid."""
    for b in spec.bursts:
        if b.rank > spec.prefix_count:
            raise ValueError(f"burst rank {b.rank} exceeds prefix_count")
        if b.hour > grid.bin_count:
            raise ValueError(f"burst hour {b.hour} exceeds bin_count")

    shares = zipf_shares(spec.prefix_count, spec.zipf_s)
    hours = np.arange(grid.bin_count, dtype=np.float64)
    diurnal = 1.0 + spec.diurnal_amplitude * np.sin(2.0 * math.pi * hours / 24.0)
    values = spec.hourly_volume * shares[:, None] * diurnal[None, :]
    if spec.noise > 0:
        rng = np.random.default_rng(spec.seed)
        # lognormal with mean 1 so expected shares stay Zipf
        values = values * rng.lognormal(
            mean=-0.5 * spec.noise**2, sigma=spec.noise, size=values.shape
        )
    for b in spec.bursts:
        values[b.rank - 1, b.hour - 1] *= b.multiplier

    prefixes = [synthetic_prefix(k) for k in range(1, spec.prefix_count + 1)]
    return HourlyTraceMatrix(grid, prefixes, values)


def iter_trace_csv(path: str | Path) -> Iterator[tuple]:
    """Yield raw field tuples from a `timestamp,prefix,bytes` CSV.

    The header row is required; field parsing and validation happen in
    ``bin_records`` so its reject policy sees every row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(c.strip().lower() for c in header) != TRACE_CSV_HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(TRACE_CSV_HEADER)!r}, got {header!r}"
            )
        for row in reader:
            if not row:
                continue
            yield tuple(row)


def parse_column(
    column: Sequence, parse: Callable, path, lines: Sequence[int]
) -> tuple[list, np.ndarray]:
    """Parse each distinct text of a CSV column once: the parsed values,
    and each row's index into them.  ``lines[i]`` is row ``i``'s line in
    the file at ``path``; a ValueError from ``parse`` is raised again
    naming the line of the first row with that text."""
    codes = dict.fromkeys(column)
    parsed = []
    for code, text in enumerate(codes):
        codes[text] = code
        try:
            parsed.append(parse(text))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lines[column.index(text)]}: {exc}") from None
    return parsed, np.fromiter(map(codes.__getitem__, column), np.intp, len(column))


def _meta_path_for(csv_path: Path) -> Path:
    return csv_path.with_suffix(".json")


def save_matrix(m: HourlyTraceMatrix, csv_path: str | Path) -> None:
    """Persist a matrix as columnar CSV `prefix,h1,...,hN` plus a JSON
    sidecar beside it (`<name>.json`).  Cells are plain decimal: ``str``
    of an int, ``repr`` of a float, which reads back exactly."""
    csv_path = Path(csv_path)
    integral = np.issubdtype(m.values.dtype, np.integer)
    cell = str if integral else repr

    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["prefix"] + [f"h{h}" for h in m.grid.hours()])
        writer.writerows(
            [prefix.text, *map(cell, row)]
            for prefix, row in zip(m.prefixes, m.values.tolist())
        )

    meta = {
        "start": m.grid.start,
        "bin_seconds": m.grid.bin_seconds,
        "bin_count": m.grid.bin_count,
        "dtype": "int" if integral else "float",
    }
    with open(_meta_path_for(csv_path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_cells(rows: list[str], dtype) -> np.ndarray:
    return np.loadtxt(rows, delimiter=",", dtype=dtype, comments=None, ndmin=2)


def load_matrix(csv_path: str | Path) -> HourlyTraceMatrix:
    """Load a matrix written by ``save_matrix``.

    Each line is one unquoted ``prefix,h1,...,hN`` row.  Cells must be
    plain decimal int64 or float, as the sidecar's ``dtype`` says:
    ``"int"`` (also when absent) or ``"float"``; any other value raises.
    A cell that does not parse or a row of the wrong width raises
    ValueError naming the prefix; a ``HourlyTraceMatrix`` error is
    raised again naming the CSV.
    """
    csv_path = Path(csv_path)
    meta_path = _meta_path_for(csv_path)
    with open(meta_path) as fh:
        meta = json.load(fh)
    grid = TimeGrid(
        start=int(meta["start"]),
        bin_seconds=int(meta["bin_seconds"]),
        bin_count=int(meta["bin_count"]),
    )
    kind = meta.get("dtype", "int")
    if kind not in ("int", "float"):
        raise ValueError(f"{meta_path}: unknown dtype {kind!r}, expected 'int' or 'float'")
    dtype = np.int64 if kind == "int" else np.float64

    with open(csv_path) as fh:
        if fh.readline().rstrip("\n") != ",".join(["prefix", *(f"h{h}" for h in grid.hours())]):
            raise ValueError(f"{csv_path}: unexpected matrix header")
        rows = [line.rstrip("\n").partition(",")[::2] for line in fh if line != "\n"]
    prefixes = []
    for name, text in rows:
        # loadtxt would skip a row with no cells rather than fail
        if not text or text.count(",") != grid.bin_count - 1:
            raise ValueError(f"{csv_path}: row for {name!r} has wrong width")
        try:
            prefixes.append(Prefix.parse(name))
        except ValueError as exc:
            raise ValueError(f"{csv_path}: bad row for {name!r}: {exc}") from None

    values = np.empty((0, grid.bin_count))
    try:
        if rows:
            values = _parse_cells([text for _, text in rows], dtype)
    except ValueError as exc:
        # name the row; only this error path parses row by row
        for name, text in rows:
            try:
                _parse_cells([text], dtype)
            except ValueError as row_exc:
                raise ValueError(f"{csv_path}: bad row for {name!r}: {row_exc}") from None
        raise ValueError(f"{csv_path}: {exc}") from None
    try:
        return HourlyTraceMatrix(grid, prefixes, values)
    except ValueError as exc:
        raise ValueError(f"{csv_path}: {exc}") from None
