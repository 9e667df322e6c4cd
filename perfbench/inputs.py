"""Seeded inputs that the benchmark generates itself.

The flow CSV for the ``week-ingest`` workload is built here with numpy
and the standard library only, never through ``prefixcast``, so that the
ingest stage is checked against tallies it did not produce.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

WEEK_HOURS = 168
HOUR = 3600
# Monday 2024-01-01 00:00 UTC; any hour-aligned epoch works.
WEEK_START = 1704067200

# The flow mix of the week-ingest workload.
FLOW_V6_SHARE = 0.10
FLOW_ZIPF_S = 1.0
FLOW_DIURNAL = 0.3
FLOW_MALFORMED_SHARE = 0.01
FLOW_OUT_OF_RANGE_SHARE = 0.01


@dataclass(frozen=True)
class FlowTallies:
    """What the generator knows about the file it wrote.

    ``parseable_bytes`` sums every row whose bytes field parses as a
    non-negative integer, which is what ingest conserves as
    ``bytes_binned + bytes_rejected``.
    """

    records: int
    records_binned: int
    malformed: int
    out_of_range: int
    bytes_binned: int
    parseable_bytes: int
    active_prefixes: int

    def as_dict(self) -> dict:
        return asdict(self)


def flow_prefix_texts(count: int) -> list[str]:
    """Canonical CIDR texts: IPv4 /24s, and every ``1/FLOW_V6_SHARE``-th an IPv6 /48."""
    step = round(1.0 / FLOW_V6_SHARE)
    texts = []
    for k in range(count):
        if k % step == step - 1:
            # a nonzero third group keeps the text in canonical compressed form
            texts.append(f"2001:db8:{k + 1:x}::/48")
        else:
            texts.append(f"{11 + k // 65536}.{(k // 256) % 256}.{k % 256}.0/24")
    return texts


def write_flow_csv(path: Path, seed: int, prefixes: int, records: int) -> FlowTallies:
    """Write a one-week ``timestamp,prefix,bytes`` CSV and return its tallies.

    Prefix popularity is Zipf, record times follow a diurnal sinusoid,
    and byte counts are lognormal.  About ``FLOW_MALFORMED_SHARE`` of the
    rows are malformed in one of four ways and about
    ``FLOW_OUT_OF_RANGE_SHARE`` fall just outside the week; both kinds are interleaved with the good
    rows in time order.
    """
    rng = np.random.default_rng(seed)
    texts = np.array(flow_prefix_texts(prefixes), dtype=object)
    # shuffle which prefix gets which popularity rank, so popularity is not
    # aligned with the text order every selector uses to break ties
    rank_of = rng.permutation(prefixes)
    weights = np.arange(1, prefixes + 1, dtype=np.float64) ** -FLOW_ZIPF_S
    popularity = weights[rank_of] / weights.sum()

    hours = np.arange(WEEK_HOURS, dtype=np.float64)
    hour_weight = 1.0 + FLOW_DIURNAL * np.sin(2.0 * np.pi * hours / 24.0)
    hour_weight /= hour_weight.sum()

    n_bad = int(round(records * FLOW_MALFORMED_SHARE))
    n_out = int(round(records * FLOW_OUT_OF_RANGE_SHARE))
    n_good = records - n_bad - n_out

    pick = rng.choice(prefixes, size=records, p=popularity)
    hour = rng.choice(WEEK_HOURS, size=records, p=hour_weight)
    stamp = WEEK_START + hour * HOUR + rng.integers(0, HOUR, size=records)
    volume = np.maximum(1, rng.lognormal(mean=9.0, sigma=1.5, size=records)).astype(np.int64)

    kind = np.zeros(records, dtype=np.int8)        # 0 good, 1 out of range, 2..5 malformed
    bad_rows = rng.choice(records, size=n_bad + n_out, replace=False)
    kind[bad_rows[:n_out]] = 1
    kind[bad_rows[n_out:]] = 2 + rng.integers(0, 4, size=n_bad)
    # out-of-range rows sit up to a day before the week or after it
    early = rng.random(records) < 0.5
    offset = rng.integers(1, 86400, size=records)
    stamp = np.where(
        kind == 1,
        np.where(early, WEEK_START - offset, WEEK_START + WEEK_HOURS * HOUR - 1 + offset),
        stamp,
    )

    order = np.argsort(stamp, kind="stable")
    good = kind == 0
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,prefix,bytes\n")
        for i in order:
            ts, text, vol, k = int(stamp[i]), texts[pick[i]], int(volume[i]), kind[i]
            if k <= 1:
                fh.write(f"{ts},{text},{vol}\n")
            elif k == 2:        # bytes field is not an integer
                fh.write(f"{ts},{text},{vol}x\n")
            elif k == 3:        # host bits set: not a valid network
                fh.write(f"{ts},{text.replace('.0/24', '.1/24').replace('::/48', '::1/48')},{vol}\n")
            elif k == 4:        # timestamp is not an integer
                fh.write(f"t{ts},{text},{vol}\n")
            else:               # extra field
                fh.write(f"{ts},{text},{vol},extra\n")

    # a bad timestamp or prefix is found after the bytes field has parsed
    parseable = np.isin(kind, (0, 1, 3, 4))
    return FlowTallies(
        records=records,
        records_binned=n_good,
        malformed=n_bad,
        out_of_range=n_out,
        bytes_binned=int(volume[good].sum()),
        parseable_bytes=int(volume[parseable].sum()),
        active_prefixes=int(np.unique(pick[good]).size),
    )
