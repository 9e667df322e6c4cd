"""How fast the host runs the benchmark right now, measured by a fixed kernel.

The host shares its cores with other machines, and the speed it gives one
core drifts by 1.5x or more, over tenths of seconds to minutes, for wall
time and CPU time alike; the two cores drift apart.  So ``run.py`` keeps
the whole run on one core, and ``worker.py`` runs this kernel on it just
before each stage and after the last.  A stage's calibrated time is its
wall time scaled by ``REFERENCE_S`` over the kernel's mean time on either
side of it: what the stage would have taken on a core where the kernel
takes ``REFERENCE_S``.  The kernel never touches prefixcast, so no change
to the program moves it; it mixes what the pipeline spends its time on,
interpreted Python (text parsing and formatting, dict updates) and numpy
calls on week-long rows.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

REFERENCE_S = 0.006
REPEATS = 5
LINES = 1500
ROWS = 150
ROW_BINS = 168


def kernel() -> float:
    """One round of the fixed work; returns its wall time."""
    start = time.perf_counter()
    matrix = np.random.default_rng(0).random((ROWS, ROW_BINS))
    lines = [f"10.{i % 256}.{i // 256}.0/24,{i * 3600},{i * 7 % 1000}" for i in range(LINES)]
    totals: dict[str, int] = {}
    for line in lines:
        prefix, stamp, volume = line.split(",")
        totals[prefix] = totals.get(prefix, 0) + int(volume) + int(stamp) % 3
    for row in matrix:
        acc = np.cumsum(row)
        z = 0.5 * (acc[1:] + acc[:-1])
        np.linalg.lstsq(np.column_stack((-z, np.ones_like(z))), row[1:], rcond=None)
    np.argsort(-matrix.sum(axis=1), kind="stable")
    "\n".join(f"{k},{v!r}" for k, v in sorted(totals.items()))
    return time.perf_counter() - start


def host_seconds() -> float:
    """The kernel's median time over a few rounds."""
    return statistics.median(kernel() for _ in range(REPEATS))


def pin_to_one_cpu() -> int:
    """Keep this process, and those it starts, on one of its CPUs."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
