"""The benchmark's workloads: sizes, inputs and the CLI stages each one runs.

Sizes are far below the ROADMAP's 2k / 20k / 300x4 ladder so that no
stage runs much longer than half a second, since the calibration kernel
on either side of a stage tracks the host's speed only over short spans
(``calibrate.py``), and one run repeats the whole pipeline some thirty
times inside ``run_seconds``.  The layer that dominates each workload
stays the same at these sizes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from inputs import (
    FLOW_DIURNAL,
    FLOW_MALFORMED_SHARE,
    FLOW_OUT_OF_RANGE_SHARE,
    FLOW_V6_SHARE,
    FLOW_ZIPF_S,
    WEEK_HOURS,
    WEEK_START,
    write_flow_csv,
)


@dataclass(frozen=True)
class Stage:
    """One CLI invocation whose outputs go to the directory named ``name``."""

    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    stages: tuple[Stage, ...]
    # facts the output checks need that only the generator knows
    facts: dict
    # spans and counts every traced pass must record: the layers this
    # workload exercises, so that a layer the tracer no longer sees fails
    # the run instead of reading as zero
    traced: tuple[str, ...]


def _stage(name: str, *args) -> Stage:
    """A stage writing to ``./<name>``; workers run in a fresh directory per pass."""
    return Stage(name, (name.replace("_", "-"), *map(str, args), "--out", name))


DYNAMISM = tuple(f"dynamism.{f}" for f in (
    "compute_core_profile", "concentration_curve", "cv_vs_volume_bins", "icp_vs_volume_bins"))
SELECT_METHODS = ("mean_volume", "core_presence", "core_volume")
SELECTIONS = tuple(f"selectors.run_selection.{m}" for m in SELECT_METHODS)


def week_report(work: Path, seed: int, prefixes: int = 30) -> Workload:
    rng = np.random.default_rng([seed, 1])
    bursts = [
        f"{int(r)}:{int(h)}:{float(x):.1f}"
        for r, h, x in zip(
            rng.integers(1, prefixes + 1, size=3),
            rng.integers(25, WEEK_HOURS + 1, size=3),
            rng.uniform(5.0, 20.0, size=3),
        )
    ]
    matrix = "synth/matrix.csv"
    synth = [
        "--prefixes", prefixes, "--bins", WEEK_HOURS, "--zipf-s", 1.0,
        "--noise", 0.5, "--diurnal", 0.3, "--seed", seed,
    ]
    for burst in bursts:
        synth += ["--burst", burst]
    return Workload(
        name="week-report",
        sizes={"prefixes": prefixes, "bins": WEEK_HOURS, "bursts": bursts},
        stages=(
            _stage("synth", *synth),
            _stage("analyze", "--matrix", matrix),
            _stage("report", "--matrix", matrix),
        ),
        facts={"cells": prefixes * WEEK_HOURS},
        traced=(
            "cli.synth", "cli.analyze", "cli.report", "trace.synthesize_trace",
            "trace.save_matrix", "trace.save_matrix.bytes", "trace.load_matrix", *DYNAMISM,
            *SELECTIONS, "selectors.run_selection.gm11", "selectors.gm11.fits",
            "selectors.gm11_fallbacks", "selectors.shortfall_hours", "evaluation.evaluate_run",
        ),
    )


SELECT_WINDOW = 24


def week_ingest(work: Path, seed: int, prefixes: int = 600, records: int = 12000) -> Workload:
    flows = work / "flows.csv"
    tallies = write_flow_csv(flows, seed, prefixes, records)
    config = work / "select.json"
    config.write_text(
        json.dumps([{"method": m, "window": SELECT_WINDOW} for m in SELECT_METHODS]) + "\n"
    )
    matrix = "ingest/matrix.csv"
    return Workload(
        name="week-ingest",
        sizes={"prefixes": prefixes, "records": records, "bins": WEEK_HOURS,
               "v6_share": FLOW_V6_SHARE, "zipf_s": FLOW_ZIPF_S, "diurnal": FLOW_DIURNAL,
               "malformed_share": FLOW_MALFORMED_SHARE,
               "out_of_range_share": FLOW_OUT_OF_RANGE_SHARE},
        stages=(
            _stage("ingest", flows, "--start", WEEK_START, "--bins", WEEK_HOURS),
            _stage("analyze", "--matrix", matrix),
            _stage("select", "--matrix", matrix, "--config", config),
            _stage("evaluate", "--matrix", matrix, "--select-dir", "select"),
        ),
        facts={"tallies": tallies.as_dict(), "cells": tallies.active_prefixes * WEEK_HOURS},
        traced=(
            "cli.ingest", "cli.analyze", "cli.select", "cli.evaluate", "trace.iter_trace_csv",
            "trace.bin_records", "trace.bin_records.records", "trace.bin_records.rejected",
            "trace.save_matrix", "trace.save_matrix.bytes", "trace.load_matrix", *DYNAMISM,
            *SELECTIONS, "selectors.shortfall_hours", "evaluation.evaluate_run",
        ),
    )


PROBE_TRANSITS = 4
PROBE_INTERVAL = 240.0
PROBE_DURATION = 86400.0


def probe_day(work: Path, seed: int, prefixes: int = 10) -> Workload:
    rng = np.random.default_rng([seed, 3])
    transit = f"T{int(rng.integers(1, PROBE_TRANSITS + 1))}"
    start = int(rng.integers(60, 200))
    regime = f"{transit}:{start}:{start + 90}:1.5"
    probes = "probe_synth/probes.csv"
    return Workload(
        name="probe-day",
        sizes={"prefixes": prefixes, "transits": PROBE_TRANSITS, "interval": PROBE_INTERVAL,
               "jitter": 0.3, "duration": PROBE_DURATION, "loss": 0.02, "regime": regime},
        stages=(
            _stage(
                "probe_synth",
                "--prefix-count", prefixes, "--transits", PROBE_TRANSITS,
                "--duration", PROBE_DURATION, "--interval", PROBE_INTERVAL,
                "--jitter", 0.3, "--loss", 0.02, "--noise-std", 1.0,
                "--regime", regime, "--seed", seed,
            ),
            _stage("simulate", "--probes", probes, "--seed", seed),
        ),
        facts={"prefixes": prefixes, "transits": PROBE_TRANSITS},
        traced=(
            "cli.probe_synth", "cli.simulate", "rttsim.generate_probe_log",
            "rttsim.save_probe_log", "rttsim.save_probe_log.bytes", "rttsim.probe.samples",
            "rttsim.probe.lost", "rttsim.load_probe_log", "rttsim.np_series",
            "rttsim.simulate_dynamic_selection", "rttsim.dynamic.included",
            "rttsim.dynamic.excluded", "rttsim.rank_transits",
        ),
    )


WORKLOADS = {"week-report": week_report, "week-ingest": week_ingest, "probe-day": probe_day}
