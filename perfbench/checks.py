"""Output checks for one pass of each workload.

Each check returns ``{stage: [problem, ...]}``; a stage with a problem
counts as failed.  Brute-force references are computed here with numpy
from the CSV files; for coverage, the oracle top-K and GM(1,1) the scalar
oracles the package keeps for its own tests (``hourly_coverage``,
``oracle_topk``, ``gm11_forecast``) are the reference.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from prefixcast.evaluation import hourly_coverage, oracle_topk
from prefixcast.selectors import gm11_forecast
from prefixcast.trace import Prefix, load_matrix

REPORT_METHODS = ("mean_volume", "core_presence", "core_volume", "gm11")
REPORT_WINDOWS = (1, 12, 24, 168)
# ROADMAP item 2 measured 2.5e-10 between a batched GM(1,1) and the scalar fit
GM11_RTOL = 1e-6
SUM_RTOL = 1e-9


def digest(directory: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes, and the total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
        size += len(data)
    return h.hexdigest(), size


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-300)


def _read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    texts = [r[0] for r in rows[1:]]
    values = np.array([[float(v) for v in r[1:]] for r in rows[1:]], dtype=np.float64)
    return texts, values


def _csv_dicts(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _max_core(analyze: Path) -> int:
    return max(int(r["core_size"]) for r in _csv_dicts(analyze / "hours.csv"))


def _selection(path: Path) -> dict[int, list[dict]]:
    per_hour: dict[int, list[dict]] = defaultdict(list)
    for row in _csv_dicts(path):
        per_hour[int(row["hour"])].append(row)
    return per_hour


def check_week_report(pass_dir: Path, facts: dict, captured: dict | None) -> dict:
    problems: dict[str, list[str]] = defaultdict(list)
    _, values = _read_matrix(pass_dir / "synth" / "matrix.csv")
    if values.shape[0] * values.shape[1] != facts["cells"]:
        problems["synth"].append(f"matrix shape {values.shape} != {facts['cells']} cells")
    summary = json.loads((pass_dir / "analyze" / "summary.json").read_text())
    if summary["active_prefixes"] != values.shape[0]:
        problems["analyze"].append("summary.json active_prefixes differs from the matrix")

    k = _max_core(pass_dir / "analyze")
    grid = json.loads((pass_dir / "report" / "grid_summary.json").read_text())
    expected = {f"{m}:L{w}:K{k}" for m in REPORT_METHODS for w in REPORT_WINDOWS}
    if set(grid) != expected:
        problems["report"].append(f"configs {sorted(set(grid) ^ expected)} missing or extra")
    for key, entry in grid.items():
        cov = entry["coverage"]
        if not 0.0 <= cov["min"] <= cov["max"] <= 1.0:
            problems["report"].append(f"{key}: coverage outside [0, 1]")

    m = load_matrix(pass_dir / "synth" / "matrix.csv")
    kept = {c["key"]: c for c in captured["coverage"]}
    if set(kept) != set(grid):
        problems["report"].append("captured evaluations differ from the report's configs")
    oracle = {}
    for hour in range(2, m.bin_count + 1):
        total = float(m.totals[hour - 1])
        top = float(m.values[oracle_topk(m, hour, k), hour - 1].sum())
        oracle[hour] = top / total if total > 0 else 1.0
    for key, c in kept.items():
        if key in grid and not _close(float(np.mean(c["coverage"])),
                                      grid[key]["coverage"]["mean"], SUM_RTOL):
            problems["report"].append(f"{key}: mean coverage differs from the hourly series")
        beat = [h for h, v in zip(c["hours"], c["coverage"]) if v > oracle[h] + 1e-12]
        if beat:
            problems["report"].append(f"{key}: beats oracle_topk in hours {beat[:5]}")

    pairs = [
        (run["window"], hour, text, score)
        for run in captured["gm11"]
        for hour, top in zip(run["hours"], run["top"])
        for text, score in top
    ]
    for window, hour, text, score in pairs:
        series = m.series(Prefix.parse(text))
        want = gm11_forecast(series[max(0, hour - 1 - window):hour - 1])
        if not _close(score, want, GM11_RTOL):
            problems["report"].append(
                f"gm11 L={window} hour {hour} {text}: score {score!r} != {want!r}"
            )
    return problems


def check_week_ingest(pass_dir: Path, facts: dict, captured: dict | None) -> dict:
    problems: dict[str, list[str]] = defaultdict(list)
    tallies = facts["tallies"]
    got = json.loads((pass_dir / "ingest" / "ingest.json").read_text())
    want = {
        "records_read": tallies["records"],
        "records_binned": tallies["records_binned"],
        "rejected_malformed": tallies["malformed"],
        "rejected_out_of_range": tallies["out_of_range"],
        "bytes_binned": tallies["bytes_binned"],
        "active_prefixes": tallies["active_prefixes"],
    }
    for key, value in want.items():
        if got.get(key) != value:
            problems["ingest"].append(f"ingest.json {key}={got.get(key)} != {value}")
    if got.get("bytes_binned", 0) + got.get("bytes_rejected", 0) != tallies["parseable_bytes"]:
        problems["ingest"].append("bytes_binned + bytes_rejected != parseable bytes")
    texts, values = _read_matrix(pass_dir / "ingest" / "matrix.csv")
    if values.sum() != tallies["bytes_binned"] or len(texts) != tallies["active_prefixes"]:
        problems["ingest"].append("matrix.csv does not hold the binned records")
    summary = json.loads((pass_dir / "analyze" / "summary.json").read_text())
    if summary["total_volume"] != tallies["bytes_binned"]:
        problems["analyze"].append("summary.json total_volume != binned bytes")

    k = _max_core(pass_dir / "analyze")
    hours = list(range(2, values.shape[1] + 1))
    selections = sorted((pass_dir / "select").glob("selection_*.csv"))
    if len(selections) != 3:
        problems["select"].append(f"{len(selections)} selection files, expected 3")
    for path in selections:
        per_hour = _selection(path)
        if not per_hour or not set(per_hour) <= set(hours):
            problems["select"].append(f"{path.name}: hours out of the grid")
        for hour, rows in per_hour.items():
            names = [r["prefix"] for r in rows]
            if (len(set(names)) != len(names) or len(rows) > k
                    or [int(r["rank"]) for r in rows] != list(range(1, len(rows) + 1))
                    or any(int(r["K"]) != k for r in rows)):
                problems["select"].append(f"{path.name}: hour {hour} is not a ranked top-{k}")
                break
        if "mean_volume" not in path.name:
            continue
        window = int(_csv_dicts(path)[0]["L"])
        for hour in hours:
            lo, hi = max(0, hour - 1 - window), hour - 1
            sums = values[:, lo:hi].sum(axis=1)
            order = sorted((i for i in range(len(texts)) if sums[i] > 0),
                           key=lambda i: (-sums[i], texts[i]))[:k]
            rows = per_hour.get(hour, [])
            if [r["prefix"] for r in rows] != [texts[i] for i in order] or not all(
                _close(float(r["score"]), sums[i] / (hi - lo), SUM_RTOL)
                for r, i in zip(rows, order)
            ):
                problems["select"].append(f"{path.name}: hour {hour} != brute-force top-{k}")

    m = load_matrix(pass_dir / "ingest" / "matrix.csv")
    reports = sorted((pass_dir / "evaluate").glob("report_*.csv"))
    if len(reports) != len(selections):
        problems["evaluate"].append(f"{len(reports)} reports for {len(selections)} selections")
    for path in reports:
        selection = _selection(pass_dir / "select" / path.name.replace("report_", "selection_"))
        rows = {int(r["hour"]): float(r["coverage"]) for r in _csv_dicts(path)}
        for hour in hours:
            picked = [Prefix.parse(r["prefix"]) for r in selection.get(hour, [])]
            want = hourly_coverage(picked, m, hour)
            if hour not in rows or not _close(rows[hour], want, SUM_RTOL):
                problems["evaluate"].append(f"{path.name}: hour {hour} coverage != {want!r}")
    return problems


def check_probe_day(pass_dir: Path, facts: dict, captured: dict | None) -> dict:
    problems: dict[str, list[str]] = defaultdict(list)
    meta = json.loads((pass_dir / "probe_synth" / "probe_meta.json").read_text())
    ticks, transits = meta["ticks"], meta["transits"]
    rtt: dict[tuple[int, str], dict[str, float]] = defaultdict(dict)
    rows = 0
    with open(pass_dir / "probe_synth" / "probes.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for tick, prefix, transit, value in reader:
            rows += 1
            if value:
                rtt[(int(tick), prefix)][transit] = float(value)
    if rows != ticks * facts["prefixes"] * facts["transits"] or len(transits) != facts["transits"]:
        problems["probe_synth"].append(f"{rows} probe rows for {ticks} rounds")

    np_rows = _csv_dicts(pass_dir / "simulate" / "np.csv")
    if len(np_rows) != ticks * len(transits) + ticks - 1:
        problems["simulate"].append(
            f"np.csv has {len(np_rows)} rows, expected {ticks * len(transits) + ticks - 1}"
        )
    if any(r["np"] and float(r["np"]) < 1.0 for r in np_rows):
        problems["simulate"].append("a normalized RTT below 1")
    table = {(int(r["tick"]), r["transit"]): r for r in np_rows}
    prefixes = sorted({p for _, p in rtt})
    for tick in range(ticks):
        for transit in transits:
            ratios = []
            for prefix in prefixes:
                samples = rtt.get((tick, prefix), {})
                if transit in samples:
                    ratios.append(samples[transit] / min(samples.values()))
            row = table.get((tick, transit))
            ok = row is not None and int(row["included_prefixes"]) == len(ratios) and (
                _close(float(row["np"]), sum(ratios) / len(ratios), SUM_RTOL)
                if ratios else row["np"] == ""
            )
            if not ok:
                problems["simulate"].append(f"NP of {transit} at tick {tick} != brute force")
    summary = json.loads((pass_dir / "simulate" / "np_summary.json").read_text())
    if sorted(summary["order"]) != sorted(transits + ["dynamic"]):
        problems["simulate"].append(f"np_summary ranks {summary['order']}")
    return problems


CHECKS = {
    "week-report": check_week_report,
    "week-ingest": check_week_ingest,
    "probe-day": check_probe_day,
}
