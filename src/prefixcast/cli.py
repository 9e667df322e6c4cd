"""Command-line pipeline: ingest/synth -> analyze -> select -> evaluate,
plus probe-synth -> simulate for the transit RTT side.

Stages hand off through files (CSV + JSON sidecars) so each one is
independently scriptable.  Every output is a pure function of inputs,
flags, and the seed; re-running a stage reproduces its files byte for
byte.  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from csv import reader as csv_reader
from csv import writer as csv_writer
from pathlib import Path

import numpy as np

from . import dynamism, evaluation, rttsim, selectors, trace

USAGE_ERROR = 1
DATA_ERROR = 2

# ingest derives at most a leap year of hourly bins; a longer grid needs --bins
MAX_DERIVED_BINS = 8784


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv_writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) if not isinstance(v, str) else v for v in row])


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_matrix(path: str) -> trace.HourlyTraceMatrix:
    csv_path = Path(path)
    if not csv_path.exists():
        raise ValueError(f"missing matrix artifact {csv_path}; run ingest or synth first")
    return trace.load_matrix(csv_path)


# ---------------------------------------------------------------- ingest


def _cmd_ingest(args) -> int:
    rows = list(trace.iter_trace_csv(args.input))

    start, bins = args.start, args.bins
    if start is None or bins is None:
        stamps = []
        for row in rows:
            try:
                stamps.append(int(row[0]))
            except (ValueError, IndexError, TypeError):
                continue
        if not stamps:
            raise ValueError("no usable records: cannot derive a grid")
        if start is None:
            start = (min(stamps) // args.bin_seconds) * args.bin_seconds
        if bins is None:
            bins = (max(stamps) - start) // args.bin_seconds + 1
            if bins > MAX_DERIVED_BINS:
                raise ValueError(
                    f"the records span {bins} bins, more than the {MAX_DERIVED_BINS} "
                    "(a leap year of hours) derived without --bins; pass --bins"
                )
    grid = trace.TimeGrid(start=start, bin_seconds=args.bin_seconds, bin_count=bins)

    policy = "raise" if args.on_error == "abort" else "count"
    matrix, summary = trace.bin_records(rows, grid, errors=policy)

    out = _out_dir(args)
    trace.save_matrix(matrix, out / "matrix.csv")
    _write_json(
        out / "ingest.json",
        {
            "records_read": summary.records_read,
            "records_binned": summary.records_binned,
            "rejected_malformed": summary.rejected_malformed,
            "rejected_out_of_range": summary.rejected_out_of_range,
            "bytes_binned": summary.bytes_binned,
            "bytes_rejected": summary.bytes_rejected,
            "active_prefixes": summary.active_prefixes,
        },
    )
    print(
        f"ingest: {summary.records_binned}/{summary.records_read} records binned, "
        f"{summary.records_rejected} rejected, "
        f"{summary.active_prefixes} active prefixes -> {out / 'matrix.csv'}"
    )
    return 0


# ----------------------------------------------------------------- synth


def _parse_burst(text: str) -> trace.BurstSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"bad burst {text!r}; expected RANK:HOUR:MULTIPLIER")
    return trace.BurstSpec(rank=int(parts[0]), hour=int(parts[1]), multiplier=float(parts[2]))


def _cmd_synth(args) -> int:
    spec = trace.SyntheticTraceSpec(
        prefix_count=args.prefixes,
        zipf_s=args.zipf_s,
        hourly_volume=args.hourly_volume,
        diurnal_amplitude=args.diurnal,
        noise=args.noise,
        bursts=tuple(_parse_burst(b) for b in args.burst),
        seed=args.seed,
    )
    grid = trace.TimeGrid(start=args.start, bin_seconds=args.bin_seconds, bin_count=args.bins)
    matrix = trace.synthesize_trace(spec, grid)

    out = _out_dir(args)
    trace.save_matrix(matrix, out / "matrix.csv")
    _write_json(
        out / "synth.json",
        {
            "prefix_count": spec.prefix_count,
            "zipf_s": spec.zipf_s,
            "hourly_volume": spec.hourly_volume,
            "diurnal_amplitude": spec.diurnal_amplitude,
            "noise": spec.noise,
            "bursts": [[b.rank, b.hour, b.multiplier] for b in spec.bursts],
            "seed": spec.seed,
            "bins": grid.bin_count,
            "bin_seconds": grid.bin_seconds,
            "start": grid.start,
        },
    )
    print(f"synth: {len(matrix)} prefixes x {grid.bin_count} bins -> {out / 'matrix.csv'}")
    return 0


# --------------------------------------------------------------- analyze


def _bin_rows(stats):
    for s in stats:
        yield [s.label, s.lo_pct, s.hi_pct, s.count, s.mean, s.median, s.p25, s.p75]


def _cmd_analyze(args) -> int:
    m = _load_matrix(args.matrix)
    profile = dynamism.compute_core_profile(m, threshold=args.threshold)
    out = _out_dir(args)

    shares_pct, cv = dynamism.prefix_shares_and_cv(m)
    _write_csv(
        out / "prefixes.csv",
        ["prefix", "weekly_share_pct", "cv", "icp"],
        (
            [p.text, shares_pct[i], cv[i], profile.icp[i]]
            for i, p in enumerate(m.prefixes)
        ),
    )
    active = m.active_counts()
    _write_csv(
        out / "hours.csv",
        ["hour", "total", "active_prefixes", "core_size", "bi"],
        (
            [h, m.totals[h - 1], active[h - 1], profile.core_sizes[h - 1], profile.bi[h - 1]]
            for h in m.grid.hours()
        ),
    )
    _write_csv(
        out / "cv_bins.csv",
        ["bin", "lo_pct", "hi_pct", "count", "mean", "median", "p25", "p75"],
        _bin_rows(dynamism.cv_vs_volume_bins(m)),
    )
    _write_csv(
        out / "icp_bins.csv",
        ["bin", "lo_pct", "hi_pct", "count", "mean", "median", "p25", "p75"],
        _bin_rows(dynamism.icp_vs_volume_bins(m, profile)),
    )
    curve = dynamism.concentration_curve(m, args.span)
    _write_csv(
        out / f"concentration_{curve.span.replace(':', '_')}.csv",
        ["rank", "share", "cdf", "zipf_ref"],
        (
            [k + 1, curve.shares[k], curve.cdf[k], curve.zipf_overlay[k]]
            for k in range(curve.shares.size)
        ),
    )
    summary = {
        "core": dynamism.core_summary(profile, m),
        "burstiness": dynamism.burstiness_summary(profile),
        "threshold": args.threshold,
        "bins": m.bin_count,
        "active_prefixes": len(m),
        "total_volume": float(m.totals.sum()),
    }
    _write_json(out / "summary.json", summary)
    print(
        f"analyze: core avg {summary['core']['avg_core_size']:.1f} "
        f"({summary['core']['avg_core_pct_of_active']:.2f}% of active), "
        f"max {summary['core']['max_core_size']}; "
        f"mean BI {summary['burstiness']['mean_bi']:.2f} -> {out}"
    )
    return 0


# ---------------------------------------------------------------- select


SELECTION_HEADER = ["hour", "rank", "prefix", "score", "method", "L", "K"]


def _selection_name(config: selectors.SelectorConfig) -> str:
    return f"selection_{config.method}_L{config.window}.csv"


def _write_selection(out: Path, run: selectors.SelectionRun) -> Path:
    cfg = run.config
    path = out / _selection_name(cfg)
    tail = (cfg.method, str(cfg.window), str(cfg.size))
    with open(path, "w", newline="") as fh:
        w = csv_writer(fh, lineterminator="\n")
        w.writerow(SELECTION_HEADER)
        for hour, picks, scores in zip(map(str, run.hours.tolist()), run.picks, run.scores):
            w.writerows(
                (hour, str(rank), run.prefixes[i].text, repr(score), *tail)
                for rank, (i, score) in enumerate(zip(picks.tolist(), scores.tolist()), start=1)
            )
    return path


def _selector_configs(
    profile, size, *, grid=False, config=None, method=None, window=1
) -> list[selectors.SelectorConfig]:
    """The configurations to run: each entry of the JSON file ``config``,
    every method x canonical window with ``grid``, or ``method`` alone.
    K defaults to the largest hourly core.  Two entries that would write
    the same selection file are a data error."""
    size = size if size is not None else selectors.max_core_size(profile)
    if config:
        with open(config) as fh:
            entries = json.load(fh)
        configs = [
            selectors.SelectorConfig(
                method=e["method"],
                window=int(e["window"]),
                size=int(e.get("size", size)),
            )
            for e in entries
        ]
        names = [_selection_name(c) for c in configs]
        for pos, name in enumerate(names):
            if name in names[:pos]:
                first = entries[names.index(name)]
                raise ValueError(f"{config}: entries {first} and {entries[pos]} both write {name}")
        return configs
    if grid:
        return [
            selectors.SelectorConfig(method=grid_method, window=grid_window, size=size)
            for grid_method in selectors.METHODS
            for grid_window in selectors.WINDOW_GRID
        ]
    if method is None:
        raise _UsageError("one of --method, --grid or --config is required")
    return [selectors.SelectorConfig(method=method, window=window, size=size)]


def _cmd_select(args) -> int:
    m = _load_matrix(args.matrix)
    profile = dynamism.compute_core_profile(m, threshold=args.threshold)
    configs = _selector_configs(
        profile, args.size, grid=args.grid, config=args.config,
        method=args.method, window=args.window,
    )
    out = _out_dir(args)
    for config in configs:
        run = selectors.run_selection(m, profile, config)
        path = _write_selection(out, run)
        note = f", {run.gm11_fallbacks} gm11 fallbacks" if config.method == "gm11" else ""
        print(f"select: {config.method} L={config.window} K={config.size}{note} -> {path}")
    return 0


# -------------------------------------------------------------- evaluate


def _read_selection_csv(path: Path, m: trace.HourlyTraceMatrix, threshold: float):
    if not path.exists():
        raise ValueError(f"missing selection artifact {path}; run the select stage first")
    with open(path, newline="") as fh:
        reader = csv_reader(fh)
        header = next(reader, None)
        if header != SELECTION_HEADER:
            raise ValueError(f"{path}: unexpected selection header {header!r}")
        rows = [(reader.line_num, *row) for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: empty selection file")
    if set(map(len, rows)) - {len(SELECTION_HEADER) + 1}:
        line, *row = next(row for row in rows if len(row) != len(SELECTION_HEADER) + 1)
        raise ValueError(f"{path}: line {line}: bad selection row {row!r}")
    lines, hour_col, rank_col, prefix_col, score_col, *config_cols = zip(*rows)

    # each column's distinct texts are parsed once; checks keep this order
    hours, hour_codes = trace.parse_column(hour_col, int, path, lines)
    ranks, rank_codes = trace.parse_column(rank_col, int, path, lines)
    for h in hours:
        if not 2 <= h <= m.bin_count:
            raise ValueError(
                f"{path}: hour {h} outside the matrix grid; "
                "selection was made against a different matrix"
            )
    hour = np.array(hours, dtype=np.int64)[hour_codes]
    prefixes, prefix_codes = trace.parse_column(prefix_col, trace.Prefix.parse, path, lines)
    configs, _ = trace.parse_column(
        list(zip(*config_cols)),
        lambda t: selectors.SelectorConfig(method=t[0], window=int(t[1]), size=int(t[2])),
        path, lines,
    )
    if len(set(configs)) > 1:
        raise ValueError(f"{path}: mixed selector configurations")
    for prefix in prefixes:
        if prefix not in m:
            raise ValueError(f"{path}: prefix {prefix} not in matrix")
    index = np.array([m.index_of(p) for p in prefixes], dtype=np.int64)[prefix_codes]
    scores, score_codes = trace.parse_column(score_col, float, path, lines)
    score = np.array(scores, dtype=np.float64)[score_codes]

    # a prefix written two ways has one matrix index, so it is caught too
    cells = np.sort(hour * len(m) + index)
    twice = cells[1:][cells[1:] == cells[:-1]]
    if twice.size:
        h, i = divmod(int(twice[0]), len(m))
        raise ValueError(f"{path}: duplicate prefix {m.prefixes[i]} in hour {h}")

    # each hour's ranks, sorted, must read 1..n with n <= K; a rank outside
    # 1..K reads as 0, which never fits, so a huge one never meets int64
    size = configs[0].size
    rank = np.array([r if 1 <= r <= size else 0 for r in ranks], dtype=np.int64)[rank_codes]
    order = np.lexsort((rank, hour))
    hour, rank = hour[order], rank[order]
    starts = np.searchsorted(hour, np.arange(2, m.bin_count + 2))
    misplaced = np.flatnonzero(rank != np.arange(1, len(rank) + 1) - starts[hour - 2])
    if misplaced.size:
        raise ValueError(
            f"{path}: hour {hour[misplaced[0]]}: ranks must run 1..n with n <= K={size}"
        )
    return selectors.SelectionRun(
        config=configs[0],
        threshold=threshold,
        prefixes=m.prefixes,
        hours=np.arange(2, m.bin_count + 1, dtype=np.int64),
        picks=np.split(index[order], starts[1:-1]),
        scores=np.split(score[order], starts[1:-1]),
    )


def _report_key(report: evaluation.EvaluationReport) -> str:
    return f"{report.method}:L{report.window}:K{report.size}"


def _report_payload(run: selectors.SelectionRun, report: evaluation.EvaluationReport) -> dict:
    chn = report.churn_summary
    return {
        "coverage": report.coverage_summary.as_dict(),
        "churn": chn.as_dict() if chn is not None else None,
        "warmup_hours": int(run.warmup.sum()),
        "shortfall_hours": int(run.shortfall.sum()),
        "threshold": report.threshold,
        "percentile_convention": "linear interpolation",
    }


def _write_report_csv(out: Path, report: evaluation.EvaluationReport) -> Path:
    path = out / f"report_{report.method}_L{report.window}.csv"
    rows = []
    for pos, hour in enumerate(report.hours):
        churn = report.churn[pos - 1] if pos > 0 else None
        rows.append([int(hour), report.coverage[pos], churn])
    _write_csv(path, ["hour", "coverage", "churn"], rows)
    return path


def _cmd_evaluate(args) -> int:
    m = _load_matrix(args.matrix)
    out = _out_dir(args)

    paths: list[Path] = [Path(p) for p in args.selection]
    if args.select_dir:
        paths.extend(sorted(Path(args.select_dir).glob("selection_*.csv")))
    if not paths:
        raise _UsageError("no selection inputs: pass --selection or --select-dir")

    summary = {}
    for path in paths:
        run = _read_selection_csv(path, m, args.threshold)
        report = evaluation.evaluate_run(run, m)
        csv_path = _write_report_csv(out, report)
        summary[_report_key(report)] = _report_payload(run, report)
        mean_churn = report.churn_summary.mean if report.churn_summary else float("nan")
        print(
            f"evaluate: {report.method} L={report.window} "
            f"mean coverage {report.coverage_summary.mean:.4f} "
            f"mean churn {mean_churn:.2f} -> {csv_path}"
        )
    _write_json(out / "evaluation_summary.json", summary)
    return 0


# ------------------------------------------------------------ probe-synth


def _parse_regime(text: str) -> rttsim.RegimeSwitch:
    parts = text.split(":")
    if len(parts) != 4:
        raise _UsageError(f"bad regime {text!r}; expected TRANSIT:START:END:MULTIPLIER")
    return rttsim.RegimeSwitch(
        transit=parts[0], start_tick=int(parts[1]), end_tick=int(parts[2]),
        multiplier=float(parts[3]),
    )


def _cmd_probe_synth(args) -> int:
    rng = np.random.default_rng(args.seed)
    transits = [f"T{i + 1}" for i in range(args.transits)]
    prefixes = [trace.synthetic_prefix(k) for k in range(1, args.prefix_count + 1)]
    base = {}
    for prefix in sorted(prefixes, key=lambda p: p.text):
        for transit in transits:
            base[(prefix, transit)] = float(rng.uniform(args.rtt_low, args.rtt_high))
    model = rttsim.RttModel(
        base_rtt=base,
        noise_std=args.noise_std,
        loss_prob=args.loss,
        regime_switches=tuple(_parse_regime(r) for r in args.regime),
    )
    schedule = rttsim.ProbeScheduleSpec(
        mean_interval=args.interval, jitter=args.jitter,
        duration=args.duration, seed=args.seed,
    )
    log = rttsim.generate_probe_log(schedule, model)

    out = _out_dir(args)
    rttsim.save_probe_log(log, out / "probes.csv")
    _write_json(
        out / "probe_meta.json",
        {
            "transits": transits,
            "prefix_count": args.prefix_count,
            "mean_interval": schedule.mean_interval,
            "jitter": schedule.jitter,
            "duration": schedule.duration,
            "seed": args.seed,
            "ticks": len(log.ticks),
            "tick_times": list(log.tick_times),
        },
    )
    print(
        f"probe-synth: {len(log.ticks)} rounds x {len(prefixes)} prefixes x "
        f"{len(transits)} transits -> {out / 'probes.csv'}"
    )
    return 0


# -------------------------------------------------------------- simulate


def _load_probes(path: Path) -> rttsim.ProbeLog:
    """The probe log at ``path``.  A ``probe_meta.json`` beside it (as
    probe-synth writes) restores the round start times, and must agree
    with the log on ticks, transits and prefix count."""
    meta_path = path.with_name("probe_meta.json")
    if not meta_path.exists():
        return rttsim.load_probe_log(path)
    meta = json.loads(meta_path.read_text())
    tick_times = meta.get("tick_times")
    if not (
        isinstance(tick_times, list) and len(tick_times) == meta.get("ticks")
        and all(isinstance(t, (int, float)) and math.isfinite(t) for t in tick_times)
    ):
        raise ValueError(f"{meta_path}: tick_times must list one finite start time per tick")
    try:
        log = rttsim.load_probe_log(path, tick_times=tick_times)
    except ValueError as exc:
        # the loader also refuses tick_times of the wrong length; only on
        # failure, read the log alone to tell whether that was the cause
        if len(rttsim.load_probe_log(path).ticks) == len(tick_times):
            raise
        raise ValueError(f"{meta_path}: {exc}") from None
    found = {"transits": list(log.transits), "prefix_count": len(log.prefixes)}
    for key, value in found.items():
        claimed = meta.get(key)
        if isinstance(claimed, list):
            claimed = sorted(claimed, key=str)
        if claimed != value:
            raise ValueError(f"{meta_path}: {key} is {meta.get(key)!r}, but {path} has {value!r}")
    return log


def _cmd_simulate(args) -> int:
    path = Path(args.probes)
    if not path.exists():
        raise ValueError(f"missing probe artifact {path}; run the probe-synth stage first")
    log = _load_probes(path)
    out = _out_dir(args)

    rows = []
    for transit in log.transits:
        series = rttsim.np_series(log, transit)
        for tick, value, included in zip(series.ticks, series.values, series.included):
            rows.append([tick, transit, value, included])
    dynamic = None
    if args.dynamic and len(log.ticks) >= 2:
        dynamic = rttsim.simulate_dynamic_selection(log, seed=args.seed)
        for tick, value, included in zip(dynamic.ticks, dynamic.values, dynamic.included):
            rows.append([tick, rttsim.DYNAMIC_LABEL, value, included])
    _write_csv(out / "np.csv", ["tick", "transit", "np", "included_prefixes"], rows)

    ranking = rttsim.rank_transits(log, include_dynamic=args.dynamic, seed=args.seed)
    if not ranking:
        raise ValueError(f"{path}: no round has a usable RTT sample")
    payload = {
        "order": [label for label, _ in ranking],
        "transits": {label: summary.as_dict() for label, summary in ranking},
        "seed": args.seed,
    }
    if dynamic is not None:
        # prefixes the dynamic transit left out because its pick had no sample
        payload["dynamic_excluded_missing"] = sum(dynamic.excluded_missing)
    _write_json(out / "np_summary.json", payload)
    best = ranking[0]
    print(
        f"simulate: {len(log.transits)} transits, {len(log.ticks)} rounds; "
        f"best mean NP {best[1].mean:.4f} ({best[0]}) -> {out / 'np.csv'}"
    )
    return 0


# ---------------------------------------------------------------- report


def _cmd_report(args) -> int:
    m = _load_matrix(args.matrix)
    profile = dynamism.compute_core_profile(m, threshold=args.threshold)
    configs = _selector_configs(profile, args.size, grid=True)
    out = _out_dir(args)

    header = [
        "method", "L", "K",
        "coverage_min", "coverage_p25", "coverage_median", "coverage_mean",
        "coverage_p75", "coverage_max",
        "churn_min", "churn_p25", "churn_median", "churn_mean",
        "churn_p75", "churn_max",
    ]
    rows = []
    summary = {}
    for config in configs:
        run = selectors.run_selection(m, profile, config)
        report = evaluation.evaluate_run(run, m)
        cov, chn = report.coverage_summary, report.churn_summary
        churn_cells = (
            [chn.minimum, chn.p25, chn.median, chn.mean, chn.p75, chn.maximum]
            if chn is not None
            else [None] * 6
        )
        rows.append([
            config.method, config.window, config.size,
            cov.minimum, cov.p25, cov.median, cov.mean, cov.p75, cov.maximum,
        ] + churn_cells)
        # a selection CSV cannot carry the fallback count, so only report has it
        summary[_report_key(report)] = {
            **_report_payload(run, report), "gm11_fallbacks": run.gm11_fallbacks,
        }
    _write_csv(out / "grid_summary.csv", header, rows)
    _write_json(out / "grid_summary.json", summary)
    print(f"report: {len(rows)} configurations (K={configs[0].size}) -> {out / 'grid_summary.csv'}")
    return 0


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prefixcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("ingest", help="bin a timestamp,prefix,bytes CSV into an hourly matrix")
    p.add_argument("input", help="flow records CSV")
    p.add_argument("--start", type=int, default=None, help="grid start (epoch s, bin-aligned)")
    p.add_argument("--bins", type=int, default=None, help="bin count (default: derived)")
    p.add_argument("--bin-seconds", type=int, default=3600)
    p.add_argument("--on-error", choices=("skip", "abort"), default="skip")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic Zipf trace matrix")
    p.add_argument("--prefixes", type=int, default=1000)
    p.add_argument("--zipf-s", type=float, default=1.0)
    p.add_argument("--hourly-volume", type=float, default=1e9)
    p.add_argument("--diurnal", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--burst", action="append", default=[], metavar="RANK:HOUR:MULT")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--bins", type=int, default=168)
    p.add_argument("--bin-seconds", type=int, default=3600)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("analyze", help="dynamism metrics: cores, variation, burstiness")
    p.add_argument("--matrix", required=True, help="matrix CSV from ingest/synth")
    p.add_argument("--threshold", type=float, default=0.95)
    p.add_argument("--span", default="week", help="concentration span: week, hour:H, day:H0")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("select", help="predictive selection from window history")
    p.add_argument("--matrix", required=True)
    p.add_argument("--threshold", type=float, default=0.95)
    p.add_argument("--method", choices=selectors.METHODS, default=None)
    p.add_argument("--window", type=int, default=1, help="history window L in hours")
    p.add_argument("--size", type=int, default=None,
                   help="selection size K (default: max weekly core size)")
    p.add_argument("--grid", action="store_true",
                   help="run all methods x all canonical windows")
    p.add_argument("--config", default=None,
                   help="JSON list of {method, window, size} entries")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("evaluate", help="coverage and churn of selection runs")
    p.add_argument("--matrix", required=True)
    p.add_argument("--selection", action="append", default=[], help="selection CSV (repeatable)")
    p.add_argument("--select-dir", default=None, help="directory of selection_*.csv files")
    p.add_argument("--threshold", type=float, default=0.95)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("probe-synth", help="generate a synthetic RTT probe log")
    p.add_argument("--prefix-count", type=int, default=20)
    p.add_argument("--transits", type=int, default=2)
    p.add_argument("--duration", type=float, default=86400.0, help="seconds of probing")
    p.add_argument("--interval", type=float, default=240.0)
    p.add_argument("--jitter", type=float, default=0.30)
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--noise-std", type=float, default=1.0)
    p.add_argument("--rtt-low", type=float, default=20.0)
    p.add_argument("--rtt-high", type=float, default=80.0)
    p.add_argument("--regime", action="append", default=[], metavar="TRANSIT:START:END:MULT")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_probe_synth)

    p = sub.add_parser("simulate", help="normalized RTT per transit + dynamic selection")
    p.add_argument("--probes", required=True, help="probe log CSV")
    p.add_argument("--no-dynamic", dest="dynamic", action="store_false",
                   help="skip the virtual last-round-best transit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="full method x window grid summary")
    p.add_argument("--matrix", required=True)
    p.add_argument("--threshold", type=float, default=0.95)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return USAGE_ERROR
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
