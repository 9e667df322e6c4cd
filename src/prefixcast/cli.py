"""Command-line pipeline: ingest/synth -> analyze -> select -> evaluate,
plus probe-synth -> simulate for the transit RTT side.

Stages hand off through files (CSV + JSON sidecars), so each one is
independently scriptable; this module names each hand-off CSV, and the
library module that owns its format reads and writes it and any sidecar
beside it: ``trace`` for a matrix, ``rttsim`` for a probe log.  Every output
is a pure function of inputs, flags, and the seed; re-running a stage
reproduces its files byte for byte.  Exit codes: 0 success, 1 usage error,
2 data error.

Each command's flags are defined once, by its entry in ``_COMMANDS``.
``main`` parses a named command with that command's parser alone, so a
stage pays for no other command's flags; the full CLI, which
``build_parser()`` composes from the same entries, is built only for no
argument, ``-h``/``--help`` or an unknown first word.  Help, usage errors
and exit codes read the same either way.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
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


# a field csv.writer's QUOTE_MINIMAL quotes, with "\n" as the line end
_NEEDS_QUOTES = re.compile('[,"\n]')


def _write_csv(path: Path, header, *columns) -> None:
    """Write ``header`` and one line per row of ``columns``, each an array
    or a sequence of int, float, None or str, formatted a column at a time:
    an int in decimal, a float as its shortest ``repr`` (which ``str`` of a
    float is), None as an empty field, and a field that needs it quoted as
    ``csv.writer`` quotes it.  ``trace.write_rows`` writes it in one block."""
    texts = []
    for name, column in zip(header, columns, strict=True):
        values = column.tolist() if isinstance(column, np.ndarray) else column
        col = [name] + ["" if v is None else str(v) for v in values]
        if _NEEDS_QUOTES.search("".join(col)):
            col = ['"' + t.replace('"', '""') + '"' if _NEEDS_QUOTES.search(t) else t for t in col]
        texts.append(col)
    trace.write_rows(path, [col[0] for col in texts], [[col[1:] for col in texts]])


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_matrix(path: str) -> trace.HourlyTraceMatrix:
    csv_path = Path(path)
    if not csv_path.exists():
        raise ValueError(f"missing matrix artifact {csv_path}; run ingest or synth first")
    return trace.load_matrix(csv_path)


def _flag_grid(start: int | None, bins: int | None) -> trace.TimeGrid | None:
    """The grid of ``--start`` and ``--bins``, or None unless both are
    given.  A flag value no grid can take is a data error naming the flag,
    raised before any input is read."""
    if bins is not None and bins <= 0:
        raise ValueError(f"--bins must be positive, got {bins}")
    if start is not None and start % trace.BIN_SECONDS:
        raise ValueError(f"--start {start} is not aligned to an hour")
    if start is None or bins is None:
        return None
    try:
        return trace.TimeGrid(start=start, bin_count=bins)
    except ValueError as exc:
        raise ValueError(f"--start {start} --bins {bins}: {exc}") from None


def _flag_value(flag: str, value, check) -> None:
    """Run the library's ``check`` on a flag's value before any input is
    read; its refusal is a data error naming the flag and the value."""
    try:
        check(value)
    except ValueError as exc:
        raise ValueError(f"{flag} {value}: {exc}") from None


# ---------------------------------------------------------------- ingest


def _cmd_ingest(args) -> int:
    start, bins = args.start, args.bins
    grid = _flag_grid(start, bins)
    blocks = trace.iter_trace_csv(args.input)  # a file without the header is refused here
    try:  # every later refusal is about the file's records, so it names the file
        if grid is None:
            # the blocks are read once and kept for bin_records; only the
            # records it would not reject as malformed span the grid
            blocks = list(blocks)
            spans = [(s.min(), s.max()) for b in blocks if (s := b.timestamps[~b.malformed]).size]
            if not spans:
                raise ValueError("no usable records: cannot derive a grid")
            first, last = int(min(lo for lo, _ in spans)), int(max(hi for _, hi in spans))
            if start is None:
                start = first // trace.BIN_SECONDS * trace.BIN_SECONDS
            if bins is None:
                if last < start:
                    raise ValueError(f"--start {start} is after the last usable timestamp {last}")
                bins = (last - start) // trace.BIN_SECONDS + 1
                if bins > MAX_DERIVED_BINS:
                    raise ValueError(
                        f"the records span {bins} bins, more than the {MAX_DERIVED_BINS} "
                        "(a leap year of hours) derived without --bins; pass --bins"
                    )
            grid = trace.TimeGrid(start=start, bin_count=bins)
        policy = "raise" if args.on_error == "abort" else "count"
        matrix, summary = trace.bin_records(blocks, grid, errors=policy)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from None

    out = _out_dir(args)
    trace.save_matrix(matrix, out / "matrix.csv")
    trace.write_json(out / "ingest.json", summary._asdict())
    print(
        f"ingest: {summary.records_binned}/{summary.records_read} records binned, "
        f"{summary.records_rejected} rejected, "
        f"{summary.active_prefixes} active prefixes -> {out / 'matrix.csv'}"
    )
    return 0


# ----------------------------------------------------------------- synth


def _parse_burst(text: str) -> trace.BurstSpec:
    """A ``--burst`` value: a wrong field count or a field that is not a
    number is a usage error, and ``BurstSpec``'s range checks data errors."""
    try:
        rank, hour, multiplier = text.split(":")
        fields = int(rank), int(hour), float(multiplier)
    except ValueError:
        raise _UsageError(f"bad --burst {text!r}; expected RANK:HOUR:MULTIPLIER") from None
    return trace.BurstSpec(*fields)


def _cmd_synth(args) -> int:
    if not 1 <= args.prefixes <= trace.MAX_SYNTH_PREFIXES:
        raise ValueError(f"--prefixes must be in [1, {trace.MAX_SYNTH_PREFIXES}], "
                         f"got {args.prefixes}")
    grid = _flag_grid(args.start, args.bins)
    spec = trace.SyntheticTraceSpec(
        prefix_count=args.prefixes,
        zipf_s=args.zipf_s,
        hourly_volume=args.hourly_volume,
        diurnal_amplitude=args.diurnal,
        noise=args.noise,
        bursts=tuple(_parse_burst(b) for b in args.burst),
        seed=args.seed,
    )
    matrix = trace.synthesize_trace(spec, grid)

    out = _out_dir(args)
    trace.save_matrix(matrix, out / "matrix.csv")
    trace.write_json(out / "synth.json", {
        **spec._asdict(),
        "bursts": [b._astuple() for b in spec.bursts],  # [rank, hour, multiplier]
        "bins": grid.bin_count, "bin_seconds": trace.BIN_SECONDS, "start": grid.start,
    })
    print(f"synth: {len(matrix)} prefixes x {grid.bin_count} bins -> {out / 'matrix.csv'}")
    return 0


# --------------------------------------------------------------- analyze


def _cmd_analyze(args) -> int:
    _flag_value("--threshold", args.threshold, dynamism.check_threshold)
    m = _load_matrix(args.matrix)
    profile = dynamism.compute_core_profile(m, threshold=args.threshold)
    shares_pct, cv = dynamism.prefix_shares_and_cv(m)
    try:
        curve = dynamism.concentration_curve(m, args.span)
    except ValueError as exc:
        raise ValueError(f"--span {args.span}: {exc}") from None
    out = _out_dir(args)

    _write_csv(out / "prefixes.csv", ["prefix", "weekly_share_pct", "cv", "icp"],
               m.prefixes, shares_pct, cv, profile.icp)
    _write_csv(out / "hours.csv", ["hour", "total", "active_prefixes", "core_size", "bi"],
               m.grid.hours(), m.totals, m.active_counts(), profile.core_sizes, profile.bi)
    for name, bins in (("cv_bins.csv", dynamism.cv_vs_volume_bins(shares_pct, cv)),
                       ("icp_bins.csv", dynamism.icp_vs_volume_bins(shares_pct, profile.icp))):
        # a VolumeBinStat's fields are the header's columns, in order
        _write_csv(out / name, ["bin", "lo_pct", "hi_pct", "count", "mean", "median", "p25", "p75"],
                   *zip(*(b._astuple() for b in bins)))
    _write_csv(out / f"concentration_{curve.span.replace(':', '_')}.csv",
               ["rank", "share", "cdf", "zipf_ref"],
               range(1, curve.shares.size + 1), curve.shares, curve.cdf, curve.zipf_overlay)
    summary = {
        "core": dynamism.core_summary(profile, m),
        "burstiness": dynamism.burstiness_summary(profile),
        "threshold": args.threshold,
        "bins": m.bin_count,
        "active_prefixes": len(m),
        "total_volume": float(m.totals.sum(dtype=np.float64)),
    }
    trace.write_json(out / "summary.json", summary)
    print(
        f"analyze: core avg {summary['core']['avg_core_size']:.1f} "
        f"({summary['core']['avg_core_pct_of_active']:.2f}% of active), "
        f"max {summary['core']['max_core_size']}; "
        f"mean BI {summary['burstiness']['mean_bi']:.2f} -> {out}"
    )
    return 0


# ---------------------------------------------------------------- select


def _selection_name(config: selectors.SelectorConfig) -> str:
    return f"selection_{config.method}_L{config.window}.csv"


def _config_entry(path, entry, size: int) -> selectors.SelectorConfig:
    """One ``--config`` entry: an object whose ``window`` and optional
    ``size`` are JSON integers, else a data error naming the entry."""
    if not isinstance(entry, dict):
        raise ValueError(f"{path}: entry {entry!r} is not an object")
    try:
        return selectors.SelectorConfig(
            method=entry.get("method"),
            window=trace.json_int("window", entry.get("window")),
            size=trace.json_int("size", entry.get("size", size)),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: entry {entry}: {exc}") from None


def _selector_configs(
    profile, size, *, grid=False, config=None, method=None, window=1
) -> list[selectors.SelectorConfig]:
    """The configurations to run: each entry of the JSON list ``config``,
    every method x canonical window with ``grid``, or ``method`` alone.
    K defaults to the largest hourly core.  Two entries that would write
    the same selection file are a data error."""
    size = size if size is not None else selectors.max_core_size(profile)
    if config is not None:
        entries = trace.read_json(config)
        if not (isinstance(entries, list) and entries):
            raise ValueError(f"{config}: expected a JSON list of selector objects, "
                             f"got {json.dumps(entries)}")
        configs = [_config_entry(config, e, size) for e in entries]
        names = [_selection_name(c) for c in configs]
        if (repeat := trace.first_repeat(names)) is not None:
            pos, first = repeat
            raise ValueError(f"{config}: entries {entries[first]} and {entries[pos]} "
                             f"both write {names[pos]}")
        return configs
    if grid:
        return [
            selectors.SelectorConfig(method=grid_method, window=grid_window, size=size)
            for grid_method in selectors.METHODS
            for grid_window in selectors.WINDOW_GRID
        ]
    return [selectors.SelectorConfig(method=method, window=window, size=size)]


def _cmd_select(args) -> int:
    if args.window is not None and args.method is None:
        mode = "--grid" if args.grid else "--config"
        raise _UsageError(f"--window has no effect with {mode}; pass it with --method")
    _flag_value("--threshold", args.threshold, dynamism.check_threshold)
    if args.size is not None and args.config is None:  # else entries may set their own
        _flag_value("--size", args.size, selectors.check_size)
    m = _load_matrix(args.matrix)
    profile = dynamism.compute_core_profile(m, threshold=args.threshold)
    configs = _selector_configs(
        profile, args.size, grid=args.grid, config=args.config,
        method=args.method, window=1 if args.window is None else args.window,
    )
    for config in configs:
        run = selectors.run_selection(m, profile, config)
        out = _out_dir(args)  # only once a run exists: run_selection may refuse the matrix
        path = out / _selection_name(config)
        selectors.save_selection(run, path)
        note = f", {run.gm11_fallbacks} gm11 fallbacks" if config.method == "gm11" else ""
        print(f"select: {config.method} L={config.window} K={config.size}{note} -> {path}")
    return 0


# -------------------------------------------------------------- evaluate


def _report_key(config: selectors.SelectorConfig) -> str:
    return f"{config.method}:L{config.window}:K{config.size}"


def _report_payload(run: selectors.SelectionRun, report: evaluation.EvaluationReport) -> dict:
    chn = report.churn_summary
    return {
        "coverage": report.coverage_summary._asdict(),
        "churn": chn._asdict() if chn is not None else None,
        "warmup_hours": int(run.warmup.sum()),
        "shortfall_hours": int(run.shortfall.sum()),
        "threshold": run.threshold,
        "percentile_convention": "linear interpolation",
    }


def _cmd_evaluate(args) -> int:
    _flag_value("--threshold", args.threshold, dynamism.check_threshold)
    m = _load_matrix(args.matrix)
    paths: list[Path] = [Path(p) for p in args.selection]
    if args.select_dir is not None:
        found = sorted(Path(args.select_dir).glob("selection_*.csv"))
        if not found:
            raise ValueError(f"no selection_*.csv in {args.select_dir}; run the select stage first")
        paths.extend(found)
    if not paths:
        raise _UsageError("no selection inputs: pass --selection or --select-dir")

    summary = {}
    written: dict[str, Path] = {}  # report file name -> the input that wrote it
    reports = []
    for path in paths:
        if not path.exists():
            raise ValueError(f"missing selection artifact {path}; run the select stage first")
        run = selectors.load_selection(path, m, args.threshold)
        name = f"report_{run.config.method}_L{run.config.window}.csv"
        if name in written:
            raise ValueError(f"{written[name]} and {path} both write {name}")
        written[name] = path
        report = evaluation.evaluate_run(run, m)
        summary[_report_key(run.config)] = _report_payload(run, report)
        reports.append((name, report))
        del run  # so the next file is read with no other run alive

    # nothing is written until every input has been read and evaluated
    out = _out_dir(args)
    for name, report in reports:
        churn = [None, *report.churn.tolist()]  # the first hour has no churn
        _write_csv(out / name, ["hour", "coverage", "churn"], report.hours, report.coverage, churn)
        mean_churn = report.churn_summary.mean if report.churn_summary else float("nan")
        print(
            f"evaluate: {report.method} L={report.window} "
            f"mean coverage {report.coverage_summary.mean:.4f} "
            f"mean churn {mean_churn:.2f} -> {out / name}"
        )
    trace.write_json(out / "evaluation_summary.json", summary)
    return 0


# ------------------------------------------------------------ probe-synth


def _parse_regime(text: str) -> rttsim.RegimeSwitch:
    """A ``--regime`` value, refused as ``_parse_burst`` refuses a burst."""
    try:
        transit, start, end, multiplier = text.split(":")
        fields = transit, int(start), int(end), float(multiplier)
    except ValueError:
        raise _UsageError(f"bad --regime {text!r}; "
                          "expected TRANSIT:START:END:MULTIPLIER") from None
    return rttsim.RegimeSwitch(*fields)


def _cmd_probe_synth(args) -> int:
    for flag, value in (("--rtt-low", args.rtt_low), ("--rtt-high", args.rtt_high)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if not 0 < args.rtt_low <= args.rtt_high:
        raise ValueError(f"--rtt-low {args.rtt_low} --rtt-high {args.rtt_high}: "
                         "base RTTs need 0 < low <= high")
    if not 1 <= args.prefix_count <= trace.MAX_SYNTH_PREFIXES:
        raise ValueError(f"--prefix-count must be in [1, {trace.MAX_SYNTH_PREFIXES}], "
                         f"got {args.prefix_count}")
    if args.transits < 1:
        raise ValueError(f"--transits must be >= 1, got {args.transits}")
    transits = [f"T{i + 1}" for i in range(args.transits)]
    prefixes = [trace.synthetic_prefix(k) for k in range(1, args.prefix_count + 1)]
    pairs = [(p, t) for p in sorted(prefixes) for t in transits]
    # one base RTT per pair, in this order, from a stream apart from the generator's
    rng = np.random.default_rng(np.random.SeedSequence(args.seed).spawn(1)[0])
    base = rng.uniform(args.rtt_low, args.rtt_high, len(pairs))
    model = rttsim.RttModel(
        base_rtt=dict(zip(pairs, base.tolist())),
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
    rttsim.save_probe_log(log, out / "probes.csv", schedule)
    print(
        f"probe-synth: {len(log.ticks)} rounds x {len(prefixes)} prefixes x "
        f"{len(transits)} transits -> {out / 'probes.csv'}"
    )
    return 0


# -------------------------------------------------------------- simulate


def _cmd_simulate(args) -> int:
    path = Path(args.probes)
    if not path.exists():
        raise ValueError(f"missing probe artifact {path}; run the probe-synth stage first")
    log = rttsim.load_probe_log(path)

    series = [rttsim.np_series(log, transit) for transit in log.transits]
    dynamic = None
    if args.dynamic and len(log.ticks) >= 2:
        dynamic = rttsim.simulate_dynamic_selection(log, seed=args.seed)
        series.append(dynamic)
    ranking = rttsim.rank_transits(log, include_dynamic=args.dynamic, seed=args.seed)
    if not ranking:
        raise ValueError(f"{path}: no round has a usable RTT sample")

    out = _out_dir(args)
    _write_csv(out / "np.csv", ["tick", "transit", "np", "included_prefixes"],
               [t for s in series for t in s.ticks], [s.transit for s in series for _ in s.ticks],
               [v for s in series for v in s.values], [n for s in series for n in s.included])
    payload = {
        "order": [label for label, _ in ranking],
        "transits": {label: summary._asdict() for label, summary in ranking},
        "seed": args.seed,
    }
    if dynamic is not None:
        # prefixes the dynamic transit left out because its pick had no sample
        payload["dynamic_excluded_missing"] = sum(dynamic.excluded_missing)
    trace.write_json(out / "np_summary.json", payload)
    best = ranking[0]
    print(
        f"simulate: {len(log.transits)} transits, {len(log.ticks)} rounds; "
        f"best mean NP {best[1].mean:.4f} ({best[0]}) -> {out / 'np.csv'}"
    )
    return 0


# ---------------------------------------------------------------- report


def _cmd_report(args) -> int:
    _flag_value("--threshold", args.threshold, dynamism.check_threshold)
    if args.size is not None:
        _flag_value("--size", args.size, selectors.check_size)
    m = _load_matrix(args.matrix)
    profile = dynamism.compute_core_profile(m, threshold=args.threshold)
    configs = _selector_configs(profile, args.size, grid=True)

    rows = []
    summary = {}
    for config in configs:
        run = selectors.run_selection(m, profile, config)
        payload = _report_payload(run, evaluation.evaluate_run(run, m))
        stats = payload["coverage"]
        rows.append([config.method, config.window, config.size,
                     *stats.values(), *(payload["churn"] or dict.fromkeys(stats)).values()])
        # a selection CSV cannot carry the fallback count, so only report has it
        summary[_report_key(config)] = {**payload, "gm11_fallbacks": run.gm11_fallbacks}
    # the statistic columns are a summary's own keys, in its order
    header = ["method", "L", "K", *(f"{k}_{s}" for k in ("coverage", "churn") for s in stats)]
    out = _out_dir(args)
    _write_csv(out / "grid_summary.csv", header, *zip(*rows))
    trace.write_json(out / "grid_summary.json", summary)
    print(f"report: {len(rows)} configurations (K={configs[0].size}) -> {out / 'grid_summary.csv'}")
    return 0


# ----------------------------------------------------------------- parser


def _ingest_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="flow records CSV")
    p.add_argument("--start", type=int, default=None, help="grid start (epoch s, hour-aligned)")
    p.add_argument("--bins", type=int, default=None, help="bin count (default: derived)")
    p.add_argument("--on-error", choices=("skip", "abort"), default="skip")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_ingest)


def _synth_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prefixes", type=int, default=1000)
    p.add_argument("--zipf-s", type=float, default=1.0)
    p.add_argument("--hourly-volume", type=float, default=1e9)
    p.add_argument("--diurnal", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--burst", action="append", default=[], metavar="RANK:HOUR:MULT")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--bins", type=int, default=168)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_synth)


def _analyze_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", required=True, help="matrix CSV from ingest/synth")
    p.add_argument("--threshold", type=float, default=dynamism.DEFAULT_CORE_THRESHOLD)
    p.add_argument("--span", default="week", help="concentration span: week, hour:H, day:H0")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_analyze)


def _select_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", required=True)
    p.add_argument("--threshold", type=float, default=dynamism.DEFAULT_CORE_THRESHOLD)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--method", choices=selectors.METHODS, default=None)
    mode.add_argument("--grid", action="store_true",
                      help="run all methods x all canonical windows")
    mode.add_argument("--config", default=None,
                      help="JSON list of {method, window, size} entries")
    p.add_argument("--window", type=int, default=None,
                   help="history window L in hours, with --method (default: 1)")
    p.add_argument("--size", type=int, default=None,
                   help="selection size K (default: max weekly core size)")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_select)


def _evaluate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", required=True)
    p.add_argument("--selection", action="append", default=[], help="selection CSV (repeatable)")
    p.add_argument("--select-dir", default=None, help="directory of selection_*.csv files")
    p.add_argument("--threshold", type=float, default=dynamism.DEFAULT_CORE_THRESHOLD)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_evaluate)


def _probe_synth_args(p: argparse.ArgumentParser) -> None:
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


def _simulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--probes", required=True, help="probe log CSV")
    p.add_argument("--no-dynamic", dest="dynamic", action="store_false",
                   help="skip the virtual last-round-best transit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_simulate)


def _report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", required=True)
    p.add_argument("--threshold", type=float, default=dynamism.DEFAULT_CORE_THRESHOLD)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_report)


# each command, in the full CLI's order: its line in ``--help``, and the
# function that gives a parser its flags and its ``func``
_COMMANDS = {
    "ingest": ("bin a timestamp,prefix,bytes CSV into an hourly matrix", _ingest_args),
    "synth": ("generate a synthetic Zipf trace matrix", _synth_args),
    "analyze": ("dynamism metrics: cores, variation, burstiness", _analyze_args),
    "select": ("predictive selection from window history", _select_args),
    "evaluate": ("coverage and churn of selection runs", _evaluate_args),
    "probe-synth": ("generate a synthetic RTT probe log", _probe_synth_args),
    "simulate": ("normalized RTT per transit + dynamic selection", _simulate_args),
    "report": ("full method x window grid summary", _report_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full CLI, one subparser per command; or, given ``command``, that
    command's parser alone, which parses, helps and refuses exactly as the
    full CLI's subparser for it does."""
    if command is not None:
        parser = _Parser(prog=f"prefixcast {command}")
        _COMMANDS[command][1](parser)
        return parser
    # --help shows the docstring's first two paragraphs; the last is for readers of the code
    parser = _Parser(prog="prefixcast", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (summary, add_args) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=summary))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named command needs only its own parser; without one (no argument,
    # -h/--help, an unknown word) the full CLI helps or refuses
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv[1:] if command else argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return USAGE_ERROR
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
