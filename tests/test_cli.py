"""CLI stages: artifacts, exit codes, composition, determinism."""

import argparse
import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefixcast import cli, dynamism, trace
from prefixcast.cli import _write_csv, build_parser, main
from prefixcast.dynamism import compute_core_profile
from prefixcast.rttsim import (
    MAX_PROBES, ProbeLog, ProbeScheduleSpec, RttModel, generate_probe_log, load_probe_log,
    save_probe_log, simulate_dynamic_selection,
)
from prefixcast.selectors import (
    METHODS, SELECTION_HEADER, WINDOW_GRID, SelectionRun, SelectorConfig, load_selection,
    max_core_size, run_selection, save_selection,
)
from prefixcast.trace import (
    HourlyTraceMatrix, Prefix, SyntheticTraceSpec, TimeGrid, load_matrix, save_matrix,
    synthesize_trace, synthetic_prefix, write_json,
)
from scalar_oracles import INT64_MAX, INT64_MIN, selection_run, write_csv_rows


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def flows_csv(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text(
        "timestamp,prefix,bytes\n"
        "0,10.0.0.0/8,50\n"
        "100,10.1.0.0/16,30\n"
        "3700,10.0.0.0/8,7\n"
    )
    return path


def csv_writer_selection(path: Path, run: SelectionRun) -> None:
    """The selection file as ``csv.writer`` lays it out: an oracle for the
    bytes of ``save_selection``."""
    cfg = run.config
    tail = (cfg.method, str(cfg.window), str(cfg.size))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(SELECTION_HEADER)
        for hour, picks, scores in zip(map(str, run.hours.tolist()), run.picks, run.scores):
            w.writerows(
                (hour, str(rank), run.prefixes[i].text, repr(score), *tail)
                for rank, (i, score) in enumerate(zip(picks.tolist(), scores.tolist()), start=1)
            )


def write_int_matrix(directory: Path, rows: list[str], dtype="int") -> Path:
    """A hand-written ``matrix.csv``, as wide as its first row, with its
    JSON sidecar."""
    bins = rows[0].count(",")
    (directory / "matrix.json").write_text(
        json.dumps({"start": 0, "bin_seconds": 3600, "bin_count": bins, "dtype": dtype})
    )
    path = directory / "matrix.csv"
    header = ",".join(["prefix", *(f"h{h}" for h in range(1, bins + 1))])
    path.write_text(header + "\n" + "".join(f"{row}\n" for row in rows))
    return path


class TestIngest:
    def test_happy_path(self, tmp_path, flows_csv):
        out = tmp_path / "stage"
        code = main(["ingest", str(flows_csv), "--start", "0", "--bins", "2", "--out", str(out)])
        assert code == 0
        m = load_matrix(out / "matrix.csv")
        assert m.total(1) == 80 and m.total(2) == 7
        summary = read_json(out / "ingest.json")
        assert summary["records_binned"] == 3
        assert summary["active_prefixes"] == 2

    def test_grid_derived_when_omitted(self, tmp_path, flows_csv):
        out = tmp_path / "stage"
        assert main(["ingest", str(flows_csv), "--out", str(out)]) == 0
        m = load_matrix(out / "matrix.csv")
        assert m.grid.start == 0 and m.grid.bin_count == 2

    # a malformed record's timestamp would stretch the grid: 250001 bins
    # (refused) for the first, 11 bins with 9 empty hours for the second
    @pytest.mark.parametrize("malformed", ["900000000,not-a-prefix,3", "36000,10.2.0.0/16,-3"])
    def test_derived_grid_ignores_malformed_records(self, tmp_path, flows_csv, malformed):
        flows_csv.write_text(flows_csv.read_text() + malformed + "\n")
        out = tmp_path / "stage"
        assert main(["ingest", str(flows_csv), "--out", str(out)]) == 0
        assert load_matrix(out / "matrix.csv").grid.bin_count == 2
        assert read_json(out / "ingest.json")["rejected_malformed"] == 1

    def test_derived_grid_beyond_a_leap_year_is_data_error(self, tmp_path, capsys, monkeypatch):
        from prefixcast import trace

        flows = tmp_path / "flows.csv"
        flows.write_text(f"timestamp,prefix,bytes\n0,10.0.0.0/8,5\n{10**15},10.0.0.0/8,5\n")
        # the bound applies to the derived count, before any grid is allocated
        monkeypatch.setattr(trace, "bin_records", lambda *args, **kw: pytest.fail("binned"))
        assert main(["ingest", str(flows), "--out", str(tmp_path / "stage")]) == 2
        err = capsys.readouterr().err
        assert "more than the 8784" in err and "pass --bins" in err

    def test_derived_grid_up_to_a_leap_year(self, tmp_path):
        flows = tmp_path / "flows.csv"
        flows.write_text(f"timestamp,prefix,bytes\n0,10.0.0.0/8,5\n{8783 * 3600},10.0.0.0/8,5\n")
        assert main(["ingest", str(flows), "--out", str(tmp_path)]) == 0
        assert load_matrix(tmp_path / "matrix.csv").grid.bin_count == 8784

    def test_missing_header_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,10.0.0.0/8,50\n")
        assert main(["ingest", str(bad), "--out", str(tmp_path)]) == 2

    def test_empty_body_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("timestamp,prefix,bytes\n")
        assert main(["ingest", str(empty), "--out", str(tmp_path)]) == 2
        assert "no usable records" in capsys.readouterr().err

    def test_start_after_the_last_record_names_both(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_text("timestamp,prefix,bytes\n3600,10.0.0.0/8,5\n3700,10.0.0.0/8,6\n")
        out = tmp_path / "stage"
        assert main(["ingest", str(flows), "--start", "7200", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--start 7200 is after the last usable timestamp 3700" in err
        assert not out.exists()

    @pytest.mark.parametrize("body, grid, tallies", [
        ("", ["--start", "0", "--bins", "2"], "0 records read, 0 binned"),
        ("36000,10.0.0.0/8,5\noops,10.0.0.0/8,1\n", ["--start", "0", "--bins", "2"],
         "2 records read, 0 binned with zero volume, 1 malformed, 1 off the grid"),
        ("0,10.0.0.0/8,0\n3600,10.1.0.0/16,0\n", [],
         "2 records read, 2 binned with zero volume, 0 malformed, 0 off the grid"),
    ], ids=["header only", "all rejected", "zero volumes"])
    def test_nothing_binned_names_the_file_and_tallies(self, tmp_path, capsys, body, grid,
                                                       tallies):
        flows = tmp_path / "flows.csv"
        flows.write_text("timestamp,prefix,bytes\n" + body)
        out = tmp_path / "stage"
        assert main(["ingest", str(flows), *grid, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {flows}: no active prefixes: " in err and tallies in err
        assert not out.exists()

    @pytest.mark.parametrize("body, flags, refusal", [
        ("ts,pfx,vol\n0,10.0.0.0/8,5\n", ["--start", "0", "--bins", "1"], "expected header"),
        ("timestamp,prefix,bytes\noops,10.0.0.0/8,5\n", [], "no usable records"),
        ("timestamp,prefix,bytes\n3600,10.0.0.0/8,5\n", ["--start", "7200"], "--start 7200"),
        (f"timestamp,prefix,bytes\n0,10.0.0.0/8,5\n{8784 * 3600},10.0.0.0/8,5\n", [],
         "the records span 8785 bins"),
        ("timestamp,prefix,bytes\n99999,10.0.0.0/8,5\n", ["--start", "0", "--bins", "1",
                                                            "--on-error", "abort"],
         "out-of-range record: timestamp 99999"),
    ], ids=["header", "no usable records", "start after", "too many bins", "abort"])
    def test_every_refusal_names_the_input_once(self, tmp_path, capsys, body, flags, refusal):
        flows = tmp_path / "flows.csv"
        flows.write_text(body)
        assert main(["ingest", str(flows), *flags, "--out", str(tmp_path / "stage")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flows}: {refusal}") and err.count(str(flows)) == 1

    def test_abort_policy(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,prefix,bytes\n0,bogus,5\n")
        args = ["ingest", str(bad), "--start", "0", "--bins", "1", "--out", str(tmp_path)]
        assert main(args + ["--on-error", "abort"]) == 2

    def test_volume_beyond_int64_is_a_malformed_record(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_text(f"timestamp,prefix,bytes\n0,10.0.0.0/8,5\n0,10.0.0.0/8,{2**63}\n")
        out = tmp_path / "stage"
        args = ["ingest", str(flows), "--start", "0", "--bins", "1", "--out", str(out)]
        assert main(args) == 0
        summary = read_json(out / "ingest.json")
        assert summary["rejected_malformed"] == 1 and summary["bytes_binned"] == 5
        assert main(args + ["--on-error", "abort"]) == 2
        assert "int64" in capsys.readouterr().err

    def test_quoted_header_is_data_error(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_text('"timestamp","prefix","bytes"\n0,10.0.0.0/8,5\n')
        assert main(["ingest", str(flows), "--out", str(tmp_path / "stage")]) == 2
        assert "expected header 'timestamp,prefix,bytes'" in capsys.readouterr().err

    def test_quoted_field_is_a_malformed_record(self, tmp_path):
        flows = tmp_path / "flows.csv"
        flows.write_text('timestamp,prefix,bytes\n0,10.0.0.0/8,5\n0,"10.1.0.0/16",7\n'
                         '"0",10.1.0.0/16,9\n0,"10.1.0.0/16,x",4\n')
        out = tmp_path / "stage"
        assert main(["ingest", str(flows), "--start", "0", "--bins", "1", "--out", str(out)]) == 0
        summary = read_json(out / "ingest.json")
        # the quoted prefix and timestamp keep their parsed bytes, as any malformed field does
        assert (summary["rejected_malformed"], summary["bytes_binned"]) == (3, 5)
        assert summary["bytes_rejected"] == 16

    def test_non_utf8_field_is_a_malformed_record(self, tmp_path):
        from prefixcast import trace

        flows = tmp_path / "flows.csv"
        # CRLF, a lone CR and two records with bytes that are not UTF-8
        flows.write_bytes(b"timestamp,prefix,bytes\r\n0,10.0.0.0/8,7\r\n0,10.\xff.0.0/8,5\r"
                          b"1\xfe,10.0.0.0/8,3\n5,10.0.0.0/8,4\n")
        out = tmp_path / "stage"
        assert main(["ingest", str(flows), "--out", str(out)]) == 0
        summary = read_json(out / "ingest.json")
        assert (summary["records_read"], summary["rejected_malformed"]) == (4, 2)
        assert (summary["bytes_binned"], summary["bytes_rejected"]) == (11, 8)
        reasons = [r for block in trace.iter_trace_csv(flows) for r in block.reasons.values()]
        assert [r[: r.index(")") + 1] for r in reasons] == [
            r"('0', '10.\\xff.0.0/8', '5')", r"('1\\xfe', '10.0.0.0/8', '3')",
        ]

    def test_non_utf8_field_aborts_naming_the_record(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_bytes(b"timestamp,prefix,bytes\n0,10.0.0.0/8,7\n0,10.\xff.0.0/8,5\n")
        out = tmp_path / "stage"
        assert main(["ingest", str(flows), "--on-error", "abort", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert rf"error: {flows}: malformed record: ('0', '10.\\xff.0.0/8', '5')" in err
        assert err.endswith(") at record 2\n")
        assert not (out / "matrix.csv").exists()

    def test_abort_names_the_first_bad_record_in_file_order(self, tmp_path, capsys, monkeypatch):
        from prefixcast import trace

        flows = tmp_path / "flows.csv"
        flows.write_text("timestamp,prefix,bytes\n0,10.0.0.0/8,5\n1,10.0.0.0/8,6\n"
                         "99999,10.0.0.0/8,7\n2,bogus,8\n")
        monkeypatch.setattr(trace, "TRACE_BLOCK_LINES", 2)
        args = ["ingest", str(flows), "--start", "0", "--bins", "1", "--on-error", "abort",
                "--out", str(tmp_path / "stage")]
        assert main(args) == 2
        assert "out-of-range record: timestamp 99999 at record 3\n" in capsys.readouterr().err

    def test_timestamp_beyond_int64_is_a_malformed_record(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_text(f"timestamp,prefix,bytes\n5,10.0.0.0/8,5\n3600,10.0.0.0/8,7\n"
                         f"{2**63},10.1.0.0/16,9\n{-(2**63) - 1},10.1.0.0/16,4\n")
        out = tmp_path / "stage"
        assert main(["ingest", str(flows), "--on-error", "skip", "--out", str(out)]) == 0
        m = load_matrix(out / "matrix.csv")
        # the derived grid spans only the records that fit int64
        assert (m.grid.start, m.grid.bin_count, m.values.tolist()) == (0, 2, [[5, 7]])
        summary = read_json(out / "ingest.json")
        assert (summary["records_binned"], summary["rejected_malformed"]) == (2, 2)
        assert summary["bytes_rejected"] == 13
        assert main(["ingest", str(flows), "--on-error", "abort",
                     "--out", str(tmp_path / "abort")]) == 2
        assert (f"error: {flows}: malformed record: ('{2**63}', '10.1.0.0/16', '9') "
                f"(timestamp {2**63} is outside the int64 range)") in capsys.readouterr().err
        # a grid that ends beyond int64 is refused before any record is binned
        assert main(["ingest", str(flows), "--start", str(2**63 // 3600 * 3600), "--bins", "1",
                     "--out", str(tmp_path / "wide")]) == 2
        assert "leaves the int64 range" in capsys.readouterr().err

    def test_binned_total_beyond_int64_is_data_error(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        big = 9_220_000_000_000_000_000
        flows.write_text(f"timestamp,prefix,bytes\n0,10.0.0.0/8,{big}\n1,10.0.0.0/8,{big}\n")
        out = tmp_path / "stage"
        assert main(["ingest", str(flows), "--start", "0", "--bins", "1", "--out", str(out)]) == 2
        assert "int64" in capsys.readouterr().err
        assert not (out / "matrix.csv").exists()


@pytest.mark.parametrize("stage, flags, refusal", [
    ("ingest", ["--start", "5", "--bins", "3"], "--start 5 is not aligned to an hour"),
    ("ingest", ["--bins", "0"], "--bins must be positive, got 0"),
    ("synth", ["--start", "5"], "--start 5 is not aligned to an hour"),
    ("synth", ["--bins", "0"], "--bins must be positive, got 0"),
    ("ingest", ["--start", str(2**63 // 3600 * 3600), "--bins", "1"],
     f"--start {2**63 // 3600 * 3600} --bins 1: grid ["),
], ids=["ingest start", "ingest bins", "synth start", "synth bins", "ingest range"])
def test_grid_flag_refusal_names_the_flag(tmp_path, capsys, stage, flags, refusal):
    """A grid flag no grid can take is refused naming the flag, before the
    input is read: here the flow CSV does not even exist."""
    flows = tmp_path / "flows.csv"
    out = tmp_path / "stage"
    argv = [stage, *([str(flows)] if stage == "ingest" else []), *flags, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {refusal}") and str(flows) not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, refusal", [
    (["analyze", "--threshold", "2"], "--threshold 2.0: threshold must be in (0, 1]"),
    (["select", "--method", "gm11", "--threshold", "0"],
     "--threshold 0.0: threshold must be in (0, 1]"),
    (["evaluate", "--threshold", "nan"], "--threshold nan: threshold must be in (0, 1]"),
    (["report", "--threshold", "-0.5"], "--threshold -0.5: threshold must be in (0, 1]"),
    (["select", "--grid", "--size", "0"], "--size 0: size must be >= 1, got 0"),
    (["report", "--size", "-3"], "--size -3: size must be >= 1, got -3"),
], ids=["analyze threshold", "select threshold", "evaluate threshold", "report threshold",
        "select size", "report size"])
def test_core_flag_refusal_names_the_flag(tmp_path, capsys, argv, refusal):
    """A --threshold or --size no run can take is refused naming the flag,
    before the matrix is read: here it does not even exist."""
    matrix, out = tmp_path / "matrix.csv", tmp_path / "stage"
    assert main([*argv, "--matrix", str(matrix), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert not out.exists()


class TestSynthAnalyze:
    def test_analyze_outputs(self, tmp_path):
        out = str(tmp_path)
        assert main(["synth", "--prefixes", "40", "--noise", "0.4", "--bins", "48",
                     "--seed", "5", "--out", out]) == 0
        assert main(["analyze", "--matrix", f"{out}/matrix.csv", "--out", out]) == 0
        summary = read_json(tmp_path / "summary.json")
        assert set(summary["core"]) == {"avg_core_size", "avg_core_pct_of_active", "max_core_size"}
        assert set(summary["burstiness"]) == {"mean_bi", "max_bi", "max_beta"}
        prefixes = read_csv(tmp_path / "prefixes.csv")
        assert prefixes[0] == ["prefix", "weekly_share_pct", "cv", "icp"]
        assert len(prefixes) == 41
        hours = read_csv(tmp_path / "hours.csv")
        assert len(hours) == 49
        conc = read_csv(tmp_path / "concentration_week.csv")
        assert conc[0] == ["rank", "share", "cdf", "zipf_ref"]

    def test_analyze_computes_shares_and_cv_once(self, tmp_path, monkeypatch):
        out = str(tmp_path)
        assert main(["synth", "--prefixes", "20", "--noise", "0.4", "--bins", "24",
                     "--out", out]) == 0
        calls = []
        original = dynamism.prefix_shares_and_cv

        def counted(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(dynamism, "prefix_shares_and_cv", counted)
        assert main(["analyze", "--matrix", f"{out}/matrix.csv", "--out", out]) == 0
        assert len(calls) == 1

    def test_single_bin_analyze_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "stage"
        assert main(["synth", "--prefixes", "3", "--bins", "1", "--out", str(tmp_path)]) == 0
        assert main(["analyze", "--matrix", f"{tmp_path}/matrix.csv", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "at least 2 bins" in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_volume_span_is_data_error_before_writing(self, tmp_path, capsys):
        matrix = write_int_matrix(tmp_path, ["10.0.0.0/8,5,0,3"])
        out = tmp_path / "stage"
        assert main(["analyze", "--matrix", str(matrix), "--span", "hour:2",
                     "--out", str(out)]) == 2
        assert "zero-volume span hour:2" in capsys.readouterr().err
        assert not out.exists()

    def test_single_prefix_core_stats(self, tmp_path):
        out = str(tmp_path)
        assert main(["synth", "--prefixes", "1", "--bins", "8", "--out", out]) == 0
        assert main(["analyze", "--matrix", f"{out}/matrix.csv", "--out", out]) == 0
        core = read_json(tmp_path / "summary.json")["core"]
        assert core["avg_core_size"] == 1.0
        assert core["avg_core_pct_of_active"] == 100.0
        assert core["max_core_size"] == 1

    @pytest.mark.parametrize("span", ["hour:x", "day:x", "hour:", "fortnight:3"])
    def test_unparsable_span_is_data_error_naming_the_flag(self, tmp_path, capsys, span):
        matrix = write_int_matrix(tmp_path, ["10.0.0.0/8,5,0,3"])
        out = tmp_path / "stage"
        assert main(["analyze", "--matrix", str(matrix), "--span", span, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--span {span}: bad span {span!r}" in err and "invalid literal" not in err
        assert not out.exists()

    def test_span_flag_selects_concentration_window(self, tmp_path):
        out = str(tmp_path)
        assert main(["synth", "--prefixes", "10", "--bins", "30", "--out", out]) == 0
        assert main(["analyze", "--matrix", f"{out}/matrix.csv", "--span", "day:3",
                     "--out", out]) == 0
        assert (tmp_path / "concentration_day_3.csv").exists()

    def test_synth_rounds_to_whole_bytes(self, tmp_path):
        assert main(["synth", "--prefixes", "3", "--bins", "2", "--noise", "0.5",
                     "--out", str(tmp_path)]) == 0
        cells = [cell for row in read_csv(tmp_path / "matrix.csv")[1:] for cell in row[1:]]
        assert all(cell.isdigit() for cell in cells)

    def test_week_total_beyond_int64_does_not_wrap(self, tmp_path):
        # each hour fits int64, the week's 1.68e19 bytes do not
        out = str(tmp_path)
        assert main(["synth", "--prefixes", "3", "--hourly-volume", "1e17", "--out", out]) == 0
        assert main(["analyze", "--matrix", f"{out}/matrix.csv", "--out", out]) == 0
        assert read_json(tmp_path / "summary.json")["total_volume"] == pytest.approx(1.68e19)
        shares = [float(row[1]) for row in read_csv(tmp_path / "prefixes.csv")[1:]]
        assert sum(shares) == pytest.approx(100.0)
        assert all(0 < share < 100 for share in shares)

    def test_synth_cell_beyond_int64_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "stage"
        assert main(["synth", "--prefixes", "1", "--hourly-volume", "1e19",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "10.0.0.0/24 at hour 1 is 1e+19 bytes, beyond the int64 range" in err
        assert "Traceback" not in err
        assert not (out / "matrix.csv").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--noise", "nan"], "noise"),
        (["--noise", "inf"], "noise"),
        (["--zipf-s", "nan"], "zipf_s"),
        (["--hourly-volume", "nan"], "hourly_volume"),
        (["--hourly-volume", "inf"], "hourly_volume"),
        (["--diurnal", "nan"], "diurnal_amplitude"),
        (["--burst", "1:2:nan"], "burst multiplier"),
        (["--noise", "1e200"], "noise"),
        (["--prefixes", "0"], "--prefixes"),
        (["--prefixes", "70000"], "--prefixes"),
    ], ids=["noise nan", "noise inf", "zipf_s nan", "hourly_volume nan", "hourly_volume inf",
            "diurnal nan", "burst nan", "noise square overflows", "prefixes 0", "prefixes 70000"])
    def test_non_finite_synth_parameter_is_data_error(self, tmp_path, capsys, flags, named):
        out = tmp_path / "stage"
        assert main(["synth", "--prefixes", "3", "--bins", "4", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{named} must be" in err and "Traceback" not in err
        assert not (out / "matrix.csv").exists() and not (out / "synth.json").exists()

    def test_missing_matrix_names_stage(self, tmp_path, capsys):
        assert main(["analyze", "--matrix", f"{tmp_path}/nope.csv", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "ingest or synth" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_matrix_cell_is_data_error(self, tmp_path, capsys, cell):
        out = str(tmp_path)
        assert main(["synth", "--prefixes", "4", "--bins", "6", "--out", out]) == 0
        rows = read_csv(tmp_path / "matrix.csv")
        rows[3][4] = cell
        with open(tmp_path / "matrix.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        assert main(["analyze", "--matrix", f"{out}/matrix.csv", "--out", out]) == 2
        err = capsys.readouterr().err
        assert rows[3][0] in err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("rows, named", [
        (["10.0.0.0/24,5,5", "10.0.0.0/24,1,1"], "duplicate row for 10.0.0.0/24"),
        (["10.0.0.0/24,9223372036854775807,0", "10.0.1.0/24,1,1"], "total of hour 1"),
        (["10.0.0.0/24,1,1", "10.0.1.0/24,9223372036854775808,0"], "'10.0.1.0/24'"),
        (["10.0.0.0/24,1_000,0"], "'10.0.0.0/24'"),
        # rows are unquoted: a quoted prefix or cell is not unquoted
        (["10.0.0.0/24,1,1", '"10.0.1.0/24",5,5'], """'"10.0.1.0/24"'"""),
        (["10.0.0.0/24,1,1", '10.0.1.0/24,"5",5'], "'10.0.1.0/24'"),
        (["10.0.0.0/24,5,5", "10.0.1.0/24,1,1", "10.0.0.0/24,1,1"],
         "line 4: duplicate row for 10.0.0.0/24, first on line 2"),
        (["10.0.0.0/24,1,1", "10.0.1.0/24,1,-5"],
         "line 3: bad row for '10.0.1.0/24': h2 is '-5', a negative volume"),
    ])
    def test_bad_int_matrix_is_data_error(self, tmp_path, capsys, rows, named):
        path = write_int_matrix(tmp_path, rows)
        assert main(["analyze", "--matrix", str(path), "--out", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    # "float" is what a matrix written by an older synth names
    @pytest.mark.parametrize("dtype", ["bogus", "Int", None, "float"])
    def test_unknown_sidecar_dtype_is_data_error(self, tmp_path, capsys, dtype):
        rows = ["10.0.0.0/24,1,2,3", "10.0.1.0/24,5,4,3"]
        path = write_int_matrix(tmp_path, rows, dtype=dtype)
        assert main(["analyze", "--matrix", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "matrix.json" in err and f"unknown dtype {dtype!r}" in err
        assert "re-run synth" in err
        assert not (tmp_path / "summary.json").exists()

    def test_sidecar_without_dtype_reads_int(self, tmp_path):
        path = write_int_matrix(tmp_path, ["10.0.0.0/24,1,2,3", "10.0.1.0/24,5,4,3"])
        meta = read_json(tmp_path / "matrix.json")
        del meta["dtype"]
        (tmp_path / "matrix.json").write_text(json.dumps(meta))
        assert main(["analyze", "--matrix", str(path), "--out", str(tmp_path)]) == 0
        assert [row[1] for row in read_csv(tmp_path / "hours.csv")[1:]] == ["6", "6", "6"]


class TestSelectEvaluate:
    @pytest.fixture
    def trace_dir(self, tmp_path):
        out = str(tmp_path)
        main(["synth", "--prefixes", "30", "--noise", "0.5", "--bins", "24",
              "--seed", "3", "--out", out])
        return tmp_path

    def test_single_selection_and_report(self, trace_dir):
        out = str(trace_dir)
        code = main(["select", "--matrix", f"{out}/matrix.csv", "--method", "mean_volume",
                     "--window", "6", "--size", "8", "--out", out])
        assert code == 0
        sel = read_csv(trace_dir / "selection_mean_volume_L6.csv")
        assert sel[0] == ["hour", "rank", "prefix", "score", "method", "L", "K"]
        hours = {int(r[0]) for r in sel[1:]}
        assert hours == set(range(2, 25))

        code = main(["evaluate", "--matrix", f"{out}/matrix.csv",
                     "--selection", f"{out}/selection_mean_volume_L6.csv", "--out", out])
        assert code == 0
        rep = read_csv(trace_dir / "report_mean_volume_L6.csv")
        assert rep[0] == ["hour", "coverage", "churn"]
        assert rep[1][2] == ""  # first hour has no churn
        summary = read_json(trace_dir / "evaluation_summary.json")
        assert "mean_volume:L6:K8" in summary
        assert summary["mean_volume:L6:K8"]["coverage"]["mean"] > 0

    def test_grid_produces_sixteen_configs(self, trace_dir):
        out = str(trace_dir)
        assert main(["select", "--matrix", f"{out}/matrix.csv", "--grid",
                     "--size", "6", "--out", out]) == 0
        files = sorted(trace_dir.glob("selection_*.csv"))
        assert len(files) == 16
        assert main(["evaluate", "--matrix", f"{out}/matrix.csv",
                     "--select-dir", out, "--out", out]) == 0
        summary = read_json(trace_dir / "evaluation_summary.json")
        assert len(summary) == 16

    def test_report_grid_rows(self, trace_dir):
        out = str(trace_dir)
        assert main(["report", "--matrix", f"{out}/matrix.csv", "--size", "6",
                     "--out", out]) == 0
        rows = read_csv(trace_dir / "grid_summary.csv")
        assert len(rows) == 17  # header + 4 methods x 4 windows
        summary = read_json(trace_dir / "grid_summary.json")
        assert len(summary) == 16
        for key, entry in summary.items():
            assert entry["shortfall_hours"] >= 0
            if key.startswith("gm11:"):
                assert entry["gm11_fallbacks"] > 0  # L=1 windows are all fallbacks
            else:
                assert entry["gm11_fallbacks"] == 0

    def test_report_counters_match_library_runs(self, trace_dir):
        out = str(trace_dir)
        assert main(["report", "--matrix", f"{out}/matrix.csv", "--size", "6",
                     "--out", out]) == 0
        summary = read_json(trace_dir / "grid_summary.json")
        m = load_matrix(trace_dir / "matrix.csv")
        profile = compute_core_profile(m)
        for window in (1, 24):
            run = run_selection(m, profile, SelectorConfig("gm11", window, 6))
            entry = summary[f"gm11:L{window}:K6"]
            assert entry["gm11_fallbacks"] == run.gm11_fallbacks
            assert entry["shortfall_hours"] == int(run.shortfall.sum())
        # evaluate writes the same per-config payload, less the fallbacks
        assert main(["select", "--matrix", f"{out}/matrix.csv", "--grid", "--size", "6",
                     "--out", f"{out}/grid"]) == 0
        assert main(["evaluate", "--matrix", f"{out}/matrix.csv", "--select-dir",
                     f"{out}/grid", "--out", f"{out}/grid"]) == 0
        evaluated = read_json(trace_dir / "grid" / "evaluation_summary.json")
        assert evaluated == {
            key: {k: v for k, v in entry.items() if k != "gm11_fallbacks"}
            for key, entry in summary.items()
        }

    @pytest.mark.parametrize("mode", [["--grid"], ["--config", "selectors.json"]])
    def test_window_without_method_is_usage_error(self, trace_dir, capsys, mode):
        out = trace_dir / "select"
        (trace_dir / "selectors.json").write_text('[{"method": "gm11", "window": 6}]')
        mode = [str(trace_dir / arg) if arg.endswith(".json") else arg for arg in mode]
        assert main(["select", "--matrix", f"{trace_dir}/matrix.csv", *mode, "--window", "5",
                     "--out", str(out)]) == 1
        assert f"--window has no effect with {mode[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_method_alone_defaults_to_one_hour_window(self, trace_dir):
        out = str(trace_dir)
        assert main(["select", "--matrix", f"{out}/matrix.csv", "--method", "core_presence",
                     "--size", "4", "--out", out]) == 0
        assert (trace_dir / "selection_core_presence_L1.csv").exists()

    def test_config_json(self, trace_dir):
        out = str(trace_dir)
        cfg = trace_dir / "selectors.json"
        cfg.write_text(json.dumps([
            {"method": "core_volume", "window": 4, "size": 5},
            {"method": "gm11", "window": 6},
        ]))
        assert main(["select", "--matrix", f"{out}/matrix.csv",
                     "--config", str(cfg), "--out", out]) == 0
        assert (trace_dir / "selection_core_volume_L4.csv").exists()
        assert (trace_dir / "selection_gm11_L6.csv").exists()

    def test_config_size_flag_only_fills_missing_sizes(self, tmp_path, trace_dir, capsys):
        """With --config, --size is only the default of entries without a
        size: a bad one is refused through such an entry, else unused."""
        cfg, out = tmp_path / "selectors.json", tmp_path / "select"
        argv = ["select", "--matrix", f"{trace_dir}/matrix.csv", "--config", str(cfg),
                "--size", "0", "--out", str(out)]
        cfg.write_text(json.dumps([{"method": "gm11", "window": 6, "size": 5}]))
        assert main(argv) == 0
        assert (out / "selection_gm11_L6.csv").exists()
        cfg.write_text(json.dumps([{"method": "gm11", "window": 6, "size": 5},
                                   {"method": "core_volume", "window": 4}]))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'window': 4}: size must be >= 1, got 0" in err

    def test_config_entries_writing_one_file_rejected(self, tmp_path, trace_dir, capsys):
        cfg = tmp_path / "selectors.json"
        cfg.write_text(json.dumps([
            {"method": "core_volume", "window": 2},
            {"method": "mean_volume", "window": 4, "size": 3},
            {"method": "mean_volume", "window": 4, "size": 8},
        ]))
        out = tmp_path / "select"
        assert main(["select", "--matrix", f"{trace_dir}/matrix.csv",
                     "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'size': 3" in err and "'size': 8" in err
        assert "selection_mean_volume_L4.csv" in err
        assert not out.exists()

    @pytest.mark.parametrize("entries, named", [
        ({"method": "gm11", "window": 6}, "expected a JSON list of selector objects"),
        ([{"method": "gm11", "window": 6}, "gm11"], "entry 'gm11' is not an object"),
        ([{"method": "gm11", "window": None}], "window must be a JSON integer, got null"),
        ([{"method": "gm11", "window": 1.7}], "window must be a JSON integer, got 1.7"),
        ([{"method": "gm11", "window": 2, "size": True}],
         "size must be a JSON integer, got true"),
        ([{"method": "gm11"}], "window must be a JSON integer, got null"),
        ([{"method": "gm12", "window": 2}], "unknown method 'gm12'"),
        ([{"method": "gm11", "window": 0}], "window must be >= 1"),
        ('[{"method": "gm11", "window": 6}', "not valid JSON: Expecting ',' delimiter"),
        ("[]", "expected a JSON list of selector objects, got []"),
    ], ids=["object", "entry not an object", "null window", "float window", "bool size",
            "no window", "unknown method", "window 0", "not JSON", "empty list"])
    def test_bad_config_rejected(self, tmp_path, trace_dir, capsys, entries, named):
        cfg = tmp_path / "selectors.json"
        cfg.write_text(entries if isinstance(entries, str) else json.dumps(entries))
        out = tmp_path / "select"
        assert main(["select", "--matrix", f"{trace_dir}/matrix.csv",
                     "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and named in err
        if isinstance(entries, list):
            assert repr(entries[-1]) in err
        assert not out.exists()

    @pytest.mark.parametrize("method", METHODS)
    def test_selection_csv_round_trip(self, tmp_path, method):
        rng = np.random.default_rng(8)
        values = rng.integers(1, 1000, size=(12, 30)) * (rng.random((12, 30)) < 0.5)
        m = HourlyTraceMatrix(
            TimeGrid(start=0, bin_count=30), [synthetic_prefix(k + 1) for k in range(12)], values
        )
        profile = compute_core_profile(m)
        for window in WINDOW_GRID:
            run = run_selection(m, profile, SelectorConfig(method, window, 6))
            save_selection(run, tmp_path / "selection.csv")
            back = load_selection(tmp_path / "selection.csv", m, profile.threshold)
            assert back.config == run.config
            assert back.hours.tolist() == run.hours.tolist()
            assert [p.tolist() for p in back.picks] == [p.tolist() for p in run.picks]
            assert [s.tolist() for s in back.scores] == [s.tolist() for s in run.scores]
            assert back.warmup.tolist() == run.warmup.tolist()
            assert back.shortfall.tolist() == run.shortfall.tolist()
            assert run.shortfall.any() and not run.shortfall.all()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 8), st.integers(2, 12)),
        method=st.sampled_from(METHODS),
        window=st.integers(1, 12),
        size=st.integers(1, 8),
    )
    def test_selection_csv_round_trip_property(
        self, tmp_path_factory, seed, shape, method, window, size
    ):
        rng = np.random.default_rng(seed)
        values = rng.lognormal(10.0, 3.0, size=shape) * (rng.random(shape) < 0.6)
        values = np.round(values).astype(np.int64)
        values[0, 0] += 1
        m = HourlyTraceMatrix(
            TimeGrid(start=0, bin_count=shape[1]),
            [synthetic_prefix(k + 1) for k in range(shape[0])],
            values,
        )
        profile = compute_core_profile(m)
        run = run_selection(m, profile, SelectorConfig(method, window, size))
        path = tmp_path_factory.mktemp("select") / "selection.csv"
        save_selection(run, path)
        back = load_selection(path, m, profile.threshold)
        assert back.config == run.config
        assert back.hours.tolist() == run.hours.tolist()
        assert (back.mask == run.mask).all()
        assert back.picked_scores.tobytes() == run.picked_scores.tobytes()
        assert [p.tolist() for p in back.picks] == [p.tolist() for p in run.picks]
        assert [s.tobytes() for s in back.scores] == [s.tobytes() for s in run.scores]

    @pytest.mark.parametrize("rows, named", [
        (("2,1,10.0.0.0/24,4.0", "2,2,10.0.1.0/24,5.0"), "10.0.0.0/24 has rank 1"),
        (("2,1,10.0.1.0/24,5.0", "2,2,10.0.0.0/24,5.0"), "10.0.1.0/24 has rank 1"),
    ], ids=["score ascending", "tie out of text order"])
    def test_selection_ranks_out_of_order_rejected(self, trace_dir, capsys, rows, named):
        path = trace_dir / "selection_mean_volume_L1.csv"
        path.write_text("hour,rank,prefix,score,method,L,K\n"
                        + "".join(f"{row},mean_volume,1,2\n" for row in rows))
        out = trace_dir / "evaluate"
        assert main(["evaluate", "--matrix", f"{trace_dir}/matrix.csv",
                     "--selection", str(path), "--out", str(out)]) == 2
        assert (f"{path}: line 2: hour 2: {named}, but (score desc, prefix text asc) ranks it 2"
                in capsys.readouterr().err)
        assert not (out / "evaluation_summary.json").exists()

    def test_two_inputs_writing_one_report_rejected(self, trace_dir, capsys):
        # the report file name carries method and L, not K
        paths = []
        for size in (3, 4):
            sub = trace_dir / f"K{size}"
            assert main(["select", "--matrix", f"{trace_dir}/matrix.csv", "--method",
                         "mean_volume", "--window", "2", "--size", str(size),
                         "--out", str(sub)]) == 0
            paths.append(sub / "selection_mean_volume_L2.csv")
        out = trace_dir / "evaluate"
        assert main(["evaluate", "--matrix", f"{trace_dir}/matrix.csv", "--selection",
                     str(paths[0]), "--selection", str(paths[1]), "--out", str(out)]) == 2
        assert (f"{paths[0]} and {paths[1]} both write report_mean_volume_L2.csv"
                in capsys.readouterr().err)
        assert not (out / "evaluation_summary.json").exists()

    @pytest.mark.parametrize("command", [["select", "--method", "mean_volume"], ["report"]])
    def test_refused_run_leaves_no_out(self, tmp_path, capsys, command):
        main(["synth", "--prefixes", "5", "--bins", "1", "--out", str(tmp_path)])
        out = tmp_path / "stage"
        assert main([command[0], "--matrix", f"{tmp_path}/matrix.csv", *command[1:],
                     "--out", str(out)]) == 2
        assert "need at least 2 bins" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("make", [None, Path.mkdir], ids=["missing", "empty"])
    def test_select_dir_without_selections_is_data_error(self, trace_dir, capsys, make):
        select_dir = trace_dir / "select"
        if make:
            make(select_dir)
            (select_dir / "selection_notes.txt").write_text("not a selection\n")
        out = trace_dir / "evaluate"
        assert main(["evaluate", "--matrix", f"{trace_dir}/matrix.csv",
                     "--select-dir", str(select_dir), "--out", str(out)]) == 2
        assert f"error: no selection_*.csv in {select_dir}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("inputs", [["unknown"], ["good", "unknown"], []],
                             ids=["refused selection", "second selection refused", "no input"])
    def test_refused_evaluate_writes_nothing(self, trace_dir, capsys, inputs):
        """evaluate reads every selection before it creates --out: a refused
        input, or none, leaves no directory and no first file's report."""
        assert main(["select", "--matrix", f"{trace_dir}/matrix.csv", "--method",
                     "mean_volume", "--out", str(trace_dir)]) == 0
        capsys.readouterr()
        good = trace_dir / "selection_mean_volume_L1.csv"
        # another configuration's file, whose first pick the matrix does not hold
        unknown = trace_dir / "selection_core_volume_L1.csv"
        unknown.write_text(good.read_text().replace("mean_volume", "core_volume")
                           .replace(",10.0.", ",192.0.", 1))
        paths = {"good": good, "unknown": unknown}
        out = trace_dir / "evaluate"
        code = main(["evaluate", "--matrix", f"{trace_dir}/matrix.csv",
                     *(arg for name in inputs for arg in ("--selection", str(paths[name]))),
                     "--out", str(out)])
        assert code == (2 if inputs else 1)
        written = capsys.readouterr()
        assert written.out == ""
        assert ("not in matrix" if inputs else "no selection inputs") in written.err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["prefix written two ways", "a prefix twice in two hours",
                                      "a pick written three times", "mixed configurations",
                                      "L changed on the last row", "L written 02 on one row",
                                      "every L unparsable",
                                      "every method unknown", "every L 0", "every K 0",
                                      "unknown prefix", "hour outside the grid"])
    def test_bad_selection_rows_rejected(self, trace_dir, capsys, case):
        out = str(trace_dir)
        assert main(["select", "--matrix", f"{out}/matrix.csv", "--method", "mean_volume",
                     "--window", "2", "--size", "3", "--out", out]) == 0
        path = trace_dir / "selection_mean_volume_L2.csv"
        rows = read_csv(path)
        if case == "prefix written two ways":
            # the hour-2 rank-1 prefix again as rank 4 of hour 2, its mask as a netmask
            twin = rows[1][2].replace("/24", "/255.255.255.0")
            rows.insert(4, [rows[1][0], "4", twin] + rows[1][3:])
            named = [f"line 5: duplicate prefix {rows[1][2]} in hour 2, first on line 2"]
        elif case == "a prefix twice in two hours":
            # a later hour's repeat comes first in the file, the first hour's last
            rows.insert(5, list(rows[4]))
            rows.append(list(rows[1]))
            named = [f"line 6: duplicate prefix {rows[4][2]} in hour {rows[4][0]}, "
                     "first on line 5"]
        elif case == "a pick written three times":
            # one pick on lines 3, 50 and 61 (where an unstable sort of the
            # picks can pair the last two): refused at its second line
            pick = rows[2]
            rows.insert(49, list(pick))
            rows.insert(60, list(pick))
            named = [f"line 50: duplicate prefix {pick[2]} in hour {pick[0]}, first on line 3"]
        elif case == "mixed configurations":
            rows[5][6] = "4"
            named = ["line 6: mixed selector configurations"]
        elif case == "L changed on the last row":
            rows[-1][5] = "3"
            named = [f"line {len(rows)}: mixed selector configurations"]
        elif case == "L written 02 on one row":
            # the same L as every other row, but not the text select writes
            rows[3][5] = "02"
            named = ["line 4: mixed selector configurations"]
        elif case == "every L unparsable":
            for row in rows[1:]:
                row[5] = "x"
            named = ["line 2: ", "'x'"]
        elif case.startswith("every "):
            # the column and the value every row holds there, and the message naming it
            col, value, text = {
                "every method unknown": (4, "gm12", "unknown method 'gm12'"),
                "every L 0": (5, "0", "window must be >= 1, got 0"),
                "every K 0": (6, "0", "size must be >= 1, got 0"),
            }[case]
            for row in rows[1:]:
                row[col] = value
            named = ["line 2: ", text]
        elif case == "unknown prefix":
            rows[5][2] = "192.0.2.0/24"
            named = ["line 6: prefix 192.0.2.0/24 not in matrix"]
        else:
            rows[5][0] = "25"
            named = ["line 6: hour 25 outside the matrix grid"]
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        assert main(["evaluate", "--matrix", f"{out}/matrix.csv",
                     "--selection", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and all(text in err for text in named)
        assert not (trace_dir / "evaluation_summary.json").exists()

    @pytest.mark.parametrize("size, picks, message", [
        (1, [(2, "0"), (2, "0"), (3, "-7")], "line 3: hour 2: more than K=1 picks"),
        (3, [(2, "1"), (2, "3"), (3, "1")], "line 3: hour 2: 10.0.1.0/24 has rank 3, but "
                                            "(score desc, prefix text asc) ranks it 2"),
        (3, [(2, "1"), (3, "1"), (3, "1")], "line 4: hour 3: 10.0.2.0/24 has rank 1, but "
                                            "(score desc, prefix text asc) ranks it 2"),
        (1, [(2, "1"), (3, "1"), (3, "2")], "line 4: hour 3: more than K=1 picks"),
        (3, [(2, "1"), (2, str(2**70))],
         f"line 3: invalid literal for rank: '{2**70}' is not a plain decimal int64"),
    ], ids=["ranked 0 0 and -7 for K=1", "gap", "repeat", "more than K", "beyond int64"])
    def test_bad_ranks_rejected(self, trace_dir, capsys, size, picks, message):
        out = str(trace_dir)
        path = trace_dir / "selection_mean_volume_L1.csv"
        path.write_text("hour,rank,prefix,score,method,L,K\n" + "".join(
            f"{h},{rank},10.0.{k}.0/24,5.0,mean_volume,1,{size}\n"
            for k, (h, rank) in enumerate(picks)
        ))
        assert main(["evaluate", "--matrix", f"{out}/matrix.csv",
                     "--selection", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert not (trace_dir / "evaluation_summary.json").exists()

    @pytest.mark.parametrize("threshold", ["nan", "7", "0", "inf"])
    def test_evaluate_threshold_outside_unit_interval_rejected(self, trace_dir, capsys, threshold):
        out = str(trace_dir)
        assert main(["select", "--matrix", f"{out}/matrix.csv", "--method", "mean_volume",
                     "--out", out]) == 0
        assert main(["evaluate", "--matrix", f"{out}/matrix.csv", "--select-dir", out,
                     "--threshold", threshold, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "threshold must be in (0, 1]" in err and "Traceback" not in err
        assert not (trace_dir / "evaluation_summary.json").exists()

    def test_missing_selection_names_stage(self, trace_dir, capsys):
        out = str(trace_dir)
        assert main(["evaluate", "--matrix", f"{out}/matrix.csv",
                     "--selection", f"{out}/selection_nope.csv", "--out", out]) == 2
        assert "select stage" in capsys.readouterr().err

    def test_selection_from_other_matrix_rejected(self, trace_dir, capsys):
        out = str(trace_dir)
        stale = trace_dir / "selection_mean_volume_L1.csv"
        stale.write_text(
            "hour,rank,prefix,score,method,L,K\n"
            "99,1,10.0.0.0/24,5.0,mean_volume,1,3\n"
        )
        assert main(["evaluate", "--matrix", f"{out}/matrix.csv",
                     "--selection", str(stale), "--out", out]) == 2
        assert "different matrix" in capsys.readouterr().err

    def test_duplicate_selection_row_rejected(self, trace_dir, capsys):
        out = str(trace_dir)
        assert main(["select", "--matrix", f"{out}/matrix.csv", "--method", "mean_volume",
                     "--window", "2", "--size", "3", "--out", out]) == 0
        path = trace_dir / "selection_mean_volume_L2.csv"
        rows = read_csv(path)
        # the hour-2 rank-1 prefix again, as rank 4 of the same hour
        rows.insert(4, [rows[1][0], "4"] + rows[1][2:])
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        assert main(["evaluate", "--matrix", f"{out}/matrix.csv",
                     "--selection", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert "duplicate" in err and rows[1][2] in err
        assert not (trace_dir / "evaluation_summary.json").exists()

    @settings(max_examples=80, deadline=None)
    @given(
        method=st.sampled_from(METHODS),
        window=st.integers(1, 168),
        size=st.integers(1, 6),
        hours=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 4),
                    st.one_of(
                        st.sampled_from([5.0, 0.1, 1e-300, 1e22, -0.0]),
                        st.integers(2**53 + 1, 2**80).map(float),
                        st.floats(),
                    ),
                ),
                max_size=5, unique_by=lambda pick: pick[0],
            ),
            min_size=1, max_size=6,
        ),
    )
    @example(method="mean_volume", window=1, size=3, hours=[[(0, 0.0), (1, -0.0), (2, 5.0)]])
    @example(method="gm11", window=4, size=2, hours=[[(3, 1.0), (0, float("nan"))], [(2, 0.5)]])
    def test_selection_bytes_match_csv_writer(
        self, tmp_path_factory, method, window, size, hours
    ):
        prefixes = (*(synthetic_prefix(k) for k in (1, 2, 300)),
                    Prefix.parse("2001:db8::/32"), Prefix.parse("::/0"))
        run = selection_run(SelectorConfig(method, window, size), prefixes, hours)
        out = tmp_path_factory.mktemp("select")
        csv_writer_selection(out / "oracle.csv", run)
        save_selection(run, out / "selection.csv")
        assert (out / "selection.csv").read_bytes() == (out / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("edit", ["drop the score", "add a field"])
    def test_selection_row_of_wrong_width_rejected(self, trace_dir, capsys, edit):
        out = str(trace_dir)
        assert main(["select", "--matrix", f"{out}/matrix.csv", "--method", "mean_volume",
                     "--window", "2", "--size", "3", "--out", out]) == 0
        path = trace_dir / "selection_mean_volume_L2.csv"
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[3].rstrip("\n").split(",")
        fields = fields[:3] + fields[4:] if edit == "drop the score" else fields + ["x"]
        lines[3] = ",".join(fields) + "\n"
        path.write_text("".join(lines))
        assert main(["evaluate", "--matrix", f"{out}/matrix.csv",
                     "--selection", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 4: bad row {fields!r}" in err
        assert not (trace_dir / "evaluation_summary.json").exists()

    @pytest.mark.parametrize("column", SELECTION_HEADER)
    def test_quoted_selection_field_rejected(self, trace_dir, capsys, column):
        # rows are unquoted, as matrix rows are: a quoted field is not unquoted
        out = str(trace_dir)
        assert main(["select", "--matrix", f"{out}/matrix.csv", "--method", "mean_volume",
                     "--window", "2", "--size", "3", "--out", out]) == 0
        path = trace_dir / "selection_mean_volume_L2.csv"
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[4].rstrip("\n").split(",")
        pos = SELECTION_HEADER.index(column)
        fields[pos] = f'"{fields[pos]}"'
        lines[4] = ",".join(fields) + "\n"
        path.write_text("".join(lines))
        assert main(["evaluate", "--matrix", f"{out}/matrix.csv",
                     "--selection", str(path), "--out", out]) == 2
        assert f"{path}: line 5: " in capsys.readouterr().err
        assert not (trace_dir / "evaluation_summary.json").exists()

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "1e999", "NaN", "0.0", "-0.0", "-5.0"])
    def test_non_finite_selection_score_rejected(self, trace_dir, capsys, score):
        out = str(trace_dir)
        assert main(["select", "--matrix", f"{out}/matrix.csv", "--method", "mean_volume",
                     "--window", "2", "--size", "3", "--out", out]) == 0
        path = trace_dir / "selection_mean_volume_L2.csv"
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[5].split(",")
        fields[3] = score
        lines[5] = ",".join(fields)
        path.write_text("".join(lines))
        assert main(["evaluate", "--matrix", f"{out}/matrix.csv",
                     "--selection", str(path), "--out", out]) == 2
        assert f"{path}: line 6: score {score!r} is not finite" in capsys.readouterr().err
        assert not (trace_dir / "evaluation_summary.json").exists()

    @pytest.mark.parametrize("rewrite", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\n\n") + "\n",
        lambda text: text.rstrip("\n"),
    ], ids=["CRLF", "blank lines", "no final newline"])
    def test_selection_line_endings_read_as_plain(self, trace_dir, rewrite):
        m = load_matrix(trace_dir / "matrix.csv")
        run = run_selection(m, compute_core_profile(m), SelectorConfig("core_volume", 2, 4))
        path = trace_dir / "selection.csv"
        save_selection(run, path)
        plain = load_selection(path, m, 0.95)
        path.write_bytes(rewrite(path.read_text()).encode())
        back = load_selection(path, m, 0.95)
        assert back.config == plain.config
        assert [p.tolist() for p in back.picks] == [p.tolist() for p in plain.picks]
        assert [s.tobytes() for s in back.scores] == [s.tobytes() for s in plain.scores]

    def test_non_canonical_prefix_text_resolves_to_its_row(self, trace_dir):
        m = load_matrix(trace_dir / "matrix.csv")
        path = trace_dir / "selection_mean_volume_L1.csv"
        path.write_text(
            "hour,rank,prefix,score,method,L,K\n"
            "2,1,10.0.0.0/24,5.0,mean_volume,1,2\n"
            "2,2,10.0.1.0/255.255.255.0,4.0,mean_volume,1,2\n"
        )
        run = load_selection(path, m, 0.95)
        rows = [m.index_of(Prefix.parse(t)) for t in ("10.0.0.0/24", "10.0.1.0/24")]
        assert [p.tolist() for p in run.picks] == [rows] + [[]] * (m.bin_count - 2)

    def test_selection_columns_read_as_the_benchmark_reads_them(self, trace_dir):
        # csv.DictReader is how perfbench/checks.py reads a selection file
        out = str(trace_dir)
        assert main(["select", "--matrix", f"{out}/matrix.csv", "--grid", "--size", "5",
                     "--out", out]) == 0
        m = load_matrix(trace_dir / "matrix.csv")
        for path in sorted(trace_dir.glob("selection_*.csv")):
            with open(path, newline="") as fh:
                rows = [
                    (int(r["hour"]), int(r["rank"]), r["prefix"], float(r["score"]),
                     r["method"], int(r["L"]), int(r["K"]))
                    for r in csv.DictReader(fh)
                ]
            run = load_selection(path, m, 0.95)
            cfg = run.config
            assert rows == [
                (hour, rank, m.prefixes[i].text, score, cfg.method, cfg.window, cfg.size)
                for hour, picks, scores in zip(run.hours.tolist(), run.picks, run.scores)
                for rank, (i, score) in enumerate(zip(picks.tolist(), scores.tolist()), 1)
            ]

    @pytest.mark.xfail(strict=True, reason="a selection CSV with no row cannot carry its method, "
                       "L and K; the run's sidecar file (ROADMAP item 2) can")
    def test_evaluate_reads_a_grid_run_that_picked_nothing(self, tmp_path):
        # the one window with traffic fits, but its GM(1,1) forecast clamps to 0,
        # so the gm11 L12, L24 and L168 runs pick no prefix in any hour
        matrix = write_int_matrix(tmp_path, ["10.0.0.0/8,0,0,0,0,0,0,99,0"])
        out = tmp_path / "select"
        assert main(["select", "--matrix", str(matrix), "--grid", "--out", str(out)]) == 0
        assert read_csv(out / "selection_gm11_L24.csv") == [SELECTION_HEADER]
        assert main(["evaluate", "--matrix", str(matrix), "--select-dir", str(out),
                     "--out", str(tmp_path / "evaluate")]) == 0


class TestProbeSimulate:
    def test_base_rtts_share_no_draw_with_the_generator(self, tmp_path):
        # without noise or loss, round 0's RTTs are the base RTTs, in pair order
        assert main(["probe-synth", "--prefix-count", "5", "--transits", "3", "--noise-std", "0",
                     "--duration", "2000", "--seed", "5", "--out", str(tmp_path)]) == 0
        log = load_probe_log(tmp_path / "probes.csv")
        base = log.cube[0].ravel()
        # the generator's own stream starts with the round gaps
        reused = 20.0 + 60.0 * np.random.default_rng(5).random(base.size)
        assert not np.isclose(base, reused).any()
        child = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
        assert base.tolist() == child.uniform(20.0, 80.0, base.size).tolist()

    def test_single_transit_np_is_all_ones(self, tmp_path):
        out = str(tmp_path)
        assert main(["probe-synth", "--prefix-count", "4", "--transits", "1",
                     "--duration", "2000", "--seed", "2", "--out", out]) == 0
        assert main(["simulate", "--probes", f"{out}/probes.csv", "--out", out]) == 0
        rows = read_csv(tmp_path / "np.csv")
        assert rows[0] == ["tick", "transit", "np", "included_prefixes"]
        t1_values = {r[2] for r in rows[1:] if r[1] == "T1"}
        assert t1_values == {"1.0"}

    def test_dynamic_included_and_summary_ordered(self, tmp_path):
        out = str(tmp_path)
        assert main(["probe-synth", "--prefix-count", "6", "--transits", "3",
                     "--duration", "5000", "--noise-std", "2", "--seed", "4",
                     "--out", out]) == 0
        assert main(["simulate", "--probes", f"{out}/probes.csv", "--seed", "4",
                     "--out", out]) == 0
        summary = read_json(tmp_path / "np_summary.json")
        assert "dynamic" in summary["order"]
        means = [summary["transits"][label]["mean"] for label in summary["order"]]
        assert means == sorted(means)

    def test_summary_counts_dynamic_exclusions(self, tmp_path):
        out = str(tmp_path)
        assert main(["probe-synth", "--prefix-count", "8", "--transits", "3", "--loss", "0.3",
                     "--duration", "6000", "--seed", "3", "--out", out]) == 0
        assert main(["simulate", "--probes", f"{out}/probes.csv", "--seed", "3",
                     "--out", out]) == 0
        result = simulate_dynamic_selection(load_probe_log(tmp_path / "probes.csv"), seed=3)
        summary = read_json(tmp_path / "np_summary.json")
        assert summary["dynamic_excluded_missing"] == sum(result.excluded_missing) > 0
        assert main(["simulate", "--probes", f"{out}/probes.csv", "--no-dynamic",
                     "--out", out]) == 0
        assert "dynamic_excluded_missing" not in read_json(tmp_path / "np_summary.json")

    @pytest.mark.parametrize("flags, named", [
        (["--interval", "nan"], "mean_interval"),
        (["--interval", "inf"], "mean_interval"),
        (["--rtt-low", "nan"], "--rtt-low"),
        (["--rtt-high", "nan"], "--rtt-high"),
        (["--rtt-high", "inf"], "--rtt-high"),
        (["--noise-std", "nan"], "noise_std"),
        (["--noise-std", "inf"], "noise_std"),
        (["--regime", "T1:0:3:nan"], "multiplier"),
        (["--prefix-count", "0"], "--prefix-count"),
        (["--prefix-count", "70000"], "--prefix-count"),
        (["--transits", "0"], "--transits"),
    ])
    def test_non_finite_probe_synth_parameter_is_data_error(self, tmp_path, capsys, flags, named):
        out = tmp_path / "stage"
        assert main(["probe-synth", "--prefix-count", "3", "--duration", "2000", *flags,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{named} must be" in err and "Traceback" not in err
        assert not (out / "probes.csv").exists()

    @pytest.mark.parametrize("low, high", [("50", "10"), ("0", "0"), ("-5", "10")],
                             ids=["low above high", "zero", "negative low"])
    def test_rtt_bounds_refusal_names_both_flags(self, tmp_path, capsys, low, high):
        out = tmp_path / "stage"
        assert main(["probe-synth", "--rtt-low", low, "--rtt-high", high,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: --rtt-low {float(low)} --rtt-high "
                                           f"{float(high)}: base RTTs need 0 < low <= high\n")
        assert not out.exists()

    def test_unbounded_round_count_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "stage"
        assert main(["probe-synth", "--prefix-count", "1", "--transits", "1",
                     "--duration", "1e12", "--interval", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "probing rounds" in err and "Traceback" not in err
        assert not (out / "probes.csv").exists()

    def test_regime_on_unknown_transit_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "stage"
        assert main(["probe-synth", "--prefix-count", "2", "--transits", "2",
                     "--duration", "1000", "--regime", "T9:0:3:2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "regime switch transit 'T9' is not one of the transits ['T1', 'T2']" in err
        assert not (out / "probes.csv").exists()

    def test_probe_count_is_capped_before_any_draw(self, tmp_path, capsys):
        # 952k rounds pass MAX_PROBE_ROUNDS, but x 1200 pairs are 1.1e9 probes
        out = tmp_path / "stage"
        tracemalloc.start()
        try:
            code = main(["probe-synth", "--prefix-count", "300", "--transits", "4",
                         "--duration", "1e6", "--interval", "1.5", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert f"more than {MAX_PROBES} probes" in err and "Traceback" not in err
        assert peak < 2**22  # the round gaps alone would take 7.6 MB
        assert not (out / "probes.csv").exists()

    @pytest.mark.parametrize("row, named", [
        ('0,"10.0.0.0/24",T1,10.5', "line 3: bad row"),
        ("0,10.0.0.0/24,,10.5", "transit label ''"),
    ], ids=["quoted field", "empty label"])
    def test_quoted_row_or_unreadable_label_is_data_error(self, tmp_path, capsys, row, named):
        probes = tmp_path / "probes.csv"
        probes.write_text(f"tick,prefix,transit,rtt_ms\n0,10.0.0.0/24,T2,10.5\n{row}\n")
        assert main(["simulate", "--probes", str(probes), "--out", str(tmp_path / "out")]) == 2
        assert f"{probes}: {named}" in capsys.readouterr().err

    def test_missing_probes_names_stage(self, tmp_path, capsys):
        assert main(["simulate", "--probes", f"{tmp_path}/probes.csv",
                     "--out", str(tmp_path)]) == 2
        assert "probe-synth" in capsys.readouterr().err

    def test_all_loss_log_is_data_error(self, tmp_path, capsys):
        probes = tmp_path / "probes.csv"
        probes.write_text(
            "tick,prefix,transit,rtt_ms\n0,10.0.0.0/24,T1,\n1,10.0.0.0/24,T1,\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", "--probes", str(probes), "--out", str(out)]) == 2
        assert "usable RTT" in capsys.readouterr().err
        assert not out.exists()  # ranked before anything is written

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e999", "0", "-3.5"])
    def test_non_finite_or_non_positive_rtt_is_data_error(self, tmp_path, capsys, bad):
        probes = tmp_path / "probes.csv"
        probes.write_text(
            "tick,prefix,transit,rtt_ms\n"
            "0,10.0.0.0/24,T1,10.5\n"
            f"0,10.0.0.0/24,T2,{bad}\n"
            "1,10.0.0.0/24,T1,11.0\n"
            "1,10.0.0.0/24,T2,12.0\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", "--probes", str(probes), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "rtt_ms" in err and repr(bad) in err
        assert not (out / "np.csv").exists()

    def probe_synth(self, out):
        assert main(["probe-synth", "--prefix-count", "4", "--transits", "3",
                     "--duration", "3000", "--seed", "6", "--out", str(out)]) == 0
        return read_json(out / "probe_meta.json")

    def test_log_is_read_once_even_on_mismatched_meta(self, tmp_path, monkeypatch):
        from prefixcast import rttsim

        meta = self.probe_synth(tmp_path)
        reads = []
        load = rttsim.load_probe_log
        monkeypatch.setattr(rttsim, "load_probe_log", lambda path: reads.append(path) or load(path))
        argv = ["simulate", "--probes", f"{tmp_path}/probes.csv", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        meta.update(ticks=meta["ticks"] - 1, tick_times=meta["tick_times"][1:])
        (tmp_path / "probe_meta.json").write_text(json.dumps(meta))
        assert main(argv) == 2
        assert len(reads) == 2

    @pytest.mark.parametrize("edit, named", [
        (lambda meta: meta.update(transits=["T1", "T2", "T9"]), "transits"),
        (lambda meta: meta.update(prefix_count=5), "prefix_count"),
        # one round fewer, with one start time fewer
        (lambda meta: meta.update(ticks=meta["ticks"] - 1, tick_times=meta["tick_times"][1:]),
         "tick_times"),
        (lambda meta: meta["tick_times"].pop(), "tick_times"),
        (lambda meta: meta["tick_times"].__setitem__(1, "later"), "tick_times"),
        (lambda meta: meta["tick_times"].__setitem__(1, float("nan")), "tick_times"),
    ])
    def test_meta_disagreeing_with_log_is_data_error(self, tmp_path, capsys, edit, named):
        meta = self.probe_synth(tmp_path)
        edit(meta)
        (tmp_path / "probe_meta.json").write_text(json.dumps(meta))
        out = tmp_path / "out"
        assert main(["simulate", "--probes", f"{tmp_path}/probes.csv", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "probe_meta.json" in err
        assert not (out / "np.csv").exists()


@pytest.mark.parametrize("sidecar, edit, named", [
    ("matrix.json", lambda meta: [1, 2], "expected a JSON object, got [1, 2]"),
    ("matrix.json", lambda meta: {**meta, "start": None}, "start must be a JSON integer, got null"),
    ("matrix.json", lambda meta: {**meta, "bin_count": 3.7},
     "bin_count must be a JSON integer, got 3.7"),
    ("matrix.json", lambda meta: {**meta, "bin_seconds": True},
     "bin_seconds must be a JSON integer, got true"),
    ("matrix.json", lambda meta: {**meta, "bin_seconds": 300},
     "bin_seconds is 300, but every grid bins by the hour (3600)"),
    ("matrix.json", lambda meta: {k: v for k, v in meta.items() if k != "bin_count"},
     "bin_count must be a JSON integer, got null"),
    ("probe_meta.json", lambda meta: [1], "expected a JSON object, got [1]"),
    ("probe_meta.json", lambda meta: {**meta, "ticks": float(meta["ticks"])},
     "ticks must be a JSON integer"),
    ("probe_meta.json", lambda meta: {**meta, "prefix_count": True},
     "prefix_count must be a JSON integer, got true"),
    ("matrix.json", lambda meta: '{"start": 0,', "not valid JSON: Expecting property name"),
    ("probe_meta.json", lambda meta: '{"ticks": 13', "not valid JSON: Expecting ',' delimiter"),
    ("probe_meta.json", lambda meta: {**meta, "tick_times": [True, *meta["tick_times"][1:]]},
     "tick_times must give one finite start time to each of the 13 probing rounds"),
])
def test_sidecar_not_an_object_or_not_integer_is_data_error(tmp_path, capsys, sidecar, edit, named):
    if sidecar == "matrix.json":
        path = write_int_matrix(tmp_path, ["10.0.0.0/24,1,2,3", "10.0.1.0/24,5,4,3"])
        argv = ["analyze", "--matrix", str(path)]
    else:
        assert main(["probe-synth", "--prefix-count", "4", "--duration", "3000",
                     "--out", str(tmp_path)]) == 0
        argv = ["simulate", "--probes", str(tmp_path / "probes.csv")]
    meta = edit(read_json(tmp_path / sidecar))
    (tmp_path / sidecar).write_text(meta if isinstance(meta, str) else json.dumps(meta))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert sidecar in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["analyze"], ["select", "--method", "mean_volume"], ["evaluate", "--selection", "s.csv"],
    ["report"],
], ids=lambda argv: argv[0])
def test_missing_matrix_sidecar_is_data_error(tmp_path, capsys, argv):
    assert main(["synth", "--prefixes", "5", "--bins", "24", "--out", str(tmp_path)]) == 0
    (tmp_path / "matrix.json").unlink()
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([argv[0], "--matrix", str(tmp_path / "matrix.csv"), *argv[1:],
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"missing matrix sidecar {tmp_path / 'matrix.json'}, which ingest and synth" in err
    assert "Errno" not in err and "Traceback" not in err
    assert not out.exists()


# ints, floats with the edge texts of repr, None, and strings csv.writer quotes
CSV_FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e22])
CSV_TEXTS = st.text(st.sampled_from(["a", "0", " ", ",", '"', "\r", "\n"]), max_size=5)
CSV_VALUES = st.integers(INT64_MIN, INT64_MAX) | CSV_FLOATS | st.none() | CSV_TEXTS


@st.composite
def csv_tables(draw):
    """A header and 2-8 equal-length columns: int64 and float64 arrays, and
    lists of ints, floats, None and strings."""
    width, rows = draw(st.integers(2, 8)), draw(st.integers(0, 6))
    cells = {
        "int64": st.integers(INT64_MIN, INT64_MAX), "float64": CSV_FLOATS, "list": CSV_VALUES,
    }
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(cells)), min_size=width, max_size=width)):
        values = draw(st.lists(cells[kind], min_size=rows, max_size=rows))
        columns.append(values if kind == "list" else np.array(values, dtype=kind))
    return draw(st.lists(CSV_TEXTS, min_size=width, max_size=width)), columns


@settings(max_examples=200, deadline=None)
@given(table=csv_tables())
@example(table=(["bin", "count"], [["[10,100]", "a\r\nb"], np.array([3, -1])]))
def test_column_writer_bytes_match_row_writer(tmp_path_factory, table):
    header, columns = table
    out = tmp_path_factory.mktemp("csv")
    write_csv_rows(out / "rows.csv", header, zip(*columns))
    _write_csv(out / "columns.csv", header, *columns)
    assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()


def test_write_json_refuses_nan_and_leaves_no_file(tmp_path):
    path = tmp_path / "summary.json"
    with pytest.raises(ValueError, match="summary.json: Out of range float"):
        write_json(path, {"ok": 1.0, "bad": float("nan")})
    assert not path.exists()


def _src_env() -> dict:
    """This environment, with the repository's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(Path(__file__).resolve().parent.parent / "src"),
                          env.get("PYTHONPATH")) if path
    )
    return env


def test_stages_leave_numpy_ma_unimported(tmp_path):
    # numpy imports numpy.ma on its first percentile, median or unique call
    env = _src_env()

    def ma_imported(code: str, *argv: str) -> bool:
        result = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()[-1] == "True"

    if ma_imported("import sys, prefixcast; print('numpy.ma' in sys.modules)"):
        pytest.skip("import prefixcast alone imports numpy.ma")
    out = str(tmp_path)
    assert main(["synth", "--prefixes", "30", "--noise", "0.4", "--bins", "24",
                 "--seed", "3", "--out", out]) == 0
    assert main(["select", "--matrix", f"{out}/matrix.csv", "--method", "mean_volume",
                 "--window", "2", "--out", out]) == 0
    assert main(["probe-synth", "--prefix-count", "5", "--transits", "3",
                 "--duration", "3000", "--loss", "0.1", "--out", out]) == 0
    stage = "import sys; from prefixcast.cli import main; " \
            "assert main(sys.argv[1:]) == 0; print('numpy.ma' in sys.modules)"
    for argv in (
        ["analyze", "--matrix", f"{out}/matrix.csv", "--out", out],
        ["evaluate", "--matrix", f"{out}/matrix.csv", "--select-dir", out, "--out", out],
        ["report", "--matrix", f"{out}/matrix.csv", "--out", out],
        ["simulate", "--probes", f"{out}/probes.csv", "--out", out],
    ):
        assert not ma_imported(stage, *argv), argv[0]


def test_package_import_leaves_the_cli_and_numpy_random_unimported():
    # every stage's set-up time includes the package import; the stages
    # that need numpy.random or the CLI import them themselves
    code = ("import sys, prefixcast; "
            "print([m for m in ('numpy.random', 'argparse', 'prefixcast.cli') "
            "if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_package_import_compiles_no_code():
    # code built from text at run time is compiled on every import; the
    # package's own source files compile only where no bytecode is cached
    code = (
        "import os, sys, numpy\n"
        "made = []\n"
        "def hook(event, args):\n"
        "    if event == 'compile' and not (isinstance(args[1], str) and os.path.isfile(args[1])):\n"
        "        made.append(args[1])\n"
        "    if event == 'exec' and getattr(args[0], 'co_filename', None) == '<string>':\n"
        "        made.append('exec <string>')\n"
        "sys.addaudithook(hook)\n"
        "import prefixcast\n"
        "print(len(made), [m for m in ('dataclasses', 'copy') if m in sys.modules])\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"


def _hand_off_matrix(directory: Path) -> HourlyTraceMatrix:
    directory.mkdir(exist_ok=True)
    write_int_matrix(directory, ["10.0.0.0/8,5,0,3", "10.1.0.0/16,0,7,1"])
    return load_matrix(directory / "matrix.csv")


# each hand-off file: its clean text (three rows), and how to read it and view the result
HAND_OFF_FILES = {
    "matrix": (
        "prefix,h1,h2,h3\n10.0.0.0/8,5,0,3\n10.1.0.0/16,0,7,1\n10.2.0.0/16,1,1,1\n",
        load_matrix,
        lambda m: ([p.text for p in m.prefixes], m.values.tolist()),
    ),
    "selection": (
        "hour,rank,prefix,score,method,L,K\n2,1,10.0.0.0/8,5.0,mean_volume,1,2\n"
        "3,1,10.1.0.0/16,7.0,mean_volume,1,2\n3,2,10.0.0.0/8,0.5,mean_volume,1,2\n",
        lambda path: load_selection(path, _hand_off_matrix(path.parent / "m"), 0.95),
        lambda run: (run.config, [p.tolist() for p in run.picks],
                     [s.tobytes() for s in run.scores]),
    ),
    "probe": (
        "tick,prefix,transit,rtt_ms\n0,10.0.0.0/8,T1,10.5\n1,10.0.0.0/8,T1,\n"
        "1,10.0.0.0/8,T2,9.25\n",
        load_probe_log,
        lambda log: (log.ticks, log.prefixes, log.transits, log.cube.tobytes()),
    ),
}


def _edit_row(text: str, edit) -> str:
    """``text`` with ``edit`` applied to its line 3, the second row."""
    lines = text.split("\n")
    lines[2] = edit(lines[2])
    return "\n".join(lines)


@pytest.mark.parametrize("rewrite, message", [
    (lambda text: text.split("\n")[0] + "\n", "no rows"),
    (lambda text: text[0].upper() + text[1:], "expected header"),
    (lambda text: _edit_row(text, lambda row: '"' + row.replace(",", '",', 1)), "line 3: bad row"),
    (lambda text: _edit_row(text, lambda row: row + ",9"), "line 3: bad row"),
    # a lone surrogate is written as the one byte 0xff
    (lambda text: _edit_row(text, lambda row: row.replace("0", "\udcff", 1)),
     "line 3: not UTF-8 text (byte 0xff)"),
    (lambda text: text.replace("\n", "\r\n\r\n").rstrip("\r\n"), None),
    (lambda text: text.replace("\n", "\r"), None),
    (lambda text: text.replace("\n", "\n\n", 2), None),
], ids=["header only", "wrong header", "quoted field", "wrong width", "not UTF-8",
        "CRLF, blank lines, no final newline", "lone CR", "blank line below the header"])
@pytest.mark.parametrize("kind", HAND_OFF_FILES)
def test_hand_off_files_share_one_row_format(tmp_path, kind, rewrite, message):
    text, load, view = HAND_OFF_FILES[kind]
    path = tmp_path / f"{kind}.csv"
    if kind == "matrix":
        path.with_suffix(".json").write_text('{"start": 0, "bin_seconds": 3600, "bin_count": 3}')
    path.write_text(text)
    clean = view(load(path))
    path.write_bytes(rewrite(text).encode(errors="surrogateescape"))
    if message is None:
        assert view(load(path)) == clean
        return
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("kind, argv", [
    ("matrix", ["analyze", "--matrix", "{dir}/matrix.csv"]),
    ("selection", ["evaluate", "--matrix", "{dir}/m/matrix.csv", "--selection",
                   "{dir}/selection.csv"]),
    ("probe", ["simulate", "--probes", "{dir}/probe.csv"]),
])
def test_stage_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys, kind, argv):
    text = HAND_OFF_FILES[kind][0]
    path = tmp_path / f"{kind}.csv"
    path.with_suffix(".json").write_text('{"start": 0, "bin_seconds": 3600, "bin_count": 3}')
    _hand_off_matrix(tmp_path / "m")
    path.write_bytes(_edit_row(text, lambda row: row.replace("0", "\udcff", 1))
                     .encode(errors="surrogateescape"))
    out = tmp_path / "out"
    assert main([arg.format(dir=tmp_path) for arg in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: line 3: not UTF-8 text (byte 0xff)" in err and "codec" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("column, text, message", [
    (0, "+3", "line 3: invalid literal for hour: '+3'"),
    (0, " 3", "line 3: invalid literal for hour: ' 3'"),
    (0, "\u0663", "line 3: invalid literal for hour: '\u0663'"),
    (0, "0_3", "line 3: invalid literal for hour: '0_3'"),
    (0, "03", None),
    (1, "+1", "line 3: invalid literal for rank: '+1' is not a plain decimal int64"),
    (1, "1_0", "line 3: invalid literal for rank: '1_0' is not a plain decimal int64"),
    (1, "01", None),
])
def test_selection_hour_and_rank_are_plain_ascii_digits(tmp_path, column, text, message):
    """Hour and rank are ASCII digits, leading zeros allowed: int()'s signs,
    spaces, underscores and Unicode digits are refused, naming the line
    (probe ticks: ``tests/test_rttsim.py``)."""
    clean, load, view = HAND_OFF_FILES["selection"]
    path = tmp_path / "selection.csv"
    path.write_text(clean)
    want = view(load(path))

    def edit(row: str) -> str:
        fields = row.split(",")
        fields[column] = text
        return ",".join(fields)

    path.write_text(_edit_row(clean, edit))
    if message is None:
        assert view(load(path)) == want
        return
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: {message}")


def _selection_run() -> tuple[HourlyTraceMatrix, float, SelectionRun]:
    m = synthesize_trace(SyntheticTraceSpec(prefix_count=100, noise=0.5, seed=3),
                         TimeGrid(start=0, bin_count=168))
    profile = compute_core_profile(m)
    run = run_selection(m, profile, SelectorConfig("mean_volume", 24, max_core_size(profile)))
    return m, profile.threshold, run


def _selection_file(directory: Path) -> tuple[Path, Callable]:
    m, threshold, run = _selection_run()
    path = directory / "selection.csv"
    save_selection(run, path)
    return path, lambda: load_selection(path, m, threshold)


def _probe_log(duration: float = 86400.0) -> ProbeLog:
    rtt = {(synthetic_prefix(k), f"T{t}"): 10.0 + k + t for k in range(1, 11) for t in (1, 2, 3)}
    return generate_probe_log(ProbeScheduleSpec(duration=duration, seed=1),
                              RttModel(rtt, noise_std=1.0, loss_prob=0.02))


def _probe_file(directory: Path) -> tuple[Path, Callable]:
    path = directory / "probes.csv"
    save_probe_log(_probe_log(), path)
    return path, lambda: load_probe_log(path)


def _writer(path: Path, save: Callable[[Path], None], block: int) -> tuple[Path, Callable]:
    def write() -> None:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace, "WRITE_BLOCK", block)
            save(path)

    return path, write


# each writer at a block size its file holds a dozen or more of: about a
# thousand picks, 256 probes, or 64 matrix rows of 48 hours
def _selection_writer(directory: Path) -> tuple[Path, Callable]:
    run = _selection_run()[2]
    return _writer(directory / "selection.csv", lambda path: save_selection(run, path), 1 << 10)


def _probe_writer(directory: Path) -> tuple[Path, Callable]:
    log = _probe_log()
    return _writer(directory / "probes.csv", lambda path: save_probe_log(log, path), 1 << 8)


def _matrix_writer(directory: Path) -> tuple[Path, Callable]:
    m = synthesize_trace(SyntheticTraceSpec(prefix_count=2000, noise=0.5, seed=3),
                         TimeGrid(start=0, bin_count=48))
    return _writer(directory / "matrix.csv", lambda path: save_matrix(m, path), 1 << 6)


@pytest.mark.parametrize("make, bound", [(_selection_file, 8), (_probe_file, 8),
                                         (_selection_writer, 1), (_probe_writer, 1),
                                         (_matrix_writer, 1)],
                         ids=["selection", "probe", "selection writer", "probe writer",
                              "matrix writer"])
def test_hand_off_reader_peak_is_a_few_times_the_file(tmp_path, make, bound):
    """The selection and probe readers hold no string per field: their
    traced peak stays under 8x the file's bytes (about 13x and 11x when
    every field was split into a string).  Each writer holds one block's
    text at a time, here a dozen or more to the file: its peak stays under
    the file's bytes (about 5.5x for the selection writer when it joined
    the whole file's text)."""
    path, call = make(tmp_path)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * path.stat().st_size


# each hand-off writer, and how to make a small thing for it to write
HAND_OFF_WRITERS = {
    "matrix": (save_matrix, lambda: synthesize_trace(
        SyntheticTraceSpec(prefix_count=30, noise=0.5, seed=3), TimeGrid(start=0, bin_count=5))),
    "selection": (save_selection, lambda: selection_run(
        SelectorConfig("mean_volume", 1, 3), [synthetic_prefix(k) for k in range(1, 5)],
        [[(0, 2.0), (1, 2.0), (3, -0.0)], [(2, 5.0)], [], [(1, 1.5), (0, 0.5), (2, 0.5)],
         [(3, 1.0), (0, 1.0), (1, 9.0)]])),
    "probe": (save_probe_log, lambda: _probe_log(duration=3600.0)),
}


@pytest.mark.parametrize("kind", HAND_OFF_WRITERS)
def test_hand_off_writers_give_the_same_bytes_at_any_block(tmp_path, monkeypatch, kind):
    """Blocks of one row, of seven, and of one row fewer than the file
    holds give the bytes of the default block, which holds every row."""
    save, make = HAND_OFF_WRITERS[kind]
    thing = make()
    save(thing, tmp_path / "default.csv")
    default = (tmp_path / "default.csv").read_bytes()
    rows = default.count(b"\n") - 1
    assert 7 < rows <= trace.WRITE_BLOCK
    for block in (1, 7, rows - 1):
        monkeypatch.setattr(trace, "WRITE_BLOCK", block)
        save(thing, tmp_path / f"block{block}.csv")
        assert (tmp_path / f"block{block}.csv").read_bytes() == default, block


def _matrix_file(directory: Path) -> tuple[Path, Callable]:
    path = directory / "matrix.csv"
    save_matrix(synthesize_trace(SyntheticTraceSpec(prefix_count=12, noise=0.5, seed=3),
                                 TimeGrid(start=0, bin_count=6)), path)
    return path, lambda: load_matrix(path)


# each reader's file, and the fields to break in it: (column, text, message)
NOT_A_PREFIX = ("bogus", "does not appear to be an IPv4 or IPv6 network")
TEXT_BLOCK_FILES = {
    "matrix": (_matrix_file, [(0, *NOT_A_PREFIX), (2, "x", "bad row for")]),
    "selection": (_selection_file, [(2, *NOT_A_PREFIX), (3, "fast", "could not convert")]),
    "probe": (_probe_file, [(1, *NOT_A_PREFIX), (3, "fast", "could not convert")]),
}


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("kind", TEXT_BLOCK_FILES)
def test_hand_off_readers_agree_over_any_text_block(tmp_path, monkeypatch, kind, block):
    """With ``Rows.texts`` slicing one or three rows at a time, each reader
    returns what it returns with the default block, and a bad field in the
    first row of the second block is refused as it is then, naming the
    same line."""
    make, bad_fields = TEXT_BLOCK_FILES[kind]
    view = HAND_OFF_FILES[kind][2]
    path, load = make(tmp_path)
    default = trace._TEXT_BLOCK
    want = view(load())
    monkeypatch.setattr(trace, "_TEXT_BLOCK", block)
    assert view(load()) == want
    lines = path.read_text().split("\n")
    line = block + 2  # the header is line 1
    for column, text, message in bad_fields:
        fields = lines[line - 1].split(",")
        fields[column] = text
        path.write_text("\n".join([*lines[:line - 1], ",".join(fields), *lines[line:]]))
        errors = []
        for size in (block, default):
            monkeypatch.setattr(trace, "_TEXT_BLOCK", size)
            with pytest.raises(ValueError) as info:
                load()
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"{path}: line {line}: ") and message in errors[0]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1

    def test_select_requires_a_mode(self, tmp_path, capsys):
        out = str(tmp_path)
        main(["synth", "--prefixes", "5", "--bins", "4", "--out", out])
        assert main(["select", "--matrix", f"{out}/matrix.csv", "--out", out]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("modes", [
        ["--method", "mean_volume", "--grid"],
        ["--grid", "--config", "select.json"],
        ["--method", "mean_volume", "--config", "select.json"],
    ], ids=["method and grid", "grid and config", "method and config"])
    def test_select_takes_one_mode(self, tmp_path, capsys, modes):
        out = tmp_path / "stage"
        main(["synth", "--prefixes", "5", "--bins", "4", "--out", str(tmp_path)])
        (tmp_path / "select.json").write_text('[{"method": "mean_volume", "window": 2}]\n')
        modes = [str(tmp_path / m) if m.endswith(".json") else m for m in modes]
        assert main(["select", "--matrix", f"{tmp_path}/matrix.csv", *modes,
                     "--out", str(out)]) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flag_value(self, tmp_path):
        assert main(["synth", "--prefixes", "many", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("argv, code, message", [
        (["synth", "--burst", "1:2"], 1, "bad --burst '1:2'; expected RANK:HOUR:MULTIPLIER"),
        (["synth", "--burst", "a:2:2"], 1, "bad --burst 'a:2:2'; expected RANK:HOUR:MULT"),
        (["synth", "--burst", "1:2:xyz"], 1, "bad --burst '1:2:xyz'; expected RANK:HOUR:MULT"),
        (["synth", "--burst", "1:0:2"], 2, "burst hour must be >= 1"),
        (["synth", "--prefixes", "3", "--burst", "9:2:2"], 2, "burst rank 9 exceeds prefix_count"),
        (["probe-synth", "--regime", "T1:0:5"], 1,
         "bad --regime 'T1:0:5'; expected TRANSIT:START:END:MULTIPLIER"),
        (["probe-synth", "--regime", "T1:x:5:2"], 1,
         "bad --regime 'T1:x:5:2'; expected TRANSIT:START:END:MULTIPLIER"),
        (["probe-synth", "--regime", "T1:5:5:2"], 2, "end_tick must be > start_tick"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
    def test_burst_and_regime_refusals(self, tmp_path, capsys, argv, code, message):
        """A wrong field count or a field that is not a number is a usage
        error naming the flag and its text; a range check is a data error."""
        out = tmp_path / "stage"
        assert main([*argv, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err and "int()" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["ingest", "flows.csv"], ["synth"]])
    def test_bin_seconds_is_no_flag(self, tmp_path, capsys, command):
        out = tmp_path / "stage"
        assert main([*command, "--bin-seconds", "60", "--out", str(out)]) == 1
        assert "unrecognized arguments: --bin-seconds 60" in capsys.readouterr().err
        assert not out.exists()


COMMANDS = ["ingest", "synth", "analyze", "select", "evaluate", "probe-synth", "simulate",
            "report"]


def _subparsers() -> dict:
    return next(action.choices for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


class TestCommandParser:
    """``main`` parses a named command with that command's parser alone;
    the full CLI is built only for no argument, --help or an unknown word."""

    def test_the_full_cli_lists_every_command(self):
        assert list(_subparsers()) == COMMANDS

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_is_the_full_cli_subparser_help(self, command):
        assert build_parser(command).format_help() == _subparsers()[command].format_help()

    @pytest.mark.parametrize("argv", [
        ["ingest", "flows.csv", "--start", "3600", "--on-error", "abort"],
        ["synth", "--burst", "1:2:3", "--burst", "4:5:6", "--zipf-s=1.5"],
        ["analyze", "--matrix", "m.csv", "--span", "day:2"],
        ["select", "--matrix", "m.csv", "--method", "gm11", "--window", "24", "--size", "5"],
        ["select", "--matrix", "m.csv", "--grid"],
        ["evaluate", "--matrix", "m.csv", "--selection", "a.csv", "--selection", "b.csv"],
        ["probe-synth", "--regime", "T1:0:3:2", "--loss", "0.1"],
        ["simulate", "--probes", "p.csv", "--no-dynamic"],
        ["report", "--matrix", "m.csv", "--thr", "0.9"],
    ], ids=" ".join)
    def test_parses_as_the_full_cli(self, argv):
        full = vars(build_parser().parse_args(argv))
        assert full.pop("command") == argv[0]
        assert vars(build_parser(argv[0]).parse_args(argv[1:])) == full

    def test_a_named_command_builds_one_parser(self, tmp_path, monkeypatch):
        built = []
        init = cli._Parser.__init__
        monkeypatch.setattr(cli._Parser, "__init__",
                            lambda self, **kw: built.append(kw["prog"]) or init(self, **kw))
        assert main(["synth", "--prefixes", "3", "--bins", "2", "--out", str(tmp_path)]) == 0
        assert built == ["prefixcast synth"]

    def test_no_command_prints_the_full_help(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr() == (build_parser().format_help(), "")

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["report", "-h"]],
                             ids=" ".join)
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        parser = build_parser(*argv[:-1])
        assert capsys.readouterr() == (parser.format_help(), "")

    @pytest.mark.parametrize("argv, err", [
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from "
                         + ", ".join(f"'{c}'" for c in COMMANDS) + ")"),
        (["analyze", "--threshold", "0.9"], "the following arguments are required: --matrix"),
        (["synth", "--prefixes", "many"], "argument --prefixes: invalid int value: 'many'"),
        (["select", "--matrix", "m.csv", "--method", "best"],
         "argument --method: invalid choice: 'best' (choose from "
         + ", ".join(f"'{m}'" for m in METHODS) + ")"),
        (["report", "--matrix", "m.csv", "extra"], "unrecognized arguments: extra"),
    ], ids=["unknown command", "missing required flag", "bad flag value", "bad choice",
            "stray argument"])
    def test_usage_error_text(self, capsys, argv, err):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"usage error: {err}\n")


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["synth", "--prefixes", "25", "--noise", "0.4", "--bins", "24",
                         "--seed", "11", "--out", str(out)]) == 0
            assert main(["analyze", "--matrix", f"{out}/matrix.csv", "--out", str(out)]) == 0
            assert main(["select", "--matrix", f"{out}/matrix.csv", "--method", "core_volume",
                         "--window", "4", "--out", str(out)]) == 0
            outs.append(out)
        a, b = outs
        for path_a in sorted(a.iterdir()):
            path_b = b / path_a.name
            assert path_b.exists()
            assert path_a.read_bytes() == path_b.read_bytes()
