"""CLI stages: artifacts, exit codes, composition, determinism."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixcast.cli import _read_selection_csv, _write_selection, main
from prefixcast.dynamism import compute_core_profile
from prefixcast.rttsim import load_probe_log, simulate_dynamic_selection
from prefixcast.selectors import METHODS, WINDOW_GRID, SelectorConfig, run_selection
from prefixcast.trace import HourlyTraceMatrix, TimeGrid, load_matrix, synthetic_prefix


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

    def test_binned_total_beyond_int64_is_data_error(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        big = 9_220_000_000_000_000_000
        flows.write_text(f"timestamp,prefix,bytes\n0,10.0.0.0/8,{big}\n1,10.0.0.0/8,{big}\n")
        out = tmp_path / "stage"
        assert main(["ingest", str(flows), "--start", "0", "--bins", "1", "--out", str(out)]) == 2
        assert "int64" in capsys.readouterr().err
        assert not (out / "matrix.csv").exists()


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

    def test_single_prefix_core_stats(self, tmp_path):
        out = str(tmp_path)
        assert main(["synth", "--prefixes", "1", "--bins", "8", "--out", out]) == 0
        assert main(["analyze", "--matrix", f"{out}/matrix.csv", "--out", out]) == 0
        core = read_json(tmp_path / "summary.json")["core"]
        assert core["avg_core_size"] == 1.0
        assert core["avg_core_pct_of_active"] == 100.0
        assert core["max_core_size"] == 1

    def test_span_flag_selects_concentration_window(self, tmp_path):
        out = str(tmp_path)
        assert main(["synth", "--prefixes", "10", "--bins", "30", "--out", out]) == 0
        assert main(["analyze", "--matrix", f"{out}/matrix.csv", "--span", "day:3",
                     "--out", out]) == 0
        assert (tmp_path / "concentration_day_3.csv").exists()

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
    ])
    def test_bad_int_matrix_is_data_error(self, tmp_path, capsys, rows, named):
        path = write_int_matrix(tmp_path, rows)
        assert main(["analyze", "--matrix", str(path), "--out", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("dtype", ["bogus", "Int", None])
    def test_unknown_sidecar_dtype_is_data_error(self, tmp_path, capsys, dtype):
        rows = ["10.0.0.0/24,1,2,3", "10.0.1.0/24,5,4,3"]
        path = write_int_matrix(tmp_path, rows, dtype=dtype)
        assert main(["analyze", "--matrix", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "matrix.json" in err and f"unknown dtype {dtype!r}" in err
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
            back = _read_selection_csv(_write_selection(tmp_path, run), m, profile.threshold)
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
        integral=st.booleans(),
        method=st.sampled_from(METHODS),
        window=st.integers(1, 12),
        size=st.integers(1, 8),
    )
    def test_selection_csv_round_trip_property(
        self, tmp_path_factory, seed, shape, integral, method, window, size
    ):
        rng = np.random.default_rng(seed)
        values = rng.lognormal(10.0, 3.0, size=shape) * (rng.random(shape) < 0.6)
        if integral:
            values = np.round(values).astype(np.int64)
        values[0, 0] += 1
        m = HourlyTraceMatrix(
            TimeGrid(start=0, bin_count=shape[1]),
            [synthetic_prefix(k + 1) for k in range(shape[0])],
            values,
        )
        profile = compute_core_profile(m)
        run = run_selection(m, profile, SelectorConfig(method, window, size))
        path = _write_selection(tmp_path_factory.mktemp("select"), run)
        back = _read_selection_csv(path, m, profile.threshold)
        assert back.config == run.config
        assert back.hours.tolist() == run.hours.tolist()
        assert [p.tolist() for p in back.picks] == [p.tolist() for p in run.picks]
        assert [s.tobytes() for s in back.scores] == [s.tobytes() for s in run.scores]

    @pytest.mark.parametrize("case", ["prefix written two ways", "mixed configurations",
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
            named = ["duplicate prefix", rows[1][2], "hour 2"]
        elif case == "mixed configurations":
            rows[5][6] = "4"
            named = ["mixed selector configurations"]
        elif case == "unknown prefix":
            rows[5][2] = "192.0.2.0/24"
            named = ["prefix 192.0.2.0/24 not in matrix"]
        else:
            rows[5][0] = "25"
            named = ["hour 25 outside the matrix grid"]
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        assert main(["evaluate", "--matrix", f"{out}/matrix.csv",
                     "--selection", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and all(text in err for text in named)
        assert not (trace_dir / "evaluation_summary.json").exists()

    @pytest.mark.parametrize("size, picks, hour", [
        (1, [(2, "0"), (2, "0"), (3, "-7")], 2),
        (3, [(2, "1"), (2, "3"), (3, "1")], 2),
        (3, [(2, "1"), (3, "1"), (3, "1")], 3),
        (1, [(2, "1"), (3, "1"), (3, "2")], 3),
        (3, [(2, "1"), (2, str(2**70))], 2),
    ], ids=["ranked 0 0 and -7 for K=1", "gap", "repeat", "more than K", "beyond int64"])
    def test_bad_ranks_rejected(self, trace_dir, capsys, size, picks, hour):
        out = str(trace_dir)
        path = trace_dir / "selection_mean_volume_L1.csv"
        path.write_text("hour,rank,prefix,score,method,L,K\n" + "".join(
            f"{h},{rank},10.0.{k}.0/24,5.0,mean_volume,1,{size}\n"
            for k, (h, rank) in enumerate(picks)
        ))
        assert main(["evaluate", "--matrix", f"{out}/matrix.csv",
                     "--selection", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"hour {hour}: ranks must run 1..n with n <= K={size}" in err
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


class TestProbeSimulate:
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

    def test_missing_probes_names_stage(self, tmp_path, capsys):
        assert main(["simulate", "--probes", f"{tmp_path}/probes.csv",
                     "--out", str(tmp_path)]) == 2
        assert "probe-synth" in capsys.readouterr().err

    def test_all_loss_log_is_data_error(self, tmp_path, capsys):
        probes = tmp_path / "probes.csv"
        probes.write_text(
            "tick,prefix,transit,rtt_ms\n0,10.0.0.0/24,T1,\n1,10.0.0.0/24,T1,\n"
        )
        assert main(["simulate", "--probes", str(probes), "--out", str(tmp_path)]) == 2
        assert "usable RTT" in capsys.readouterr().err

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

    def test_meta_restores_tick_times(self, tmp_path, monkeypatch):
        from prefixcast import rttsim

        meta = self.probe_synth(tmp_path)
        seen = []
        rank = rttsim.rank_transits
        monkeypatch.setattr(
            rttsim, "rank_transits", lambda log, **kw: seen.append(log) or rank(log, **kw)
        )
        assert main(["simulate", "--probes", f"{tmp_path}/probes.csv",
                     "--out", str(tmp_path)]) == 0
        assert seen[0].tick_times == tuple(meta["tick_times"])

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

    def test_bad_flag_value(self, tmp_path):
        assert main(["synth", "--prefixes", "many", "--out", str(tmp_path)]) == 1


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
