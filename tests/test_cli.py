"""CLI stages: artifacts, exit codes, composition, determinism."""

import csv
import json
from pathlib import Path

import pytest

from prefixcast.cli import main
from prefixcast.dynamism import compute_core_profile
from prefixcast.rttsim import load_probe_log, simulate_dynamic_selection
from prefixcast.selectors import SelectorConfig, run_selection
from prefixcast.trace import load_matrix


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
        assert named in capsys.readouterr().err
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
