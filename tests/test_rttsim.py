"""Normalized RTT, last-round-best routing, and the probe log machinery."""

import json
import re
import string

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prefixcast import rttsim, trace
from prefixcast.cli import main
from prefixcast.rttsim import (
    DYNAMIC_LABEL,
    MAX_PROBE_ROUNDS,
    MIN_RTT,
    _last_round_best,
    _np_table,
    ProbeScheduleSpec,
    RegimeSwitch,
    RttModel,
    generate_probe_log,
    load_probe_log,
    np_series,
    np_summary,
    rank_transits,
    save_probe_log,
    simulate_dynamic_selection,
)
from prefixcast.trace import Prefix, read_json, synthetic_prefix
from scalar_oracles import csv_text, probe_rows, probe_rtt
from scalar_oracles import probe_log as log_from

P1 = Prefix.parse("192.0.2.0/24")
P2 = Prefix.parse("198.51.100.0/24")


def normalized_performance(log, transit: str, tick: int) -> float | None:
    """Normalized RTT of one transit at one probing round; None is a gap."""
    return np_series(log, transit).values[log.ticks.index(tick)]


def load_rows(tmp_path, rows):
    """The probe log in a CSV of ``tick,prefix,transit,rtt_ms`` rows."""
    path = tmp_path / "probes.csv"
    lines = [",".join(map(str, row)) + "\n" for row in rows]
    path.write_text("tick,prefix,transit,rtt_ms\n" + "".join(lines))
    return load_probe_log(path)


class TestProbeLog:
    def test_universe_includes_lost_samples(self):
        log = log_from([(0, P1, "T1", 10.0), (0, P2, "T2", None)])
        assert log.transits == ("T1", "T2")
        assert log.prefixes == (P1, P2)
        assert probe_rtt(log, 0, P2, "T2") is None

    def test_duplicate_sample_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            log_from([(0, P1, "T1", 10.0), (0, P1, "T1", 12.0)])

    def test_non_positive_rtt_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_rows(tmp_path, [(0, P1, "T1", 0.0)])

    @pytest.mark.parametrize("rtt", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_rtt_rejected(self, tmp_path, rtt):
        with pytest.raises(ValueError, match="finite"):
            load_rows(tmp_path, [(0, P1, "T1", rtt)])

    def test_cube_marks_lost_and_never_probed_apart(self):
        log = log_from([(0, P1, "T1", 10.0), (0, P1, "T2", None), (1, P2, "T1", 12.0)])
        assert log.cube.shape == log.probed.shape == (2, 2, 2)
        assert log.probed[0, 0, 1] and np.isnan(log.cube[0, 0, 1])  # lost
        assert not log.probed[0, 1, 0] and np.isnan(log.cube[0, 1, 0])  # never probed
        assert log.cube[1, 1, 0] == 12.0
        assert not log.cube.flags.writeable

    def test_previous_tick(self):
        # the round before tick 7 is tick 3, whatever numbers lie between
        log = log_from([
            (3, P1, "T1", 10.0), (3, P1, "T2", 20.0),
            (7, P1, "T1", 40.0), (7, P1, "T2", 20.0),
        ])
        result = simulate_dynamic_selection(log, seed=0)
        assert result.ticks == (7,)
        assert result.values == (2.0,)  # T1, best at tick 3


class TestNormalizedPerformance:
    def test_hand_example(self):
        log = log_from([
            (0, P1, "T1", 10.0), (0, P1, "T2", 20.0),
            (0, P2, "T1", 20.0), (0, P2, "T2", 20.0),
        ])
        assert normalized_performance(log, "T1", 0) == pytest.approx(1.0)
        assert normalized_performance(log, "T2", 0) == pytest.approx(1.5)

    def test_best_everywhere_is_one(self):
        log = log_from([
            (0, P1, "T1", 5.0), (0, P1, "T2", 9.0),
            (0, P2, "T1", 7.0), (0, P2, "T2", 30.0),
        ])
        assert normalized_performance(log, "T1", 0) == 1.0

    def test_single_transit_is_always_one(self):
        log = log_from([(0, P1, "T1", 33.0), (0, P2, "T1", 44.0)])
        assert normalized_performance(log, "T1", 0) == 1.0

    def test_missing_sample_excludes_prefix(self):
        log = log_from([
            (0, P1, "T1", 10.0), (0, P1, "T2", 30.0),
            (0, P2, "T2", 20.0),  # no T1 sample for P2
        ])
        assert normalized_performance(log, "T1", 0) == 1.0
        series = np_series(log, "T1")
        assert series.included == (1,)

    def test_gap_when_nothing_included(self):
        log = log_from([(0, P1, "T1", 10.0), (1, P1, "T2", 10.0)])
        assert normalized_performance(log, "T1", 1) is None

    def test_unknown_transit_rejected(self):
        log = log_from([(0, P1, "T1", 10.0)])
        with pytest.raises(ValueError):
            normalized_performance(log, "T9", 0)

    def test_always_at_least_one(self):
        rng = np.random.default_rng(4)
        rows = []
        for tick in range(20):
            for i, prefix in enumerate((P1, P2)):
                for transit in ("T1", "T2", "T3"):
                    if rng.uniform() < 0.2:
                        rows.append((tick, prefix, transit, None))
                    else:
                        rows.append((tick, prefix, transit, float(rng.uniform(5, 80))))
        log = log_from(rows)
        for transit in log.transits:
            for value in np_series(log, transit).clean():
                assert value >= 1.0

    def test_scale_invariance_within_tick(self):
        rng = np.random.default_rng(6)
        rows = []
        scaled = []
        for tick in range(10):
            factor = float(rng.uniform(0.5, 4.0))
            for prefix in (P1, P2):
                for transit in ("T1", "T2"):
                    rtt = float(rng.uniform(10, 90))
                    rows.append((tick, prefix, transit, rtt))
                    scaled.append((tick, prefix, transit, rtt * factor))
        a, b = log_from(rows), log_from(scaled)
        for transit in ("T1", "T2"):
            for va, vb in zip(np_series(a, transit).values, np_series(b, transit).values):
                assert vb == pytest.approx(va, rel=1e-12)


class TestLastRoundChoice:
    """The dynamic transit's choice, read off its normalized RTT: at tick 1
    T1 measures 2.0 and T2 1.0."""

    def test_picks_minimum(self):
        log = log_from([
            (0, P1, "T1", 10.0), (0, P1, "T2", 30.0),
            (1, P1, "T1", 50.0), (1, P1, "T2", 25.0),
        ])
        assert simulate_dynamic_selection(log, seed=0).values == (2.0,)

    def test_tie_breaks_by_label(self):
        log = log_from([
            (0, P1, "T1", 15.0), (0, P1, "T2", 15.0),
            (1, P1, "T1", 50.0), (1, P1, "T2", 25.0),
        ])
        assert simulate_dynamic_selection(log, seed=0).values == (2.0,)

    def test_no_history_draws_seeded_random(self):
        # P2 has no tick-0 sample, so its transit is drawn from the seed
        log = log_from([
            (0, P1, "T1", 10.0), (0, P1, "T2", 20.0),
            (1, P2, "T1", 50.0), (1, P2, "T2", 25.0),
        ])
        draws = [simulate_dynamic_selection(log, seed=seed).values for seed in range(20)]
        assert draws == [simulate_dynamic_selection(log, seed=seed).values for seed in range(20)]
        assert set(draws) == {(1.0,), (2.0,)}


class TestDynamicSelection:
    def test_constant_rtts_are_optimal_from_second_round(self):
        rows = []
        for tick in range(5):
            rows += [
                (tick, P1, "T1", 10.0), (tick, P1, "T2", 30.0),
                (tick, P2, "T1", 50.0), (tick, P2, "T2", 20.0),
            ]
        result = simulate_dynamic_selection(log_from(rows), seed=1)
        assert result.ticks == (1, 2, 3, 4)
        assert all(v == 1.0 for v in result.values)

    def test_adversarial_alternation_hits_worst_ratio(self):
        # the best transit flips every round; the chooser is one round behind
        rows = []
        for tick in range(6):
            fast, slow = (10.0, 30.0) if tick % 2 == 0 else (30.0, 10.0)
            rows += [(tick, P1, "T1", fast), (tick, P1, "T2", slow)]
        result = simulate_dynamic_selection(log_from(rows), seed=0)
        assert all(v == pytest.approx(3.0) for v in result.values)

    def test_single_round_rejected(self):
        log = log_from([(0, P1, "T1", 10.0)])
        with pytest.raises(ValueError):
            simulate_dynamic_selection(log)

    def test_missing_choice_sample_excluded_and_counted(self):
        rows = [
            (0, P1, "T1", 10.0), (0, P1, "T2", 30.0),
            (1, P1, "T1", None), (1, P1, "T2", 30.0),  # chosen T1 lost
        ]
        result = simulate_dynamic_selection(log_from(rows), seed=0)
        assert result.values == (None,)
        assert result.excluded_missing == (1,)

    def test_never_below_one_and_deterministic(self):
        rng = np.random.default_rng(14)
        rows = []
        for tick in range(30):
            for prefix in (P1, P2):
                for transit in ("T1", "T2", "T3"):
                    if rng.uniform() < 0.15:
                        rows.append((tick, prefix, transit, None))
                    else:
                        rows.append((tick, prefix, transit, float(rng.uniform(5, 60))))
        log = log_from(rows)
        r1 = simulate_dynamic_selection(log, seed=3)
        r2 = simulate_dynamic_selection(log, seed=3)
        assert r1.values == r2.values
        assert all(v >= 1.0 for v in r1.clean())


class TestGenerateProbeLog:
    def model(self, **kwargs):
        base = {
            (P1, "T1"): 20.0, (P1, "T2"): 40.0,
            (P2, "T1"): 50.0, (P2, "T2"): 25.0,
        }
        return RttModel(base_rtt=base, **kwargs)

    def test_zero_jitter_is_exactly_periodic(self):
        schedule = ProbeScheduleSpec(mean_interval=240.0, jitter=0.0, duration=2000.0, seed=1)
        log = generate_probe_log(schedule, self.model())
        gaps = np.diff(log.tick_times)
        assert (gaps == 240.0).all()
        assert len(log.ticks) == 9  # rounds at 0, 240, ..., 1920

    def test_jitter_bounds_intervals(self):
        schedule = ProbeScheduleSpec(mean_interval=240.0, jitter=0.3, duration=100_000.0, seed=2)
        log = generate_probe_log(schedule, self.model())
        gaps = np.diff(log.tick_times)
        assert (gaps >= 240.0 * 0.7).all() and (gaps <= 240.0 * 1.3).all()

    # a round at exactly 1920.0 does not start; 1.0 // 0.1 is 9, and ten
    # gaps of 0.1 sum to just below 1.0
    @pytest.mark.parametrize("interval, jitter, duration", [
        (240.0, 0.3, 86400.0), (240.0, 0.0, 2000.0), (240.0, 0.0, 1920.0), (0.1, 0.0, 1.0),
        (0.1, 0.0, 0.3), (7.0, 0.9, 5000.0),
    ])
    def test_round_times_are_the_running_sum_loop(self, interval, jitter, duration):
        lo, hi = interval * (1.0 - jitter), interval * (1.0 + jitter)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            times = [0.0]
            while (nxt := times[-1] + rng.uniform(lo, hi)) < duration:
                times.append(nxt)
            schedule = ProbeScheduleSpec(interval, jitter, duration, seed)
            assert generate_probe_log(schedule, self.model()).tick_times == tuple(times)

    def test_regime_switch_multiplies(self):
        switch = RegimeSwitch(transit="T1", start_tick=2, end_tick=4, multiplier=10.0)
        schedule = ProbeScheduleSpec(jitter=0.0, duration=1500.0, seed=4)
        log = generate_probe_log(schedule, self.model(regime_switches=(switch,)))
        assert probe_rtt(log, 2, P1, "T1") == pytest.approx(200.0)
        assert probe_rtt(log, 4, P1, "T1") == pytest.approx(20.0)

    def test_seed_determinism(self):
        schedule = ProbeScheduleSpec(duration=5000.0, seed=9)
        model = self.model(noise_std=2.0, loss_prob=0.1)
        a = generate_probe_log(schedule, model)
        b = generate_probe_log(schedule, model)
        assert probe_rows(a) == probe_rows(b)
        assert a.tick_times == b.tick_times

    # a NaN or infinite duration would never end the round loop, so the
    # constructors are tested rather than the generator
    @pytest.mark.parametrize("kwargs, named", [
        ({"duration": float("nan")}, "duration"),
        ({"duration": float("inf")}, "duration"),
        ({"mean_interval": float("nan")}, "mean_interval"),
        ({"mean_interval": float("inf")}, "mean_interval"),
        ({"jitter": float("nan")}, "jitter"),
    ])
    def test_schedule_rejects_non_finite(self, kwargs, named):
        with pytest.raises(ValueError, match=f"^{named} must be"):
            ProbeScheduleSpec(**kwargs)

    def test_schedule_round_count_is_capped(self):
        # the cap holds for the slowest schedule the jitter allows
        ProbeScheduleSpec(mean_interval=1.0, jitter=0.0, duration=float(MAX_PROBE_ROUNDS))
        with pytest.raises(ValueError, match="probing rounds"):
            ProbeScheduleSpec(mean_interval=1.0, jitter=0.5, duration=float(MAX_PROBE_ROUNDS))

    @pytest.mark.parametrize("kwargs, named", [
        ({"noise_std": float("nan")}, "noise_std"),
        ({"noise_std": float("inf")}, "noise_std"),
        ({"loss_prob": float("nan")}, "loss probability"),
        ({"base_rtt": {(P1, "T1"): float("nan")}}, "base RTT"),
        ({"base_rtt": {(P1, "T1"): float("inf")}}, "base RTT"),
    ])
    def test_model_rejects_non_finite(self, kwargs, named):
        with pytest.raises(ValueError, match=f"^{named}"):
            RttModel(**{"base_rtt": {(P1, "T1"): 20.0}, **kwargs})

    @pytest.mark.parametrize("multiplier", [float("nan"), float("inf"), 0.0])
    def test_regime_switch_rejects_bad_multiplier(self, multiplier):
        with pytest.raises(ValueError, match="^multiplier must be finite and > 0"):
            RegimeSwitch(transit="T1", start_tick=0, end_tick=2, multiplier=multiplier)

    def test_regime_switch_on_unknown_transit_is_refused(self):
        switch = RegimeSwitch(transit="T9", start_tick=0, end_tick=3, multiplier=2.0)
        with pytest.raises(ValueError, match=re.escape(
            "regime switch transit 'T9' is not one of the transits ['T1', 'T2']"
        )):
            self.model(regime_switches=(switch,))


class TestSummaries:
    def test_constant_series(self):
        s = np_summary([1.0, 1.0, 1.0])
        assert s.min == s.p5 == s.median == s.mean == s.p95 == s.max == 1.0

    def test_hand_mean(self):
        assert np_summary([1, 1, 1, 1, 2]).mean == pytest.approx(1.2)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            np_summary([])

    def test_rank_orders_by_mean(self):
        rows = []
        for tick in range(4):
            rows += [
                (tick, P1, "T1", 10.0), (tick, P1, "T2", 30.0),
                (tick, P2, "T1", 10.0), (tick, P2, "T2", 30.0),
            ]
        ranking = rank_transits(log_from(rows), include_dynamic=True, seed=0)
        labels = [label for label, _ in ranking]
        assert labels[0] in ("T1", DYNAMIC_LABEL)  # both achieve NP 1.0
        assert labels[-1] == "T2"
        means = [s.mean for _, s in ranking]
        assert means == sorted(means)


class TestProbeCsv:
    def test_roundtrip_with_losses(self, tmp_path):
        rows = [
            (0, P1, "T1", 12.5), (0, P1, "T2", None),
            (1, P1, "T1", 13.0), (1, P1, "T2", 40.0),
        ]
        log = log_from(rows)
        path = tmp_path / "probes.csv"
        save_probe_log(log, path)
        back = load_probe_log(path)
        assert probe_rows(back) == probe_rows(log) == rows

    def test_any_write_block_gives_the_same_bytes(self, tmp_path, monkeypatch):
        # six probes a round; lost ones on the edges of blocks of 1, 5 and 7
        lost = {0, 4, 5, 6, 7, 9, 10, 13, 14, 20, 21, 29}
        pairs = [(P1, "T1"), (P1, "T2"), (P1, "T3"), (P2, "T1"), (P2, "T2"), (P2, "T3")]
        rows = [
            (tick, prefix, transit, None if 6 * tick + i in lost else 10.0 + 6 * tick + i / 7)
            for tick in range(5) for i, (prefix, transit) in enumerate(pairs)
        ]
        log = log_from(rows)
        default = tmp_path / "default.csv"
        save_probe_log(log, default)
        texts = [(t, p.text, tr, "" if v is None else repr(v)) for t, p, tr, v in rows]
        assert default.read_bytes() == csv_text([("tick", "prefix", "transit", "rtt_ms"),
                                                 *texts]).encode()
        for block in (1, 7, len(pairs) - 1):
            monkeypatch.setattr(trace, "WRITE_BLOCK", block)
            path = tmp_path / f"block{block}.csv"
            save_probe_log(log, path)
            assert path.read_bytes() == default.read_bytes(), block

    @pytest.mark.parametrize("body, message", [
        ("0,192.0.2.0/24,T1\n", "line 3: bad row"),
        ("zero,192.0.2.0/24,T1,10\n", "line 3: invalid literal"),
        ("0,192.0.2.1/24,T1,10\n", "line 3: .*host bits"),
        ("0,192.0.2.0/24,T1,fast\n", "line 3: could not convert"),
        ("0,192.0.2.0/24,T1,inf\n", "line 3: rtt_ms must be finite"),
        ("\n\n1,192.0.2.0/24,T1,0\n", "line 5: rtt_ms must be finite"),
        ("0,192.0.2.0/24, T1 ,9\n", "probes.csv: transit label ' T1 ' would not read back"),
        ("1,192.0.2.0/24,T1,9\n0,192.0.2.0/24,T1,9\n", "probes.csv: line 4: duplicate sample"),
        # rows are unquoted, as matrix and selection rows are
        ('0,"192.0.2.0/24",T2,9\n', "line 3: bad row"),
        ('1,192.0.2.0/24,"T1",9\n', "line 3: bad row"),
        ('1,192.0.2.0/24,"T,1",9\n', "line 3: bad row"),
        ("1,192.0.2.0/24,,9\n", "probes.csv: transit label ''"),
    ])
    def test_bad_rows_rejected_naming_the_line(self, tmp_path, body, message):
        path = tmp_path / "probes.csv"
        path.write_text("tick,prefix,transit,rtt_ms\n0,192.0.2.0/24,T1,10\n" + body)
        with pytest.raises(ValueError, match=message):
            load_probe_log(path)

    def test_blank_rtt_field_is_a_loss(self, tmp_path):
        path = tmp_path / "probes.csv"
        path.write_text("tick,prefix,transit,rtt_ms\n0,192.0.2.0/24,T1,10\n0,192.0.2.0/24,T2, \n")
        assert probe_rows(load_probe_log(path)) == [(0, P1, "T1", 10.0), (0, P1, "T2", None)]

    def test_loss_on_a_last_line_with_no_final_newline(self, tmp_path):
        # the empty RTT field starts at the very end of the file
        path = tmp_path / "probes.csv"
        path.write_text("tick,prefix,transit,rtt_ms\n0,192.0.2.0/24,T1,10\n0,192.0.2.0/24,T2,")
        assert probe_rows(load_probe_log(path)) == [(0, P1, "T1", 10.0), (0, P1, "T2", None)]

    @pytest.mark.parametrize("tick", ["+1", " 1", "1 ", "\u0661", "1_0", "1.0", "-", "9" * 19])
    def test_tick_that_is_not_plain_digits_is_refused(self, tmp_path, tick):
        # int() reads all but "1.0" and "-" ("1_0" as 10); 19 digits can leave int64
        path = tmp_path / "probes.csv"
        path.write_text(f"tick,prefix,transit,rtt_ms\n0,192.0.2.0/24,T1,10\n{tick},192.0.2.0/24,T1,9\n")
        with pytest.raises(ValueError, match=re.escape(f"line 3: invalid literal for tick: {tick!r}")):
            load_probe_log(path)

    @pytest.mark.parametrize("tick, value", [("01", 1), ("-7", -7), ("0" * 18, 0)])
    def test_tick_of_plain_digits_with_leading_zeros_or_a_minus_is_read(self, tmp_path, tick, value):
        path = tmp_path / "probes.csv"
        path.write_text(f"tick,prefix,transit,rtt_ms\n{tick},192.0.2.0/24,T1,10\n")
        assert probe_rows(load_probe_log(path)) == [(value, P1, "T1", 10.0)]

    @pytest.mark.parametrize("rewrite", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\n\n") + "\n",
        lambda text: text.rstrip("\n"),
    ], ids=["CRLF", "blank lines", "no final newline"])
    def test_line_endings_read_as_plain(self, tmp_path, rewrite):
        log = log_from([(0, P1, "T1", 12.5), (0, P2, "T1", None), (1, P1, "T1", 13.0)])
        path = tmp_path / "probes.csv"
        save_probe_log(log, path)
        path.write_bytes(rewrite(path.read_text()).encode())
        assert probe_rows(load_probe_log(path)) == probe_rows(log)

    @pytest.mark.parametrize("label", ["", "T,1", 'T"1', "T\r1", "T\n1", " T1", "T1\t"])
    def test_label_that_would_not_read_back_is_refused(self, label):
        with pytest.raises(ValueError, match=re.escape(f"transit label {label!r}")):
            log_from([(0, P1, label, 10.0)])

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "probes.csv"
        path.write_text("tick,prefix,transit,rtt_ms\n\n")
        with pytest.raises(ValueError, match="no rows"):
            load_probe_log(path)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "probes.csv"
        path.write_text("a,b,c,d\n0,192.0.2.0/24,T1,10\n")
        with pytest.raises(ValueError, match="header"):
            load_probe_log(path)


class TestProbeSidecar:
    def probe_synth(self, out, transits=3):
        assert main(["probe-synth", "--prefix-count", "4", "--transits", str(transits),
                     "--duration", "3000", "--seed", "6", "--out", str(out)]) == 0
        return read_json(out / "probe_meta.json")

    def test_save_with_its_schedule_writes_the_sidecar_load_accepts(self, tmp_path):
        schedule = ProbeScheduleSpec(mean_interval=100.0, duration=1000.0, seed=3)
        log = generate_probe_log(schedule, RttModel(base_rtt={(P1, "T1"): 10.0, (P1, "T2"): 20.0}))
        save_probe_log(log, tmp_path / "plain.csv")
        assert not (tmp_path / "probe_meta.json").exists()
        save_probe_log(log, tmp_path / "probes.csv", schedule)
        assert read_json(tmp_path / "probe_meta.json") == {
            **schedule._asdict(), "transits": ["T1", "T2"], "prefix_count": 1,
            "ticks": len(log.ticks), "tick_times": list(log.tick_times),
        }
        assert probe_rows(load_probe_log(tmp_path / "probes.csv")) == probe_rows(log)

    def test_a_loaded_log_has_no_sidecar_to_write(self, tmp_path):
        log = load_rows(tmp_path, [(0, P1, "T1", 10.0)])
        with pytest.raises(ValueError, match="without round start times"):
            save_probe_log(log, tmp_path / "again.csv", ProbeScheduleSpec())
        assert not (tmp_path / "again.csv").exists()

    def test_library_load_refuses_a_sidecar_that_disagrees(self, tmp_path):
        meta = self.probe_synth(tmp_path)
        (tmp_path / "probe_meta.json").write_text(json.dumps({**meta, "prefix_count": 5}))
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path / 'probe_meta.json'}: prefix_count is 5, but "
                f"{tmp_path / 'probes.csv'} has 4")):
            load_probe_log(tmp_path / "probes.csv")

    def test_twelve_transits_are_listed_in_log_order(self, tmp_path):
        meta = self.probe_synth(tmp_path, transits=12)
        log = load_probe_log(tmp_path / "probes.csv")
        assert meta["transits"] == list(log.transits)
        assert meta["transits"][:4] == ["T1", "T10", "T11", "T12"]


# --------------------------------------------------------------------------
# Scalar oracle: the former dict-backed probe log, kept independent of the
# cube.  The cube must reproduce it exactly (==, not approx): sums in
# prefix order, ties to the lowest label, the same random draws.
# --------------------------------------------------------------------------


class DictLog:
    def __init__(self, rows):
        self.rtt = {(t, p, tr): v for t, p, tr, v in rows if v is not None}
        self.ticks = sorted({t for t, _, _, _ in rows})
        self.prefixes = sorted({p for _, p, _, _ in rows}, key=lambda p: p.text)
        self.transits = sorted({tr for _, _, tr, _ in rows})

    def samples_at(self, tick, prefix):
        return {
            tr: self.rtt[(tick, prefix, tr)]
            for tr in self.transits
            if (tick, prefix, tr) in self.rtt
        }


def oracle_np(d, transit, tick):
    total = 0.0
    included = 0
    for prefix in d.prefixes:
        own = d.rtt.get((tick, prefix, transit))
        if own is None:
            continue
        total += own / min(d.samples_at(tick, prefix).values())
        included += 1
    return (total / included if included else None), included


def oracle_pick(d, prefix, prev, rng):
    last = d.samples_at(prev, prefix) if prev is not None else {}
    if last:
        return min(last.items(), key=lambda kv: (kv[1], kv[0]))[0]
    return d.transits[int(rng.integers(len(d.transits)))]


def oracle_dynamic(d, seed):
    rng = np.random.default_rng(seed)
    values, included_counts, missing_counts = [], [], []
    for prev, tick in zip(d.ticks, d.ticks[1:]):
        total = 0.0
        included = missing = 0
        for prefix in d.prefixes:
            own = d.rtt.get((tick, prefix, oracle_pick(d, prefix, prev, rng)))
            if own is None:
                missing += 1
                continue
            total += own / min(d.samples_at(tick, prefix).values())
            included += 1
        values.append(total / included if included else None)
        included_counts.append(included)
        missing_counts.append(missing)
    return tuple(values), tuple(included_counts), tuple(missing_counts)


def oracle_generate(schedule, model):
    """The generator as scalar loops in its draw order, one draw at a time:
    every round gap, then a loss uniform per probe, then a normal per
    probe, probes in (tick, pair) order.  Rows and round start times."""
    rng = np.random.default_rng(schedule.seed)
    lo = schedule.mean_interval * (1.0 - schedule.jitter)
    hi = schedule.mean_interval * (1.0 + schedule.jitter)
    gaps = [rng.uniform(lo, hi) for _ in range(int(schedule.duration // lo) + 1)]
    times = [0.0]
    for gap in gaps:
        if times[-1] + gap >= schedule.duration:
            break
        times.append(times[-1] + gap)
    pairs = sorted(model.base_rtt, key=lambda pt: (pt[0].text, pt[1]))
    probes = [(tick, prefix, transit) for tick in range(len(times)) for prefix, transit in pairs]
    lost = [model.loss_prob > rng.uniform() for _ in probes]
    noise = [rng.normal(0.0, model.noise_std) for _ in probes]
    rows = []
    for (tick, prefix, transit), gone, extra in zip(probes, lost, noise):
        if gone:
            rows.append((tick, prefix, transit, None))
            continue
        value = model.base_rtt[(prefix, transit)]
        for sw in model.regime_switches:
            if sw.transit == transit and sw.start_tick <= tick < sw.end_tick:
                value *= sw.multiplier
        rows.append((tick, prefix, transit, max(value + extra, MIN_RTT)))
    return rows, times


def random_rows(rng):
    """Probe rows with lost probes, never-probed pairs, rounds in which a
    prefix loses every probe (so the dynamic choice draws at random), tied
    RTTs and gaps in the tick numbering."""
    n_transits = int(rng.integers(1, 7))
    n_prefixes = int(rng.integers(1, 41))
    n_ticks = int(rng.integers(2, 31))
    ticks = sorted(rng.choice(4 * n_ticks, size=n_ticks, replace=False).tolist())
    transits = [f"T{i + 1}" for i in range(n_transits)]
    prefixes = [synthetic_prefix(k) for k in rng.permutation(300)[:n_prefixes] + 1]
    rows = []
    for tick in ticks:
        for prefix in prefixes:
            dark = rng.uniform() < 0.1  # every probe lost or never sent
            for transit in transits:
                u = rng.uniform()
                if u < 0.1:
                    continue  # never probed
                if dark or u < 0.25:
                    rows.append((tick, prefix, transit, None))
                elif u < 0.5:
                    rows.append((tick, prefix, transit, float(rng.choice([10.0, 20.0, 30.0]))))
                else:
                    rows.append((tick, prefix, transit, float(rng.uniform(1.0, 200.0))))
    if not rows:
        rows.append((ticks[0], prefixes[0], transits[0], 10.0))
    return rows


class TestCubeMatchesScalarOracle:
    LOGS = 40

    def logs(self):
        rng = np.random.default_rng(2024)
        for _ in range(self.LOGS):
            rows = random_rows(rng)
            yield log_from(rows), DictLog(rows)

    def test_np_series_exact(self):
        for log, d in self.logs():
            for transit in log.transits:
                series = np_series(log, transit)
                expected = [oracle_np(d, transit, tick) for tick in d.ticks]
                assert series.ticks == tuple(d.ticks)
                assert series.values == tuple(v for v, _ in expected)
                assert series.included == tuple(n for _, n in expected)

    def test_dynamic_selection_exact(self):
        draws = 0
        for seed, (log, d) in enumerate(self.logs()):
            result = simulate_dynamic_selection(log, seed=seed)
            values, included, missing = oracle_dynamic(d, seed)
            assert result.ticks == tuple(d.ticks[1:])
            assert result.values == values
            assert result.included == included
            assert result.excluded_missing == missing
            draws += sum(
                not d.samples_at(prev, p) for prev in d.ticks[:-1] for p in d.prefixes
            )
        assert draws > 100  # the batched random draws were exercised

    def test_pick_last_round_best_exact(self):
        # the choice each (round, prefix) takes from the round before; a blind
        # one is drawn at random, which test_dynamic_selection_exact checks
        for log, d in self.logs():
            choice, blind = _last_round_best(log.cube[:-1])
            for t, (prev, tick) in enumerate(zip(d.ticks, d.ticks[1:])):
                for p, prefix in enumerate(d.prefixes):
                    assert blind[t, p] == (not d.samples_at(prev, prefix))
                    if not blind[t, p]:
                        want = oracle_pick(d, prefix, prev, np.random.default_rng(5))
                        assert log.transits[choice[t, p]] == want

    def test_rank_transits_matches_oracle_series(self):
        for seed, (log, d) in enumerate(self.logs()):
            ranking = dict(rank_transits(log, include_dynamic=True, seed=seed))
            for transit in d.transits:
                values = [oracle_np(d, transit, tick)[0] for tick in d.ticks]
                clean = [v for v in values if v is not None]
                if clean:
                    assert ranking[transit] == np_summary(clean)
            dynamic = [v for v in oracle_dynamic(d, seed)[0] if v is not None]
            if dynamic:
                assert ranking[DYNAMIC_LABEL] == np_summary(dynamic)

    def test_np_series_is_its_column_whatever_the_call_order(self):
        """Each transit's series equals its own column's table built alone,
        against the per-prefix best of every transit, whether the log's
        table was first built by ``np_series``, ``rank_transits`` or
        ``simulate_dynamic_selection``."""

        def column_series(log, column):
            best = np.fmin.reduce(log.cube, axis=2, keepdims=True)
            values, included = _np_table(log.cube[:, :, [column]], best)
            return (tuple(None if np.isnan(v) else v for v in values[:, 0].tolist()),
                    tuple(included[:, 0].tolist()))

        firsts = [
            lambda log, seed: [np_series(log, t) for t in reversed(log.transits)],
            lambda log, seed: rank_transits(log, include_dynamic=True, seed=seed),
            lambda log, seed: simulate_dynamic_selection(log, seed=seed + 100),
        ]
        for seed, (log, _) in enumerate(self.logs()):
            first = firsts[seed % len(firsts)]
            first(log, seed)
            for again in firsts:
                again(log, seed + 1)
                for column, transit in enumerate(log.transits):
                    series = np_series(log, transit)
                    assert (series.values, series.included) == column_series(log, column)
            assert not any(table.flags.writeable for table in log._np)

    def test_generator_matches_scalar_loop(self):
        rng = np.random.default_rng(77)
        prefixes = [synthetic_prefix(k) for k in range(1, 13)]
        for seed in range(6):
            base = {
                (p, t): float(rng.uniform(5.0, 90.0))
                for p in prefixes for t in ("T1", "T2", "T3") if rng.uniform() > 0.1
            }
            switches = (
                RegimeSwitch("T1", 3, 40, 1.7),
                RegimeSwitch("T1", 20, 60, 1.3),  # overlaps the first
                RegimeSwitch("T2", -5, 8, 2.5),
            )
            model = RttModel(
                base_rtt=base, noise_std=float(seed % 3), loss_prob=(0.0, 0.2, 0.6, 1.0)[seed % 4],
                regime_switches=switches,
            )
            schedule = ProbeScheduleSpec(duration=20_000.0, jitter=0.3 * (seed % 2), seed=seed)
            rows, times = oracle_generate(schedule, model)
            log = generate_probe_log(schedule, model)
            assert probe_rows(log) == rows
            assert log.tick_times == tuple(times)


# labels that read back as themselves: no ",", '"', line break or outer space
PROBE_LABELS = st.text(string.ascii_letters + string.digits + "_- ", min_size=1, max_size=5).filter(
    lambda label: label == label.strip()
)


@st.composite
def probe_logs(draw):
    ticks = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4, unique=True))
    prefixes = draw(st.lists(st.integers(1, 5000), min_size=1, max_size=4, unique=True))
    transits = draw(st.lists(PROBE_LABELS, min_size=1, max_size=4, unique=True))
    cell = st.one_of(
        st.just("unprobed"), st.none(),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False),
    )
    rows = [
        (t, synthetic_prefix(p), tr, value)
        for t in ticks for p in prefixes for tr in transits
        if (value := draw(cell)) != "unprobed"
    ]
    assume(rows)
    return log_from(rows)


@settings(max_examples=150, deadline=None)
@given(log=probe_logs())
def test_probe_csv_roundtrip_is_exact(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("probes") / "probes.csv"
    save_probe_log(log, path)
    rows = [
        (tick, prefix.text, transit, "" if rtt is None else repr(rtt))
        for tick, prefix, transit, rtt in probe_rows(log)
    ]
    # the bytes csv.writer gave, for labels that need no quoting
    assert path.read_bytes() == csv_text([("tick", "prefix", "transit", "rtt_ms"), *rows]).encode()
    back = load_probe_log(path)
    assert (back.ticks, back.prefixes, back.transits) == (log.ticks, log.prefixes, log.transits)
    assert np.array_equal(back.cube, log.cube, equal_nan=True)
    assert np.array_equal(back.probed, log.probed)  # lost and never-probed stay apart
    assert probe_rows(back) == probe_rows(log)


def test_simulate_builds_one_physical_np_table(tmp_path, monkeypatch):
    """``probe-synth`` builds no NP table; ``simulate`` builds the physical
    transits' table once, for all of them, and the dynamic transit's twice
    (once for np.csv, once in ``rank_transits``)."""
    widths, table = [], rttsim._np_table

    def counted(rtt, best):
        widths.append(rtt.shape[2])
        return table(rtt, best)

    monkeypatch.setattr(rttsim, "_np_table", counted)
    out = str(tmp_path)
    assert main(["probe-synth", "--prefix-count", "5", "--transits", "3", "--duration", "3000",
                 "--loss", "0.1", "--out", out]) == 0
    assert widths == []
    assert main(["simulate", "--probes", f"{out}/probes.csv", "--out", out]) == 0
    assert sorted(widths) == [1, 1, 3]
