"""Dynamism metrics: variation, cores, presence, burstiness, concentration."""

import math

import numpy as np
import pytest

from prefixcast.dynamism import (
    CoreProfile,
    burstiness_index,
    burstiness_score,
    burstiness_summary,
    coefficient_of_variation,
    compute_core_profile,
    concentration_curve,
    core_presence_intensity,
    core_set,
    core_summary,
    cv_vs_volume_bins,
    icp_vs_volume_bins,
)
from prefixcast.trace import (
    HourlyTraceMatrix,
    Prefix,
    SyntheticTraceSpec,
    TimeGrid,
    synthesize_trace,
    synthetic_prefix,
)

A = Prefix.parse("10.0.0.0/24")
B = Prefix.parse("10.0.1.0/24")
C = Prefix.parse("10.0.2.0/24")
D = Prefix.parse("10.0.3.0/24")


def matrix(series: dict, bins: int) -> HourlyTraceMatrix:
    grid = TimeGrid(start=0, bin_seconds=3600, bin_count=bins)
    return HourlyTraceMatrix(grid, list(series), list(series.values()))


def brute_force_core(volumes: dict, threshold: float) -> set:
    """Independent oracle: plain sort + running prefix-sum."""
    ranked = sorted(volumes.items(), key=lambda kv: (-kv[1], kv[0].text))
    total = sum(v for _, v in ranked)
    if total <= 0:
        return set()
    core, acc = set(), 0
    for prefix, vol in ranked:
        core.add(prefix)
        acc += vol
        if acc >= threshold * total:
            break
    return core


class TestCoefficientOfVariation:
    def test_constant_series_is_zero(self):
        assert coefficient_of_variation([5] * 168) == 0.0

    def test_single_active_hour_attains_maximum(self):
        series = np.zeros(168)
        series[0] = 168
        assert coefficient_of_variation(series) == pytest.approx(
            math.sqrt(167), abs=1e-9
        )

    def test_hand_example(self):
        # mean 2, population std 1
        assert coefficient_of_variation([1, 3]) == pytest.approx(0.5)

    def test_all_zero_errors(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([0, 0, 0])

    def test_single_entry_errors(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([7])

    def test_bounded_by_length_maximum(self):
        rng = np.random.default_rng(5)
        bound = math.sqrt(167)
        for _ in range(300):
            series = rng.uniform(0, 1000, size=168)
            series[rng.uniform(size=168) < 0.7] = 0.0
            if series.sum() == 0:
                series[0] = 1.0
            assert coefficient_of_variation(series) <= bound + 1e-9


class TestCoreSet:
    def test_cumulative_reaches_threshold(self):
        vols = {A: 50, B: 30, C: 15, D: 5}
        assert core_set(vols, 0.95) == {A, B, C}

    def test_single_prefix(self):
        assert core_set({A: 7}, 0.95) == {A}

    def test_forced_inclusion(self):
        # 94 < 95 forces the small prefix in too
        assert core_set({A: 94, B: 6}, 0.95) == {A, B}

    def test_empty_hour(self):
        assert core_set({}, 0.95) == set()
        assert core_set({A: 0, B: 0}, 0.95) == set()

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            core_set({A: 1}, 0.0)
        with pytest.raises(ValueError):
            core_set({A: 1}, 1.5)

    def test_tie_break_by_text(self):
        # equal volumes: lexicographically smaller text ranks first
        assert core_set({B: 10, A: 10}, 0.5) == {A}

    def test_matches_brute_force_on_random_hours(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            vols = {
                synthetic_prefix(k): int(rng.integers(0, 1000))
                for k in range(1, n + 1)
            }
            threshold = float(rng.uniform(0.3, 1.0))
            assert core_set(vols, threshold) == brute_force_core(vols, threshold)

    def test_minimality_and_monotonicity(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            vols = {
                synthetic_prefix(k): int(rng.integers(0, 500))
                for k in range(1, n + 1)
            }
            total = sum(vols.values())
            if total == 0:
                continue
            core = core_set(vols, 0.95)
            covered = sum(vols[p] for p in core)
            assert covered >= 0.95 * total
            # dropping the weakest member must fall below the threshold
            weakest = sorted(core, key=lambda p: (vols[p], p.text))[0]
            assert covered - vols[weakest] < 0.95 * total
            # raising the threshold never shrinks the core
            assert core <= core_set(vols, 0.99)


class TestCorePresenceIntensity:
    def test_all_ones(self):
        assert core_presence_intensity([1] * 24) == 1.0

    def test_all_zeros(self):
        assert core_presence_intensity([0] * 24) == 0.0

    def test_half(self):
        assert core_presence_intensity([1] * 84 + [0] * 84) == 0.5

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            core_presence_intensity([0, 2, 1])


class TestBurstinessScore:
    def test_always_present_scores_zero(self):
        assert burstiness_score(1.0, 50.0) == 0.0

    def test_never_present_scores_zero(self):
        assert burstiness_score(0.0, 50.0) == 0.0

    def test_log_amplification(self):
        assert burstiness_score(math.exp(-1), 10.0) == pytest.approx(10.0)

    def test_zero_volume_scores_zero(self):
        assert burstiness_score(0.3, 0.0) == 0.0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            burstiness_score(1.5, 10.0)
        with pytest.raises(ValueError):
            burstiness_score(0.5, 150.0)


class TestCoreProfile:
    def test_profile_cores_match_scalar_core_set(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=24)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=60, noise=0.6, seed=2), grid)
        profile = compute_core_profile(m, threshold=0.9)
        for h in (1, 7, 24):
            assert profile.core(h) == core_set(m.hour(h), 0.9)

    def test_membership_flags_match_cores(self):
        m = matrix({A: [9, 0, 1], B: [1, 10, 1]}, bins=3)
        profile = compute_core_profile(m, threshold=0.95)
        for h in (1, 2, 3):
            members = profile.core(h)
            for p in m.prefixes:
                assert bool(profile.cp[profile.index_of(p), h - 1]) == (p in members)

    def test_intensity_is_presence_mean(self):
        m = matrix({A: [9, 9, 9, 9], B: [1, 100, 1, 1]}, bins=4)
        profile = compute_core_profile(m, threshold=0.95)
        for p in m.prefixes:
            assert profile.intensity(p) == pytest.approx(
                core_presence_intensity(profile.presence(p))
            )
            assert 0.0 <= profile.intensity(p) <= 1.0

    def test_bi_zero_when_everyone_always_core(self):
        m = matrix({A: [5, 5], B: [5, 5]}, bins=2)
        profile = compute_core_profile(m, threshold=0.95)
        # both prefixes are needed for 95% of identical hours
        assert profile.icp.tolist() == [1.0, 1.0]
        np.testing.assert_array_equal(profile.bi, 0.0)

    def test_index_matches_brute_force(self):
        rng = np.random.default_rng(21)
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=12)
        for _ in range(25):
            n = int(rng.integers(2, 25))
            values = rng.integers(0, 200, size=(n, 12))
            if not values.any():
                continue
            m = HourlyTraceMatrix(grid, [synthetic_prefix(k + 1) for k in range(n)], values)
            profile = compute_core_profile(m)
            for h in (1, 5, 12):
                expected = 0.0
                total = m.total(h)
                for p in profile.core(h):
                    icp = profile.intensity(p)
                    vp = 100.0 * m.series(p)[h - 1] / total
                    if 0 < icp:
                        expected += -math.log(icp) * vp
                assert burstiness_index(profile, m, h) == pytest.approx(
                    expected, abs=1e-9
                )
                assert profile.bi[h - 1] == pytest.approx(expected, abs=1e-9)

    def test_single_term_index(self):
        # one dominant prefix owns hour 4's core; its score is the whole index
        m = matrix({A: [99, 99, 99, 0], B: [1, 1, 1, 50]}, bins=4)
        profile = compute_core_profile(m, threshold=0.95)
        assert profile.core(4) == {B}
        assert profile.intensity(B) == pytest.approx(0.25)
        icp_b = profile.intensity(B)
        vp_b = 100.0 * 50 / 50
        assert burstiness_index(profile, m, 4) == pytest.approx(
            burstiness_score(icp_b, vp_b)
        )
        assert burstiness_index(profile, m, 4) > 0

    def test_scores_non_negative(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=24)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=40, noise=1.0, seed=8), grid)
        profile = compute_core_profile(m)
        assert (profile.beta >= 0).all()
        assert (profile.bi >= 0).all()

    def test_index_rejects_out_of_range_hour(self):
        m = matrix({A: [1, 2], B: [2, 1]}, bins=2)
        profile = compute_core_profile(m)
        with pytest.raises(ValueError):
            burstiness_index(profile, m, 0)
        with pytest.raises(ValueError):
            burstiness_index(profile, m, 3)


class TestConcentrationCurve:
    def test_single_active_prefix(self):
        m = matrix({A: [3, 3]}, bins=2)
        curve = concentration_curve(m)
        np.testing.assert_allclose(curve.shares, [1.0])
        np.testing.assert_allclose(curve.cdf, [1.0])

    def test_two_equal_prefixes(self):
        m = matrix({A: [5, 0], B: [0, 5]}, bins=2)
        curve = concentration_curve(m)
        np.testing.assert_allclose(curve.shares, [0.5, 0.5])
        np.testing.assert_allclose(curve.cdf, [0.5, 1.0])

    def test_zipf_overlay_head(self):
        m = matrix({A: [3], B: [1]}, bins=1)
        curve = concentration_curve(m, ("hour", 1))
        harmonic = sum(1.0 / n for n in range(1, 100_001))
        assert curve.zipf_overlay[0] == pytest.approx(1.0 / harmonic, rel=1e-9)
        assert curve.zipf_overlay[0] == pytest.approx(0.0827, abs=5e-4)

    def test_spans(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=48)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=30, noise=0.3, seed=4), grid)
        for span in ("week", "hour:5", ("day", 2), ("hour", 48)):
            curve = concentration_curve(m, span)
            assert (np.diff(curve.shares) <= 0).all()
            assert (np.diff(curve.cdf) >= -1e-15).all()
            assert curve.cdf[-1] == pytest.approx(1.0, abs=1e-9)

    def test_bad_spans(self):
        m = matrix({A: [1, 1]}, bins=2)
        with pytest.raises(ValueError):
            concentration_curve(m, "hour:9")
        with pytest.raises(ValueError):
            concentration_curve(m, ("day", 1))  # 24 bins do not fit
        with pytest.raises(ValueError):
            concentration_curve(m, "fortnight")

    def test_zero_volume_span_errors(self):
        m = matrix({A: [1, 0]}, bins=2)
        with pytest.raises(ValueError, match="zero-volume"):
            concentration_curve(m, ("hour", 2))


class TestVolumeBins:
    def test_decade_placement(self):
        # A at 5% of the week lands in [1,10); B at 95% in [10,100]
        m = matrix({A: [5, 5], B: [95, 95]}, bins=2)
        stats = cv_vs_volume_bins(m)
        by_label = {s.label: s for s in stats}
        assert by_label["[1,10)"].count == 1
        assert by_label["[10,100)"].count == 1
        assert by_label["[0.1,1)"].count == 0

    def test_constant_series_have_zero_cv(self):
        m = matrix({A: [5, 5], B: [95, 95]}, bins=2)
        for s in cv_vs_volume_bins(m):
            if s.count:
                assert s.mean == 0.0 and s.median == 0.0

    def test_single_prefix_bin_stats_collapse(self):
        m = matrix({A: [1, 3], B: [96, 96]}, bins=2)
        stats = {s.label: s for s in cv_vs_volume_bins(m)}
        cell = stats["[1,10)"]
        assert cell.count == 1
        assert cell.mean == cell.median == pytest.approx(0.5)

    def test_underflow_bin_exists(self):
        series = {A: [1, 0], B: [2_000_000, 2_000_000]}
        m = matrix(series, bins=2)
        stats = cv_vs_volume_bins(m)
        under = stats[0]
        assert under.label.startswith("<") and under.count == 1

    def test_full_share_lands_in_top_bin(self):
        m = matrix({A: [7, 7]}, bins=2)
        stats = cv_vs_volume_bins(m)
        assert stats[-1].count == 1

    def test_icp_bins_known_intensities(self):
        # hand-built profile: equal weekly shares, intensities 0.2 and 0.4
        m = matrix({A: [10, 10], B: [10, 10]}, bins=2)
        profile = CoreProfile(
            threshold=0.95,
            prefixes=m.prefixes,
            cp=np.zeros((2, 2), dtype=np.uint8),
            icp=np.array([0.2, 0.4]),
            beta=np.zeros((2, 2)),
            bi=np.zeros(2),
            core_sizes=np.zeros(2, dtype=np.int64),
        )
        stats = {s.label: s for s in icp_vs_volume_bins(m, profile)}
        cell = stats["[10,100)"]
        assert cell.count == 2
        assert cell.mean == pytest.approx(0.3)

    def test_icp_bins_extremes(self):
        m = matrix({A: [9, 9], B: [1, 100]}, bins=2)
        profile = compute_core_profile(m, threshold=0.9)
        stats = icp_vs_volume_bins(m, profile)
        values = [s.mean for s in stats if s.count]
        assert max(values) <= 1.0 and min(values) >= 0.0

    def test_icp_bins_always_and_never_core(self):
        # A owns every core; B never makes it
        m = matrix({A: [99, 99], B: [1, 1]}, bins=2)
        profile = compute_core_profile(m, threshold=0.95)
        stats = {s.label: s for s in icp_vs_volume_bins(m, profile)}
        assert stats["[10,100)"].mean == 1.0
        assert stats["[1,10)"].mean == 0.0


class TestSummaries:
    def test_core_summary_shape_and_single_prefix(self):
        m = matrix({A: [5, 5]}, bins=2)
        profile = compute_core_profile(m)
        summary = core_summary(profile, m)
        assert summary == {
            "avg_core_size": 1.0,
            "avg_core_pct_of_active": 100.0,
            "max_core_size": 1,
        }

    def test_burstiness_summary_keys(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=24)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=30, noise=0.5, seed=6), grid)
        summary = burstiness_summary(compute_core_profile(m))
        assert set(summary) == {"mean_bi", "max_bi", "max_beta"}
        assert summary["max_bi"] >= summary["mean_bi"] >= 0.0
