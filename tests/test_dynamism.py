"""Dynamism metrics: variation, cores, presence, burstiness, concentration."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixcast import dynamism
from prefixcast.dynamism import (
    ZIPF_REF_N,
    ZIPF_REF_S,
    burstiness_summary,
    compute_core_profile,
    concentration_curve,
    core_summary,
    cv_vs_volume_bins,
    icp_vs_volume_bins,
    prefix_shares_and_cv,
)
from prefixcast.trace import (
    HourlyTraceMatrix,
    Prefix,
    SyntheticTraceSpec,
    TimeGrid,
    synthesize_trace,
    synthetic_prefix,
    zipf_shares,
)
from scalar_oracles import burstiness_score

A = Prefix.parse("10.0.0.0/24")
B = Prefix.parse("10.0.1.0/24")
C = Prefix.parse("10.0.2.0/24")
D = Prefix.parse("10.0.3.0/24")


def matrix(series: dict, bins: int) -> HourlyTraceMatrix:
    grid = TimeGrid(start=0, bin_count=bins)
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


def cv_of(*series) -> np.ndarray:
    """``prefix_shares_and_cv``'s cv of each series, as rows of one matrix."""
    rows = {synthetic_prefix(k + 1): list(v) for k, v in enumerate(series)}
    return prefix_shares_and_cv(matrix(rows, bins=len(series[0])))[1]


def core_of(volumes: dict, threshold: float) -> set:
    """``compute_core_profile``'s core of an hour with these volumes; a
    second hour keeps every prefix a row."""
    m = matrix({p: [v, 1] for p, v in volumes.items()}, bins=2)
    cp = compute_core_profile(m, threshold).cp
    return {m.prefixes[i] for i in np.flatnonzero(cp[:, 0])}


def core_members(profile, h: int) -> set:
    return {profile.prefixes[i] for i in np.flatnonzero(profile.cp[:, h - 1])}


class TestCoefficientOfVariation:
    def test_constant_series_is_zero(self):
        assert cv_of([5] * 168).tolist() == [0.0]

    def test_single_active_hour_attains_maximum(self):
        series = np.zeros(168, dtype=np.int64)
        series[0] = 168
        assert cv_of(series)[0] == pytest.approx(math.sqrt(167), abs=1e-9)

    def test_hand_example(self):
        # mean 2, population std 1
        assert cv_of([1, 3])[0] == pytest.approx(0.5)

    def test_all_zero_errors(self):
        # an all-zero series has no cv: its row is dropped, and a matrix
        # with no other row is refused
        assert cv_of([0, 0, 0], [1, 2, 3]).size == 1
        with pytest.raises(ValueError, match="no active prefixes"):
            cv_of([0, 0, 0])

    def test_single_entry_errors(self):
        with pytest.raises(ValueError):
            cv_of([7])

    def test_bounded_by_length_maximum(self):
        rng = np.random.default_rng(5)
        bound = math.sqrt(167)
        rows = []
        for _ in range(300):
            series = rng.uniform(0, 1000, size=168)
            series[rng.uniform(size=168) < 0.7] = 0.0
            if series.sum() == 0:
                series[0] = 1.0
            rows.append(np.rint(series * 1e6).astype(np.int64))
        cv = cv_of(*rows)
        assert cv.size == 300 and (cv <= bound + 1e-9).all()


class TestCoreSet:
    def test_cumulative_reaches_threshold(self):
        vols = {A: 50, B: 30, C: 15, D: 5}
        assert core_of(vols, 0.95) == {A, B, C}

    def test_single_prefix(self):
        assert core_of({A: 7}, 0.95) == {A}

    def test_forced_inclusion(self):
        # 94 < 95 forces the small prefix in too
        assert core_of({A: 94, B: 6}, 0.95) == {A, B}

    def test_empty_hour(self):
        assert core_of({A: 0, B: 0}, 0.95) == set()

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            core_of({A: 1}, 0.0)
        with pytest.raises(ValueError):
            core_of({A: 1}, 1.5)

    def test_tie_break_by_text(self):
        # equal volumes: lexicographically smaller text ranks first
        assert core_of({B: 10, A: 10}, 0.5) == {A}

    def test_matches_brute_force_on_random_hours(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            vols = {
                synthetic_prefix(k): int(rng.integers(0, 1000))
                for k in range(1, n + 1)
            }
            threshold = float(rng.uniform(0.3, 1.0))
            assert core_of(vols, threshold) == brute_force_core(vols, threshold)

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
            core = core_of(vols, 0.95)
            covered = sum(vols[p] for p in core)
            assert covered >= 0.95 * total
            # dropping the weakest member must fall below the threshold
            weakest = sorted(core, key=lambda p: (vols[p], p.text))[0]
            assert covered - vols[weakest] < 0.95 * total
            # raising the threshold never shrinks the core
            assert core <= core_of(vols, 0.99)


class TestCorePresenceIntensity:
    def test_all_ones(self):
        assert compute_core_profile(matrix({A: [1] * 24}, bins=24)).icp.tolist() == [1.0]

    def test_all_zeros(self):
        # A carries 99% of every hour, so B never joins the core
        profile = compute_core_profile(matrix({A: [99] * 24, B: [1] * 24}, bins=24))
        assert profile.icp.tolist() == [1.0, 0.0]

    def test_half(self):
        m = matrix({A: [1] * 84 + [0] * 84, B: [0] * 84 + [1] * 84}, bins=168)
        assert compute_core_profile(m).icp.tolist() == [0.5, 0.5]

    def test_rejects_non_binary(self):
        # the presence series an intensity averages hold only 0 and 1, and
        # cannot be changed afterwards
        grid = TimeGrid(start=0, bin_count=24)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=30, noise=0.8, seed=3), grid)
        cp = compute_core_profile(m).cp
        assert cp.dtype == np.uint8 and set(np.unique(cp).tolist()) == {0, 1}
        with pytest.raises(ValueError, match="read-only"):
            cp[0, 0] = 2


class TestBurstinessScore:
    def test_always_present_scores_zero(self):
        profile = compute_core_profile(matrix({A: [50, 50]}, bins=2))
        assert profile.max_beta == 0.0 and profile.bi.tolist() == [0.0, 0.0]

    def test_never_present_scores_zero(self):
        # B is never core (icp 0) and A always is (icp 1): neither scores
        profile = compute_core_profile(matrix({A: [99, 99], B: [1, 1]}, bins=2))
        assert profile.icp.tolist() == [1.0, 0.0]
        assert profile.max_beta == 0.0

    def test_log_amplification(self):
        # B sits in one core of four and then carries its whole hour
        profile = compute_core_profile(matrix({A: [99, 99, 99, 0], B: [1, 1, 1, 50]}, bins=4))
        assert profile.max_beta == pytest.approx(-math.log(0.25) * 100.0)
        assert profile.bi[3] == pytest.approx(-math.log(0.25) * 100.0)

    def test_zero_volume_scores_zero(self):
        # an hour without volume has an empty core and adds nothing
        profile = compute_core_profile(matrix({A: [5, 0, 5, 1], B: [0, 0, 5, 9]}, bins=4))
        assert profile.core_sizes[1] == 0 and profile.bi[1] == 0.0
        assert profile.bi[3] > 0


class TestCoreProfile:
    def test_profile_cores_match_scalar_core_set(self):
        grid = TimeGrid(start=0, bin_count=24)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=60, noise=0.6, seed=2), grid)
        profile = compute_core_profile(m, threshold=0.9)
        for h in (1, 7, 24):
            hour = dict(zip(m.prefixes, m.values[:, h - 1].tolist()))
            assert core_members(profile, h) == brute_force_core(hour, 0.9)

    def test_membership_flags_match_cores(self):
        # hour 1: A's 9 of 10 falls short; hour 2: B alone; hour 3: a tie
        m = matrix({A: [9, 0, 1], B: [1, 10, 1]}, bins=3)
        profile = compute_core_profile(m, threshold=0.95)
        assert profile.cp.tolist() == [[1, 0, 1], [1, 1, 1]]
        assert profile.core_sizes.tolist() == [2, 1, 2]

    def test_intensity_is_presence_mean(self):
        m = matrix({A: [9, 9, 9, 9], B: [1, 100, 1, 1]}, bins=4)
        profile = compute_core_profile(m, threshold=0.95)
        assert profile.icp.tolist() == profile.cp.mean(axis=1).tolist()
        assert ((0.0 <= profile.icp) & (profile.icp <= 1.0)).all()

    def test_bi_zero_when_everyone_always_core(self):
        m = matrix({A: [5, 5], B: [5, 5]}, bins=2)
        profile = compute_core_profile(m, threshold=0.95)
        # both prefixes are needed for 95% of identical hours
        assert profile.icp.tolist() == [1.0, 1.0]
        np.testing.assert_array_equal(profile.bi, 0.0)

    def test_index_matches_brute_force(self):
        rng = np.random.default_rng(21)
        grid = TimeGrid(start=0, bin_count=12)
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
                for i in np.flatnonzero(profile.cp[:, h - 1]):
                    icp = profile.icp[i]
                    vp = 100.0 * m.values[i, h - 1] / total
                    if 0 < icp:
                        expected += -math.log(icp) * vp
                assert profile.bi[h - 1] == pytest.approx(expected, abs=1e-9)

    def test_single_term_index(self):
        # one dominant prefix owns hour 4's core; its score is the whole index
        m = matrix({A: [99, 99, 99, 0], B: [1, 1, 1, 50]}, bins=4)
        profile = compute_core_profile(m, threshold=0.95)
        assert core_members(profile, 4) == {B}
        assert profile.icp[1] == pytest.approx(0.25)
        assert profile.bi[3] == pytest.approx(burstiness_score(profile.icp[1], 100.0))
        assert profile.bi[3] > 0

    def test_scores_non_negative(self):
        grid = TimeGrid(start=0, bin_count=24)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=40, noise=1.0, seed=8), grid)
        profile = compute_core_profile(m)
        assert profile.max_beta >= 0
        assert (profile.bi >= 0).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_max_beta_is_largest_scalar_score(self, seed):
        # every (prefix, hour) through the scalar burstiness score
        rng = np.random.default_rng(seed)
        n, bins = int(rng.integers(1, 12)), int(rng.integers(2, 30))
        values = rng.integers(0, 50, size=(n, bins)) * (rng.random((n, bins)) < 0.6)
        values[0, 0] += 1
        m = HourlyTraceMatrix(
            TimeGrid(start=0, bin_count=bins),
            [synthetic_prefix(k + 1) for k in range(n)], values,
        )
        profile = compute_core_profile(m, threshold=float(rng.choice([0.5, 0.8, 0.95])))
        want = max(
            burstiness_score(profile.icp[i], 100.0 * float(m.values[i, h]) / float(m.totals[h]))
            for i in range(len(m))
            for h in range(bins)
            if m.totals[h] > 0
        )
        assert profile.max_beta == want
        assert burstiness_summary(profile)["max_beta"] == want


def per_hour_core_cp(m, threshold):
    """Independent oracle for ``compute_core_profile(...).cp``, one hour at a
    time: rank the hour stably on -volume and cut it where the float64
    running sum first reaches ``threshold`` of its last entry."""
    n, hours = m.values.shape
    cp = np.zeros((n, hours), dtype=np.uint8)
    for j in range(hours):
        order = np.argsort(-m.values[:, j], kind="stable")
        cum = np.cumsum(m.values[order, j].astype(np.float64))
        total = cum[-1] if cum.size else 0.0
        if total > 0:
            k = int(np.searchsorted(cum, threshold * float(total), side="left")) + 1
            cp[order[:k], j] = 1
    return cp


# small cells tie; 3**36 is odd and above 2**53, so running sums round
CORE_CELLS = st.sampled_from((0, 0, 1, 2, 3, 3**36))
CORE_THRESHOLDS = st.one_of(
    st.sampled_from((0.5, 0.95, 0.999, 1.0)), st.floats(min_value=1e-6, max_value=1.0)
)


@st.composite
def core_matrices(draw):
    """A small matrix with ties and possibly all-zero hours."""
    n = draw(st.integers(1, 8))
    bins = draw(st.integers(1, 10))
    values = np.array(
        draw(st.lists(CORE_CELLS, min_size=n * bins, max_size=n * bins)), dtype=np.int64
    ).reshape(n, bins)
    values[0, 0] = max(int(values[0, 0]), 1)
    grid = TimeGrid(start=0, bin_count=bins)
    return HourlyTraceMatrix(grid, [synthetic_prefix(k + 1) for k in range(n)], values)


class TestCoreProfileMatchesPerHourLoop:
    @settings(max_examples=300, deadline=None)
    @given(core_matrices(), CORE_THRESHOLDS)
    def test_membership_identical(self, m, threshold):
        profile = compute_core_profile(m, threshold)
        want = per_hour_core_cp(m, threshold)
        assert profile.cp.dtype == want.dtype
        assert np.array_equal(profile.cp, want)
        assert profile.core_sizes.tolist() == want.sum(axis=0).tolist()

    @pytest.mark.parametrize("threshold", [0.5, 0.95, 0.999, 1.0])
    def test_synthetic_week_identical(self, threshold):
        grid = TimeGrid(start=0, bin_count=168)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=80, noise=0.7, seed=6), grid)
        assert np.array_equal(
            compute_core_profile(m, threshold).cp, per_hour_core_cp(m, threshold)
        )

    def test_random_arrays_with_all_zero_rows_identical(self):
        # a matrix drops all-zero rows, so the arrays come in a stand-in
        rng = np.random.default_rng(11)
        ties_cut = 0
        for _ in range(40):
            n, bins = int(rng.integers(1, 60)), int(rng.integers(1, 12))
            values = (rng.integers(0, 4, (n, bins)) * rng.integers(0, 2, (n, 1))
                      * rng.integers(0, 2, bins))  # all-zero rows and zero-total hours
            m = SimpleNamespace(prefixes=tuple(synthetic_prefix(k + 1) for k in range(n)),
                                values=values, totals=values.sum(axis=0))
            for threshold in (0.5, 0.95, 1.0):
                cp = compute_core_profile(m, threshold).cp
                assert np.array_equal(cp, per_hour_core_cp(m, threshold))
                for h in np.flatnonzero(cp.any(axis=0)):
                    core = cp[:, h].astype(bool)
                    ties_cut += (values[~core, h] == values[core, h].min()).any()
        assert ties_cut  # some hour's core left out rows tied at its smallest volume

    def test_a_matrix_without_prefixes_is_refused_before_any_profile(self):
        # so compute_core_profile always sees at least one row and one hour
        grid = TimeGrid(start=0, bin_count=5)
        for prefixes, values in (([], np.zeros((0, 5), np.int64)), ([A], np.zeros((1, 5), int))):
            with pytest.raises(ValueError, match="no active prefixes"):
                HourlyTraceMatrix(grid, prefixes, values)
        with pytest.raises(ValueError, match="bin_count must be positive"):
            TimeGrid(start=0, bin_count=0)


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
        curve = concentration_curve(m, "hour:1")
        harmonic = sum(1.0 / n for n in range(1, 100_001))
        assert curve.zipf_overlay[0] == pytest.approx(1.0 / harmonic, rel=1e-9)
        assert curve.zipf_overlay[0] == pytest.approx(0.0827, abs=5e-4)

    def test_zipf_overlay_is_the_full_reference_cut(self):
        """The overlay computes only the ranks it fills, dividing by the
        reference's stored total: it equals the leading entries of the
        whole ZIPF_REF_N-rank vector, bit for bit."""
        weights = np.arange(1, ZIPF_REF_N + 1, dtype=np.float64) ** -ZIPF_REF_S
        assert dynamism._ZIPF_REF_TOTAL == weights.sum()
        full = zipf_shares(ZIPF_REF_N, ZIPF_REF_S)
        for n in (1, 3, 30, 591, 65_536):
            m = synthesize_trace(SyntheticTraceSpec(prefix_count=n, seed=n),
                                 TimeGrid(start=0, bin_count=1))
            overlay = concentration_curve(m).zipf_overlay
            assert overlay.size == n and overlay.tobytes() == full[:n].tobytes()

    def test_spans(self):
        grid = TimeGrid(start=0, bin_count=48)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=30, noise=0.3, seed=4), grid)
        for span in ("week", "hour:5", "day:2", "hour:48"):
            curve = concentration_curve(m, span)
            assert (np.diff(curve.shares) <= 0).all()
            assert (np.diff(curve.cdf) >= -1e-15).all()
            assert curve.cdf[-1] == pytest.approx(1.0, abs=1e-9)

    def test_bad_spans(self):
        m = matrix({A: [1, 1]}, bins=2)
        with pytest.raises(ValueError):
            concentration_curve(m, "hour:9")
        with pytest.raises(ValueError):
            concentration_curve(m, "day:1")  # 24 bins do not fit
        with pytest.raises(ValueError):
            concentration_curve(m, "fortnight")

    def test_zero_volume_span_errors(self):
        m = matrix({A: [1, 0]}, bins=2)
        with pytest.raises(ValueError, match="zero-volume"):
            concentration_curve(m, "hour:2")


def cv_bins(m):
    return cv_vs_volume_bins(*prefix_shares_and_cv(m))


def icp_bins(m, icp):
    shares_pct, _ = prefix_shares_and_cv(m)
    return icp_vs_volume_bins(shares_pct, icp)


class TestVolumeBins:
    def test_decade_placement(self):
        # A at 5% of the week lands in [1,10); B at 95% in [10,100]
        m = matrix({A: [5, 5], B: [95, 95]}, bins=2)
        stats = cv_bins(m)
        by_label = {s.label: s for s in stats}
        assert by_label["[1,10)"].count == 1
        assert by_label["[10,100]"].count == 1
        assert by_label["[0.1,1)"].count == 0

    def test_constant_series_have_zero_cv(self):
        m = matrix({A: [5, 5], B: [95, 95]}, bins=2)
        for s in cv_bins(m):
            if s.count:
                assert s.mean == 0.0 and s.median == 0.0

    def test_single_prefix_bin_stats_collapse(self):
        m = matrix({A: [1, 3], B: [96, 96]}, bins=2)
        stats = {s.label: s for s in cv_bins(m)}
        cell = stats["[1,10)"]
        assert cell.count == 1
        assert cell.mean == cell.median == pytest.approx(0.5)

    def test_underflow_bin_exists(self):
        series = {A: [1, 0], B: [2_000_000, 2_000_000]}
        m = matrix(series, bins=2)
        stats = cv_bins(m)
        under = stats[0]
        assert under.label.startswith("<") and under.count == 1

    def test_single_bin_has_no_cv(self):
        with pytest.raises(ValueError, match="at least 2 bins"):
            prefix_shares_and_cv(matrix({A: [7]}, bins=1))

    def test_full_share_lands_in_top_bin(self):
        m = matrix({A: [7, 7]}, bins=2)
        stats = cv_bins(m)
        assert stats[-1].count == 1

    def test_icp_bins_known_intensities(self):
        # equal weekly shares, hand-set intensities 0.2 and 0.4
        m = matrix({A: [10, 10], B: [10, 10]}, bins=2)
        stats = {s.label: s for s in icp_bins(m, np.array([0.2, 0.4]))}
        cell = stats["[10,100]"]
        assert cell.count == 2
        assert cell.mean == pytest.approx(0.3)

    def test_icp_bins_extremes(self):
        m = matrix({A: [9, 9], B: [1, 100]}, bins=2)
        profile = compute_core_profile(m, threshold=0.9)
        stats = icp_bins(m, profile.icp)
        values = [s.mean for s in stats if s.count]
        assert max(values) <= 1.0 and min(values) >= 0.0

    def test_icp_bins_always_and_never_core(self):
        # A owns every core; B never makes it
        m = matrix({A: [99, 99], B: [1, 1]}, bins=2)
        profile = compute_core_profile(m, threshold=0.95)
        stats = {s.label: s for s in icp_bins(m, profile.icp)}
        assert stats["[10,100]"].mean == 1.0
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
        grid = TimeGrid(start=0, bin_count=24)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=30, noise=0.5, seed=6), grid)
        summary = burstiness_summary(compute_core_profile(m))
        assert set(summary) == {"mean_bi", "max_bi", "max_beta"}
        assert summary["max_bi"] >= summary["mean_bi"] >= 0.0
