"""Coverage, churn, boxplot summaries, and the burstiness/coverage relation."""

import numpy as np
import pytest

from prefixcast.dynamism import compute_core_profile
from prefixcast.evaluation import (
    bi_vs_coverage,
    boxplot_summary,
    churn,
    evaluate_run,
    hourly_coverage,
    oracle_topk,
)
from prefixcast.selectors import SelectorConfig, max_core_size, run_selection
from prefixcast.trace import (
    HourlyTraceMatrix,
    Prefix,
    SyntheticTraceSpec,
    TimeGrid,
    synthesize_trace,
)

A = Prefix.parse("10.0.0.0/24")
B = Prefix.parse("10.0.1.0/24")
C = Prefix.parse("10.0.2.0/24")


def matrix(series: dict, bins: int) -> HourlyTraceMatrix:
    grid = TimeGrid(start=0, bin_seconds=3600, bin_count=bins)
    return HourlyTraceMatrix(grid, list(series), list(series.values()))


class TestHourlyCoverage:
    def test_full_set_covers_everything(self):
        m = matrix({A: [50, 1], B: [30, 1], C: [20, 1]}, bins=2)
        assert hourly_coverage(m.prefixes, m, 1) == 1.0

    def test_empty_set_covers_nothing(self):
        m = matrix({A: [50, 1]}, bins=2)
        assert hourly_coverage([], m, 1) == 0.0

    def test_hand_sum(self):
        m = matrix({A: [50, 0], B: [30, 0], C: [20, 1]}, bins=2)
        assert hourly_coverage({A, B}, m, 1) == pytest.approx(0.8)

    def test_dead_hour_counts_as_covered(self):
        m = matrix({A: [5, 0], B: [3, 0]}, bins=2)
        assert hourly_coverage(set(), m, 2) == 1.0

    def test_unknown_prefix_contributes_nothing(self):
        m = matrix({A: [10, 10]}, bins=2)
        stranger = Prefix.parse("192.0.2.0/24")
        assert hourly_coverage({A, stranger}, m, 1) == 1.0


class TestChurn:
    def test_one_in_one_out(self):
        assert churn({"a", "b", "c"}, {"b", "c", "d"}) == 2

    def test_identical_sets(self):
        assert churn({"a", "b"}, {"a", "b"}) == 0

    def test_disjoint_upper_bound(self):
        k = 7
        prev = set(range(k))
        new = set(range(k, 2 * k))
        assert churn(prev, new) == 2 * k

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            a = set(rng.integers(0, 30, size=rng.integers(0, 15)).tolist())
            b = set(rng.integers(0, 30, size=rng.integers(0, 15)).tolist())
            assert churn(a, b) == churn(b, a)


class TestBoxplotSummary:
    def test_constant(self):
        s = boxplot_summary([1, 1, 1])
        assert (s.minimum, s.p25, s.median, s.mean, s.p75, s.maximum) == (1, 1, 1, 1, 1, 1)

    def test_two_values(self):
        s = boxplot_summary([0, 1])
        assert s.minimum == 0 and s.maximum == 1
        assert s.mean == 0.5 and s.median == 0.5

    def test_linear_interpolation_percentiles(self):
        s = boxplot_summary([1, 2, 3, 4, 5])
        assert s.p25 == 2.0 and s.median == 3.0 and s.p75 == 4.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            boxplot_summary([])


class TestOracle:
    def test_topk_ranks_by_volume_with_text_ties(self):
        m = matrix({A: [5, 9], B: [5, 9], C: [1, 9]}, bins=2)
        top = [m.prefixes[i] for i in oracle_topk(m, 1, 2)]
        assert top == [A, B]

    def test_topk_skips_zero_volume(self):
        m = matrix({A: [5, 0], B: [0, 5]}, bins=2)
        assert [m.prefixes[i] for i in oracle_topk(m, 1, 5)] == [A]

    def test_topk_rejects_out_of_range_hour(self):
        m = matrix({A: [5, 0], B: [0, 5]}, bins=2)
        with pytest.raises(ValueError):
            oracle_topk(m, 0, 1)
        with pytest.raises(ValueError):
            oracle_topk(m, 3, 1)

    def test_oracle_is_coverage_upper_bound(self):
        rng = np.random.default_rng(9)
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=16)
        m = synthesize_trace(
            SyntheticTraceSpec(prefix_count=30, noise=0.8, seed=3), grid
        )
        profile = compute_core_profile(m)
        k = 6
        for method in ("mean_volume", "core_presence", "core_volume", "gm11"):
            run = run_selection(m, profile, SelectorConfig(method, 4, k))
            report = evaluate_run(run, m)
            for pos, h in enumerate(report.hours):
                oracle_set = {m.prefixes[i] for i in oracle_topk(m, int(h), k)}
                bound = hourly_coverage(oracle_set, m, int(h))
                assert report.coverage[pos] <= bound + 1e-12

    def test_oracle_coverage_monotone_in_k(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=8)
        m = synthesize_trace(
            SyntheticTraceSpec(prefix_count=25, noise=0.5, seed=7), grid
        )
        for h in (1, 4, 8):
            last = 0.0
            for k in range(1, 26):
                cov = hourly_coverage(
                    {m.prefixes[i] for i in oracle_topk(m, h, k)}, m, h
                )
                assert cov >= last - 1e-12
                last = cov


class TestEvaluateRun:
    def test_series_shapes_and_consistency(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=24)
        m = synthesize_trace(
            SyntheticTraceSpec(prefix_count=40, noise=0.4, seed=11), grid
        )
        profile = compute_core_profile(m)
        run = run_selection(m, profile, SelectorConfig("mean_volume", 12, 10))
        report = evaluate_run(run, m)
        assert report.hours.tolist() == list(range(2, 25))
        assert report.coverage.shape == (23,)
        assert report.churn.shape == (22,)
        assert ((0 <= report.coverage) & (report.coverage <= 1)).all()
        assert (report.churn <= 2 * 10).all()
        # coverage agrees with the scalar operation
        for pos, h in enumerate(report.hours):
            direct = hourly_coverage(run.selected_set(int(h)), m, int(h))
            assert report.coverage[pos] == pytest.approx(direct, abs=1e-12)
        # churn agrees with the scalar operation
        for pos in range(1, len(report.hours)):
            expected = churn(
                run.selected_set(int(report.hours[pos - 1])),
                run.selected_set(int(report.hours[pos])),
            )
            assert report.churn[pos - 1] == expected

    def test_stationary_trace_churn_drops_with_window(self):
        # no bursts, no diurnal swing: churn is pure noise and longer
        # windows average it away
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=168)
        m = synthesize_trace(
            SyntheticTraceSpec(prefix_count=60, noise=0.6, seed=19), grid
        )
        profile = compute_core_profile(m)
        k = max_core_size(profile)
        means = []
        for window in (1, 12, 24, 168):
            run = run_selection(m, profile, SelectorConfig("mean_volume", window, k))
            means.append(evaluate_run(run, m).churn_summary.mean)
        assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))

    def test_single_predicted_hour_has_no_churn_summary(self):
        m = matrix({A: [3, 4], B: [4, 3]}, bins=2)
        profile = compute_core_profile(m)
        run = run_selection(m, profile, SelectorConfig("mean_volume", 1, 1))
        report = evaluate_run(run, m)
        assert report.churn.size == 0
        assert report.churn_summary is None


class TestBurstinessVsCoverage:
    def run_cv(self, m):
        profile = compute_core_profile(m)
        config = SelectorConfig("core_volume", m.bin_count, max_core_size(profile))
        report = evaluate_run(run_selection(m, profile, config), m)
        return report, profile

    def test_single_trace_single_point(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=24)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=30, noise=0.3, seed=1), grid)
        points = bi_vs_coverage([self.run_cv(m)])
        assert len(points.mean_points) == 1
        assert len(points.worst_points) == 1

    def test_calm_trace_sits_at_origin_full_coverage(self):
        # a single prefix is always the whole core: index 0, coverage 1
        m = matrix({A: [5, 5, 5, 5]}, bins=4)
        points = bi_vs_coverage([self.run_cv(m)])
        assert points.mean_points[0] == (0.0, 1.0)
        assert points.worst_points[0] == (0.0, 1.0)

    def test_bursty_trace_has_worse_minimum_coverage(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=48)
        calm = synthesize_trace(
            SyntheticTraceSpec(prefix_count=50, noise=0.2, seed=4), grid
        )
        # same trace plus one violent burst from a previously idle prefix
        burst = np.zeros(48)
        burst[30] = calm.total(31)  # doubles that hour
        bursty = HourlyTraceMatrix(
            grid, [*calm.prefixes, Prefix.parse("10.99.0.0/24")], np.vstack([calm.values, burst])
        )

        points = bi_vs_coverage([self.run_cv(calm), self.run_cv(bursty)])
        (calm_bi, calm_cov), (bursty_bi, bursty_cov) = points.worst_points
        assert bursty_bi > calm_bi
        assert bursty_cov <= calm_cov

    def test_method_guard(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=8)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=10, seed=2), grid)
        profile = compute_core_profile(m)
        report = evaluate_run(
            run_selection(m, profile, SelectorConfig("mean_volume", 1, 3)), m
        )
        with pytest.raises(ValueError, match="core_volume"):
            bi_vs_coverage([(report, profile)])
