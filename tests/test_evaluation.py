"""Coverage, churn, boxplot summaries, and burstiness against coverage."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefixcast.dynamism import compute_core_profile
from prefixcast.evaluation import (
    boxplot_summary,
    evaluate_run,
    hourly_coverage,
    oracle_topk,
    sorted_median,
    sorted_percentile,
)
from prefixcast.selectors import SelectorConfig, max_core_size, run_selection
from prefixcast.trace import (
    HourlyTraceMatrix,
    Prefix,
    SyntheticTraceSpec,
    TimeGrid,
    synthesize_trace,
    synthetic_prefix,
)
from scalar_oracles import picked_set, selection_run

A = Prefix.parse("10.0.0.0/24")
B = Prefix.parse("10.0.1.0/24")
C = Prefix.parse("10.0.2.0/24")


def matrix(series: dict, bins: int) -> HourlyTraceMatrix:
    grid = TimeGrid(start=0, bin_count=bins)
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


def churn(prev, new) -> int:
    """``evaluate_run``'s churn between two consecutive hours that pick
    the given row indices."""
    rows = max([*prev, *new, 0]) + 1
    m = matrix({synthetic_prefix(k + 1): [1, 1, 1] for k in range(rows)}, bins=3)
    return int(evaluate_run(picks_run(m.prefixes, [list(prev), list(new)]), m).churn[0])


class TestChurn:
    def test_one_in_one_out(self):
        assert churn({0, 1, 2}, {1, 2, 3}) == 2

    def test_identical_sets(self):
        assert churn({0, 1}, {0, 1}) == 0

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
            assert churn(a, b) == churn(b, a) == len(a ^ b)


class TestBoxplotSummary:
    def test_constant(self):
        s = boxplot_summary([1, 1, 1])
        assert (s.min, s.p25, s.median, s.mean, s.p75, s.max) == (1, 1, 1, 1, 1, 1)

    def test_two_values(self):
        s = boxplot_summary([0, 1])
        assert s.min == 0 and s.max == 1
        assert s.mean == 0.5 and s.median == 0.5

    def test_linear_interpolation_percentiles(self):
        s = boxplot_summary([1, 2, 3, 4, 5])
        assert s.p25 == 2.0 and s.median == 3.0 and s.p75 == 4.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            boxplot_summary([])


# ties from a small pool, and any finite float (subnormals included) small
# enough that a difference of two never overflows
QUANTILE_SERIES = st.lists(
    st.sampled_from([-3.0, -0.5, 0.0, 1.0, 5e-324, 2.5])
    | st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    min_size=1, max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(values=QUANTILE_SERIES)
@example(values=[7.25])
@example(values=[0.1, 0.7])
@example(values=[5e-324, 1e-310, -2.2250738585072014e-308])
@example(values=[2.0, 2.0, -1.0, 2.0])
def test_sorted_quantiles_equal_numpy(values):
    arr = np.array(values)
    s = np.sort(arr)
    for q in (5, 25, 75, 95):
        assert sorted_percentile(s, q) == np.percentile(arr, q)
    assert sorted_median(s) == np.median(arr)


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
        with pytest.raises(ValueError, match="k must be >= 1"):
            oracle_topk(m, 2, 0)

    def test_oracle_is_coverage_upper_bound(self):
        rng = np.random.default_rng(9)
        grid = TimeGrid(start=0, bin_count=16)
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
        grid = TimeGrid(start=0, bin_count=8)
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
        grid = TimeGrid(start=0, bin_count=24)
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
            direct = hourly_coverage(picked_set(run, int(h)), m, int(h))
            assert report.coverage[pos] == pytest.approx(direct, abs=1e-12)
        # churn agrees with the scalar operation
        for pos in range(1, len(report.hours)):
            prev, new = (picked_set(run, int(h)) for h in report.hours[pos - 1 : pos + 1])
            assert report.churn[pos - 1] == len(prev ^ new)

    def test_stationary_trace_churn_drops_with_window(self):
        # no bursts, no diurnal swing: churn is pure noise and longer
        # windows average it away
        grid = TimeGrid(start=0, bin_count=168)
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

    def test_run_against_another_matrix_rejected(self):
        m = matrix({A: [3, 4], B: [4, 3]}, bins=2)
        run = run_selection(m, compute_core_profile(m), SelectorConfig("mean_volume", 1, 1))
        with pytest.raises(ValueError, match="run and matrix cover different prefix sets"):
            evaluate_run(run, matrix({A: [3, 4], C: [4, 3]}, bins=2))


def exact_evaluation(run, m):
    """Independent oracle for ``evaluate_run``, one hour at a time.

    Sums each hour's picked volumes and its total as Python ints, then
    divides their float64 values; churn is the size of the symmetric
    difference of consecutive pick sets.
    """
    coverage = []
    for hour, picks in zip(run.hours.tolist(), run.picks):
        column = m.values[:, hour - 1].tolist()
        total = sum(column)
        covered = sum(column[i] for i in picks.tolist())
        coverage.append(float(covered) / float(total) if total > 0 else 1.0)
    sets = [set(p.tolist()) for p in run.picks]
    return coverage, [len(a ^ b) for a, b in zip(sets, sets[1:])]


def picks_run(prefixes, picks):
    """A selection run predicting hours 2, 3, ... from the given pick lists."""
    config = SelectorConfig("mean_volume", 1, max(len(prefixes), 1))
    return selection_run(config, prefixes, [[(row, 1.0) for row in p] for p in picks])


# 3**36 is odd and above 2**53, so picked sums round when made float64
EVALUATION_CELLS = st.sampled_from((0, 0, 1, 7, 3**36))


@st.composite
def evaluation_cases(draw):
    """A small matrix, one of whose hours may be all zero, and a run of
    distinct picks in any order, of any size, for each predicted hour."""
    n = draw(st.integers(1, 8))
    bins = draw(st.integers(2, 10))
    values = np.array(
        draw(st.lists(EVALUATION_CELLS, min_size=n * bins, max_size=n * bins)), dtype=np.int64
    ).reshape(n, bins)
    values[:, draw(st.integers(0, bins - 1))] = 0
    values[0, 0] = 1
    grid = TimeGrid(start=0, bin_count=bins)
    m = HourlyTraceMatrix(grid, [synthetic_prefix(k + 1) for k in range(n)], values)
    picks = []
    for _ in range(bins - 1):
        order = draw(st.permutations(range(len(m))))
        picks.append(order[: draw(st.integers(0, len(m)))])
    return m, picks_run(m.prefixes, picks)


class TestEvaluateRunMatchesExactOracle:
    @settings(max_examples=300, deadline=None)
    @given(evaluation_cases())
    def test_coverage_and_churn_identical(self, case):
        m, run = case
        report = evaluate_run(run, m)
        coverage, churns = exact_evaluation(run, m)
        assert report.coverage.dtype == np.float64 and report.churn.dtype == np.int64
        assert report.coverage.tolist() == coverage
        assert report.churn.tolist() == churns

    def test_zero_total_hour_is_covered(self):
        m = matrix({A: [5, 0, 3], B: [1, 0, 0]}, bins=3)
        run = picks_run(m.prefixes, [[], [1]])
        report = evaluate_run(run, m)
        assert report.coverage.tolist() == exact_evaluation(run, m)[0] == [1.0, 0.0]
        assert report.churn.tolist() == [1]

    def test_selection_runs_identical(self):
        grid = TimeGrid(start=0, bin_count=48)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=40, noise=0.6, seed=8), grid)
        profile = compute_core_profile(m)
        for method in ("mean_volume", "core_presence", "core_volume", "gm11"):
            run = run_selection(m, profile, SelectorConfig(method, 6, max_core_size(profile)))
            report = evaluate_run(run, m)
            coverage, churns = exact_evaluation(run, m)
            assert report.coverage.tolist() == coverage
            assert report.churn.tolist() == churns

    def test_mask_coverage_equals_hourly_coverage_loop(self):
        grid = TimeGrid(start=0, bin_count=48)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=40, noise=0.6, seed=8), grid)
        profile = compute_core_profile(m)
        for method in ("mean_volume", "core_presence", "core_volume", "gm11"):
            run = run_selection(m, profile, SelectorConfig(method, 6, max_core_size(profile)))
            coverage = [
                hourly_coverage([m.prefixes[i] for i in np.flatnonzero(row)], m, hour)
                for hour, row in zip(run.hours.tolist(), run.mask)
            ]
            assert evaluate_run(run, m).coverage.tolist() == coverage

    def test_empty_matrix(self):
        empty = SimpleNamespace(
            prefixes=(), values=np.zeros((0, 4), dtype=np.int64),
            totals=np.zeros(4, dtype=np.int64),
        )
        run = picks_run((), [[], [], []])
        report = evaluate_run(run, empty)
        coverage, churns = exact_evaluation(run, empty)
        assert report.coverage.tolist() == coverage == [1.0, 1.0, 1.0]
        assert report.churn.tolist() == churns == [0, 0]


class TestBurstinessVsCoverage:
    def points(self, m):
        """(mean BI, mean coverage) and (max BI, min coverage) of the
        core-volume selector on one trace."""
        profile = compute_core_profile(m)
        config = SelectorConfig("core_volume", m.bin_count, max_core_size(profile))
        report = evaluate_run(run_selection(m, profile, config), m)
        return (
            (float(profile.bi.mean()), float(report.coverage.mean())),
            (float(profile.bi.max()), float(report.coverage.min())),
        )

    def test_single_trace_single_point(self):
        # the worst point lies right of and below the mean point
        grid = TimeGrid(start=0, bin_count=24)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=30, noise=0.3, seed=1), grid)
        (mean_bi, mean_cov), (max_bi, min_cov) = self.points(m)
        assert max_bi >= mean_bi >= 0.0
        assert min_cov <= mean_cov <= 1.0

    def test_calm_trace_sits_at_origin_full_coverage(self):
        # a single prefix is always the whole core: index 0, coverage 1
        m = matrix({A: [5, 5, 5, 5]}, bins=4)
        assert self.points(m) == ((0.0, 1.0), (0.0, 1.0))

    def test_bursty_trace_has_worse_minimum_coverage(self):
        grid = TimeGrid(start=0, bin_count=48)
        calm = synthesize_trace(
            SyntheticTraceSpec(prefix_count=50, noise=0.2, seed=4), grid
        )
        # same trace plus one violent burst from a previously idle prefix
        burst = np.zeros(48, dtype=np.int64)
        burst[30] = calm.total(31)  # doubles that hour
        bursty = HourlyTraceMatrix(
            grid, [*calm.prefixes, Prefix.parse("10.99.0.0/24")], np.vstack([calm.values, burst])
        )

        (calm_bi, calm_cov), (bursty_bi, bursty_cov) = (self.points(m)[1] for m in (calm, bursty))
        assert bursty_bi > calm_bi
        assert bursty_cov <= calm_cov
