"""Selection metrics, the GM(1,1) baseline, and the run driver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixcast.dynamism import compute_core_profile, core_presence_intensity
from prefixcast.evaluation import oracle_topk
from prefixcast.selectors import (
    GM11_MIN_POINTS,
    METHODS,
    WINDOW_GRID,
    SelectorConfig,
    core_volume_score,
    gm11_fit,
    gm11_forecast,
    gm11_forecast_rows,
    max_core_size,
    mean_volume_score,
    run_selection,
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


def matrix(series: dict, bins: int) -> HourlyTraceMatrix:
    grid = TimeGrid(start=0, bin_seconds=3600, bin_count=bins)
    return HourlyTraceMatrix(grid, list(series), list(series.values()))


def random_matrix(rng, n_max=15, bins_max=12):
    """Small random integer matrix with at least one early-active prefix."""
    n = int(rng.integers(2, n_max))
    bins = int(rng.integers(4, bins_max))
    values = rng.integers(0, 50, size=(n, bins))
    values[rng.uniform(size=values.shape) < 0.4] = 0
    values[0, 0] = max(int(values[0, 0]), 1)
    grid = TimeGrid(start=0, bin_seconds=3600, bin_count=bins)
    return HourlyTraceMatrix(grid, [synthetic_prefix(k + 1) for k in range(n)], values)


class TestWindowScores:
    def test_mean_volume(self):
        assert mean_volume_score([3, 6, 9]) == 6.0

    def test_mean_volume_zero_window(self):
        assert mean_volume_score([0, 0, 0]) == 0.0

    def test_mean_volume_last_hour_identity(self):
        assert mean_volume_score([42]) == 42.0

    def test_core_presence(self):
        assert core_presence_intensity([1, 1, 1, 1]) == 1.0
        assert core_presence_intensity([0, 0]) == 0.0
        assert core_presence_intensity([1, 0, 1]) == pytest.approx(2 / 3)

    def test_core_volume_masked_mean(self):
        assert core_volume_score([1, 0, 1], [10, 20, 30]) == pytest.approx(40 / 3)

    def test_core_volume_equals_mean_volume_when_always_core(self):
        v = [7, 1, 9, 4]
        assert core_volume_score([1, 1, 1, 1], v) == mean_volume_score(v)

    def test_core_volume_validation(self):
        with pytest.raises(ValueError):
            core_volume_score([1, 0], [1, 2, 3])
        with pytest.raises(ValueError):
            core_volume_score([1, 2], [1, 2])

    def test_dominance_core_volume_below_mean_volume(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            length = int(rng.integers(1, 40))
            v = rng.uniform(0, 1000, size=length)
            cp = (rng.uniform(size=length) < 0.5).astype(int)
            assert core_volume_score(cp, v) <= mean_volume_score(v) + 1e-12


def normal_equations_fit(series):
    """Independent oracle: explicit 2x2 normal equations via Cramer's rule."""
    x0 = [float(v) for v in series]
    x1 = []
    acc = 0.0
    for v in x0:
        acc += v
        x1.append(acc)
    z = [0.5 * (x1[i] + x1[i - 1]) for i in range(1, len(x0))]
    y = x0[1:]
    n = len(z)
    szz = sum(t * t for t in z)
    sz = sum(z)
    szy = sum(t * u for t, u in zip(z, y))
    sy = sum(y)
    det = n * szz - sz * sz
    if det == 0:
        raise ZeroDivisionError("degenerate")
    a = (-n * szy + sz * sy) / det
    b = (szz * sy - sz * szy) / det
    return a, b


class TestGm11:
    def test_constant_series_returns_constant(self):
        assert gm11_forecast([5, 5, 5, 5]) == pytest.approx(5.0, abs=1e-9)

    def test_fit_matches_normal_equations_oracle(self):
        a, b = gm11_fit([1, 2, 3, 4])
        oa, ob = normal_equations_fit([1, 2, 3, 4])
        assert a == pytest.approx(oa, rel=1e-9)
        assert b == pytest.approx(ob, rel=1e-9)

    def test_forecast_matches_oracle_formula(self):
        series = [1, 2, 3, 4]
        a, b = normal_equations_fit(series)
        expected = (series[0] - b / a) * (1 - math.exp(a)) * math.exp(-a * len(series))
        assert gm11_forecast(series) == pytest.approx(expected, rel=1e-9)

    def test_all_zero_series(self):
        assert gm11_forecast([0, 0, 0, 0]) == 0.0

    def test_degenerate_background_falls_back_to_mean(self):
        # x0 = [c, 0, 0, 0] makes every background value equal
        assert gm11_forecast([8, 0, 0, 0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            gm11_fit([8, 0, 0, 0])

    def test_short_series_falls_back_to_mean(self):
        assert gm11_forecast([3, 9]) == pytest.approx(6.0)
        with pytest.raises(ValueError):
            gm11_fit([1, 2, 3])

    def test_forecast_clamped_non_negative(self):
        assert gm11_forecast([100, 10, 1, 0.1, 0.01]) >= 0.0

    def test_fit_matches_oracle_on_random_series(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            length = int(rng.integers(GM11_MIN_POINTS, 13))
            base = rng.uniform(1, 5)
            growth = rng.uniform(0.05, 0.35)
            wobble = rng.uniform(-0.05, 0.05, size=length)
            series = base * (1 + growth) ** np.arange(length) * (1 + wobble)
            a, b = gm11_fit(series)
            oa, ob = normal_equations_fit(series)
            assert a == pytest.approx(oa, rel=1e-9)
            assert b == pytest.approx(ob, rel=1e-9)


def scalar_gm11(window):
    """Scalar reference: ``gm11_forecast`` plus whether it fell back.

    The fallback flag is re-derived from the lstsq fit of ``gm11_fit``: a
    short window, a rank-deficient fit, or a non-finite forecast.
    """
    x0 = np.asarray(window, dtype=np.float64)
    value = gm11_forecast(x0)
    if x0.size < GM11_MIN_POINTS:
        return value, True
    try:
        a, b = gm11_fit(x0)
    except ValueError:
        return value, True
    if abs(a) < 1e-12:
        return value, False
    with np.errstate(over="ignore", invalid="ignore"):
        raw = (x0[0] - b / a) * -np.expm1(a) * np.exp(-a * x0.size)
    return value, not np.isfinite(raw)


def forecast_at(window, a):
    """Forecast of a window for slope ``a`` and its least-squares ``b(a)``."""
    x0 = np.asarray(window, dtype=np.float64)
    x1 = np.cumsum(x0)
    z_bar = np.mean(0.5 * (x1[1:] + x1[:-1]))
    b = np.mean(x0[1:]) + a * z_bar
    if abs(a) < 1e-12:
        return b
    with np.errstate(over="ignore", invalid="ignore"):
        return (x0[0] - b / a) * -np.expm1(a) * np.exp(-a * x0.size)


def forecast_tolerance(window):
    """How closely two correct GM(1,1) forecasts of a window must agree.

    That is 1e-9 of the forecast, plus 1e-12 of the largest term it sums:
    with ``b / a = mean(y) / a + mean(z)`` the forecast is
    ``(x0[0] - mean(z) - mean(y)/a) * (1 - e^a) * e^(-a*n)``, and where the
    terms cancel, as in an exact fit through zero such as ``[x, 0, 0, y]``,
    only their rounding is left.  On top comes the forecast's spread when
    the slope moves by its rounding error ``da``: centring z costs
    ``eps * max|z|`` per point, which matters when z is nearly constant,
    e.g. ``[2208, 0, 1, 0]``.  Zero for windows that are not fitted (they
    fall back to the mean).
    """
    x0 = np.asarray(window, dtype=np.float64)
    try:
        a, _ = gm11_fit(x0)
    except ValueError:
        return 0.0
    x1 = np.cumsum(x0)
    z = 0.5 * (x1[1:] + x1[:-1])
    y = x0[1:]
    dz = z - z.mean()
    err_z = np.finfo(np.float64).eps * np.abs(z).max()
    da = err_z * (np.abs(y - y.mean()).sum() + 2 * abs(a) * np.abs(dz).sum()) / (dz * dz).sum()
    value = forecast_at(x0, a)
    spread = max(abs(forecast_at(x0, a + da) - value), abs(forecast_at(x0, a - da) - value))
    if abs(a) < 1e-12:
        terms = abs(y.mean()) + abs(a * z.mean())
    else:
        with np.errstate(over="ignore"):
            terms = (abs(x0[0]) + abs(z.mean()) + abs(y.mean() / a)) * abs(
                np.expm1(a)
            ) * np.exp(-a * x0.size)
    return 1e-9 * abs(value) + 1e-12 * terms + 16 * spread


def assert_rows_match_scalar(block):
    block = np.asarray(block, dtype=np.float64)
    values, fell_back = gm11_forecast_rows(block)
    assert values.shape == fell_back.shape == (len(block),)
    for row, got, got_fb in zip(block, values, fell_back):
        want, want_fb = scalar_gm11(row)
        assert bool(got_fb) == want_fb, row.tolist()
        if want_fb:
            assert got == want, row.tolist()
        else:
            assert abs(got - want) <= forecast_tolerance(row), (row.tolist(), got, want)


def window_blocks(element):
    """Blocks of 1-8 windows sharing one length in 1-30."""
    return st.integers(1, 30).flatmap(
        lambda n: st.lists(st.lists(element, min_size=n, max_size=n), min_size=1, max_size=8)
    )


# Integer volumes up to 1e6 and floats on a 1/64 grid keep every window
# either exactly rank-deficient or well clear of the rank threshold, where
# two correct rank tests may disagree.
INT_VOLUMES = st.one_of(st.just(0), st.integers(1, 10**6))
GRID_VOLUMES = st.one_of(st.just(0.0), st.integers(1, 10**6).map(lambda k: k / 64))


class TestGm11Batched:
    @settings(max_examples=150, deadline=None)
    @given(window_blocks(INT_VOLUMES))
    def test_integer_windows_match_scalar(self, block):
        assert_rows_match_scalar(block)

    @settings(max_examples=150, deadline=None)
    @given(window_blocks(GRID_VOLUMES))
    def test_fractional_windows_match_scalar(self, block):
        assert_rows_match_scalar(block)

    @pytest.mark.parametrize("length", range(1, 31))
    def test_every_length(self, length):
        rng = np.random.default_rng(length)
        block = rng.integers(0, 50, size=(6, length)).astype(np.float64)
        block[rng.uniform(size=block.shape) < 0.3] = 0.0
        block[0] = rng.uniform(0.0, 1e9, size=length)
        assert_rows_match_scalar(block)
        _, fell_back = gm11_forecast_rows(block)
        assert fell_back.all() == (length < GM11_MIN_POINTS)

    @pytest.mark.parametrize("length", [4, 5, 12, 30])
    def test_constant_windows_are_the_a_to_zero_limit(self, length):
        block = [[5.0] * length, [7.25] * length, [1e9] * length]
        assert_rows_match_scalar(block)
        values, fell_back = gm11_forecast_rows(block)
        assert not fell_back.any()
        assert values == pytest.approx([5.0, 7.25, 1e9], rel=1e-9)

    def test_near_constant_windows(self):
        rng = np.random.default_rng(5)
        block = 5.0 + rng.normal(0.0, 1e-9, size=(20, 17))
        block[:, ::3] = 5.0
        assert_rows_match_scalar(block)
        values, fell_back = gm11_forecast_rows(block)
        assert not fell_back.any()
        assert values == pytest.approx(5.0, rel=1e-6)

    def test_leading_spike_then_zeros_is_rank_deficient(self):
        block = [[8.0, 0.0, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0], [1e9, 0.0, 0.0, 0.0]]
        assert_rows_match_scalar(block)
        values, fell_back = gm11_forecast_rows(block)
        assert fell_back.all()
        assert values.tolist() == [2.0, 0.75, 2.5e8]

    def test_all_zero_tail(self):
        block = [[3.0, 7.0, 2.0, 0.0, 0.0, 0.0, 0.0], [40.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]
        assert_rows_match_scalar(block)

    def test_exact_fit_through_zero(self):
        # [x, 0, 0, y] fits a = -2, b = -2x exactly: the forecast is 0
        block = [[44.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 8.0], [32.0] + [0.0] * 7 + [14.0]]
        assert_rows_match_scalar(block)

    def test_steep_growth_overflow_falls_back_to_mean(self):
        window = [0.0] * 398 + [1.0, 1e9]
        assert gm11_forecast(window) == pytest.approx(np.mean(window))
        values, fell_back = gm11_forecast_rows([window])
        assert fell_back.tolist() == [True]
        assert values[0] == np.mean(window)
        assert_rows_match_scalar([window, [1.0] * 399 + [2.0]])

    def test_mixed_block_rows_are_independent(self):
        rows = [[8.0, 0, 0, 0, 0], [5.0] * 5, [1, 2, 4, 8, 16], [0, 0, 0, 0, 9], [3, 7, 2, 0, 0]]
        values, fell_back = gm11_forecast_rows(rows)
        for k, row in enumerate(rows):
            alone, alone_fb = gm11_forecast_rows([row])
            assert (values[k], fell_back[k]) == (alone[0], alone_fb[0])
        assert_rows_match_scalar(rows)

    def test_empty_block_and_validation(self):
        values, fell_back = gm11_forecast_rows(np.zeros((0, 6)))
        assert values.shape == fell_back.shape == (0,)
        with pytest.raises(ValueError):
            gm11_forecast_rows([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            gm11_forecast_rows(np.zeros((2, 0)))


def reference_gm11_selection(m, config):
    """Scalar reference loop for ``run_selection(method="gm11")``.

    Returns the ranked (row, score) pairs of every predicted hour, with
    no top-K cut, and the fallback count.
    """
    values = m.values.astype(np.float64)
    ranked, fallbacks = [], 0
    for t in range(2, m.bin_count + 1):
        hi = t - 1
        lo = max(0, hi - config.window)
        scored = []
        for i in range(len(m)):
            if values[i, lo:hi].any():
                score, fell_back = scalar_gm11(values[i, lo:hi])
                fallbacks += fell_back
                if score > 0:
                    scored.append((-score, i))
        ranked.append([(i, -neg) for neg, i in sorted(scored)][: config.size])
    return ranked, fallbacks


def significant(pairs, m, hour, window):
    """Drop the pairs whose forecast is zero up to rounding (see forecast_tolerance)."""
    lo, hi = max(0, hour - 1 - window), hour - 1
    values = m.values.astype(np.float64)
    return [
        (i, s) for i, s in pairs if s > forecast_tolerance(values[i, lo:hi])
    ]


class TestGm11RunMatchesScalarLoop:
    def test_random_integer_matrices(self):
        rng = np.random.default_rng(919)
        for trial in range(150):
            n = int(rng.integers(2, 12))
            bins = int(rng.integers(4, 12))
            values = rng.integers(0, 40, size=(n, bins))
            values[rng.uniform(size=values.shape) < 0.4] = 0
            values[0, 0] = max(int(values[0, 0]), 1)
            grid = TimeGrid(start=0, bin_seconds=3600, bin_count=bins)
            m = HourlyTraceMatrix(grid, [synthetic_prefix(k + 1) for k in range(n)], values)
            # K covers every prefix, so no top-K cut can hide a difference
            config = SelectorConfig("gm11", int(rng.integers(1, 9)), len(m))
            run = run_selection(m, compute_core_profile(m), config)
            ranked, fallbacks = reference_gm11_selection(m, config)
            assert run.gm11_fallbacks == fallbacks
            for pos, hour in enumerate(run.hours):
                got = significant(
                    zip(run.picks[pos].tolist(), run.scores[pos].tolist()),
                    m, int(hour), config.window,
                )
                want = significant(ranked[pos], m, int(hour), config.window)
                # same prefixes, ranked the same up to forecasts tied within rounding
                assert sorted(i for i, _ in got) == sorted(i for i, _ in want), (trial, hour)
                want_score = dict(want)
                for (i, g), (_, w) in zip(got, want):
                    assert g == pytest.approx(w, rel=1e-9)
                    assert g == pytest.approx(want_score[i], rel=1e-9)

    @pytest.mark.parametrize("window", WINDOW_GRID)
    def test_synthetic_week_picks_identical(self, window):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=72)
        m = synthesize_trace(
            SyntheticTraceSpec(prefix_count=30, noise=0.5, diurnal_amplitude=0.3, seed=7), grid
        )
        config = SelectorConfig("gm11", window, 8)
        run = run_selection(m, compute_core_profile(m), config)
        ranked, fallbacks = reference_gm11_selection(m, config)
        assert run.gm11_fallbacks == fallbacks
        for pos in range(len(run.hours)):
            assert run.picks[pos].tolist() == [i for i, _ in ranked[pos]]
            assert run.scores[pos].tolist() == pytest.approx(
                [s for _, s in ranked[pos]], rel=1e-9
            )


class TestSelectorConfig:
    def test_methods_enumerated(self):
        assert METHODS == ("mean_volume", "core_presence", "core_volume", "gm11")
        assert WINDOW_GRID == (1, 12, 24, 168)

    def test_validation(self):
        with pytest.raises(ValueError):
            SelectorConfig(method="magic", window=1, size=1)
        with pytest.raises(ValueError):
            SelectorConfig(method="gm11", window=0, size=1)
        with pytest.raises(ValueError):
            SelectorConfig(method="gm11", window=1, size=0)


class TestRunSelection:
    def test_argmax(self):
        m = matrix({A: [10, 10], B: [5, 5]}, bins=2)
        profile = compute_core_profile(m)
        run = run_selection(m, profile, SelectorConfig("mean_volume", 1, 1))
        assert run.selected_set(2) == {A}

    def test_tie_break_lexicographic(self):
        m = matrix({B: [7, 7], A: [7, 7]}, bins=2)
        profile = compute_core_profile(m)
        run = run_selection(m, profile, SelectorConfig("mean_volume", 1, 1))
        assert run.selected_set(2) == {A}

    def test_l1_mean_volume_equals_previous_hour_topk(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=24)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=40, noise=0.5, seed=13), grid)
        profile = compute_core_profile(m)
        run = run_selection(m, profile, SelectorConfig("mean_volume", 1, 5))
        for h in (2, 10, 24):
            expected = {m.prefixes[i] for i in oracle_topk(m, h - 1, 5)}
            assert run.selected_set(h) == expected

    def test_no_lookahead_under_truncation(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 60:
            m = random_matrix(rng)
            h = int(rng.integers(1, m.bin_count))
            truncated = m.values.copy()
            truncated[:, h:] = 0
            if not truncated.any():
                continue
            m2 = HourlyTraceMatrix(m.grid, m.prefixes, truncated)
            method = METHODS[checked % 4]
            config = SelectorConfig(method, int(rng.integers(1, 10)), 3)
            run1 = run_selection(m, compute_core_profile(m), config)
            run2 = run_selection(m2, compute_core_profile(m2), config)
            assert run1.selected_set(h + 1) == run2.selected_set(h + 1)
            checked += 1

    def test_l1_core_volume_selects_exactly_previous_core(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=24)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=30, noise=0.8, seed=5), grid)
        profile = compute_core_profile(m)
        run = run_selection(m, profile, SelectorConfig("core_volume", 1, len(m)))
        for h in (2, 12, 24):
            assert run.selected_set(h) == profile.core(h - 1)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = random_matrix(rng)
            scaled = HourlyTraceMatrix(m.grid, m.prefixes, m.values * 3)
            for method in ("mean_volume", "core_presence", "core_volume"):
                config = SelectorConfig(method, 4, 3)
                run1 = run_selection(m, compute_core_profile(m), config)
                run2 = run_selection(scaled, compute_core_profile(scaled), config)
                for h in run1.hours:
                    assert run1.selected_set(int(h)) == run2.selected_set(int(h))

    def test_warmup_flags_and_shrunk_window(self):
        m = matrix({A: [1, 2, 3, 4, 5], B: [5, 4, 3, 2, 1]}, bins=5)
        profile = compute_core_profile(m)
        run = run_selection(m, profile, SelectorConfig("mean_volume", 3, 2))
        assert run.warmup.tolist() == [True, True, False, False]
        # hour 3 window shrinks to hours 1..2
        scores = dict(run.selected(3))
        assert scores[A] == pytest.approx(1.5)
        assert scores[B] == pytest.approx(4.5)

    def test_shortfall_when_candidates_scarce(self):
        m = matrix({A: [3, 0, 0], B: [0, 0, 5]}, bins=3)
        profile = compute_core_profile(m)
        run = run_selection(m, profile, SelectorConfig("mean_volume", 1, 2))
        assert run.selected_set(2) == {A}
        assert run.shortfall.tolist() == [True, True]
        # hour 3 window is hour 2 (all zero): nothing selectable
        assert run.selected_set(3) == set()

    def test_gm11_run_deterministic_and_counts_fallbacks(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=12)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=15, noise=0.4, seed=2), grid)
        profile = compute_core_profile(m)
        config = SelectorConfig("gm11", 8, 4)
        run1 = run_selection(m, profile, config)
        run2 = run_selection(m, profile, config)
        assert run1.gm11_fallbacks == run2.gm11_fallbacks
        assert run1.gm11_fallbacks > 0  # warm-up windows shorter than 4 points
        for h in run1.hours:
            assert run1.selected(int(h)) == run2.selected(int(h))

    def test_mismatched_profile_rejected(self):
        m = matrix({A: [1, 2], B: [2, 1]}, bins=2)
        other = matrix({A: [1, 2]}, bins=2)
        with pytest.raises(ValueError):
            run_selection(m, compute_core_profile(other), SelectorConfig("mean_volume", 1, 1))


class TestMaxCoreSize:
    def test_constant_cores(self):
        m = matrix({A: [5, 5], B: [5, 5]}, bins=2)
        assert max_core_size(compute_core_profile(m, 0.95)) == 2

    def test_hand_max(self):
        # hour 1 core {A}, hour 2 needs both, hour 3 core {B}
        m = matrix({A: [99, 50, 1], B: [1, 50, 99]}, bins=3)
        profile = compute_core_profile(m, 0.95)
        assert profile.core_sizes.tolist() == [1, 2, 1]
        assert max_core_size(profile) == 2
