"""Selection metrics, the GM(1,1) baseline, and the run driver."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixcast import selectors
from prefixcast.dynamism import compute_core_profile
from prefixcast.evaluation import oracle_topk
from prefixcast.selectors import (
    GM11_MIN_POINTS,
    METHODS,
    WINDOW_GRID,
    SelectionRun,
    SelectorConfig,
    gm11_fit,
    gm11_forecast,
    max_core_size,
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
from scalar_oracles import argsort_top_k, picked, picked_set

A = Prefix.parse("10.0.0.0/24")
B = Prefix.parse("10.0.1.0/24")
C = Prefix.parse("10.0.2.0/24")


def matrix(series: dict, bins: int) -> HourlyTraceMatrix:
    grid = TimeGrid(start=0, bin_count=bins)
    return HourlyTraceMatrix(grid, list(series), list(series.values()))


def random_matrix(rng, n_max=15, bins_max=12):
    """Small random integer matrix with at least one early-active prefix."""
    n = int(rng.integers(2, n_max))
    bins = int(rng.integers(4, bins_max))
    values = rng.integers(0, 50, size=(n, bins))
    values[rng.uniform(size=values.shape) < 0.4] = 0
    values[0, 0] = max(int(values[0, 0]), 1)
    grid = TimeGrid(start=0, bin_count=bins)
    return HourlyTraceMatrix(grid, [synthetic_prefix(k + 1) for k in range(n)], values)


def last_hour_scores(series: dict, method: str) -> dict:
    """``run_selection``'s scores for the last hour of ``series``, from a
    window of every earlier hour, with K large enough to pick every
    positive score; a prefix scoring 0 is absent."""
    bins = len(next(iter(series.values())))
    m = matrix(series, bins=bins)
    config = SelectorConfig(method, bins - 1, len(m))
    return dict(picked(run_selection(m, compute_core_profile(m), config), bins))


class TestWindowScores:
    def test_mean_volume(self):
        assert last_hour_scores({A: [3, 6, 9, 1]}, "mean_volume") == {A: 6.0}

    def test_mean_volume_zero_window(self):
        # a window without volume scores 0, which is never selected
        assert last_hour_scores({A: [0, 0, 0, 1], B: [1, 1, 1, 1]}, "mean_volume") == {B: 1.0}

    def test_mean_volume_last_hour_identity(self):
        assert last_hour_scores({A: [42, 1]}, "mean_volume") == {A: 42.0}

    def test_core_presence(self):
        # A: core in every hour; B: never (A holds 99%); C: in two of three
        scores = last_hour_scores(
            {A: [990, 990, 990, 1], B: [10, 10, 0, 1], C: [0, 1000, 1000, 1]}, "core_presence"
        )
        assert scores[A] == 1.0 and B not in scores
        assert scores[C] == pytest.approx(2 / 3)

    def test_core_volume_masked_mean(self):
        # B owns hour 2's core, so A counts hours 1 and 3 only
        scores = last_hour_scores({A: [10, 20, 30, 1], B: [0, 1000, 0, 1]}, "core_volume")
        assert scores[A] == pytest.approx(40 / 3)

    def test_core_volume_equals_mean_volume_when_always_core(self):
        series = {A: [7, 1, 9, 4, 1]}
        assert last_hour_scores(series, "core_volume") == last_hour_scores(series, "mean_volume")

    def test_dominance_core_volume_below_mean_volume(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = random_matrix(rng)
            profile = compute_core_profile(m)
            window = int(rng.integers(1, 12))
            mv_run, cv_run = (
                run_selection(m, profile, SelectorConfig(method, window, len(m)))
                for method in ("mean_volume", "core_volume")
            )
            for h in mv_run.hours.tolist():
                mv = dict(picked(mv_run, h))
                assert all(score <= mv[p] + 1e-12 for p, score in picked(cv_run, h))


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

    def test_series_that_is_not_1d_rejected(self):
        with pytest.raises(ValueError, match="series must be 1-D"):
            gm11_forecast([[1, 2, 3, 4], [4, 3, 2, 1]])

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


def gm11_forecast_rows(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-step GM(1,1) forecasts for every row of a (rows, span) block.

    The second oracle for ``run_selection(method="gm11")``, one window per
    row; the per-hour loop ``per_hour_selection`` calls it once per hour.
    The 2x2 least-squares problem ``x0(k) + a*z1(k) = b`` is solved in closed form from centred sums,
    ``a = -S_zy / S_zz`` and ``b = mean(y) + a*mean(z)``, for all rows at
    once.  ``lstsq``'s rank test becomes an explicit rule: the design
    ``[-z1, 1]`` over m points is rank-deficient when
    ``s_min <= eps * max(m, 2) * s_max``, where the singular-value ratio
    ``s_min / s_max = sqrt(det) / lambda_max`` follows from the 2x2 Gram
    matrix (``det = m * S_zz``).  Rank-deficient rows, non-finite
    forecasts and windows shorter than ``GM11_MIN_POINTS`` fall back to
    the row mean; ``|a| < 1e-12`` uses ``b``.  Every reduction runs along
    a row, so a row's forecast does not depend on the other rows of the
    block: selections stay free of look-ahead through the candidate set.

    Returns
    -------
    (forecasts, used_fallback)
        Two arrays with one entry per row.
    """
    x0 = np.asarray(windows, dtype=np.float64)
    if x0.ndim != 2 or x0.shape[1] < 1:
        raise ValueError("windows must be a 2-D block with at least one column")
    span = x0.shape[1]
    mean = x0.mean(axis=1)
    if span < GM11_MIN_POINTS:
        return mean, np.ones(len(x0), dtype=bool)

    x1 = np.cumsum(x0, axis=1)
    z = 0.5 * (x1[:, 1:] + x1[:, :-1])
    y = x0[:, 1:]
    m = span - 1
    z_bar = z.mean(axis=1)
    y_bar = y.mean(axis=1)
    dz = z - z_bar[:, None]
    s_zz = (dz * dz).sum(axis=1)
    s_zy = (dz * (y - y_bar[:, None])).sum(axis=1)

    # Gram matrix [[sum z^2, -sum z], [-sum z, m]]: trace and determinant
    det = m * s_zz
    trace = s_zz + m * z_bar * z_bar + m
    lam_max = 0.5 * (trace + np.sqrt(np.maximum(trace * trace - 4.0 * det, 0.0)))
    full_rank = np.sqrt(det) > np.finfo(np.float64).eps * max(m, 2) * lam_max

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = -s_zy / s_zz
        b = y_bar + a * z_bar
        forecast = (x0[:, 0] - b / a) * -np.expm1(a) * np.exp(-a * span)
    forecast = np.where(np.abs(a) < 1e-12, b, forecast)
    fallback = ~full_rank | ~np.isfinite(forecast)
    return np.where(fallback, mean, np.maximum(forecast, 0.0)), fallback


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
            grid = TimeGrid(start=0, bin_count=bins)
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
        grid = TimeGrid(start=0, bin_count=72)
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
        assert picked_set(run, 2) == {A}

    def test_tie_break_lexicographic(self):
        m = matrix({B: [7, 7], A: [7, 7]}, bins=2)
        profile = compute_core_profile(m)
        run = run_selection(m, profile, SelectorConfig("mean_volume", 1, 1))
        assert picked_set(run, 2) == {A}

    def test_l1_mean_volume_equals_previous_hour_topk(self):
        grid = TimeGrid(start=0, bin_count=24)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=40, noise=0.5, seed=13), grid)
        profile = compute_core_profile(m)
        run = run_selection(m, profile, SelectorConfig("mean_volume", 1, 5))
        for h in (2, 10, 24):
            expected = {m.prefixes[i] for i in oracle_topk(m, h - 1, 5)}
            assert picked_set(run, h) == expected

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
            assert picked_set(run1, h + 1) == picked_set(run2, h + 1)
            checked += 1

    def test_l1_core_volume_selects_exactly_previous_core(self):
        grid = TimeGrid(start=0, bin_count=24)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=30, noise=0.8, seed=5), grid)
        profile = compute_core_profile(m)
        run = run_selection(m, profile, SelectorConfig("core_volume", 1, len(m)))
        for h in (2, 12, 24):
            previous_core = {m.prefixes[i] for i in np.flatnonzero(profile.cp[:, h - 2])}
            assert picked_set(run, h) == previous_core

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
                    assert picked_set(run1, int(h)) == picked_set(run2, int(h))

    def test_warmup_flags_and_shrunk_window(self):
        m = matrix({A: [1, 2, 3, 4, 5], B: [5, 4, 3, 2, 1]}, bins=5)
        profile = compute_core_profile(m)
        run = run_selection(m, profile, SelectorConfig("mean_volume", 3, 2))
        assert run.warmup.tolist() == [True, True, False, False]
        # hour 3 window shrinks to hours 1..2
        scores = dict(picked(run, 3))
        assert scores[A] == pytest.approx(1.5)
        assert scores[B] == pytest.approx(4.5)

    def test_shortfall_when_candidates_scarce(self):
        m = matrix({A: [3, 0, 0], B: [0, 0, 5]}, bins=3)
        profile = compute_core_profile(m)
        run = run_selection(m, profile, SelectorConfig("mean_volume", 1, 2))
        assert picked_set(run, 2) == {A}
        assert run.shortfall.tolist() == [True, True]
        # hour 3 window is hour 2 (all zero): nothing selectable
        assert picked_set(run, 3) == set()

    def test_gm11_run_deterministic_and_counts_fallbacks(self):
        grid = TimeGrid(start=0, bin_count=12)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=15, noise=0.4, seed=2), grid)
        profile = compute_core_profile(m)
        config = SelectorConfig("gm11", 8, 4)
        run1 = run_selection(m, profile, config)
        run2 = run_selection(m, profile, config)
        assert run1.gm11_fallbacks == run2.gm11_fallbacks
        assert run1.gm11_fallbacks > 0  # warm-up windows shorter than 4 points
        for h in run1.hours:
            assert picked(run1, int(h)) == picked(run2, int(h))

    def test_gm11_candidates_are_mean_volume_candidates(self):
        # past 2**53 the float64 running sum absorbs A's later ones, so no
        # window after hour 1 has a positive sum for A, for either method
        m = matrix({A: [2**53] + [1] * 7, B: [1] * 8}, bins=8)
        profile = compute_core_profile(m)
        for window in (1, 4):
            runs = [run_selection(m, profile, SelectorConfig(method, window, 2))
                    for method in ("mean_volume", "gm11")]
            for h in range(2, 9):
                want = {A, B} if h <= window + 1 else {B}
                assert [picked_set(run, h) for run in runs] == [want, want], (window, h)

    def test_mismatched_profile_rejected(self):
        m = matrix({A: [1, 2], B: [2, 1]}, bins=2)
        other = matrix({A: [1, 2]}, bins=2)
        with pytest.raises(ValueError):
            run_selection(m, compute_core_profile(other), SelectorConfig("mean_volume", 1, 1))


def per_hour_selection(m, profile, config):
    """Independent oracle for ``run_selection``: one hour at a time.

    Scores the window's candidates from float64 running sums, keeps the
    positive ones and stable-sorts them on -score.  Returns the per-hour
    picks and scores and the GM(1,1) fallback count.
    """
    values = m.values.astype(np.float64)
    cp = profile.cp.astype(np.float64)
    zeros = np.zeros((len(m), 1))
    cum_v = np.hstack([zeros, np.cumsum(values, axis=1)])
    cum_cp = np.hstack([zeros, np.cumsum(cp, axis=1)])
    cum_cpv = np.hstack([zeros, np.cumsum(cp * values, axis=1)])
    picks, scores, fallbacks = [], [], 0
    for t in range(2, m.bin_count + 1):
        hi = t - 1
        lo = max(0, hi - config.window)
        win_v = cum_v[:, hi] - cum_v[:, lo]
        win_cp = cum_cp[:, hi] - cum_cp[:, lo]
        if config.method in ("mean_volume", "gm11"):
            candidates = np.flatnonzero(win_v > 0)
        else:
            candidates = np.flatnonzero(win_cp > 0)
        if config.method == "mean_volume":
            cand_scores = win_v[candidates] / (hi - lo)
        elif config.method == "core_presence":
            cand_scores = win_cp[candidates] / (hi - lo)
        elif config.method == "core_volume":
            cand_scores = (cum_cpv[candidates, hi] - cum_cpv[candidates, lo]) / (hi - lo)
        else:
            cand_scores, fell_back = gm11_forecast_rows(values[candidates, lo:hi])
            fallbacks += int(fell_back.sum())
        positive = cand_scores > 0
        candidates, cand_scores = candidates[positive], cand_scores[positive]
        order = np.argsort(-cand_scores, kind="stable")[: config.size]
        picks.append(candidates[order])
        scores.append(cand_scores[order])
    return picks, scores, fallbacks


# 3**33 is odd and near 2**52, so window sums of a few such cells round in
# float64 and can absorb the small cells beside them; the small cells tie.
SELECTION_CELLS = st.sampled_from((0, 0, 1, 2, 3, 3**33))


@st.composite
def selection_cases(draw):
    """A small matrix with all-zero hours, its core profile, and a config
    whose K may be below or above the candidate count and L >= bins."""
    n = draw(st.integers(1, 8))
    bins = draw(st.integers(2, 12))
    values = np.array(
        draw(st.lists(SELECTION_CELLS, min_size=n * bins, max_size=n * bins)), dtype=np.int64
    ).reshape(n, bins)
    values[:, sorted(draw(st.sets(st.integers(0, bins - 1), max_size=bins - 1)))] = 0
    if not values.any():
        values[0, draw(st.integers(0, bins - 1))] = 1
    grid = TimeGrid(start=0, bin_count=bins)
    m = HourlyTraceMatrix(grid, [synthetic_prefix(k + 1) for k in range(n)], values)
    profile = compute_core_profile(m, draw(st.sampled_from((0.5, 0.95, 1.0))))
    config = SelectorConfig(
        draw(st.sampled_from(METHODS)), draw(st.integers(1, bins + 2)), draw(st.integers(1, n + 2))
    )
    return m, profile, config


def assert_gm11_close_to_loop(m, profile, config):
    """``run_selection(method="gm11")`` against the per-hour loop.

    The whole-week pass sums the same centred moments in another order, so
    it agrees with the loop up to rounding, not bit for bit: the fallback
    counts are equal, and with no top-K cut every prefix's score of every
    hour is within 1e-9 relative of the loop's, or within the rounding
    scale of its forecast (``forecast_tolerance``) where the exact forecast
    is 0.  A prefix missing from one side's picks scores 0 there.  The
    cut run keeps each hour's top K of those scores.
    """
    run = run_selection(m, profile, config)
    assert run.gm11_fallbacks == per_hour_selection(m, profile, config)[2]
    every = SelectorConfig("gm11", config.window, len(m))
    full = run_selection(m, profile, every)
    picks, scores, _ = per_hour_selection(m, profile, every)
    values = m.values.astype(np.float64)
    for pos, hour in enumerate(full.hours.tolist()):
        lo, hi = max(0, hour - 1 - config.window), hour - 1
        got = dict(zip(full.picks[pos].tolist(), full.scores[pos].tolist()))
        want = dict(zip(picks[pos].tolist(), scores[pos].tolist()))
        for i in got.keys() | want.keys():
            g, w = got.get(i, 0.0), want.get(i, 0.0)
            bound = max(1e-9 * abs(w), forecast_tolerance(values[i, lo:hi]))
            assert abs(g - w) <= bound, (hour, i, g, w)
        assert run.picks[pos].tolist() == full.picks[pos][: config.size].tolist()


def adversarial_week(kind):
    """A seeded 600x168 integer week that strains GM(1,1)'s running sums.

    ``spikes``: 0-2 bytes with 5% spikes up to 1e12; ``pareto``:
    Pareto-distributed bytes; ``sparse``: 0-3 bytes, so many windows tie or
    fit exactly through zero.
    """
    rng = np.random.default_rng({"spikes": 1, "pareto": 2, "sparse": 3}[kind])
    shape = (600, 168)
    if kind == "spikes":
        values = rng.integers(0, 3, size=shape)
        spiked = rng.uniform(size=shape) < 0.05
        values[spiked] = rng.integers(1, 10**12, size=int(spiked.sum()))
    elif kind == "pareto":
        values = np.floor(rng.pareto(1.2, size=shape) * 1e6).astype(np.int64)
    else:
        values = rng.integers(0, 4, size=shape)
    grid = TimeGrid(start=0, bin_count=shape[1])
    return HourlyTraceMatrix(grid, [synthetic_prefix(k + 1) for k in range(shape[0])], values)


class TestRunSelectionMatchesPerHourLoop:
    @settings(max_examples=300, deadline=None)
    @given(selection_cases())
    def test_picks_scores_and_fallbacks_identical(self, case):
        m, profile, config = case
        if config.method == "gm11":
            assert_gm11_close_to_loop(m, profile, config)
            return
        run = run_selection(m, profile, config)
        picks, scores, fallbacks = per_hour_selection(m, profile, config)
        assert run.gm11_fallbacks == fallbacks
        assert len(run.picks) == len(run.scores) == len(picks) == m.bin_count - 1
        for got, want in zip(run.picks, picks):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        for got, want in zip(run.scores, scores):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @pytest.mark.parametrize("method", METHODS)
    def test_synthetic_week_identical(self, method):
        grid = TimeGrid(start=0, bin_count=168)
        m = synthesize_trace(
            SyntheticTraceSpec(prefix_count=60, noise=0.5, diurnal_amplitude=0.3, seed=4), grid
        )
        profile = compute_core_profile(m)
        for window in WINDOW_GRID:
            config = SelectorConfig(method, window, max_core_size(profile))
            run = run_selection(m, profile, config)
            picks, scores, fallbacks = per_hour_selection(m, profile, config)
            assert run.gm11_fallbacks == fallbacks
            assert [p.tolist() for p in run.picks] == [p.tolist() for p in picks]
            if method == "gm11":
                for got, want in zip(run.scores, scores):
                    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
            else:
                assert [s.tolist() for s in run.scores] == [s.tolist() for s in scores]

    @pytest.mark.parametrize("kind", ["spikes", "pareto", "sparse"])
    def test_gm11_fallbacks_on_adversarial_weeks(self, kind):
        # integer weeks where running sums over the whole week cancel badly
        m = adversarial_week(kind)
        profile = compute_core_profile(m)
        for window in (4, 12, 24, 168):
            config = SelectorConfig("gm11", window, max_core_size(profile))
            _, _, fallbacks = per_hour_selection(m, profile, config)
            assert run_selection(m, profile, config).gm11_fallbacks == fallbacks, window

    def test_gm11_chunk_size_does_not_change_the_run(self, monkeypatch):
        # rows are fitted independently, so any row chunk gives the same run
        grid = TimeGrid(start=0, bin_count=168)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=300, noise=0.5, seed=4), grid)
        profile = compute_core_profile(m)
        for window in (4, 24, 168):
            config = SelectorConfig("gm11", window, max_core_size(profile))
            runs = []
            for cells in (1 << 11, 1 << 14, 1):
                monkeypatch.setattr(selectors, "GM11_CHUNK_CELLS", cells)
                runs.append(run_selection(m, profile, config))
            for run in runs[1:]:
                assert (run.mask == runs[0].mask).all()
                assert np.array_equal(run.picked_scores, runs[0].picked_scores)
                assert run.gm11_fallbacks == runs[0].gm11_fallbacks

    def test_gm11_peak_memory_within_one_matrix_of_mean_volume(self):
        grid = TimeGrid(start=0, bin_count=168)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=2000, noise=0.5, seed=3), grid)
        profile = compute_core_profile(m)
        size = max_core_size(profile)

        def peak(method):
            tracemalloc.start()
            try:
                run_selection(m, profile, SelectorConfig(method, 168, size))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_matrix = len(m) * m.bin_count * np.dtype(np.float64).itemsize
        assert peak("gm11") <= peak("mean_volume") + one_matrix

    def test_picks_within_an_hour_are_distinct(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            m = random_matrix(rng)
            config = SelectorConfig(METHODS[trial % 4], int(rng.integers(1, 6)), len(m) + 1)
            for picks in run_selection(m, compute_core_profile(m), config).picks:
                assert np.unique(picks).size == picks.size


def assert_top_k_is_the_stable_cut(score, size, top_k=selectors._top_k):
    """``_top_k``'s mask is the stable argsort's picked set, it leaves
    ``score`` holding the ranking key (``-score`` where positive, inf
    elsewhere), and a run holding the mask and the negated key's picks
    ranks its ``picks`` / ``scores`` as the argsort does, with ``==``."""
    original = score.copy()
    mask = top_k(score, size)
    picks, scores = argsort_top_k(original, size)
    want = np.zeros((score.shape[1], score.shape[0]), dtype=bool)
    for pos, rows in enumerate(picks):
        want[pos, rows] = True
    assert mask.dtype == bool and mask.shape == want.shape
    assert (mask == want).all()
    assert np.array_equal(score, np.where(original > 0, -original, np.inf))
    run = SelectionRun(
        config=SelectorConfig("mean_volume", 1, size),
        threshold=0.95,
        prefixes=tuple(synthetic_prefix(k + 1) for k in range(score.shape[0])),
        mask=mask,
        picked_scores=-score.T[mask],
    )
    for got_part, want_part in ((run.picks, picks), (run.scores, scores)):
        assert len(got_part) == len(want_part) == score.shape[1]
        for g, w in zip(got_part, want_part):
            assert g.dtype == w.dtype and g.tolist() == w.tolist()
    return mask


class TestTopK:
    @pytest.mark.parametrize("columns, size, picks", [
        ([[2.0, 2.0, 2.0, 2.0]], 2, [[0, 1]]),
        ([[1.0, 3.0, 1.0, 0.5, 1.0]], 3, [[1, 0, 2]]),
        ([[1.0, 2.0, 0.0], [0.0, 5.0, 5.0]], 7, [[1, 0], [1, 2]]),
        ([[0.0, 0.0, 0.0], [1.0, 2.0, 0.0]], 2, [[], [1, 0]]),
    ], ids=["all tied", "ties straddle the cut", "K above the prefix count",
            "no positive score"])
    def test_hand_cases(self, columns, size, picks):
        # each inner list is one hour's scores, one per prefix row
        score = np.array(columns).T
        # the oracle first: _top_k turns score into its ranking key
        assert [p.tolist() for p in argsort_top_k(score, size)[0]] == picks
        mask = assert_top_k_is_the_stable_cut(score, size)
        assert [np.flatnonzero(row).tolist() for row in mask] == [sorted(p) for p in picks]

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 6)),
        cells=st.lists(st.sampled_from((0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.25, 1e300)), min_size=72,
                       max_size=72),
        size=st.integers(1, 14),
    )
    def test_equals_stable_argsort_cut(self, shape, cells, size):
        # few distinct values, so the K-th key is often tied across the cut
        n, hours = shape
        score = np.array(cells[: n * hours]).reshape(n, hours)
        assert_top_k_is_the_stable_cut(score, size)

    @pytest.mark.parametrize("method", METHODS)
    def test_run_selection_cuts_as_the_stable_argsort(self, method, monkeypatch):
        # a sparse 0-3 week: core presence and volumes tie at the cut in most hours
        m = adversarial_week("sparse")
        profile = compute_core_profile(m)
        checked = []

        def top_k(score, size):
            checked.append(size)
            return assert_top_k_is_the_stable_cut(score, size)

        monkeypatch.setattr(selectors, "_top_k", top_k)
        for size in (1, 37, max_core_size(profile), len(m)):
            run_selection(m, profile, SelectorConfig(method, 24, size))
        assert len(checked) == 4


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
