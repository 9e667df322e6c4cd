"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they happen.  Every tolerance is pinned here; nothing is left to
later calibration.  Criteria marked with runtime limits are timed with a
monotonic clock.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from prefixcast.cli import main as cli_main
from prefixcast.dynamism import (
    burstiness_summary,
    coefficient_of_variation,
    compute_core_profile,
    core_set,
)
from prefixcast.evaluation import (
    evaluate_run,
    hourly_coverage,
    oracle_topk,
)
from prefixcast.rttsim import (
    ProbeLog,
    ProbeSample,
    ProbeScheduleSpec,
    RttModel,
    generate_probe_log,
    normalized_performance,
    np_series,
    simulate_dynamic_selection,
)
from prefixcast.selectors import (
    SelectorConfig,
    core_volume_score,
    gm11_fit,
    gm11_forecast,
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


def verdict(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def week_grid(bins: int = 168) -> TimeGrid:
    return TimeGrid(start=0, bin_seconds=3600, bin_count=bins)


# --------------------------------------------------------------------------
# 1. coefficient-of-variation bound
# --------------------------------------------------------------------------


def test_c01_cv_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    bound = math.sqrt(167)
    worst = 0.0
    for _ in range(10_000):
        series = rng.uniform(0.0, 1000.0, size=168)
        series[rng.uniform(size=168) < rng.uniform(0.0, 0.95)] = 0.0
        if not series.any():
            series[int(rng.integers(168))] = 1.0
        worst = max(worst, coefficient_of_variation(series))
    ok_bound = worst <= bound + 1e-9

    one_hot = np.zeros(168)
    one_hot[37] = 420.0
    attained = coefficient_of_variation(one_hot)
    ok_attained = abs(attained - bound) <= 1e-9

    elapsed = time.perf_counter() - started
    verdict(
        "C1 cv bound sqrt(167) over 10k random series",
        ok_bound and ok_attained and elapsed < 5.0,
        f"worst={worst:.6f}, attained={attained:.9f}, {elapsed:.2f}s",
    )


# --------------------------------------------------------------------------
# 2. hourly core correctness against a brute-force oracle
# --------------------------------------------------------------------------


def brute_force_core(volumes: dict, threshold: float) -> set:
    ranked = sorted(volumes.items(), key=lambda kv: (-kv[1], kv[0].text))
    total = sum(v for _, v in ranked)
    if total <= 0:
        return set()
    picked, acc = set(), 0
    for prefix, vol in ranked:
        picked.add(prefix)
        acc += vol
        if acc >= threshold * total:
            break
    return picked


def test_c02_core_correctness():
    rng = np.random.default_rng(202)
    threshold = 0.95
    for _ in range(1_000):
        n = int(rng.integers(1, 120))
        volumes = {
            synthetic_prefix(k): int(rng.integers(0, 1_000_000_000))
            for k in range(1, n + 1)
        }
        total = sum(volumes.values())
        core = core_set(volumes, threshold)
        if total == 0:
            assert core == set()
            continue
        assert core == brute_force_core(volumes, threshold)
        covered = sum(volumes[p] for p in core)
        assert covered >= threshold * total
        ranked_core = sorted(core, key=lambda p: (-volumes[p], p.text))
        assert covered - volumes[ranked_core[-1]] < threshold * total
    verdict("C2 core sets: 95% share, minimal, oracle-exact on 1000 hours", True)


# --------------------------------------------------------------------------
# 3. normalized RTT equivalence with a brute-force recomputation
# --------------------------------------------------------------------------


def random_probe_log(rng) -> ProbeLog:
    n_transits = int(rng.integers(1, 6))
    n_prefixes = int(rng.integers(1, 51))
    n_ticks = int(rng.integers(2, 101))
    transits = [f"T{i + 1}" for i in range(n_transits)]
    prefixes = [synthetic_prefix(k) for k in range(1, n_prefixes + 1)]
    samples = []
    for tick in range(n_ticks):
        for prefix in prefixes:
            for transit in transits:
                u = rng.uniform()
                if u < 0.15:
                    continue  # probe never attempted
                if u < 0.3:
                    samples.append(ProbeSample(tick, prefix, transit, None))
                else:
                    samples.append(
                        ProbeSample(tick, prefix, transit, float(rng.uniform(1.0, 200.0)))
                    )
    if not samples:
        samples.append(ProbeSample(0, prefixes[0], transits[0], 10.0))
    return ProbeLog(samples)


def brute_force_np(log: ProbeLog, transit: str, tick: int):
    ratios = []
    for prefix in log.prefixes:
        own = log.rtt(tick, prefix, transit)
        if own is None:
            continue
        best = None
        for other in log.transits:
            value = log.rtt(tick, prefix, other)
            if value is not None and (best is None or value < best):
                best = value
        ratios.append(own / best)
    if not ratios:
        return None
    return math.fsum(ratios) / len(ratios)


def test_c03_np_oracle_equivalence():
    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(15):
        log = random_probe_log(rng)
        for transit in log.transits:
            for tick in log.ticks:
                got = normalized_performance(log, transit, tick)
                expected = brute_force_np(log, transit, tick)
                if expected is None:
                    assert got is None
                    continue
                assert got == pytest.approx(expected, abs=1e-12)
                assert got >= 1.0
                checked += 1
    verdict("C3 normalized RTT matches brute force within 1e-12, NP >= 1",
            True, f"{checked} (transit, tick) pairs")


# --------------------------------------------------------------------------
# 4. GM(1,1) fit against an explicit normal-equations oracle
# --------------------------------------------------------------------------


def explicit_normal_equations(series):
    """Cramer's-rule solve of the 2x2 normal equations, plain Python."""
    x0 = [float(v) for v in series]
    x1, acc = [], 0.0
    for v in x0:
        acc += v
        x1.append(acc)
    z = [0.5 * (x1[i] + x1[i - 1]) for i in range(1, len(x0))]
    y = x0[1:]
    n = len(z)
    szz = math.fsum(t * t for t in z)
    sz = math.fsum(z)
    szy = math.fsum(t * u for t, u in zip(z, y))
    sy = math.fsum(y)
    det = n * szz - sz * sz
    a = (-n * szy + sz * sy) / det
    b = (szz * sy - sz * szy) / det
    return a, b


def test_c04_gm11_fit():
    constant = gm11_forecast([5.0, 5.0, 5.0, 5.0])
    ok_constant = abs(constant - 5.0) <= 1e-9

    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        length = int(rng.integers(4, 13))
        base = float(rng.uniform(1.0, 5.0))
        growth = float(rng.uniform(0.05, 0.35))
        wobble = rng.uniform(-0.05, 0.05, size=length)
        series = base * (1.0 + growth) ** np.arange(length) * (1.0 + wobble)
        a, b = gm11_fit(series)
        oa, ob = explicit_normal_equations(series)
        rel = max(abs(a - oa) / abs(oa), abs(b - ob) / abs(ob))
        worst = max(worst, rel)
    verdict(
        "C4 GM(1,1): constant limit + (a,b) vs normal equations within 1e-9",
        ok_constant and worst <= 1e-9,
        f"constant={constant!r}, worst rel err={worst:.2e}",
    )


# --------------------------------------------------------------------------
# 5. selector continuity on a stationary Zipf week
# --------------------------------------------------------------------------


def test_c05_selector_continuity():
    started = time.perf_counter()
    grid = week_grid()
    spec = SyntheticTraceSpec(prefix_count=10_000, zipf_s=1.0, noise=0.3, seed=505)
    m = synthesize_trace(spec, grid)
    profile = compute_core_profile(m)
    k = max_core_size(profile)

    run = run_selection(m, profile, SelectorConfig("mean_volume", 1, k))
    report = evaluate_run(run, m)

    oracle_cov = np.empty(report.hours.size)
    for pos, hour in enumerate(report.hours):
        picks = oracle_topk(m, int(hour), k)
        oracle_cov[pos] = m.values[picks, int(hour) - 1].sum() / m.totals[int(hour) - 1]

    mv_mean = float(report.coverage.mean())
    oracle_mean = float(oracle_cov.mean())
    gap = abs(oracle_mean - mv_mean)
    elapsed = time.perf_counter() - started
    verdict(
        "C5 mean-volume L=1 within 0.05 of same-hour oracle (and > 0.8)",
        gap <= 0.05 and mv_mean > 0.8 and elapsed < 60.0,
        f"mv={mv_mean:.4f}, oracle={oracle_mean:.4f}, gap={gap:.4f}, K={k}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 6. churn drops as the history window grows
# --------------------------------------------------------------------------


def test_c06_churn_trend():
    grid = week_grid()
    spec = SyntheticTraceSpec(
        prefix_count=10_000, zipf_s=1.0, noise=0.3, diurnal_amplitude=0.5, seed=505
    )
    m = synthesize_trace(spec, grid)
    profile = compute_core_profile(m)
    k = max_core_size(profile)

    means = []
    for window in (1, 12, 24, 168):
        run = run_selection(m, profile, SelectorConfig("mean_volume", window, k))
        means.append(evaluate_run(run, m).churn_summary.mean)
    ok = all(nxt <= prev + 1e-9 for prev, nxt in zip(means, means[1:]))
    verdict(
        "C6 mean churn non-increasing over L in {1,12,24,168}",
        ok,
        "means=" + ", ".join(f"{v:.1f}" for v in means),
    )


# --------------------------------------------------------------------------
# 7. a one-hour burst hurts coverage and spikes the burstiness metrics
# --------------------------------------------------------------------------


def test_c07_burst_sensitivity():
    grid = week_grid()
    burst_hour = 100
    base = synthesize_trace(
        SyntheticTraceSpec(prefix_count=500, zipf_s=1.0, noise=0.3, seed=707), grid
    )
    # previously idle prefix suddenly carries 50% of the burst hour
    newcomer = Prefix.parse("10.200.0.0/24")
    spike = np.zeros(grid.bin_count)
    spike[burst_hour - 1] = base.total(burst_hour)
    bursty = HourlyTraceMatrix(grid, [*base.prefixes, newcomer], np.vstack([base.values, spike]))

    results = {}
    for label, matrix in (("base", base), ("bursty", bursty)):
        profile = compute_core_profile(matrix)
        config = SelectorConfig("core_volume", 168, max_core_size(profile))
        run = run_selection(matrix, profile, config)
        cov = hourly_coverage(run.selected_set(burst_hour), matrix, burst_hour)
        results[label] = (cov, burstiness_summary(profile))

    base_cov, base_burst = results["base"]
    burst_cov, burst_burst = results["bursty"]
    ok = (
        burst_cov < base_cov
        and burst_burst["max_beta"] > base_burst["max_beta"]
        and burst_burst["max_bi"] > base_burst["max_bi"]
    )
    verdict(
        "C7 injected burst cuts hour coverage, raises max beta and max BI",
        ok,
        f"coverage {base_cov:.3f}->{burst_cov:.3f}, "
        f"max beta {base_burst['max_beta']:.1f}->{burst_burst['max_beta']:.1f}, "
        f"max BI {base_burst['max_bi']:.1f}->{burst_burst['max_bi']:.1f}",
    )


# --------------------------------------------------------------------------
# 8. the dynamic virtual transit beats every physical transit
# --------------------------------------------------------------------------


def persistent_best_model(noise_std: float) -> RttModel:
    base = {}
    for k in range(1, 21):
        prefix = synthetic_prefix(k)
        fast, slow = (20.0, 30.0)
        if k > 10:
            base[(prefix, "T1")] = slow
            base[(prefix, "T2")] = fast
        else:
            base[(prefix, "T1")] = fast
            base[(prefix, "T2")] = slow
    return RttModel(base_rtt=base, noise_std=noise_std)


def test_c08_dynamic_routing_gain():
    # 200 rounds: jitter 0 puts rounds at 240s intervals
    schedule = ProbeScheduleSpec(mean_interval=240.0, jitter=0.0,
                                 duration=200 * 240.0, seed=808)
    log = generate_probe_log(schedule, persistent_best_model(noise_std=0.5))
    assert len(log.ticks) == 200

    physical_means = {
        transit: float(np.mean(np_series(log, transit).clean()))
        for transit in log.transits
    }
    dynamic = simulate_dynamic_selection(log, seed=808)
    dynamic_mean = float(np.mean(dynamic.clean()))
    ok_gain = dynamic_mean < min(physical_means.values())

    constant_log = generate_probe_log(schedule, persistent_best_model(noise_std=0.0))
    constant = simulate_dynamic_selection(constant_log, seed=808)
    ok_constant = all(v == 1.0 for v in constant.values)

    verdict(
        "C8 dynamic transit beats all physical transits; exact 1.0 when static",
        ok_gain and ok_constant,
        f"dynamic={dynamic_mean:.4f}, physical="
        + ", ".join(f"{t}={v:.4f}" for t, v in sorted(physical_means.items())),
    )


# --------------------------------------------------------------------------
# 9. dominance and no-lookahead, 1000 randomized instances each
# --------------------------------------------------------------------------


def test_c09_dominance_and_no_lookahead():
    rng = np.random.default_rng(909)
    for _ in range(1_000):
        length = int(rng.integers(1, 30))
        volumes = rng.uniform(0.0, 1000.0, size=length)
        cp = (rng.uniform(size=length) < 0.5).astype(int)
        assert core_volume_score(cp, volumes) <= mean_volume_score(volumes) + 1e-12

    methods = ("mean_volume", "core_presence", "core_volume", "gm11")
    checked = 0
    while checked < 1_000:
        n = int(rng.integers(2, 12))
        bins = int(rng.integers(4, 10))
        values = rng.integers(0, 40, size=(n, bins))
        values[rng.uniform(size=values.shape) < 0.4] = 0
        values[0, 0] = max(int(values[0, 0]), 1)
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=bins)
        m = HourlyTraceMatrix(grid, [synthetic_prefix(k + 1) for k in range(n)], values)
        h = int(rng.integers(1, bins))
        truncated = m.values.copy()
        truncated[:, h:] = 0
        if not truncated.any():
            continue
        m_cut = HourlyTraceMatrix(grid, m.prefixes, truncated)
        config = SelectorConfig(methods[checked % 4], int(rng.integers(1, 8)), 3)
        full_run = run_selection(m, compute_core_profile(m), config)
        cut_run = run_selection(m_cut, compute_core_profile(m_cut), config)
        assert full_run.selected_set(h + 1) == cut_run.selected_set(h + 1)
        checked += 1
    verdict("C9 CV<=MV dominance and no-lookahead on 1000 instances each", True)


# --------------------------------------------------------------------------
# 10. byte-identical pipeline reruns
# --------------------------------------------------------------------------


def run_pipeline(out: Path, flows_csv: Path) -> None:
    out = str(out)
    steps = [
        ["ingest", str(flows_csv), "--start", "0", "--bins", "4",
         "--out", f"{out}/ingested"],
        ["synth", "--prefixes", "100", "--zipf-s", "1.0", "--noise", "0.4",
         "--diurnal", "0.3", "--burst", "90:20:40", "--bins", "36",
         "--seed", "1010", "--out", out],
        ["analyze", "--matrix", f"{out}/matrix.csv", "--out", out],
        ["select", "--matrix", f"{out}/matrix.csv", "--grid", "--out", out],
        ["evaluate", "--matrix", f"{out}/matrix.csv", "--select-dir", out, "--out", out],
        ["probe-synth", "--prefix-count", "5", "--transits", "2",
         "--duration", "4000", "--noise-std", "1.5", "--loss", "0.05",
         "--seed", "1010", "--out", out],
        ["simulate", "--probes", f"{out}/probes.csv", "--seed", "1010", "--out", out],
        ["report", "--matrix", f"{out}/matrix.csv", "--out", out],
    ]
    for step in steps:
        assert cli_main(step) == 0, f"stage failed: {step[0]}"


def test_c10_pipeline_determinism(tmp_path):
    flows = tmp_path / "flows.csv"
    flows.write_text(
        "timestamp,prefix,bytes\n"
        "100,10.0.0.0/8,5000\n"
        "3700,10.1.0.0/16,300\n"
        "7300,10.0.0.0/8,42\n"
        "oops,10.0.0.0/8,1\n"
    )
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    run_pipeline(first, flows)
    run_pipeline(second, flows)

    names_first = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    names_second = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert names_first == names_second and names_first
    differing = [
        name
        for name in names_first
        if (first / name).read_bytes() != (second / name).read_bytes()
    ]
    verdict(
        "C10 full pipeline byte-identical across two seeded runs",
        not differing,
        f"{len(names_first)} files compared",
    )
