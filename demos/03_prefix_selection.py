"""Picking tomorrow's heavy hitters from yesterday's history.

Runs the four selection methods over a grid of history windows and
scores each configuration on hourly volume coverage and set churn.
The interesting trade-off: longer windows barely change mean coverage
but cut churn dramatically, which matters when every set change costs
probing and route updates.
"""

from prefixcast import (
    METHODS,
    WINDOW_GRID,
    SelectorConfig,
    SyntheticTraceSpec,
    TimeGrid,
    compute_core_profile,
    evaluate_run,
    max_core_size,
    run_selection,
    synthesize_trace,
)

grid = TimeGrid(start=0, bin_count=168)
spec = SyntheticTraceSpec(
    prefix_count=800, zipf_s=1.0, noise=0.5, diurnal_amplitude=0.4, seed=21
)
m = synthesize_trace(spec, grid)
profile = compute_core_profile(m, threshold=0.95)

# Selection size fixed to the largest weekly core, the budget a route
# decision engine would have to provision for anyway.
k = max_core_size(profile)
print(f"trace: {len(m)} prefixes; selection size K = {k} (max weekly core)")

print(f"\n{'method':>14} {'L':>4} {'cov mean':>9} {'cov min':>8} "
      f"{'churn mean':>11} {'churn max':>10}")
for method in METHODS:
    for window in WINDOW_GRID:
        run = run_selection(m, profile, SelectorConfig(method, window, k))
        report = evaluate_run(run, m)
        cov, chn = report.coverage_summary, report.churn_summary
        print(f"{method:>14} {window:>4} {cov.mean:9.4f} {cov.min:8.4f} "
              f"{chn.mean:11.2f} {chn.max:10.0f}")
    print()

# A closer look at one configuration's audit trail
config = SelectorConfig("core_volume", 24, k)
run = run_selection(m, profile, config)
hour = 100
print(f"top 5 picks for hour {hour} (core_volume, L=24):")
pos = hour - int(run.hours[0])  # picks and scores are ranked
for i, score in zip(run.picks[pos][:5], run.scores[pos][:5]):
    print(f"  {m.prefixes[i]}  score={score / 1e6:10.1f} MB/h")
print(f"warm-up hours flagged: {int(run.warmup.sum())} of {run.hours.size}")
