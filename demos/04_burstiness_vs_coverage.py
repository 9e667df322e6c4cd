"""Does burstiness predict how hard a network is to cover?

Builds a family of traces with increasing burst activity, selects with
the core-volume method on each, and pairs the burstiness index against
the achieved coverage.  The expected pattern: mean index up, mean
coverage down; max index up, worst-hour coverage down sharply.
"""

from prefixcast import (
    BurstSpec,
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


def bursts(count: int, seed: int) -> tuple:
    """Spread `count` bursts from tail prefixes across the week."""
    out = []
    for i in range(count):
        rank = 300 + (17 * i) % 90          # rarely-core tail prefixes
        hour = 12 + (29 * (i + seed)) % 150
        out.append(BurstSpec(rank=rank, hour=hour, multiplier=2500.0))
    return tuple(out)


mean_points = []   # (mean burstiness index, mean coverage) per trace
worst_points = []  # (max burstiness index, minimum coverage) per trace
labels = []
for level, n_bursts in enumerate((0, 2, 5, 10, 20)):
    spec = SyntheticTraceSpec(
        prefix_count=400,
        zipf_s=1.0,
        noise=0.4,
        bursts=bursts(n_bursts, seed=level),
        seed=33,
    )
    m = synthesize_trace(spec, grid)
    profile = compute_core_profile(m)
    config = SelectorConfig("core_volume", 168, max_core_size(profile))
    report = evaluate_run(run_selection(m, profile, config), m)
    mean_points.append((float(profile.bi.mean()), float(report.coverage.mean())))
    worst_points.append((float(profile.bi.max()), float(report.coverage.min())))
    labels.append(f"{n_bursts:2d} bursts")

print("average level: (mean burstiness index, mean coverage)")
for label, (bi, cov) in zip(labels, mean_points):
    bar = "#" * int(60 * cov)
    print(f"  {label}: BI={bi:7.2f}  cov={cov:.4f}  {bar}")

print("\nworst case: (max burstiness index, minimum coverage)")
for label, (bi, cov) in zip(labels, worst_points):
    bar = "#" * int(60 * cov)
    print(f"  {label}: BI={bi:7.2f}  cov={cov:.4f}  {bar}")

print("\nbursty sites need either bigger selection sets or burst-aware "
      "selection; the index tells you which sites those are.")
